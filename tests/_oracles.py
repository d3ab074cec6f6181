"""Independent reference implementations used to cross-check the library.

Everything here recomputes results by definition-level enumeration (raw word
enumeration, raw tuple enumeration) rather than going through the library's
search shortcuts, so the two sides of each test stay independent.
"""

from __future__ import annotations

import itertools

from sgisect.core import Morphism, Semigroup, subsemigroup_closure
from sgisect.families import (cyclic, leftzero, mincap, nilinterval, rightzero,
                              sub_semigroup)
from sgisect.core import direct_product
from sgisect.solve import Constraint, Instance


def fold(S: Semigroup, seq) -> int:
    seq = list(seq)
    acc = seq[0]
    for x in seq[1:]:
        acc = S.table[acc][x]
    return acc


def first_nonassociative_triple(table):
    """The lexicographically first (x, y, z) with (x*y)*z != x*(y*z), or None."""
    n = len(table)
    for x, y, z in itertools.product(range(n), repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return (x, y, z)
    return None


def words_in_order(alphabet_size: int, max_len: int):
    """All non-empty words up to max_len, shortest first, lexicographic within a length."""
    for length in range(1, max_len + 1):
        yield from itertools.product(range(alphabet_size), repeat=length)


def solve_by_word_enumeration(instance: Instance, max_len: int):
    """First witness in (length, lex) order, or None if none exists up to max_len."""
    hs = [c.morphism for c in instance.constraints]
    accepts = [c.accept for c in instance.constraints]
    tables = [h.target.table for h in hs]
    for word in words_in_order(instance.alphabet_size, max_len):
        ok = True
        for h, accept, t in zip(hs, accepts, tables):
            acc = h.images[word[0]]
            for a in word[1:]:
                acc = t[acc][h.images[a]]
            if acc not in accept:
                ok = False
                break
        if ok:
            return word
    return None


def li_k_holds_by_full_tuples(S: Semigroup, k: int) -> bool:
    """The degree-k equation checked over every raw (2k+1)-tuple."""
    t = S.table
    n = S.size
    for tup in itertools.product(range(n), repeat=2 * k + 1):
        p = fold(S, tup[:k])
        z = tup[k]
        q = fold(S, tup[k + 1:])
        if t[t[p][z]][q] != t[p][q]:
            return False
    return True


def ktuple_product_values(S: Semigroup, k: int) -> set[int]:
    """Values of x_1*...*x_k over every raw k-tuple, via a DFS over prefixes.

    Every leaf of the DFS is one k-tuple; values are folded left to right with
    no deduplication along the way, so this stays a tuple enumeration (cost
    n + n^2 + ... + n^k), unlike the library's iterated set products.
    """
    t = S.table
    n = S.size
    out: set[int] = set()
    stack = [(x, 1) for x in range(n)]
    while stack:
        val, length = stack.pop()
        if length == k:
            out.add(val)
            continue
        row = t[val]
        for s in range(n):
            stack.append((row[s], length + 1))
    return out


def li_k_holds_by_ktuples(S: Semigroup, k: int) -> bool:
    t = S.table
    n = S.size
    values = ktuple_product_values(S, k)
    return all(t[t[p][z]][q] == t[p][q]
               for p in values for z in range(n) for q in values)


def is_group_definitional(S: Semigroup) -> bool:
    """A neutral element e, and for every x some y with x*y == e == y*x."""
    t = S.table
    n = S.size
    e = next((e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))), None)
    if e is None:
        return False
    return all(any(t[x][y] == e == t[y][x] for y in range(n)) for x in range(n))


def li_degree_definitional(S: Semigroup, full_tuples: bool = False):
    """Least degree k <= size+1 passing the definitional check, else None."""
    check = li_k_holds_by_full_tuples if full_tuples else li_k_holds_by_ktuples
    for k in range(1, S.size + 2):
        if check(S, k):
            return k
    return None


# -- randomized generators over the constructive families --------------------------

def random_morphism(rng, S: Semigroup, alphabet_size: int) -> Morphism:
    return Morphism(tuple(rng.randrange(S.size) for _ in range(alphabet_size)), S)


def random_accept(rng, S: Semigroup, allow_empty: bool = False) -> frozenset[int]:
    low = 0 if allow_empty else 1
    count = rng.randint(low, S.size)
    return frozenset(rng.sample(range(S.size), count))


def random_instance(rng, semigroups, alphabet_size: int,
                    allow_empty_accept: bool = False) -> Instance:
    names = tuple(f"a{i}" for i in range(alphabet_size))
    constraints = tuple(
        Constraint(random_morphism(rng, S, alphabet_size),
                   random_accept(rng, S, allow_empty_accept))
        for S in semigroups)
    return Instance(names, constraints)


def base_pool_for_subsemigroups() -> list[Semigroup]:
    pool = [mincap(m) for m in range(4, 13)]
    pool += [cyclic(n) for n in (4, 5, 6, 8, 9, 12)]
    pool += [leftzero(6), rightzero(6), nilinterval(3), nilinterval(4)]
    pool.append(direct_product([cyclic(2), cyclic(2)])[0])
    pool.append(direct_product([mincap(2), mincap(2)])[0])
    pool.append(direct_product([mincap(3), leftzero(2)])[0])
    return pool


def sample_size4_subsemigroups(rng, count: int) -> list[Semigroup]:
    bases = base_pool_for_subsemigroups()
    out: list[Semigroup] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("size-4 subsemigroups are too rare in the base pool")
        S = rng.choice(bases)
        gens = rng.sample(range(S.size), rng.randint(1, min(4, S.size)))
        closure = subsemigroup_closure(S, gens)
        if len(closure) == 4:
            out.append(sub_semigroup(S, closure)[0])
    return out


def random_slp(rng, alphabet_size: int, max_size: int):
    """A valid random SLP (references point to higher variable indices only)."""
    from sgisect.slp import Slp, var_ref

    v = rng.randint(1, min(3, max_size))
    sizes = [1] * v
    for _ in range(rng.randint(0, max_size - v)):
        sizes[rng.randrange(v)] += 1
    rhs = []
    for i in range(v):
        pool = list(range(alphabet_size)) + [var_ref(j) for j in range(i + 1, v)]
        rhs.append(tuple(rng.choice(pool) for _ in range(sizes[i])))
    return Slp(alphabet_size, tuple(rhs), 0)


def random_formula(rng, max_vars: int, max_clauses: int):
    from sgisect.reductions import CnfFormula

    k = rng.randint(1, max_vars)
    n = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(n):
        width = rng.randint(1, min(3, k))
        variables = rng.sample(range(1, k + 1), width)
        clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(k, tuple(clauses))
