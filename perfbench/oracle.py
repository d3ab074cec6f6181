"""Reference computations for the benchmark's correctness gate.

Nothing here calls the sgisect code the benchmark times: satisfying
assignments are enumerated as bitmasks, words are folded through raw
multiplication tables, SLPs are expanded by their productions, and the words
small SLPs produce come from a brute-force enumeration of their own.
Letter conventions follow the reduction gadgets: for k variables, letter i-1
stands for x_i and letter k+i-1 for its negation.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


@lru_cache(maxsize=None)
def _literal_masks(k: int) -> dict[int, int]:
    # bit a of a mask is set when assignment a makes the literal true; the
    # assignment index reads x1 as its most significant bit.
    full = (1 << (1 << k)) - 1
    masks = {}
    for v in range(1, k + 1):
        m = 0
        for a in range(1 << k):
            if a >> (k - v) & 1:
                m |= 1 << a
        masks[v] = m
        masks[-v] = full ^ m
    return masks


def satisfying_assignments(k: int, clauses) -> list[tuple[int, ...]]:
    """Every satisfying assignment as a bit tuple, in increasing order."""
    masks = _literal_masks(k)
    sat = (1 << (1 << k)) - 1
    for clause in clauses:
        cm = 0
        for lit in clause:
            cm |= masks[lit]
        sat &= cm
    return [tuple(a >> (k - 1 - i) & 1 for i in range(k)) for a in range(1 << k) if sat >> a & 1]


def satisfies(clauses, bits) -> bool:
    return all(any((bits[abs(l) - 1] == 1) == (l > 0) for l in clause) for clause in clauses)


def assignment_word(bits) -> tuple[int, ...]:
    k = len(bits)
    return tuple(i if bits[i] else k + i for i in range(k))


def expected_witness(gadget: str, assignments) -> tuple[int, ...] | None:
    """Shortest, lexicographically least witness of a reduced formula.

    Both gadgets accept exactly the length-k words that pick one polarity per
    variable and satisfy every clause.  The counting gadget is commutative, so
    any order of those letters works and the least is the sorted one; the
    interval gadget fixes the order x_1..x_k.
    """
    if not assignments:
        return None
    if gadget == "unbounded":
        return min(tuple(sorted(assignment_word(a))) for a in assignments)
    return min(assignment_word(a) for a in assignments)


def fold(table, images, word) -> int:
    acc = images[word[0]]
    for a in word[1:]:
        acc = table[acc][images[a]]
    return acc


def expand_slp(rhs, start: int) -> tuple[int, ...]:
    """The word an SLP produces; symbols < 0 reference variable -(s+1)."""
    memo: dict[int, tuple[int, ...]] = {}

    def word(v: int) -> tuple[int, ...]:
        if v not in memo:
            out: list[int] = []
            for s in rhs[v]:
                out.extend(word(-s - 1) if s < 0 else (s,))
            memo[v] = tuple(out)
        return memo[v]

    return word(start)


@lru_cache(maxsize=None)
def slp_words(alphabet_size: int, max_size: int) -> tuple[tuple[int, ...], ...]:
    """Every word some SLP of size <= max_size produces, shortest first.

    Brute force over all SLPs whose start is X0 and whose variables refer
    only to higher-numbered ones: the variables an acyclic SLP reaches from
    its start can always be numbered so.  Size is the summed length of the
    right-hand sides, so every word of length <= max_size is among them, and
    so are a few longer ones such as (ab)^3 = X0 -> X1 X1 X1, X1 -> a b.
    """

    def bodies(i: int, v: int, budget: int):
        if i == v:
            yield ()
            return
        pool = list(range(alphabet_size)) + [-(j + 1) for j in range(i + 1, v)]
        for length in range(1, budget - (v - i - 1) + 1):
            for body in itertools.product(pool, repeat=length):
                for rest in bodies(i + 1, v, budget - length):
                    yield (body,) + rest

    words = {expand_slp(rhs, 0) for v in range(1, max_size + 1) for rhs in bodies(0, v, max_size)}
    return tuple(sorted(words, key=lambda w: (len(w), w)))


def slp_witness_length(alphabet_size: int, max_size: int, constraints) -> int | None:
    """Length of the shortest word that an SLP of size <= max_size produces
    and every (table, images, accept) accepts; None when there is none."""
    for w in slp_words(alphabet_size, max_size):
        if all(fold(table, images, w) in accept for table, images, accept in constraints):
            return len(w)
    return None


def family_table(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Multiplication table of a family semigroup, from the family's definition."""
    if family == "mincap":  # values 1..n under min(i+j, n); value v is element v-1
        return tuple(tuple(min(i + j + 2, n) - 1 for j in range(n)) for i in range(n))
    if family == "leftzero":
        return tuple((i,) * n for i in range(n))
    if family == "rightzero":
        return (tuple(range(n)),) * n
    if family == "cyclic":
        return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    raise ValueError(f"no table for family {family!r}")


def family_facts(family: str, n: int) -> dict[str, object]:
    """Classification fields that follow from a family's definition."""
    if family == "mincap":
        # values 1..n under min(i+j, n): the cap n is the only idempotent and
        # the zero; x1..xk * z * yk..y1 and x1..xk * yk..y1 both reach the cap
        # exactly when 2k >= n.
        return {"is_commutative": True, "is_group": False, "is_nilpotent": True,
                "is_li": True, "li_degree": (n + 1) // 2}
    if family in ("leftzero", "rightzero"):
        return {"is_commutative": False, "is_group": False, "is_nilpotent": False,
                "is_li": True, "li_degree": 1}
    if family == "cyclic":
        return {"is_commutative": True, "is_group": True, "is_nilpotent": False,
                "is_li": False, "li_degree": None}
    if family == "nilinterval":
        return {"is_commutative": False, "is_group": False, "is_nilpotent": True,
                "is_li": True, "is_a2n": True}
    raise ValueError(f"unknown family {family!r}")
