"""Independent reference implementations used to cross-check the library.

Everything here recomputes results by definition-level enumeration (raw word
enumeration, raw tuple enumeration) rather than going through the library's
search shortcuts, so the two sides of each test stay independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from sgisect.core import Morphism, Semigroup, subsemigroup_closure
from sgisect.families import (cyclic, leftzero, mincap, nilinterval, rightzero,
                              sub_semigroup)
from sgisect.core import direct_product
from sgisect.solve import EMPTY, SATISFIABLE, Constraint, Instance


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


def direct_product_definitional(factors) -> tuple[Semigroup, list[tuple[int, ...]]]:
    """``core.direct_product`` as a plain loop over element tuples, row-major in the factors."""
    factors = list(factors)
    sizes = [f.size for f in factors]
    strides = [1] * len(sizes)  # stride[i] = product of sizes[i+1:]
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    k = len(factors)
    comps = []
    for idx in range(strides[0] * sizes[0]):
        rem, tup = idx, []
        for i in range(k):
            tup.append(rem // strides[i])
            rem %= strides[i]
        comps.append(tuple(tup))
    rows = tuple(tuple(sum(strides[i] * factors[i].table[xc[i]][yc[i]] for i in range(k)) for yc in comps)
                 for xc in comps)
    labels = None
    if all(f.labels is not None for f in factors):
        labels = tuple("(" + ",".join(factors[i].labels[c[i]] for i in range(k)) + ")" for c in comps)
    return Semigroup(rows, labels), [tuple(c[i] for c in comps) for i in range(k)]


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


def live_elements(instance: Instance) -> list[set[int]]:
    """Each constraint's live elements, by the definition: x is live when x,
    or x times some product of letter images, is accepted.  Rounds of "some
    letter image takes x to a live element" run until one adds nothing."""
    A = instance.alphabet_size
    lives = []
    for c in instance.constraints:
        t, imgs = c.semigroup.table, c.morphism.images
        live = set(c.accept)
        grown = True
        while grown:
            more = {x for x in range(len(t)) if any(t[x][imgs[a]] in live for a in range(A))}
            grown = not more <= live
            live |= more
        lives.append(live)
    return lives


def length_sets(instance: Instance, horizon: int) -> list[list[set[int]]]:
    """Each constraint's completion lengths, by the definition: for each
    element x, then the empty word, the lengths t < ``horizon`` of the words
    that take it into the accept set, plus ``horizon`` when some word of
    length >= ``horizon`` does.

    The words of length t >= 1 take x to x p for each p in P_t, the images
    of those words, which are the empty word's reach set; P_t is grown one
    letter at a time, from ``horizon`` on until it repeats, since each set
    fixes the next.  This is done once per distinct (table, image set,
    accept set, horizon) in a call, and the lengths of x are read off the
    elements p with x p accepted."""
    out, memo = [], {}
    for c in instance.constraints:
        S, images, accept = c.semigroup, frozenset(c.morphism.images), c.accept
        key = (S, images, accept, horizon)
        if key not in memo:
            t, n = S.table, S.size
            per = [{0} if x in accept else set() for x in range(n)] + [set()]  # n: the empty word
            into = [{x for x in range(n) if t[x][p] in accept} for p in range(n)]  # x with x p accepted
            reach, length, seen = images, 1, set()
            while length < horizon or reach not in seen:
                if length >= horizon:
                    seen.add(reach)
                for x in set().union(*(into[p] for p in reach)) | ({n} if reach & accept else set()):
                    per[x].add(min(length, horizon))
                reach = frozenset(t[p][a] for p in reach for a in images)
                length += 1
            memo[key] = per
        out.append(memo[key])
    return out


def bfs_reference(instance: Instance, depth_cap: int | None = None, horizon: int = 0):
    """The engine's search as a plain tuple BFS, with no commutation rule.

    Pruning and first discovery as in ``solve._bfs``, every (tuple, letter)
    pair whose successor's components share a completion length (see
    ``length_sets``; at horizon 0, whose components are all live) generated
    in parent-major, letter-minor order, and nothing else.  Returns (status,
    word, states, depth, complete, candidates, new states per depth) with
    the meanings of ``SolveResult`` and ``SolveStats``; ``candidates``
    counts every such pair, so it is the engine's count with no pair
    dropped by the commutation rule.
    """
    A = instance.alphabet_size
    tables = [c.semigroup.table for c in instance.constraints]
    images = [c.morphism.images for c in instance.constraints]
    lengths = length_sets(instance, horizon)

    def succ_of(tup, a):
        if tup is None:
            return tuple(imgs[a] for imgs in images)
        return tuple(t[x][imgs[a]] for t, imgs, x in zip(tables, images, tup))

    visited = set()
    layer = [(None, ())]  # (tuple, word); None is the empty word
    depth = candidates = 0
    news = []
    while depth_cap is None or depth < depth_cap:
        nxt = []
        for tup, word in layer:
            for a in range(A):
                succ = succ_of(tup, a)
                if set.intersection(*(per[s] for s, per in zip(succ, lengths))):
                    candidates += 1
                    if succ not in visited:
                        visited.add(succ)
                        nxt.append((succ, word + (a,)))
        if not nxt:
            return (EMPTY, None, len(visited), depth, True, candidates, news)
        news.append(len(nxt))
        layer = nxt
        depth += 1
        for tup, word in layer:
            if all(x in c.accept for x, c in zip(tup, instance.constraints)):
                return (SATISFIABLE, word, len(visited), depth, True, candidates, news)
    return (EMPTY, None, len(visited), depth, False, candidates, news)


def commuting_letter_pairs(instance: Instance) -> set[tuple[int, int]]:
    """Letter pairs a < b with h(a)h(b) == h(b)h(a) under every morphism."""
    return {(a, b) for a, b in itertools.combinations(range(instance.alphabet_size), 2)
            if all(c.semigroup.table[c.morphism.images[a]][c.morphism.images[b]]
                   == c.semigroup.table[c.morphism.images[b]][c.morphism.images[a]]
                   for c in instance.constraints)}


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


def is_commutative_definitional(S: Semigroup) -> bool:
    """x*y == y*x for every pair x < y."""
    t = S.table
    n = S.size
    return all(t[x][y] == t[y][x] for x in range(n) for y in range(x + 1, n))


def is_a2n_definitional(S: Semigroup) -> bool:
    """x*x*y == x*x == y*x*x for all x, y."""
    t = S.table
    n = S.size
    for x in range(n):
        xx = t[x][x]
        txx = t[xx]
        for y in range(n):
            if txx[y] != xx or t[y][xx] != xx:
                return False
    return True


def is_group_definitional(S: Semigroup) -> bool:
    """A neutral element e, and for every x some y with x*y == e == y*x."""
    t = S.table
    n = S.size
    e = next((e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))), None)
    if e is None:
        return False
    return all(any(t[x][y] == e == t[y][x] for y in range(n)) for x in range(n))


def is_nilpotent_definitional(S: Semigroup) -> bool:
    """A zero z with x**n == z for every x, n = |S|: every element is nilpotent."""
    t = S.table
    n = S.size
    z = next((z for z in range(n) if all(t[z][x] == z == t[x][z] for x in range(n))), None)
    return z is not None and all(fold(S, [x] * n) == z for x in range(n))


# The reference netlist: a wire is ("in", i), ("g", i) or CONST0, and each
# gate input is a (wire, negated) pair.
CONST0 = ("c", 0)


@dataclass(frozen=True)
class Gate:
    op: str  # "AND" | "OR"
    inputs: tuple  # ((wire, negated), ...)


def runs_read_earlier_wires(C) -> bool:
    """Whether each maximal run of one op in a ``BooleanCircuit`` reads only
    wires below its first gate's wire, gate by gate."""
    op, src, ptr = C.op.tolist(), C.src.tolist(), C.indptr.tolist()
    first = 0  # first gate of the current run
    for g in range(C.size):
        if op[g] != op[first]:
            first = g
        if any(w >= C.input_count + 1 + first for w in src[ptr[g]:ptr[g + 1]]):
            return False
    return True


def circuit_depth(C) -> int:
    """Longest path to an output over a ``BooleanCircuit``'s wire ids, gate by
    gate; inputs and the constant wire sit at depth 0."""
    depths = [0] * (C.input_count + 1)
    src, ptr = C.src.tolist(), C.indptr.tolist()
    for g in range(C.size):
        depths.append(1 + max(depths[w] for w in src[ptr[g]:ptr[g + 1]]))
    return max(depths[w] for w in C.outputs)


@dataclass(frozen=True)
class ReferenceCircuit:
    """The netlist as ``Gate`` objects only, as ``slp_to_circuit_reference`` builds it."""

    n: int
    alphabet_size: int
    bits: int
    gates: tuple
    outputs: tuple
    depth: int

    @property
    def size(self) -> int:
        return len(self.gates)

    @property
    def table_bit_count(self) -> int:
        return self.n * self.n * self.bits

    @property
    def image_bit_count(self) -> int:
        return self.alphabet_size * self.bits


def slp_to_circuit_reference(G, h: Morphism) -> ReferenceCircuit:
    """``slp_to_circuit`` built one ``Gate`` at a time, gadget by gadget."""
    from sgisect.circuits import element_bits
    from sgisect.slp import _topo_reachable, is_var_ref, ref_target

    n = h.target.size
    m = h.alphabet_size
    bits = (n - 1).bit_length() if n > 1 else 0
    if bits == 0:
        return ReferenceCircuit(n, m, 0, (), ((CONST0, False),), 0)

    gates = []

    def add(op, inputs):
        gates.append(Gate(op, tuple(inputs)))
        return ("g", len(gates) - 1)

    def lookup(a):
        layer = []
        for letter in range(m):
            srcs = [("in", (n * n + letter) * bits + k) for k in range(bits)]
            layer.append([add("AND", [(src, False)] if letter == a else [(src, False), (src, True)])
                          for src in srcs])
        return [(add("OR", [(layer[letter][k], False) for letter in range(m)]), False)
                for k in range(bits)]

    def selectors(w):
        return [[(wire, neg ^ (bit == 0)) for (wire, neg), bit in zip(w, element_bits(p, bits))]
                for p in range(n)]

    def mult(xw, yw):
        xsel, ysel = selectors(xw), selectors(yw)
        per_bit_sources = [[] for _ in range(bits)]
        for p in range(n):
            for q in range(n):
                selector = xsel[p] + ysel[q]
                base = (p * n + q) * bits
                for k in range(bits):
                    per_bit_sources[k].append(add("AND", [(("in", base + k), False), *selector]))
        return [(add("OR", [(g, False) for g in per_bit_sources[k]]), False) for k in range(bits)]

    values = {}
    for v in _topo_reachable(G):
        acc = None
        for sym in G.rhs[v]:
            wires, d = values[ref_target(sym)] if is_var_ref(sym) else (lookup(sym), 2)
            acc = (wires, d) if acc is None else (mult(acc[0], wires), max(acc[1], d) + 2)
        values[v] = acc
    outputs, depth = values[G.start]
    return ReferenceCircuit(n, m, bits, tuple(gates), tuple(outputs), depth)


def circuit_eval_reference(R, table_bits, image_bits) -> int:
    """Evaluate ``R.gates`` one gate at a time over a dict of wire values."""
    values = {("in", i): v for i, v in enumerate(list(table_bits) + list(image_bits))}
    values[CONST0] = 0
    for i, gate in enumerate(R.gates):
        test = all if gate.op == "AND" else any
        values[("g", i)] = test(values[w] != neg for w, neg in gate.inputs)
    result = 0
    for wire, neg in R.outputs:
        result = (result << 1) | (values[wire] != neg)
    return result


def serialize_circuit_reference(R) -> str:
    """``serialize_circuit_text``'s netlist dump, printed from ``R.gates``."""
    def token(wire, neg: bool) -> str:
        tok = {"in": f"in{wire[1]}", "g": f"g{wire[1]}", "c": "const0"}[wire[0]]
        return ("!" + tok) if neg else tok

    lines = ["CIRCUIT 1", f"N {R.n}", f"ALPHABET {R.alphabet_size}", f"BITS {R.bits}",
             f"TABLEBITS {R.table_bit_count}", f"IMAGEBITS {R.image_bit_count}"]
    for i, gate in enumerate(R.gates):
        lines.append(f"GATE g{i} {gate.op} " + " ".join(token(w, neg) for w, neg in gate.inputs))
    lines += [f"OUTPUT {token(w, neg)}" for w, neg in R.outputs]
    lines += [f"SIZE {R.size}", f"DEPTH {R.depth}"]
    return "".join(line + "\n" for line in lines)


def canonical_bodies_by_filter(alphabet_size: int, size: int):
    """Canonical right-hand sides with ``size`` symbols: every product of
    per-variable bodies, kept when every variable but X0 is referenced."""
    from sgisect.slp import _compositions, is_var_ref, ref_target, var_ref

    letters = list(range(alphabet_size))
    for v in range(1, size + 1):
        for comp in _compositions(size, v):
            pools = [letters + [var_ref(j) for j in range(i + 1, v)] for i in range(v)]
            per_var = [list(itertools.product(pools[i], repeat=comp[i])) for i in range(v)]
            for bodies in itertools.product(*per_var):
                used = {ref_target(s) for body in bodies for s in body if is_var_ref(s)}
                if len(used) == v - 1:
                    yield bodies


def first_enumerated_slp(instance: Instance, size_bound: int):
    """(G, i): the first SLP of ``enumerate_slps`` whose image every constraint
    accepts, and its 1-based index; (None, count of SLPs of size <= size_bound)
    when there is none.  One ``slp_image`` per SLP per constraint, no memo."""
    from sgisect.slp import enumerate_slps, slp_image

    i = 0
    for i, G in enumerate(enumerate_slps(instance.alphabet_size, size_bound), 1):
        if all(slp_image(G, c.morphism) in c.accept for c in instance.constraints):
            return G, i
    return None, i


def li_degree_definitional(S: Semigroup, full_tuples: bool = False):
    """Least degree k <= size+1 passing the definitional check, else None."""
    check = li_k_holds_by_full_tuples if full_tuples else li_k_holds_by_ktuples
    for k in range(1, S.size + 2):
        if check(S, k):
            return k
    return None


# -- per-entry builders and writers: one Python step per table entry ---------------

def mincap_reference(k: int) -> Semigroup:
    table = tuple(tuple(min(i + j + 2, k) - 1 for j in range(k)) for i in range(k))
    return Semigroup(table, tuple(str(v + 1) for v in range(k)))


def leftzero_reference(n: int) -> Semigroup:
    return Semigroup(tuple(tuple(i for _ in range(n)) for i in range(n)))


def rightzero_reference(n: int) -> Semigroup:
    return Semigroup(tuple(tuple(j for j in range(n)) for _ in range(n)))


def cyclic_reference(n: int) -> Semigroup:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return Semigroup(table, tuple(str(i) for i in range(n)))


def nilinterval_reference(k: int) -> Semigroup:
    n = k * (k + 1) // 2 + 1
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i, k + 1)]
    index = {p: c + 1 for c, p in enumerate(pairs)}  # 0 is the zero element

    def mul(a, b):
        if a == 0 or b == 0:
            return 0
        i, j = pairs[a - 1]
        i2, j2 = pairs[b - 1]
        if i2 == j + 1:
            return index[(i, j2)]
        return 0

    table = tuple(tuple(mul(a, b) for b in range(n)) for a in range(n))
    labels = ("0",) + tuple(f"({i},{j})" for i, j in pairs)
    return Semigroup(table, labels)


FAMILY_REFERENCES = {"mincap": mincap_reference, "leftzero": leftzero_reference,
                     "rightzero": rightzero_reference, "cyclic": cyclic_reference,
                     "nilinterval": nilinterval_reference}


def serialize_table_text_reference(S: Semigroup) -> str:
    return "".join(" ".join(str(v) for v in row) + "\n" for row in S.table)


def _bits_reference(values, n: int) -> list[int]:
    bits = (n - 1).bit_length() if n > 1 else 0
    out: list[int] = []
    for v in values:
        out.extend((v >> (bits - 1 - k)) & 1 for k in range(bits))
    return out


def table_bits_reference(S: Semigroup) -> list[int]:
    return _bits_reference((v for row in S.table for v in row), S.size)


def image_bits_reference(h: Morphism) -> list[int]:
    return _bits_reference(h.images, h.target.size)


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


def validate_slp_cycle_reference(alphabet_size: int, rhs, start: int):
    """The cycle ``validate_slp`` reports, or None: one search from each
    variable in turn, each starting afresh."""
    from sgisect.slp import Slp, SlpCycleError, _topo_reachable

    G = Slp(alphabet_size, tuple(map(tuple, rhs)), start)
    for v in range(G.variable_count):
        try:
            _topo_reachable(Slp(alphabet_size, G.rhs, v))
        except SlpCycleError as exc:
            return exc.cycle
    return None


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
