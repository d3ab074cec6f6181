"""Finite semigroups given by multiplication tables, plus morphisms from free semigroups.

Elements are 0-based indices into an n x n table: ``table[x][y]`` is the product
x*y.  Everything is immutable after construction and every function is pure, so
values can be shared freely across threads.

The cubic table kernels (the associativity check here, the local-triviality
checks in ``varieties``) and the BFS engine read ``Semigroup.array``, a
read-only numpy copy of the table.  It is built on first access and cached on
the instance, so a semigroup that no kernel reads never pays for it.  Threads
racing on the first access may compute the array twice
(``functools.cached_property`` takes no lock from Python 3.12 on); the copies
are equal and read-only, so keeping either is correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEFAULT_PRODUCT_CAP = 1 << 24
ASSOC_BLOCK_CELLS = 1 << 16  # cells in each (x, y, z) block of check_associative


class AssociativityError(ValueError):
    """A table violates (x*y)*z == x*(y*z); carries the first offending triple."""

    def __init__(self, x: int, y: int, z: int):
        super().__init__(f"associativity violated at triple ({x}, {y}, {z})")
        self.triple = (x, y, z)


@dataclass(frozen=True)
class Semigroup:
    """A finite semigroup; use :func:`check_associative` as the validating constructor.

    Direct construction checks shape and entry ranges only.  Code that builds
    tables which are associative by construction (direct products, local
    monoids) may instantiate directly.
    """

    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        table = tuple(tuple(map(int, row)) for row in self.table)
        object.__setattr__(self, "table", table)
        n = len(table)
        if n == 0:
            raise ValueError("a semigroup is non-empty")
        for x, row in enumerate(table):
            if len(row) != n:
                raise ValueError(f"table not square: row {x} has {len(row)} entries, expected {n}")
            if min(row) < 0 or max(row) >= n:
                y = next(y for y, v in enumerate(row) if not 0 <= v < n)
                raise ValueError(f"entry {row[y]} at ({x}, {y}) out of range 0..{n - 1}")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels for {n} elements")
            object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.table)

    @cached_property
    def array(self) -> np.ndarray:
        """The table as a read-only (n, n) array of the smallest unsigned dtype holding n-1.

        Built on first access and kept on the instance; it is not a field, so
        equality and hashing see only ``table``.  The compact dtype keeps the
        cache small: arithmetic on it wraps, so callers widen before adding.
        """
        a = np.array(self.table, dtype=np.min_scalar_type(len(self.table) - 1))
        a.flags.writeable = False
        return a

    def elements(self) -> range:
        return range(len(self.table))

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)


@dataclass(frozen=True)
class Morphism:
    """A map A+ -> target, determined freely by one image per letter."""

    images: tuple[int, ...]
    target: Semigroup

    def __post_init__(self):
        images = tuple(int(v) for v in self.images)
        object.__setattr__(self, "images", images)
        if not images:
            raise ValueError("a morphism needs at least one letter")
        n = self.target.size
        for a, v in enumerate(images):
            if not 0 <= v < n:
                raise ValueError(f"image {v} of letter {a} out of range 0..{n - 1}")

    @property
    def alphabet_size(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class DistinguishedElements:
    idempotents: frozenset[int]
    zero: int | None
    neutral: int | None


def check_associative(table, labels=None) -> Semigroup:
    """Validate a raw table and return the Semigroup.

    Shape and range problems raise ValueError naming the position; an
    associativity failure raises AssociativityError with the lexicographically
    first violating triple.

    Every triple is checked, a block of x rows at a time: for rows xs the
    arrays ``T[T[xs]]`` ((x*y)*z) and ``T[xs][:, T]`` (x*(y*z)) are indexed
    [x, y, z] in C order, and blocks go in increasing x, so the first mismatch
    ``argmax`` finds in the first block that has one is the lexicographically
    first violating triple.
    """
    sg = Semigroup(table, labels)
    T = sg.array
    n = sg.size
    rows = max(1, ASSOC_BLOCK_CELLS // (n * n))
    for lo in range(0, n, rows):
        block = T[lo:lo + rows]
        bad = T.take(block, axis=0) != block.take(T, axis=1)  # take: ~3x faster than []
        if bad.any():
            x, y, z = np.unravel_index(int(bad.argmax()), bad.shape)
            raise AssociativityError(lo + int(x), int(y), int(z))
    return sg


def multiply(S: Semigroup, x: int, y: int) -> int:
    n = S.size
    if not 0 <= x < n:
        raise IndexError(f"element {x} out of range 0..{n - 1}")
    if not 0 <= y < n:
        raise IndexError(f"element {y} out of range 0..{n - 1}")
    return S.table[x][y]


def power(S: Semigroup, x: int, e: int) -> int:
    """x**e by square-and-multiply; e may be an arbitrarily large positive int."""
    if e < 1:
        raise ValueError("exponent must be >= 1 (semigroups have no empty product)")
    n = S.size
    if not 0 <= x < n:
        raise IndexError(f"element {x} out of range 0..{n - 1}")
    t = S.table
    acc = None
    base = x
    while True:
        if e & 1:
            acc = base if acc is None else t[acc][base]
        e >>= 1
        if not e:
            break
        base = t[base][base]
    return acc


def distinguished_elements(S: Semigroup) -> DistinguishedElements:
    """Idempotents, the zero element and the neutral element (when they exist)."""
    t = S.table
    n = S.size
    idem = frozenset(x for x in range(n) if t[x][x] == x)
    zero = next((z for z in range(n) if all(t[z][x] == z == t[x][z] for x in range(n))), None)
    neutral = next((e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))), None)
    return DistinguishedElements(idem, zero, neutral)


def monogenic_orders(S: Semigroup) -> tuple[tuple[int, ...], int]:
    """Cardinality of the subsemigroup generated by each element, and the maximum."""
    t = S.table
    orders = []
    for s in range(S.size):
        seen = set()
        cur = s
        while cur not in seen:
            seen.add(cur)
            cur = t[cur][s]
        orders.append(len(seen))
    return tuple(orders), max(orders)


def sub_semigroup(S: Semigroup, elements) -> tuple[Semigroup, tuple[int, ...]]:
    """Reindex a product-closed subset of S as a semigroup of its own.

    Returns (T, elems) with elems the sorted subset and elems[i] the element
    of S behind index i of T; labels carry over.
    """
    elems = sorted(set(elements))
    if not elems:
        raise ValueError("need at least one element")
    if elems[0] < 0 or elems[-1] >= S.size:
        raise IndexError(f"elements must lie in 0..{S.size - 1}")
    index = {x: i for i, x in enumerate(elems)}
    t = S.table
    rows = []
    for x in elems:
        row = []
        for y in elems:
            p = t[x][y]
            if p not in index:
                raise ValueError(f"set is not closed: {x}*{y} = {p} escapes")
            row.append(index[p])
        rows.append(tuple(row))
    labels = tuple(S.labels[x] for x in elems) if S.labels is not None else None
    return Semigroup(tuple(rows), labels), tuple(elems)


def local_monoid(S: Semigroup, e: int) -> tuple[Semigroup, tuple[int, ...]]:
    """The monoid e*S*e with neutral element e, plus the element mapping.

    Returns (M, elems) where elems[i] is the element of S represented by
    index i of M.
    """
    t = S.table
    n = S.size
    if not 0 <= e < n:
        raise IndexError(f"element {e} out of range 0..{n - 1}")
    if t[e][e] != e:
        raise ValueError(f"element {e} is not idempotent")
    return sub_semigroup(S, {t[t[e][x]][e] for x in range(n)})


def subsemigroup_closure(S: Semigroup, gens) -> frozenset[int]:
    """Smallest product-closed subset containing the generators."""
    gens = set(gens)
    if not gens:
        raise ValueError("at least one generator required")
    t = S.table
    n = S.size
    for g in gens:
        if not 0 <= g < n:
            raise IndexError(f"generator {g} out of range 0..{n - 1}")
    closed = set(gens)
    queue = list(gens)
    while queue:
        x = queue.pop()
        for y in list(closed):
            for p in (t[x][y], t[y][x]):
                if p not in closed:
                    closed.add(p)
                    queue.append(p)
    return frozenset(closed)


def _mixed_radix(sizes: list[int]) -> list[int]:
    # stride[i] = product of sizes[i+1:], so tuples map to indices row-major
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    return strides


def direct_product(factors, cap: int = DEFAULT_PRODUCT_CAP) -> tuple[Semigroup, list[tuple[int, ...]]]:
    """Componentwise product of the factors, plus one projection table per factor.

    Element (x_1, ..., x_k) gets index sum(stride_i * x_i) with the last factor
    varying fastest; projections[i][idx] recovers component i.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("at least one factor required")
    sizes = [f.size for f in factors]
    total = 1
    for s in sizes:
        total *= s
        if total > cap:
            raise ValueError(f"product size exceeds cap {cap}")
    strides = _mixed_radix(sizes)
    k = len(factors)

    comps = []
    for idx in range(total):
        rem = idx
        tup = []
        for i in range(k):
            tup.append(rem // strides[i])
            rem %= strides[i]
        comps.append(tuple(tup))

    tables = [f.table for f in factors]
    rows = []
    for xc in comps:
        row = []
        for yc in comps:
            idx = 0
            for i in range(k):
                idx += strides[i] * tables[i][xc[i]][yc[i]]
            row.append(idx)
        rows.append(tuple(row))

    labels = None
    if all(f.labels is not None for f in factors):
        labels = tuple("(" + ",".join(factors[i].labels[c[i]] for i in range(k)) + ")" for c in comps)
    projections = [tuple(c[i] for c in comps) for i in range(k)]
    return Semigroup(tuple(rows), labels), projections


def apply_morphism(h: Morphism, word) -> int:
    """Image of a non-empty word (sequence of letter indices) under h."""
    word = list(word)
    if not word:
        raise ValueError("the free semigroup A+ has no empty word")
    imgs = h.images
    m = len(imgs)
    for a in word:
        if not 0 <= a < m:
            raise IndexError(f"letter {a} out of range 0..{m - 1}")
    t = h.target.table
    acc = imgs[word[0]]
    for a in word[1:]:
        acc = t[acc][imgs[a]]
    return acc


def product_morphism(hs, cap: int = DEFAULT_PRODUCT_CAP) -> Morphism:
    """Combine morphisms over one alphabet into a morphism to the direct product."""
    hs = list(hs)
    if not hs:
        raise ValueError("at least one morphism required")
    m = hs[0].alphabet_size
    for i, h in enumerate(hs):
        if h.alphabet_size != m:
            raise ValueError(f"alphabet mismatch: morphism {i} has {h.alphabet_size} letters, expected {m}")
    prod, _ = direct_product([h.target for h in hs], cap)
    strides = _mixed_radix([h.target.size for h in hs])
    images = tuple(sum(strides[i] * hs[i].images[a] for i in range(len(hs))) for a in range(m))
    return Morphism(images, prod)
