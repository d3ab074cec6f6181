"""Finite semigroups given by multiplication tables, plus morphisms from free semigroups.

Elements are 0-based indices into an n x n table: ``table[x][y]`` is the product
x*y.  Everything is immutable after construction and every function is pure, so
values can be shared freely across threads.

The cubic table kernels (the associativity check here, the local-triviality
checks in ``varieties``) and the BFS engine read ``Semigroup.array``, a
read-only numpy copy of the table.  A semigroup built from a 2-D integer array
(the parser's, a direct product's, a family builder's in ``families``) keeps a
compact copy of that array from the start.  One built from rows of ints builds
the copy on first access and caches it on the instance, so a semigroup that no
kernel reads never pays for it.
Functions of a table alone (``li_degree`` and ``classify`` in ``varieties``,
the serialized rows in ``formats``) are memoised on the instance the same way,
through ``memo_on_object``.  Threads racing on a first access may compute a
value twice (``functools.cached_property`` takes no lock from Python 3.12 on,
and neither does ``memo_on_object``); the values are equal and immutable, so
keeping either is correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, wraps

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
        a = self.table
        from_array = isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype.kind in "iu"
        rows = (row.tolist() for row in a) if from_array else (map(int, row) for row in a)
        table = tuple(map(tuple, rows))  # row by row: the nested list never exists whole
        object.__setattr__(self, "table", table)
        n = len(table)
        if n == 0:
            raise ValueError("a semigroup is non-empty")
        if from_array and a.shape[1] == n and a.min() >= 0 and a.max() < n:
            object.__setattr__(self, "array", _read_only(a))  # fills the cached property
        else:  # rows of ints, or an array that fails its one range check: name the first bad entry
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
        return _read_only(self.table)

    def elements(self) -> range:
        return range(len(self.table))

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)


def memo_on_object(compute):
    """``compute(obj)``, computed once per object and kept in the object's ``__dict__``.

    Not a field, so equality and hashing are unchanged.  Every caller shares
    the result, so it must be immutable; a call that raises keeps nothing.
    """
    key = f"_memo_{compute.__module__}.{compute.__qualname__}"

    @wraps(compute)
    def memoised(obj):
        cache = vars(obj)
        if key not in cache:
            cache[key] = compute(obj)
        return cache[key]

    return memoised


def _read_only(table) -> np.ndarray:
    """A read-only copy of an n x n table in the smallest unsigned dtype holding n-1."""
    a = np.array(table, dtype=np.min_scalar_type(len(table) - 1))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Morphism:
    """A map A+ -> target, determined freely by one image per letter."""

    images: tuple[int, ...]
    target: Semigroup

    def __post_init__(self):
        images = tuple(map(int, self.images))
        object.__setattr__(self, "images", images)
        if not images:
            raise ValueError("a morphism needs at least one letter")
        n = self.target.size
        if min(images) < 0 or max(images) >= n:
            a = next(a for a, v in enumerate(images) if not 0 <= v < n)
            raise ValueError(f"image {images[a]} of letter {a} out of range 0..{n - 1}")

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
    index = T.astype(np.intp)  # take widens its indices to intp on every call; widen once
    n = sg.size
    rows = max(1, ASSOC_BLOCK_CELLS // (n * n))
    for lo in range(0, n, rows):
        block = index[lo:lo + rows]
        bad = T.take(block, axis=0) != T[lo:lo + rows].take(index, axis=1)  # take: ~3x faster than []
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


def check_table_cells(n: int, cap: int = DEFAULT_PRODUCT_CAP) -> None:
    """Raise ValueError when the table of an n-element semigroup, n * n cells, exceeds cap."""
    if n * n > cap:
        raise ValueError(f"table of {n} x {n} cells exceeds cap {cap}")


def direct_product(factors, cap: int = DEFAULT_PRODUCT_CAP) -> tuple[Semigroup, list[tuple[int, ...]]]:
    """Componentwise product of the factors, plus one projection table per factor.

    Element (x_1, ..., x_k) gets its row-major index over the factor sizes
    (``np.ravel_multi_index``), the last factor varying fastest;
    projections[i][idx] recovers component i.  ``cap`` bounds the cells of
    the product's table, n * n, and is checked before anything is built.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("at least one factor required")
    sizes = tuple(f.size for f in factors)
    n = math.prod(sizes)
    check_table_cells(n, cap)
    comps = np.unravel_index(np.arange(n), sizes)
    table = np.ravel_multi_index([f.array[c[:, None], c] for f, c in zip(factors, comps)], sizes)
    projections = [tuple(c.tolist()) for c in comps]
    labels = None
    if all(f.labels is not None for f in factors):
        columns = [[f.labels[x] for x in p] for f, p in zip(factors, projections)]
        labels = tuple("(" + ",".join(parts) + ")" for parts in zip(*columns))
    return Semigroup(table, labels), projections


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
    return Morphism(np.ravel_multi_index([h.images for h in hs], [h.target.size for h in hs]), prod)
