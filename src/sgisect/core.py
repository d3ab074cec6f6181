"""Finite semigroups given by multiplication tables, plus morphisms from free semigroups.

Elements are 0-based indices into an n x n table: ``array[x, y]`` is the
product x*y.  Everything is immutable after construction and every function is
pure, so values can be shared freely across threads.

A ``Semigroup`` holds its table once, as ``array``: a read-only numpy array in
the smallest unsigned dtype holding n-1 (arithmetic on it wraps, so callers
widen before adding).  That dtype depends on n alone, so the array's bytes are
canonical and define ``==`` and ``hash``.  Whole-table code (the associativity
check, ``varieties``, the BFS engine, ``formats``) reads the array, and
``monogenic_orders`` one column of it at a time.  Loops over one word at a
time read ``table``, a tuple of tuples of ints built from the array on first
use and kept on the instance, since indexing Python tuples beats indexing
numpy one element at a time.
Functions of a table alone (``li_degree`` and ``classify`` in ``varieties``,
the serialized rows in ``formats``) are memoised on the instance the same way,
through ``memo_on_object``.  Threads racing on a first access may compute a
value twice (``functools.cached_property`` takes no lock from Python 3.12 on,
and neither does ``memo_on_object``); the values are equal and immutable, so
keeping either is correct.
"""

from __future__ import annotations

import math
import operator
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

    ``array`` may be given as any (n, n) integer array or as rows of ints.
    Direct construction checks shape and entry ranges only.  Code that builds
    tables which are associative by construction (direct products, local
    monoids) may instantiate directly.
    """

    array: np.ndarray
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        n = len(self.array)
        if n == 0:
            raise ValueError("a semigroup is non-empty")
        try:
            a = np.asarray(self.array)
        except ValueError:  # ragged rows
            a = None
        if a is None or a.dtype.kind not in "iu" or a.shape != (n, n) or a.min() < 0 or a.max() >= n:
            a = []  # not an in-range (n, n) integer array: name the first bad row or entry
            for x, row in enumerate(self.array):
                row = list(map(operator.index, row))
                if len(row) != n:
                    raise ValueError(f"table not square: row {x} has {len(row)} entries, expected {n}")
                if min(row) < 0 or max(row) >= n:
                    y = next(y for y, v in enumerate(row) if not 0 <= v < n)
                    raise ValueError(f"entry {row[y]} at ({x}, {y}) out of range 0..{n - 1}")
                a.append(row)
        a = np.array(a, dtype=np.min_scalar_type(n - 1))
        a.flags.writeable = False
        object.__setattr__(self, "array", a)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels for {n} elements")
            object.__setattr__(self, "labels", labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, Semigroup) and self.array.tobytes() == other.array.tobytes()

    def __hash__(self) -> int:
        return hash(self.array.tobytes())

    @property
    def size(self) -> int:
        return len(self.array)

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The table as a tuple of tuples of ints, built on first use and kept on the instance."""
        return tuple(map(tuple, self.array.tolist()))

    def elements(self) -> range:
        return range(self.size)

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


@dataclass(frozen=True)
class Morphism:
    """A map A+ -> target, determined freely by one image per letter."""

    images: tuple[int, ...]
    target: Semigroup

    def __post_init__(self):
        images = tuple(map(operator.index, self.images))
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
    T = S.array
    x = np.arange(S.size)
    z = (T == x[:, None]).all(axis=1) & (T == x).all(axis=0)  # row z and column z hold only z
    e = (T == x).all(axis=1) & (T == x[:, None]).all(axis=0)  # row e and column e are the identity
    zero, neutral = (int(m.argmax()) if m.any() else None for m in (z, e))
    return DistinguishedElements(frozenset(np.flatnonzero(T.diagonal() == x).tolist()), zero, neutral)


def monogenic_orders(S: Semigroup) -> tuple[tuple[int, ...], int]:
    """Cardinality of the subsemigroup generated by each element, and the maximum."""
    orders = []
    for s in range(S.size):
        column = S.array[:, s].tolist()
        seen = set()
        cur = s
        while cur not in seen:
            seen.add(cur)
            cur = column[cur]
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
    E = np.array(elems)
    block = S.array[np.ix_(E, E)]
    index = np.searchsorted(E, block)
    escapes = E.take(index, mode="clip") != block
    if escapes.any():
        i, j = np.unravel_index(int(escapes.argmax()), escapes.shape)
        raise ValueError(f"set is not closed: {elems[i]}*{elems[j]} = {block[i, j]} escapes")
    labels = tuple(S.labels[x] for x in elems) if S.labels is not None else None
    return Semigroup(index, labels), tuple(elems)


def local_monoid(S: Semigroup, e: int) -> tuple[Semigroup, tuple[int, ...]]:
    """The monoid e*S*e with neutral element e, plus the element mapping.

    Returns (M, elems) where elems[i] is the element of S represented by
    index i of M.
    """
    T = S.array
    if not 0 <= e < S.size:
        raise IndexError(f"element {e} out of range 0..{S.size - 1}")
    if T[e, e] != e:
        raise ValueError(f"element {e} is not idempotent")
    return sub_semigroup(S, T[T[e], e].tolist())


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
