"""Constructive semigroup families used by the generator CLI and the test suites.

Random associative tables are vanishingly rare, so randomized tests draw from
these families (and their subsemigroups and direct products) instead.
Each builder checks its table against ``core.check_table_cells`` before
building it, so an oversize family member, a reduction's gadget included,
costs no table.  Tables are built as numpy arrays, in the narrowest dtype that
holds the builder's largest intermediate value (``leftzero`` and ``rightzero``
are broadcast views, which allocate no cells), and handed to ``Semigroup``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .core import Semigroup, check_table_cells, direct_product, sub_semigroup  # noqa: F401 (re-exported)


def mincap(k: int) -> Semigroup:
    """Values {1..k} under i*j = min(i+j, k); value v is element index v-1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    check_table_cells(k)
    i = np.arange(k, dtype=np.min_scalar_type(2 * k))
    return Semigroup(np.minimum(i[:, None] + i + 1, k - 1), tuple(str(v + 1) for v in range(k)))


def trivial() -> Semigroup:
    return mincap(1)


def leftzero(n: int) -> Semigroup:
    if n < 1:
        raise ValueError("n must be >= 1")
    check_table_cells(n)
    return Semigroup(np.broadcast_to(np.arange(n)[:, None], (n, n)))


def rightzero(n: int) -> Semigroup:
    if n < 1:
        raise ValueError("n must be >= 1")
    check_table_cells(n)
    return Semigroup(np.broadcast_to(np.arange(n), (n, n)))


def cyclic(n: int) -> Semigroup:
    """The cyclic group of order n: x*y = x+y mod n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_table_cells(n)
    i = np.arange(n, dtype=np.min_scalar_type(2 * n))
    return Semigroup((i[:, None] + i) % n, tuple(str(v) for v in range(n)))


@functools.lru_cache(maxsize=16)
def nilinterval(k: int) -> Semigroup:
    """Intervals {(i,j): 1 <= i <= j <= k} plus a zero.

    (i,j)*(i',j') = (i,j') when i' == j+1, and zero otherwise; every square is
    zero, so the semigroup satisfies x*x*y == x*x == y*x*x.  Memoised, since
    every ``reduce_nilpotent`` call builds one and ``Semigroup`` is immutable.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = k * (k + 1) // 2 + 1
    check_table_cells(n)
    first, last = np.triu_indices(k)  # interval c + 1 is (first[c] + 1, last[c] + 1); 0 is the zero
    index = np.zeros((k, k), np.min_scalar_type(n - 1))
    index[first, last] = np.arange(1, n)
    table = np.zeros((n, n), index.dtype)
    table[1:, 1:] = np.where(first == last[:, None] + 1, index[first[:, None], last], 0)
    labels = ("0",) + tuple(f"({i + 1},{j + 1})" for i, j in zip(first.tolist(), last.tolist()))
    return Semigroup(table, labels)


def _is_associative(rows, n) -> bool:
    # A plain loop, not core.check_associative: at n <= 3 numpy's per-call cost
    # dominates, and enumerate_semigroup_tables runs this on n**(n*n) candidates.
    for x in range(n):
        tx = rows[x]
        for y in range(n):
            txy = rows[tx[y]]
            ty = rows[y]
            for z in range(n):
                if txy[z] != tx[ty[z]]:
                    return False
    return True


def enumerate_semigroup_tables(n: int):
    """Yield every associative n x n table, filtering all n**(n*n) candidates."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for cells in itertools.product(range(n), repeat=n * n):
        rows = tuple(cells[i * n:(i + 1) * n] for i in range(n))
        if _is_associative(rows, n):
            yield Semigroup(rows)


FAMILY_BUILDERS = {
    "mincap": mincap,
    "leftzero": leftzero,
    "rightzero": rightzero,
    "cyclic": cyclic,
    "nilinterval": nilinterval,
}


def _parse_spec(spec: str) -> tuple[str, int]:
    name, sep, arg = spec.partition(":")
    if not sep or name not in FAMILY_BUILDERS:
        known = ", ".join(sorted(FAMILY_BUILDERS))
        raise ValueError(f"bad family spec {spec!r}; expected one of {known} with :<n>")
    try:
        return name, int(arg)
    except ValueError:
        raise ValueError(f"bad family parameter in {spec!r}") from None


def _element_count(name: str, k: int) -> int:
    """The size of ``FAMILY_BUILDERS[name](k)``, without building it."""
    return k * (k + 1) // 2 + 1 if name == "nilinterval" else k


def build_family(spec: str) -> Semigroup:
    """Build a semigroup from a spec token like ``mincap:4``."""
    name, k = _parse_spec(spec)
    return FAMILY_BUILDERS[name](k)


def build_product(specs) -> Semigroup:
    """The direct product of the spec tokens' semigroups.

    The product's cell cap is checked from the factors' element counts
    before any factor is built, so an oversize product costs no table.
    """
    parsed = [_parse_spec(s) for s in specs]
    check_table_cells(math.prod(_element_count(name, k) for name, k in parsed))
    prod, _ = direct_product([FAMILY_BUILDERS[name](k) for name, k in parsed])
    return prod
