"""Decision predicates for classes of finite semigroups.

``li`` refers to local triviality: every local monoid e*S*e collapses to {e}.
The graded version ``li_k`` is the equation
x_1...x_k z y_k...y_1 == x_1...x_k y_k...y_1 quantified over all elements;
``li_degree`` is the least k for which it holds.

``li_degree`` and ``classify`` depend on the table alone, so each is computed
once per ``Semigroup`` object and kept on it (``core.memo_on_object``);
threads may race on a first call and compute it twice, harmlessly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Semigroup, distinguished_elements, memo_on_object, monogenic_orders

LI_FIRST_BLOCK_CELLS = 1 << 10  # cells in the first block of each li condition check
LI_BLOCK_CELLS = 1 << 16  # cells beyond which blocks stop doubling


@dataclass(frozen=True)
class ClassificationReport:
    is_commutative: bool
    is_group: bool
    is_monoid: bool
    is_nilpotent: bool
    is_li: bool
    li_degree: int | None
    is_a2n: bool
    class_order: int


def is_commutative(S: Semigroup) -> bool:
    """True iff x*y == y*x for all x, y: the table equals its transpose."""
    T = S.array
    return bool((T == T.T).all())


def is_monoid(S: Semigroup) -> bool:
    return distinguished_elements(S).neutral is not None


def is_group(S: Semigroup) -> bool:
    """True iff a*S == S == S*a for every a: every row and column of the table is a permutation."""
    T = S.array
    elems = np.arange(S.size)
    return bool((np.sort(T, axis=1) == elems).all() and (np.sort(T, axis=0) == elems[:, None]).all())


def is_nilpotent(S: Semigroup) -> bool:
    """True iff the only idempotent is a zero element.

    That is one idempotent z with z*x == z for every x.  Column z needs no
    check: then x*z is idempotent, since (x*z)*(x*z) == x*(z*x)*z == x*z, so
    x*z == z.
    """
    T = S.array
    idem = np.flatnonzero(T.diagonal() == np.arange(S.size))
    return idem.size == 1 and bool((T[idem[0]] == idem[0]).all())


def is_li(S: Semigroup) -> bool:
    """True iff e*x*e == e for every idempotent e and every x."""
    T = S.array
    e = np.flatnonzero(T.diagonal() == np.arange(S.size))
    return bool((T[T[e], e[:, None]] == e[:, None]).all())  # (e*x)*e == e


def _product_chain(S: Semigroup, k: int) -> list[np.ndarray]:
    """Masks of P_1, P_2, ... up to P_k or until the chain is stable.

    P_j is the set of j-fold products x_1...x_j.  Since P_{j+1} = P_j * S and
    P_2 = S * S is a subset of P_1, induction gives P_1 ⊇ P_2 ⊇ ..., so a level
    as large as the one before equals it, and so does every later level: the
    last mask returned stands for all P_j past the end of the list.  A level
    is one float32 product with the 0/1 row-image matrix (exact: the sums
    count at most size elements), since this loop runs up to size times.
    """
    T = S.array
    n = S.size
    image = np.zeros((n, n), dtype=np.float32)  # image[p, v] = 1 iff p*s == v for some s
    image[np.arange(n)[:, None], T] = 1
    chain = [np.ones(n, dtype=np.float32)]
    count = n
    while len(chain) < k:
        nxt = np.sign(chain[-1] @ image)
        smaller = np.count_nonzero(nxt)
        if smaller == count:
            break
        chain.append(nxt)
        count = smaller
    return chain


def _li_condition_on(S: Semigroup, mask: np.ndarray) -> bool:
    """(p*z)*q == p*q for all p, q in the masked set and every z, a block of p at a time.

    Blocks start at about LI_FIRST_BLOCK_CELLS cells (one row once rows are
    that large) and double up to LI_BLOCK_CELLS, so a failing level stops
    after little work while a passing one needs few numpy calls.
    """
    T = S.array
    prods = np.flatnonzero(mask)
    cols = T[:, prods]  # s*q for every s and every q in the set
    pz, pq = T[prods], cols[prods]
    row_cells = S.size * prods.size
    rows = max(1, LI_FIRST_BLOCK_CELLS // row_cells)
    lo = 0
    while lo < prods.size:
        if not (cols.take(pz[lo:lo + rows], axis=0) == pq[lo:lo + rows, None]).all():
            return False
        lo += rows
        rows = max(rows, min(2 * rows, LI_BLOCK_CELLS // row_cells))
    return True


def satisfies_li_k(S: Semigroup, k: int) -> bool:
    """Check the degree-k local triviality equation directly on S.

    Both outer products range exactly over the set of k-fold products, so the
    check quantifies the equation over all (2k+1)-tuples.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _li_condition_on(S, _product_chain(S, k)[-1])


@memo_on_object
def li_degree(S: Semigroup) -> int | None:
    """Least k such that S satisfies the degree-k equation; None when S is not li.

    Memoised on S (``memo_on_object``): ``classify`` and ``li_solve`` both ask
    for it.  The degree-k equation is the condition on P_k, the set of k-fold
    products, and P_1 ⊇ P_2 ⊇ ... (see ``_product_chain``).  An equation that
    holds on P_k holds on the subset P_{k+1}, so degree k implies degree k+1,
    and a binary search over the chain finds the least degree with
    O(log size) condition checks.  The chain is built until it is stable at
    some P_m, m <= size, which stands for every later level: if the equation
    fails there it fails at every degree.  Holding at some degree k is the
    same as local triviality: an idempotent e is the k-fold product e...e, so
    e*x*e == e*e == e; a locally trivial semigroup of size n satisfies the
    equation by degree n+1, which is past P_m.
    """
    chain = _product_chain(S, S.size + 1)
    lo, hi = 1, len(chain)  # if any degree holds, the least is in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if _li_condition_on(S, chain[mid - 1]):
            hi = mid
        else:
            lo = mid + 1
    # mid < hi always, so the stable level was never checked above
    if lo == len(chain) and not _li_condition_on(S, chain[-1]):
        return None
    return lo


def is_a2n(S: Semigroup) -> bool:
    """True iff x*x*y == x*x == y*x*x for all x, y: the row and column of each square hold only it."""
    T = S.array
    sq = T.diagonal()
    return bool((T[sq] == sq[:, None]).all() and (T[:, sq] == sq).all())


@memo_on_object
def classify(S: Semigroup) -> ClassificationReport:
    """Every predicate of this module on S; memoised on S (``memo_on_object``)."""
    _, class_order = monogenic_orders(S)
    degree = li_degree(S)
    return ClassificationReport(
        is_commutative=is_commutative(S),
        is_group=is_group(S),
        is_monoid=is_monoid(S),
        is_nilpotent=is_nilpotent(S),
        is_li=degree is not None,
        li_degree=degree,
        is_a2n=is_a2n(S),
        class_order=class_order,
    )
