"""Straight-line programs: acyclic grammars producing a single word.

A right-hand side is a tuple of symbols.  A symbol >= 0 is a letter index;
a symbol < 0 references variable j encoded as -(j+1) (mirroring the sign
convention of DIMACS literals).  Words are never materialized unless asked:
sizes, produced lengths and homomorphic images are all computed bottom-up.
The exception is ``first_words``, which expands the short words of the
canonical SLPs that ``enum_slp_solve`` searches, once per word and size.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Morphism

DEFAULT_EVAL_LIMIT = 10 ** 6


def var_ref(j: int) -> int:
    return -(j + 1)


def is_var_ref(sym: int) -> bool:
    return sym < 0


def ref_target(sym: int) -> int:
    return -sym - 1


class SlpCycleError(ValueError):
    """The variable-reference relation has a cycle; carries one witness cycle."""

    def __init__(self, cycle: tuple[int, ...]):
        names = " -> ".join(f"X{v}" for v in cycle)
        super().__init__(f"variable cycle: {names}")
        self.cycle = cycle


class SlpLimitError(ValueError):
    """Materializing the produced word would exceed the requested limit."""

    def __init__(self, length: int, limit: int):
        super().__init__(f"produced word has length {length}, limit is {limit}")
        self.length = length
        self.limit = limit


@dataclass(frozen=True)
class Slp:
    """One production per variable; ``start`` names the produced word.

    Direct construction checks shapes and symbol ranges; acyclicity is checked
    by :func:`validate_slp` (and again lazily by any evaluation, which walks
    the reference relation).
    """

    alphabet_size: int
    rhs: tuple[tuple[int, ...], ...]
    start: int

    def __post_init__(self):
        rhs = tuple(tuple(map(operator.index, body)) for body in self.rhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "alphabet_size", operator.index(self.alphabet_size))
        object.__setattr__(self, "start", operator.index(self.start))
        if self.alphabet_size < 1:
            raise ValueError("alphabet must be non-empty")
        if not rhs:
            raise ValueError("an SLP has at least one variable")
        if not 0 <= self.start < len(rhs):
            raise ValueError(f"start variable X{self.start} undefined")
        for v, body in enumerate(rhs):
            if not body:
                raise ValueError(f"variable X{v} has an empty right-hand side")
            for sym in body:
                if is_var_ref(sym):
                    if not 0 <= ref_target(sym) < len(rhs):
                        raise ValueError(f"X{v} references undefined variable X{ref_target(sym)}")
                elif sym >= self.alphabet_size:
                    raise ValueError(f"X{v} uses letter {sym} outside alphabet of size {self.alphabet_size}")

    @property
    def variable_count(self) -> int:
        return len(self.rhs)

    @property
    def size(self) -> int:
        return sum(len(body) for body in self.rhs)


def canonical_slp(word, alphabet_size: int) -> Slp:
    """The one-variable SLP whose single production is the word itself."""
    return Slp(alphabet_size, (tuple(word),), 0)


def _topo_reachable(G: Slp, roots: Sequence[int] | None = None) -> list[int]:
    """Variables reachable from roots (default: start), children before parents; detects cycles.

    The roots share one visited state, so each variable is searched once."""
    order: list[int] = []
    state: dict[int, int] = {}  # 1 = on stack, 2 = done
    stack: list[tuple[int, int]] = [(v, 0) for v in reversed((G.start,) if roots is None else roots)]
    path: list[int] = []
    while stack:
        v, i = stack.pop()
        if i == 0:
            if state.get(v) == 2:
                continue
            state[v] = 1
            path.append(v)
        body = G.rhs[v]
        advanced = False
        for j in range(i, len(body)):
            sym = body[j]
            if not is_var_ref(sym):
                continue
            w = ref_target(sym)
            st = state.get(w)
            if st == 1:
                cycle = path[path.index(w):] + [w]
                raise SlpCycleError(tuple(cycle))
            if st is None:
                stack.append((v, j + 1))
                stack.append((w, 0))
                advanced = True
                break
        if not advanced:
            state[v] = 2
            path.pop()
            order.append(v)
    return order


def validate_slp(alphabet_size: int, rhs, start: int) -> Slp:
    """Build an SLP from raw productions, rejecting cycles and dangling symbols."""
    G = Slp(alphabet_size, tuple(tuple(body) for body in rhs), start)
    # report cycles even through variables unreachable from start
    _topo_reachable(G, range(G.variable_count))
    return G


def slp_stats(G: Slp) -> tuple[int, int]:
    """(size, length of the produced word); the length is exact, never truncated."""
    lengths: dict[int, int] = {}
    for v in _topo_reachable(G):
        lengths[v] = sum(lengths[ref_target(s)] if is_var_ref(s) else 1 for s in G.rhs[v])
    return G.size, lengths[G.start]


def slp_eval_word(G: Slp, limit: int = DEFAULT_EVAL_LIMIT) -> tuple[int, ...]:
    """Materialize the produced word, refusing beyond ``limit`` letters."""
    _, length = slp_stats(G)
    if length > limit:
        raise SlpLimitError(length, limit)
    words: dict[int, tuple[int, ...]] = {}
    for v in _topo_reachable(G):
        parts: list[int] = []
        for sym in G.rhs[v]:
            if is_var_ref(sym):
                parts.extend(words[ref_target(sym)])
            else:
                parts.append(sym)
        words[v] = tuple(parts)
    return words[G.start]


def slp_image(G: Slp, h: Morphism) -> int:
    """Image of the produced word under h, in at most ``G.size`` multiplications."""
    if G.alphabet_size != h.alphabet_size:
        raise ValueError(f"alphabet mismatch: SLP has {G.alphabet_size} letters, morphism {h.alphabet_size}")
    t = h.target.table
    imgs = h.images
    values: dict[int, int] = {}
    for v in _topo_reachable(G):
        acc = None
        for sym in G.rhs[v]:
            val = values[ref_target(sym)] if is_var_ref(sym) else imgs[sym]
            acc = val if acc is None else t[acc][val]
        values[v] = acc
    return values[G.start]


def power_slp(G: Slp, e: int) -> Slp:
    """An SLP producing the e-th power of G's word.

    Uses square-and-multiply: a chain of squaring variables over the start
    symbol plus one accumulator listing the set bits, so the size grows by at
    most 3*floor(log2 e) + 1 <= 4*ceil(log2 e) symbols for e >= 2.
    """
    if e < 1:
        raise ValueError("exponent must be >= 1")
    if e == 1:
        return G
    rhs = list(G.rhs)
    squares = [G.start]  # squares[i] produces the 2**i-th power
    t = e.bit_length() - 1
    for _ in range(t):
        rhs.append((var_ref(squares[-1]), var_ref(squares[-1])))
        squares.append(len(rhs) - 1)
    if e == 1 << t:
        return Slp(G.alphabet_size, tuple(rhs), squares[t])
    acc = tuple(var_ref(squares[i]) for i in range(t, -1, -1) if e >> i & 1)
    rhs.append(acc)
    return Slp(G.alphabet_size, tuple(rhs), len(rhs) - 1)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _canonical_bodies(alphabet_size: int, size: int):
    """Right-hand sides of the canonical SLPs with exactly ``size`` symbols, in order.

    The order is that of ``itertools.product`` over the per-variable bodies.
    Only variables below i reference variable i, so a choice of bodies 0..i-1
    that leaves variable i unreferenced is dropped before any later body is
    chosen (at 4 letters and size 6, 68,184 kept of 773,640 products).
    """
    letters = list(range(alphabet_size))
    for v in range(1, size + 1):
        for comp in _compositions(size, v):
            per_var = []
            for i in range(v):
                pool = letters + [var_ref(j) for j in range(i + 1, v)]
                per_var.append([(body, sum({1 << ref_target(s) for s in body if is_var_ref(s)}))
                                for body in itertools.product(pool, repeat=comp[i])])
            yield from _referencing_bodies(per_var, (), 0)


def _referencing_bodies(per_var, chosen: tuple, referenced: int):
    # referenced: bit j is set when one of the chosen bodies references X{j}
    i = len(chosen)
    if i == len(per_var):
        yield chosen
    elif i == 0 or referenced >> i & 1:
        for body, refs in per_var[i]:
            yield from _referencing_bodies(per_var, chosen + (body,), referenced | refs)


def enumerate_slps(alphabet_size: int, max_size: int):
    """All canonical SLPs of size 1..max_size in increasing size.

    Canonical form: X0 is the start, every right-hand side references only
    higher-numbered variables, and every variable other than X0 is referenced
    somewhere.  This skips trivially isomorphic variable relabelings while
    still reaching every producible word at each size.
    """
    for size in range(1, max_size + 1):
        for bodies in _canonical_bodies(alphabet_size, size):
            yield Slp(alphabet_size, bodies, 0)


def _canonical_word(bodies) -> tuple[int, ...]:
    # slp_eval_word(Slp(...)) gives the same word, but building and walking an Slp
    # per canonical SLP made growing the memo 10x slower (0.081 s against 0.008 s
    # for the 2,955 SLPs of 3 letters up to size 5; 1.78 s against 0.16 s for the
    # 68,184 of 4 letters up to size 6).  Canonical bodies reference only higher
    # variables, so build from the last one up.
    words: list[tuple[int, ...]] = [()] * len(bodies)
    for v in range(len(bodies) - 1, -1, -1):
        parts: list[int] = []
        for sym in bodies[v]:
            if is_var_ref(sym):
                parts.extend(words[ref_target(sym)])
            else:
                parts.append(sym)
        words[v] = tuple(parts)
    return words[0]


class WordGroup(NamedTuple):
    """Words of one length, each new at its first canonical SLP (read-only arrays)."""

    letters: np.ndarray  # (length, words): the letter at each position
    index: np.ndarray  # 0-based canonical index of each word's first SLP, ascending
    bodies: tuple  # that SLP's right-hand sides


class SizeWords(NamedTuple):
    """The canonical SLPs of one size and the words they are first to produce."""

    start: int  # canonical index of the size's first SLP
    count: int
    groups: tuple[WordGroup, ...]  # the words no earlier SLP produces, by length
    seen: frozenset[tuple[int, ...]]  # every word some canonical SLP of this size or smaller produces


_NO_WORDS = SizeWords(0, 0, (), frozenset())
WORD_MEMO_ENTRIES = 4 * 6  # four alphabet sizes, sizes 1..6 each (enum_slp_solve's cap)


@functools.lru_cache(maxsize=WORD_MEMO_ENTRIES)
def first_words(alphabet_size: int, size: int) -> SizeWords:
    """The canonical SLPs of exactly ``size`` symbols and the words they are first to produce.

    Each such word appears once, at the first SLP that produces it.  The
    previous size, fetched through the same cache, gives the start index and
    the words already produced.  A pure function of its arguments, so
    concurrent misses may compute it twice but agree, and an error while
    filling caches nothing.
    """
    prev = first_words(alphabet_size, size - 1) if size > 1 else _NO_WORDS
    start = prev.start + prev.count
    new: set[tuple[int, ...]] = set()
    by_length: dict[int, list] = {}
    count = 0
    for bodies in _canonical_bodies(alphabet_size, size):
        word = _canonical_word(bodies)
        if word not in prev.seen and word not in new:
            new.add(word)
            by_length.setdefault(len(word), []).append((word, start + count, bodies))
        count += 1
    groups = []
    for length in sorted(by_length):
        words, index, bodies = zip(*by_length[length])
        group = WordGroup(np.array(words, dtype=np.intp).T, np.array(index, dtype=np.intp), bodies)
        group.letters.flags.writeable = group.index.flags.writeable = False
        groups.append(group)
    return SizeWords(start, count, tuple(groups), prev.seen | new)
