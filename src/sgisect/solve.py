"""Deciding intersection non-emptiness of languages recognized by finite semigroups.

An instance is a shared alphabet plus constraints (morphism into a semigroup,
accepting element set), held as columns (see ``Instance``) that the solvers
and ``verify_witness`` read once per distinct table.  The brute-force solver
runs a breadth-first search over tuples of per-constraint images, never
materializing the direct product; it returns the shortest witness, ties
broken by lexicographically least letter sequence.  ``li_solve`` and
``comli_solve`` are class checks in front of that same closed search, with
no depth cap.  A locally trivial target of degree k never needs a witness
longer than 2k, so the search closes by depth 2k on its own; that bound is
checked on every result, not used as a cap.  ``bounded_solve`` is the one
caller of the engine's depth cap.

The search starts from the one-letter words, since a semigroup has no
empty product.  It drops every tuple from which no word can finish in
every accept set, and every tuple whose components share no length at
which words can finish them; it stores a tuple as a row of byte cells that
is its own exact key, and never extends a word ending in l by a smaller
letter commuting with l, so it builds only the lexicographic normal forms
of trace theory.  No device changes a status or a witness (``_bfs`` says
why): the answer is the shortest, lexicographically least word the plain
search finds.  The length rule removes states and can close an EMPTY
search earlier; ``li_solve`` and ``comli_solve`` apply it up to twice the
largest degree, where it is exact, and the other solvers not at all.  On
the counting gadget of random 3-CNF at 4.2 clauses per variable,
``li_solve`` decides k=10 in 0.1-0.2 s and 57 MB and k=13 in about 4 s
and 821 MB (README.md has the table).

``enum_slp_solve`` is separate from the BFS: it returns the first canonical
SLP, in the order of ``enumerate_slps``, whose word every constraint accepts.
Since an SLP's images depend only on its word, it tests each distinct word
once, at the first SLP producing it.  Those first-occurrence words are
memoised per alphabet size and SLP size, so no call enumerates past the size
holding its witness.
"""

from __future__ import annotations

import itertools
import operator
import threading
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .core import Morphism, Semigroup, apply_morphism
from .slp import Slp, _topo_reachable, first_words, is_var_ref, ref_target
from .varieties import is_commutative, li_degree

DEFAULT_STATE_CAP = 1 << 24
DEFAULT_ENUM_SIZE_CAP = 6
MEMO_CELLS = 1 << 20  # array cells each table keeps of length profiles and blocks
LAYOUTS = 64  # row layouts _layout keeps
_STORE_LOCK = threading.Lock()  # one store at a time, so that each memo's cell count is exact

SATISFIABLE = "satisfiable"
EMPTY = "empty"


class PreconditionError(ValueError):
    """A solver was invoked outside its supported class; names the predicate."""

    def __init__(self, predicate: str, constraint: int):
        super().__init__(f"constraint {constraint} violates {predicate}")
        self.predicate = predicate
        self.constraint = constraint


class StateCapError(RuntimeError):
    """More than ``cap`` states stored; the cap is checked after each whole
    layer, so ``depth`` is the layer that passed it and ``states`` the count
    stored through that layer."""

    def __init__(self, cap: int, depth: int | None = None, states: int | None = None):
        where = "" if depth is None else f" at depth {depth}, with {states} states stored"
        super().__init__(f"search exceeded the state cap of {cap}{where}")
        self.cap, self.depth, self.states = cap, depth, states


class SearchMemoryError(MemoryError):
    """Out of memory in the BFS's depth loop, after ``depth`` layers with ``states`` stored."""

    def __init__(self, cause: MemoryError, depth: int, states: int):
        super().__init__(f"at depth {depth}, with {states} states stored" + (f": {cause}" if str(cause) else ""))
        self.depth, self.states = depth, states


@dataclass(frozen=True)
class Constraint:
    morphism: Morphism
    accept: frozenset[int]
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "accept", frozenset(map(operator.index, self.accept)))
        n = self.morphism.target.size
        for x in self.accept:
            if not 0 <= x < n:
                raise ValueError(f"accepting element {x} out of range 0..{n - 1}")

    @property
    def semigroup(self):
        return self.morphism.target


@dataclass(frozen=True, init=False, eq=False)
class Instance:
    """A shared alphabet plus constraints, held as columns: ``tables``, the
    distinct Semigroup objects in order of first use; ``table_index``, each
    constraint's table among them; ``images``, one read-only (constraints,
    letters) intp matrix; ``accepts`` and ``names``, each constraint's accept
    set and name.  ``from_columns`` and ``Instance(letter_names, constraints)``
    run one check, the ranges in bulk against the smallest table; only a value
    past it is checked constraint by constraint, to name the first bad one.
    ``constraints`` holds ``Constraint`` views, built on first read without
    their own checks; ``==`` and ``hash`` compare those.
    """

    letter_names: tuple[str, ...]
    tables: tuple[Semigroup, ...]
    table_index: np.ndarray
    images: np.ndarray
    accepts: tuple[frozenset[int], ...]
    names: tuple[str | None, ...]

    def __init__(self, letter_names, constraints):
        constraints = tuple(constraints)
        self._fill(letter_names, [c.semigroup for c in constraints], [c.morphism.images for c in constraints],
                   [c.accept for c in constraints], [c.name for c in constraints])

    @classmethod
    def from_columns(cls, letter_names, tables, images, accepts, names) -> Instance:
        """Constraint i has table ``tables[i]``, images ``images[i]`` of an integer
        array, accept set ``accepts[i]`` (a frozenset of ints) and name ``names[i]``."""
        return object.__new__(cls)._fill(letter_names, tables, images, accepts, names)

    def _fill(self, letter_names, targets, images, accepts, names):
        letter_names, accepts, names = tuple(str(s) for s in letter_names), tuple(accepts), tuple(names)
        if not letter_names:
            raise ValueError("alphabet must be non-empty")
        # a name must read back as one letter in a word and in an SLP file
        seen = set()
        for name in letter_names:
            if name.split() != [name] or "#" in name:
                raise ValueError(f"letter name {name!r} is not one token without whitespace or '#'")
            if name in seen:
                raise ValueError(f"letter name {name!r} is repeated")
            seen.add(name)
            if name.startswith("X"):
                raise ValueError(f"letter name {name!r} starts with 'X', the SLP variable prefix")
        if not accepts:
            raise ValueError("an instance has at least one constraint")
        m = len(letter_names)
        for i, row in enumerate(() if isinstance(images, np.ndarray) else images):  # rows may be ragged
            if len(row) != m:
                raise ValueError(f"constraint {i} has {len(row)} letter images, alphabet has {m}")
        images = np.asarray(images).astype(np.intp, order="C", casting="same_kind")  # TypeError for floats
        if images.shape != (len(accepts), m) or not len(targets) == len(names) == len(accepts):
            raise ValueError(f"{images.shape} images, {len(targets)} tables and {len(names)} names "
                             f"for {len(accepts)} constraints over {m} letters")
        tables = tuple({id(S): S for S in targets}.values())  # in order of first use
        position = {id(S): j for j, S in enumerate(tables)}
        table_index = np.array([position[id(S)] for S in targets], dtype=np.intp)
        smallest, elements = min(S.size for S in tables), frozenset().union(*accepts)
        if images.min() < 0 or images.max() >= smallest or elements and (
                min(elements) < 0 or max(elements) >= smallest):
            for i, (row, j) in enumerate(zip(images.tolist(), table_index.tolist())):
                try:
                    Constraint(Morphism(row, tables[j]), accepts[i])
                except ValueError as exc:
                    raise ValueError(f"constraint {i}: {exc}") from None
        table_index.flags.writeable = images.flags.writeable = False
        vars(self).update(letter_names=letter_names, tables=tables, table_index=table_index, images=images,
                          accepts=accepts, names=names)
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and (self.letter_names, self.constraints) == (
            other.letter_names, other.constraints)

    def __hash__(self) -> int:
        return hash((self.letter_names, self.constraints))

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """``Constraint`` views of the columns, built on first read without their own checks."""
        new, put, views = object.__new__, object.__setattr__, []
        for row, j, accept, name in zip(self.images.tolist(), self.table_index.tolist(),
                                        self.accepts, self.names):
            h, c = new(Morphism), new(Constraint)
            put(h, "images", tuple(row))
            put(h, "target", self.tables[j])
            put(c, "morphism", h)
            put(c, "accept", accept)
            put(c, "name", name)
            views.append(c)
        return tuple(views)

    @property
    def alphabet_size(self) -> int:
        return len(self.letter_names)

    def constraint_name(self, i: int) -> str:
        name = self.names[i]
        return name if name is not None else f"c{i}"


@dataclass(frozen=True)
class Witness:
    """Either a plain word or an SLP, tagged with the solver that produced it."""

    provenance: str
    word: tuple[int, ...] | None = None
    slp: Slp | None = None

    def __post_init__(self):
        if (self.word is None) == (self.slp is None):
            raise ValueError("exactly one of word and slp must be set")
        if self.word is not None:
            object.__setattr__(self, "word", tuple(map(operator.index, self.word)))
            if not self.word:
                raise ValueError("witness words are non-empty")

    @classmethod
    def from_word(cls, word, provenance: str = "user") -> "Witness":
        return cls(provenance, word=tuple(word))

    @classmethod
    def from_slp(cls, slp: Slp, provenance: str = "user") -> "Witness":
        return cls(provenance, slp=slp)


@dataclass(frozen=True)
class SolveStats:
    states_explored: int
    max_depth: int
    wall_time: float
    # BFS: keys that reached the visited set over all depths, the (row, letter)
    # pairs generated that the length rule kept; 0 for SLP enumeration
    candidates: int = 0
    # BFS: (candidates, new states, seconds) for each depth, plus a last
    # round that found no new state, if the search closed on one.  Empty
    # for SLP enumeration.
    layers: tuple[tuple[int, int, float], ...] = ()
    # BFS: seconds in set-up (``_tables``), which builds only the blocks its tables' memos
    # miss, so a constraint seen before costs less; 0.0 for SLP enumeration.  A BFS's
    # wall_time is setup_s, plus the layer seconds, plus the final round that stops before
    # recording a layer (on an accepting row, the depth cap or no kept candidate).
    setup_s: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    status: str  # SATISFIABLE or EMPTY
    witness: Witness | None
    complete: bool  # False when EMPTY only means "nothing within the cap"
    stats: SolveStats

    @property
    def satisfiable(self) -> bool:
        return self.status == SATISFIABLE


def _cells(sizes) -> list[int]:
    """The first constraint of each cell of ``_bfs``'s rows.

    Consecutive constraints share a cell while the product of their sizes
    stays <= 256, so that the cell's values fit one byte; a constraint with
    more than 256 elements is a cell of its own.
    """
    starts, values = [], 257
    for i, n in enumerate(sizes):
        values *= n
        if values > 256:
            starts.append(i)
            values = n
    return starts


@lru_cache(maxsize=LAYOUTS)
def _layout(sizes: tuple[int, ...], index: bytes, A: int, horizon: int):
    """What ``_tables`` needs of an instance's shape alone, for tables of
    ``sizes`` and constraints over the tables of ``index`` (intp bytes), as
    (base, dtype, length_bits, runs, spans): each cell's first row and the
    dtype of its values; the mask words that select the profile bits;
    ``_merge_cells``' plan (per run of consecutive cells whose constraints
    have the same sizes, per position in the cells: the size, the
    constraints there and their rows), or None when each cell is one
    constraint; and each span, a run of consecutive constraints over one
    table, as (table, first constraint, end).  A row's mask words hold a
    bit per letter for "its successor is live", one for "the row accepts",
    the profile bits and the live flag, which no mask test reads; a reduce
    over cells is several times slower on two words than on one, so they
    share words.
    """
    index = np.frombuffer(index, dtype=np.intp)
    constraint_sizes = np.array(sizes, dtype=np.intp)[index]
    starts = _cells(constraint_sizes.tolist())
    values = np.multiply.reduceat(constraint_sizes, starts)
    base = np.cumsum(values) - values
    nbytes = (A + horizon + 2) // 8 + 1
    words = np.dtype(f"<u{min(8, 1 << (nbytes - 1).bit_length())}")
    bits = np.zeros(8 * words.itemsize * -(-nbytes // words.itemsize), dtype=bool)
    bits[A + 1:A + horizon + 2] = True
    length_bits = np.packbits(bits, bitorder="little").view(words)
    offsets, runs, shared = np.cumsum(np.append(0, constraint_sizes)), [], [base, length_bits]
    shapes = [tuple(constraint_sizes[lo:hi].tolist()) for lo, hi in zip(starts, starts[1:] + [len(index)])]
    for shape, run in itertools.groupby(zip(shapes, starts), key=lambda cell: cell[0]):
        heads = np.array([lo for _, lo in run])  # the first constraint of each cell in the run
        runs.append(tuple((n, heads + i, offsets[heads + i][:, None] + np.arange(n)) for i, n in enumerate(shape)))
        shared += [a for _, members, rows in runs[-1] for a in (members, rows)]
    for a in shared:  # every caller gets these arrays
        a.flags.writeable = False
    ends = [*(np.flatnonzero(np.diff(index)) + 1).tolist(), len(index)]
    spans = tuple((int(index[lo]), lo, end) for lo, end in zip([0] + ends, ends))
    dtype = np.min_scalar_type(values.max() - 1)
    return base, dtype, length_bits, tuple(runs) if len(starts) < len(index) else None, spans


def _merge_cells(step, masks, first, runs):
    """The successor and mask rows of ``_bfs``'s cells, and the cell values
    of its one-letter words, from those of their constraints.

    ``step`` holds each letter's successors of the constraints' element
    rows, letter-major, ``masks`` the rows' mask words, ``first`` each
    letter's image in each constraint, and ``runs`` is the plan of
    ``_layout``.  A cell's values number its constraints' element tuples
    in mixed radix, the first constraint most significant.  Horner's rule
    builds all three one constraint at a time: a longer tuple's successor
    is its prefix's successor times the constraint's size plus the
    constraint's own successor, its mask is the AND of theirs, and a
    letter's value is its prefix's value times the size plus its image.
    Each run of cells goes through it as one batch.  A cell of several
    constraints has at most 256 values, and step's dtype holds every size,
    so the sums stay in that dtype.
    """
    A, W = step.shape[0], masks.shape[1]
    parts = []
    for (_, members, rows), *rest in runs:
        succ, mask, letter = step[:, rows], masks[rows], first[:, members]
        for n, members, rows in rest:  # (A, cells, values so far times n), and (A, cells) for the letters
            succ = (succ[:, :, :, None] * n + step[:, rows][:, :, None]).reshape(A, len(members), -1)
            mask = (mask[:, :, None] & masks[rows][:, None]).reshape(len(members), -1, W)
            letter = letter * n + first[:, members]
        parts.append((succ.reshape(A, -1), mask.reshape(-1, W), letter))
    succ, mask, letter = zip(*parts)
    return np.concatenate(succ, axis=1), np.concatenate(mask), np.concatenate(letter, axis=1)


def _bfs(instance: Instance, depth_cap: int | None, state_cap: int,
         provenance: str, horizon: int) -> SolveResult:
    """Shared BFS engine over tuples of per-constraint images.

    The first layer is the one-letter words, in letter order.  Later
    candidate successors are generated parent-major and letter-minor with
    both orders ascending, and first discovery wins, so the first accepting
    state in a layer corresponds to the lexicographically least among
    shortest words.

    Four devices keep the layers small and cheap without changing that word:

    - Liveness pruning.  An element is live when some product of letter
      images, possibly empty, takes it into its constraint's accept set.  A
      candidate with a dead component has no accepting extension, so it is
      never generated, deduplicated or counted.  Dropping rows keeps the
      relative order of the others, and a live tuple never equals a dead one,
      so the live part of the search, discovery order included, is that of
      the unpruned search.  When no letter is live the answer is EMPTY at
      depth 0; when a layer has no new live tuple the search has closed and
      EMPTY is conclusive.
    - Length profiles.  Bit t < ``horizon`` of an element's profile says
      some word of length t takes it into its accept set, and bit
      ``horizon`` that some word of length >= ``horizon`` does.  Every
      component's profile shows the length of a tuple's accepting
      extension, so a candidate whose cells share no profile bit has none:
      it is dropped before deduplication like a dead one, and by the same
      argument the witness is unchanged.  The rule is sound at any horizon,
      and at 0 it drops nothing, since bit 0 is then liveness.  Locally
      trivial targets of degree at most k reach the same images at every
      length >= 2k (a longer word has the image of its first k letters
      followed by its last k), so at a horizon of 2k each profile is
      exactly its element's set of completion lengths.  Unlike the other
      devices, this one removes states and can close an EMPTY search at a
      smaller depth.
    - Rows are their own keys.  Consecutive constraints are grouped into
      cells (see ``_cells``); a cell value is the mixed-radix number of its
      constraints' elements.  A row is one value per cell in the narrowest
      unsigned dtype, and its bytes are the key, exact and not a hash.  One
      walk over a layer's keys in candidate order keeps each key not yet in
      ``visited`` and adds it on the spot, so each tuple keeps its first
      discovery, whether its repeat comes later in the same layer or in a
      later one.
    - Trace normal forms.  Letters a and b commute when h_i(a)h_i(b) ==
      h_i(b)h_i(a) in every constraint; swapping adjacent commuting letters
      changes no image.  A row whose word ends in l never continues with a
      letter b < l that commutes with l, so only lexicographic normal forms
      are built (Anisimov and Knuth 1979).  The state is still the image
      tuple alone.  The least shortest word z reaching a tuple is a normal
      form, since a swap would give a smaller word with the same images.
      Each prefix of z is the least shortest word reaching its own tuple,
      so by induction first discovery keeps that prefix, and its last
      letter allows the next letter of z.  So every tuple is found at the
      same depth, through the same word, as without the rule: the states,
      depths and witness are unchanged, and only ``candidates`` counts
      fewer pairs.  On the counting gadget, where every two letters
      commute, about three quarters of the candidates go.

    Set-up is ``_tables``, timed as ``SolveStats.setup_s``; it gives the
    first layer's cell values, and each later layer is one gather from the
    flattened successor table.  One AND-reduce over a candidate's cells
    gives its length bits and, carried past deduplication, its live letters
    and its accept bit.  A ``MemoryError`` in the depth loop comes out as a
    ``SearchMemoryError`` that says how far the search got.
    """
    t0 = time.perf_counter()
    _, masks, allowed_after, table, base, first, length_bits = _tables(instance, horizon)
    A = instance.alphabet_size
    G = table.size // A
    row_bytes = np.dtype((np.void, first[0].nbytes))

    visited: set[bytes] = set()
    trail: list[tuple[np.ndarray, np.ndarray]] = []  # per depth: parent row, letter
    layers: list[tuple[int, int, float]] = []

    def done(found: int | None, depth: int, complete: bool) -> SolveResult:
        witness = None
        if found is not None:
            word = []
            for parents, letters in reversed(trail):
                word.append(int(letters[found]))
                found = parents[found]
            witness = Witness(provenance, word=tuple(reversed(word)))
        status = SATISFIABLE if witness is not None else EMPTY
        stats = SolveStats(len(visited), depth, time.perf_counter() - t0, candidates, tuple(layers), setup_s)
        return SolveResult(status, witness, complete, stats)

    cand = first  # (candidates, cells) cell values
    parents = letters = np.arange(A)  # a one-letter word's parent is never read
    depth = candidates = 0
    tick = time.perf_counter()
    setup_s = tick - t0
    try:
        while True:
            rows = cand + base  # intp row numbers
            bits = np.bitwise_and.reduce(masks.take(rows, axis=0), axis=1)  # (candidates, words)
            keep = np.bitwise_or.reduce(bits & length_bits, axis=1).nonzero()[0]  # some length in every cell
            packed = cand.view(row_bytes).ravel().tolist()
            # one walk in candidate order: a key not yet visited is added on the
            # spot, so each tuple keeps its first discovery
            new = [i for i in keep.tolist() if not ((key := packed[i]) in visited or visited.add(key))]
            candidates += keep.size
            if not keep.size:
                return done(None, depth, True)
            now = time.perf_counter()
            layers.append((keep.size, len(new), now - tick))
            tick = now
            if not new:
                return done(None, depth, True)
            depth += 1
            if len(visited) > state_cap:
                raise StateCapError(state_cap, depth, len(visited))
            if len(new) < letters.size:
                new = np.array(new, dtype=np.intp)
                parents, letters = parents[new], letters[new]
                rows, bits = rows.take(new, axis=0), bits.take(new, axis=0)
            del cand, packed, new
            trail.append((parents, letters))
            # flags[:, a]: letter a's successor is live in every component and
            # keeps the word a normal form; flags[:, A]: the row accepts
            bits &= allowed_after.take(letters, axis=0)
            flags = np.unpackbits(bits.view(np.uint8), axis=1, count=A + 1, bitorder="little")
            hits = flags[:, A].nonzero()[0]
            if hits.size:
                return done(int(hits[0]), depth, True)
            if depth_cap is not None and depth >= depth_cap:
                return done(None, depth, False)
            parents, letters = flags[:, :A].nonzero()
            index = rows.take(parents, axis=0)
            del rows, bits, flags  # only the candidates' parents and letters go on
            index += (letters * G)[:, None]
            cand = table.take(index)  # (candidates, cells)
            del index  # a round's largest array, dropped before the candidates' masks
    except MemoryError as exc:
        raise SearchMemoryError(exc, depth, len(visited)) from exc


def _tables(instance: Instance, horizon: int):
    """Everything ``_bfs`` builds before its first layer, as
    (rows, masks, allowed_after, table, base, first, length_bits).

    A constraint's *block* (``_blocks``) depends only on its table, letter
    images in letter order, accept set and the horizon, so each is kept in
    its table's block store for the alphabet size and horizon (``_grow``).
    Each span (``_layout``) builds its misses in one batch and gathers its
    blocks from the store, so ``rows`` stacks their mask rows in constraint
    order, and ``allowed_after`` ORs their "allowed after" words: after a
    word ending in l it allows each b >= l and each b failing to commute
    with l in some constraint.  ``table`` holds each cell value's successor
    by each letter, gathered from the tables, at letter times the cell rows
    plus row (``base`` holds each cell's first row), and ``masks`` its mask
    words: ``rows`` as they stand when each cell is one constraint, else
    merged by ``_merge_cells``.  ``first`` holds each one-letter word's
    cell values.
    """
    A, tables, images, accepts = instance.alphabet_size, instance.tables, instance.images, instance.accepts
    sizes = tuple(S.size for S in tables)
    base, dtype, length_bits, runs, spans = _layout(sizes, instance.table_index.tobytes(), A, horizon)
    step_dtype = dtype if runs is None else np.min_scalar_type(max(sizes))  # holds every size, for Horner's rule
    succ, rows, allowed = [], [], []
    for j, lo, end in spans:
        S, part = tables[j], images[lo:end]
        keys = list(zip(part.astype(S.array.dtype).view(f"V{A * S.array.itemsize}").ravel().tolist(),
                        accepts[lo:end]))
        blocks = _gather(S, A, horizon, keys, length_bits)
        succ.append(S.array.T.take(part.T, axis=0).reshape(A, -1))  # letter-major: x times a's image
        rows.append(blocks[:, :S.size].reshape(-1, length_bits.size))
        allowed.append(np.bitwise_or.reduce(blocks[:, S.size:]))
    if len(spans) > 1:
        succ, rows = [np.concatenate(succ, axis=1, dtype=step_dtype)], [np.concatenate(rows)]
    (step,), (rows,), allowed_after = succ, rows, reduce(np.bitwise_or, allowed)
    masks, first = rows, images.T  # (A, constraints): each letter's images
    if runs is not None:
        step, masks, first = _merge_cells(step.astype(step_dtype, copy=False), masks, first, runs)
        step = step.astype(dtype)
    table = step.ravel()  # letter times the cell rows plus row
    return rows, masks, allowed_after, table, base, np.ascontiguousarray(first, dtype=dtype), length_bits


def _gather(S: Semigroup, A: int, horizon: int, keys: list, length_bits: np.ndarray) -> np.ndarray:
    """The blocks of ``keys`` (letter images as bytes in S's dtype, accept
    set), gathered from S's block store for (A, horizon), into which the
    misses are built first; if the memo is emptied while they are built,
    every block of the instance is built again."""
    store = _memo(S).get((A, horizon), ({},))
    try:
        ids = np.fromiter(map(store[0].get, keys), np.intp, len(keys))
    except TypeError:  # a key the store lacks gave None
        wanted = list(dict.fromkeys(keys))
        missing = [key for key in wanted if key not in store[0]]
        store = _grow(S, (A, horizon), missing, _blocks(S, missing, horizon, length_bits))
        if any(key not in store[0] for key in wanted):  # the memo was emptied meanwhile
            store = _grow(S, (A, horizon), wanted, _blocks(S, wanted, horizon, length_bits))
        ids = np.fromiter(map(store[0].get, keys), np.intp, len(keys))
    return store[1].take(ids, axis=0)


def _blocks(S: Semigroup, keys: list, horizon: int, length_bits: np.ndarray) -> np.ndarray:
    """The blocks of constraints over S for ``keys`` (letter images as bytes
    in S's dtype, accept set), stacked as a store holds them: (keys, n + A)
    words shaped like ``length_bits``.  Row x < n of block i has bit a if x
    times a's image under key i is live, then x's flags from
    ``_length_profile``; row n + l has bit b if b >= l or h(l)h(b) !=
    h(b)h(l), and bit A.  They are built in chunks whose bits, one bool
    each, fit the memo's cap.
    """
    images = np.frombuffer(b"".join(row for row, _ in keys), dtype=S.array.dtype).reshape(len(keys), -1)
    (g, A), n, width = images.shape, S.size, 8 * length_bits.nbytes
    words = np.empty((g, n + A, length_bits.size), length_bits.dtype)
    chunk = max(1, MEMO_CELLS // ((n + A) * width))
    for lo in range(0, g, chunk):
        part = images[lo:lo + chunk]
        flags = np.array([_length_profile(S, frozenset(row), accept, horizon)
                          for row, (_, accept) in zip(part.tolist(), keys[lo:lo + chunk])])  # (c, n, horizon + 3)
        step = S.array.take(part, axis=1)  # (n, c, A)
        bits = np.zeros((len(part), n + A, width), dtype=bool)
        bits[:, :n, A:A + horizon + 3] = flags
        bits[:, :n, :A] = np.take_along_axis(flags[:, :, -1:], step.transpose(1, 0, 2), axis=1)
        products = S.array[part[:, :, None], part[:, None, :]]  # (c, A, A): h(l)h(b) at [l, b]
        bits[:, n:, :A] = (products != products.transpose(0, 2, 1)) | (np.arange(A) >= np.arange(A)[:, None])
        bits[:, n:, A] = True
        words[lo:lo + chunk] = np.packbits(bits, axis=2, bitorder="little").view(length_bits.dtype)
    return words


def _memo(S: Semigroup) -> dict:
    """S's memo of length profiles and block stores; the key None holds its count of array cells."""
    return vars(S).setdefault("_bfs_memo", {None: 0})


def _store(S: Semigroup, key, value, cells: int) -> None:
    """Keep ``value``, of ``cells`` array cells, in S's memo, which holds at most
    ``MEMO_CELLS``: it is emptied first if ``value`` would take it past, and a
    larger value is not kept."""
    with _STORE_LOCK:
        memo = _memo(S)
        if cells <= MEMO_CELLS and key not in memo:
            if memo[None] + cells > MEMO_CELLS:
                memo = vars(S)["_bfs_memo"] = {None: 0}
            memo[key] = value
            memo[None] += cells


def _grow(S: Semigroup, slot: tuple[int, int], keys: list, blocks: np.ndarray) -> tuple:
    """S's store for ``slot`` (A, horizon), with ``blocks``, the stacked
    blocks of ``keys``, added where it lacks them.

    A store is (ids, words): ids maps each key it holds to its row, and the
    read-only ``words`` stacks the (n + A, W) blocks of ``_blocks``, with
    no successor rows, which ``_tables`` reads from the table.  ``words``
    doubles its capacity as it fills, and the memo counts that capacity.
    New rows are written past those in use before their keys go in, and a
    store with a new array is swapped in whole, so a store read without the
    lock is always whole.  Growth leaves room in the memo for a length
    profile per empty slot, so the profiles of the blocks that fill the
    store fit.  A store that would take the memo past ``MEMO_CELLS`` empties
    it first, and blocks larger than ``MEMO_CELLS`` come back as a store
    that is not kept.
    """
    per_block = blocks[0].size
    with _STORE_LOCK:
        memo = _memo(S)
        ids, words = memo.get(slot, ({}, blocks[:0]))
        new = [i for i, key in enumerate(keys) if key not in ids]
        used, capacity = len(ids), len(words)
        if used + len(new) > capacity:
            profile = S.size * (slot[1] + 3)  # the length profile each block to come may bring
            # doubling stops at the bound, less a profile for each slot left empty
            room = (MEMO_CELLS - memo[None] + capacity * per_block + (used + len(new)) * profile) // (
                per_block + profile)
            grown = max(used + len(new), min(2 * capacity, room))
            if grown > room:
                if len(keys) * per_block > MEMO_CELLS:
                    return dict(zip(keys, range(len(keys)))), blocks
                memo = vars(S)["_bfs_memo"] = {None: 0}
                ids, new, used, capacity, grown = {}, list(range(len(keys))), 0, 0, len(keys)
            full = np.empty((grown, *blocks.shape[1:]), blocks.dtype)
            full[:used] = words[:used]
            words = full.view()  # read-only; only this function writes, through .base
            words.flags.writeable = False
            ids = dict(ids)
            memo[None] += (grown - capacity) * per_block
        end = used + len(new)
        words.base[used:end] = blocks[new]
        ids.update(zip([keys[i] for i in new], range(used, end)))
        memo[slot] = store = (ids, words)
    return store


def _length_profile(S: Semigroup, images: frozenset[int], accept: frozenset[int], horizon: int) -> np.ndarray:
    """Flags of S's elements under letter images ``images`` and accept set
    ``accept``: (n, horizon + 3) bools, the accept flag, the length profile
    and the live flag; kept in S's memo.

    Bit t < ``horizon`` of an element's profile says some word of length t
    takes it into the accept set, and bit ``horizon`` that some word of
    length >= ``horizon`` does: some word of length ``horizon`` takes it to
    a live element.
    """
    key = (images, accept, horizon)
    if (flags := _memo(S).get(key)) is not None:
        return flags
    succ = S.array.take(list(images), axis=1)  # (n, images)
    accepted = np.zeros(S.size, dtype=bool)
    accepted[list(accept)] = True
    columns, reach = [accepted], accepted
    for _ in range(horizon):
        columns.append(reach)
        reach = reach.take(succ).any(axis=1)
    live, grown = accepted, accepted | accepted.take(succ).any(axis=1)
    while not np.array_equal(live, grown):
        live, grown = grown, grown | grown.take(succ).any(axis=1)
    beyond = live
    for _ in range(horizon):
        beyond = beyond.take(succ).any(axis=1)
    flags = np.stack(columns + [beyond, live], axis=1)
    flags.flags.writeable = False  # shared by every instance over S
    _store(S, key, flags, flags.size)
    return flags


def brute_force_solve(instance: Instance, state_cap: int = DEFAULT_STATE_CAP) -> SolveResult:
    """Exact BFS oracle; the cap bounds visited image tuples, not the raw product."""
    return _bfs(instance, None, state_cap, "brute", 0)


def bounded_solve(instance: Instance, depth_cap: int,
                  state_cap: int = DEFAULT_STATE_CAP) -> SolveResult:
    """BFS finding witnesses of length <= depth_cap only.

    An EMPTY result is conclusive only when the search closed before the cap;
    the ``complete`` flag records which case occurred.
    """
    if depth_cap < 1:
        raise ValueError("depth cap must be >= 1")
    return _bfs(instance, depth_cap, state_cap, f"bounded({depth_cap})", 0)


def li_witness_shorten(morphisms, word, k: int | None = None) -> tuple[int, ...]:
    """Replace a word longer than 2k by its length-k prefix and suffix.

    Every target must be locally trivial of degree at most k; then the
    shortened word has the same image under every morphism (checked).  With
    k None it is the largest ``li_degree`` of the targets, and a target that
    is not locally trivial raises ``PreconditionError("is_li", i)``.  No
    morphism, or an empty word, raises ``ValueError``, and a letter out of
    range ``IndexError``, at any length.  Words of length <= 2k are returned
    unchanged.
    """
    morphisms = list(morphisms)
    if not morphisms:
        raise ValueError("at least one morphism required")
    degrees = [li_degree(h.target) for h in morphisms]
    if k is None:
        if None in degrees:
            raise PreconditionError("is_li", degrees.index(None))
        k = max(degrees)
    for i, d in enumerate(degrees):
        if d is None or d > k:
            raise PreconditionError(f"li_degree <= {k}", i)
    word = tuple(word)
    images = [apply_morphism(h, word) for h in morphisms]  # checks the word at any length
    if len(word) <= 2 * k:
        return word
    short = word[:k] + word[-k:]
    for i, (h, x) in enumerate(zip(morphisms, images)):
        if apply_morphism(h, short) != x:
            raise AssertionError(f"image changed under morphism {i}; target not of degree {k}")
    return short


def _li_bfs(instance: Instance, state_cap: int, provenance: str) -> SolveResult:
    """The closed BFS for locally trivial constraints, checking the 2k bound it never needs.

    Every word longer than 2k has the images of its length-k prefix followed
    by its length-k suffix, so no search goes deeper than 2k.
    """
    degrees = [li_degree(S) for S in instance.tables]
    if None in degrees:
        raise PreconditionError("is_li", instance.table_index.tolist().index(degrees.index(None)))
    result = _bfs(instance, None, state_cap, provenance, 2 * max(degrees))
    if result.stats.max_depth > 2 * max(degrees):
        raise AssertionError(f"search reached depth {result.stats.max_depth}, "
                             f"past twice the degree {max(degrees)}")
    return result


def li_solve(instance: Instance, state_cap: int = DEFAULT_STATE_CAP) -> SolveResult:
    """Complete solver for locally trivial constraints: a class check, then the closed BFS."""
    return _li_bfs(instance, state_cap, "li")


def comli_solve(instance: Instance, state_cap: int = DEFAULT_STATE_CAP) -> SolveResult:
    """Complete solver for commutative locally trivial constraints.

    Each distinct table is checked where it is first used, commutativity
    before local triviality; then the instance takes the ``li_solve`` path.
    """
    for j, S in enumerate(instance.tables):
        if not is_commutative(S):
            raise PreconditionError("is_commutative", instance.table_index.tolist().index(j))
        if li_degree(S) is None:
            raise PreconditionError("is_li", instance.table_index.tolist().index(j))
    return _li_bfs(instance, state_cap, "comli")


def enum_slp_solve(instance: Instance, size_bound: int) -> SolveResult:
    """The first canonical SLP of size <= size_bound whose word every constraint accepts.

    Deliberately doubly exponential; EMPTY only means no SLP within the bound,
    so the result carries complete=False in that case.  The bound must lie in
    0..DEFAULT_ENUM_SIZE_CAP.

    An SLP's images depend only on its word, so each distinct word is tested
    once, at its first canonical SLP: ``slp.first_words`` memoises those words
    per alphabet size and SLP size.  A size's words are folded through each
    constraint's table with one numpy gather per letter position, and the hit
    with the smallest canonical index is the witness.  ``states_explored``
    counts the canonical SLPs up to and including the witness, or all those
    of size <= size_bound on EMPTY.

    The memo keeps every first-occurrence word of sizes 1..6 for four
    alphabet sizes, at least a + a^2 + ... + a^n words at a letters and bound
    n, for the life of the process.  Up to size 6 it holds about 0.7 MB at 3
    letters, 2.6 MB at 4, 7.6 MB at 5 and 19.2 MB at 6 (366,288 SLPs, 61,824
    words, about 1.7 s to fill, 27 MB at the peak).  Its reuse across calls
    with one alphabet size is most of the saving: a first call at 3 letters,
    bound 5, EMPTY takes about 0.015 s, a later one under 1 ms.  A size is
    filled whole, so a first call whose witness comes early in a size still
    pays for all of that size.
    """
    if not 0 <= size_bound <= DEFAULT_ENUM_SIZE_CAP:
        raise ValueError(f"size bound {size_bound} outside 0..{DEFAULT_ENUM_SIZE_CAP}")
    t0 = time.perf_counter()
    tests = []
    for images, j, accept in zip(instance.images, instance.table_index.tolist(), instance.accepts):
        S = instance.tables[j]
        mask = np.zeros(S.size, dtype=bool)
        mask[list(accept)] = True
        tests.append((images, S.array, mask))
    tried = 0
    for size in range(1, size_bound + 1):
        words = first_words(instance.alphabet_size, size)
        tried = words.start + words.count
        hit = None
        for group in words.groups:
            ok = np.ones(group.index.size, dtype=bool)
            for images, table, accept in tests:
                values = images[group.letters]  # (length, words)
                acc = values[0]
                for column in values[1:]:
                    acc = table[acc, column]
                ok &= accept[acc]
            found = np.flatnonzero(ok)
            if found.size and (hit is None or group.index[found[0]] < hit[0]):
                hit = (int(group.index[found[0]]), group.bodies[found[0]])
        if hit is not None:
            witness = Witness("slp-enum", slp=Slp(instance.alphabet_size, hit[1], 0))
            stats = SolveStats(hit[0] + 1, size_bound, time.perf_counter() - t0)
            return SolveResult(SATISFIABLE, witness, True, stats)
    stats = SolveStats(tried, size_bound, time.perf_counter() - t0)
    return SolveResult(EMPTY, None, False, stats)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    images: tuple[int, ...]
    failing: tuple[int, ...]  # constraint indices


def verify_witness(instance: Instance, witness: Witness) -> VerifyResult:
    """Check a witness against every constraint; polynomial even for SLPs.

    A word is read as the one production of an SLP.  Each constraint folds
    the productions on its own, over its row of ``images`` and its table's
    tuples.
    """
    A, G = instance.alphabet_size, witness.slp
    if G is None:
        for a in witness.word:
            if not 0 <= a < A:
                raise IndexError(f"letter {a} out of range 0..{A - 1}")
        order, rhs, start = (0,), (witness.word,), 0
    elif G.alphabet_size != A:
        raise ValueError(f"alphabet mismatch: SLP has {G.alphabet_size} letters, instance {A}")
    else:
        order, rhs, start = _topo_reachable(G), G.rhs, G.start
    tables, images = [S.table for S in instance.tables], []
    for letters, j in zip(instance.images.tolist(), instance.table_index.tolist()):
        t, values = tables[j], {}
        for v in order:
            acc = None
            for sym in rhs[v]:
                val = values[ref_target(sym)] if is_var_ref(sym) else letters[sym]
                acc = val if acc is None else t[acc][val]
            values[v] = acc
        images.append(values[start])
    failing = tuple(i for i, (x, accept) in enumerate(zip(images, instance.accepts)) if x not in accept)
    return VerifyResult(not failing, tuple(images), failing)
