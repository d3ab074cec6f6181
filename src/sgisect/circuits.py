"""Lowering of SLP image computations to unbounded fan-in Boolean circuits.

Input layout (one bit per position, most significant bit first throughout):
the N*N multiplication-table entries in row-major order at ceil(log2 N) bits
each, followed by the per-letter images at ceil(log2 N) bits each.  NOT never
appears as a gate; negation is an attribute of an incoming wire and is not
counted in size or depth.  For a one-element target there is nothing to
compute and the circuit has a single constant-0 output bit.

Gadgets mirror the evaluation strategy: a two-layer lookup gadget per letter
occurrence (an AND layer masking every letter's image bits except the
hardwired one, then an OR layer collecting the survivors) and a two-layer
multiplication gadget per product (one AND per table entry and output bit,
firing only when the operand bits match that entry, then one OR per output
bit).  A size-m SLP over a target of size N with alphabet A therefore costs
at most m*(N*N + |A| + 2)*ceil(log2 N) gates at depth at most 2m + 2.

A circuit is stored as read-only numpy arrays over integer wire ids: the
input bits first, then the constant-0 wire at ``input_count``, then one wire
per gate, with each gate's inputs in CSR form.  The outputs are wire ids too.
Each gadget is a fixed pattern apart from its operand wires and the id of
its first gate, so lowering builds each pattern once (lazily, in a bounded
cache), places a copy per gadget with one offset and one gather, and joins
all gadgets at the end.  Gate ids are an evaluation order: each gadget's
AND layer reads only input bits and earlier gadgets' outputs, and its OR
layer only that AND layer.  So evaluation walks the gates in id order, one
numpy step per gadget layer instead of one Python step per gate: two steps
per gadget.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Morphism, Semigroup
from .slp import Slp, is_var_ref, ref_target, _topo_reachable

OPS = ("AND", "OR")  # BooleanCircuit.op holds an index into this
AND, OR = 0, 1


def _frozen(values, dtype) -> np.ndarray:
    a = np.asarray(values, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class BooleanCircuit:
    """A netlist over table and image input bits.

    Wire ids: input bit i is wire i, the constant-0 wire is ``input_count``
    and gate g is wire ``input_count + 1 + g``.  Gate g applies
    ``OPS[op[g]]`` to the wires ``src[indptr[g]:indptr[g + 1]]``, each
    negated where ``neg`` is set.  Gate ids are an evaluation order: each
    maximal run of one op reads only wires before its first gate.
    ``outputs`` are wire ids, most significant bit first: unnegated OR
    gates, or the constant wire for a one-element target.  The arrays are
    read-only; ``==`` and ``hash`` compare the netlist.
    """

    n: int
    alphabet_size: int
    bits: int
    outputs: tuple[int, ...]
    depth: int
    op: np.ndarray
    indptr: np.ndarray
    src: np.ndarray
    neg: np.ndarray

    def _netlist(self) -> tuple:
        return (self.n, self.alphabet_size, self.bits, self.outputs,
                *(a.tobytes() for a in (self.op, self.indptr, self.src, self.neg)))

    def __eq__(self, other) -> bool:
        return isinstance(other, BooleanCircuit) and self._netlist() == other._netlist()

    def __hash__(self) -> int:
        return hash(self._netlist())

    @property
    def size(self) -> int:
        return len(self.op)

    @property
    def table_bit_count(self) -> int:
        return self.n * self.n * self.bits

    @property
    def image_bit_count(self) -> int:
        return self.alphabet_size * self.bits

    @property
    def input_count(self) -> int:
        return self.table_bit_count + self.image_bit_count


def _bit_width(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


def element_bits(x: int, bits: int) -> list[int]:
    return [(x >> (bits - 1 - k)) & 1 for k in range(bits)]


def _bits_of(values, n: int) -> list[int]:
    """``element_bits`` of each value in turn, for a target of n elements, as one shift and mask."""
    shifts = np.arange(_bit_width(n) - 1, -1, -1)
    return ((np.asarray(values)[..., None] >> shifts) & 1).ravel().tolist()


def semigroup_table_bits(S: Semigroup) -> list[int]:
    return _bits_of(S.array, S.size)


def morphism_image_bits(h: Morphism) -> list[int]:
    return _bits_of(h.images, h.target.size)


# -- gadget patterns ----------------------------------------------------------------
#
# A pattern input names its wire as offset + env[slot], where a gadget's env is
# [0, id of its first gate, operand bit wires...]: slot _FIXED gives an absolute
# wire (an input bit), slot _LOCAL a gate of the same gadget, slot 2 + j the j-th
# operand bit.  Every value is the unnegated output of an OR gate, so operand
# wires carry no flag of their own and a pattern's flags are final.

_FIXED, _LOCAL = 0, 1
PATTERN_CACHE = 64  # patterns kept per gadget kind, least recently used dropped first


class _Pattern(NamedTuple):
    op: np.ndarray  # per gate, index into OPS
    lens: np.ndarray  # per gate, its input count
    slot: np.ndarray  # per input
    offset: np.ndarray  # per input
    neg: np.ndarray  # per input


def _pattern(gates: list[tuple[int, list[tuple[int, int, bool]]]]) -> _Pattern:
    ins = [x for _, inputs in gates for x in inputs]
    slot, offset, neg = zip(*ins)
    return _Pattern(_frozen([op for op, _ in gates], np.uint8),
                    _frozen([len(inputs) for _, inputs in gates], np.intp),
                    _frozen(slot, np.intp), _frozen(offset, np.intp), _frozen(neg, bool))


@functools.lru_cache(maxsize=PATTERN_CACHE)
def _lookup_pattern(n: int, m: int, bits: int, a: int) -> _Pattern:
    # AND layer: keep letter a's image bits, zero everything else by feeding
    # each foreign bit together with its own negation; OR layer per bit.
    gates = []
    for letter in range(m):
        for k in range(bits):
            wire = (n * n + letter) * bits + k
            inputs = [(_FIXED, wire, False)]
            if letter != a:
                inputs.append((_FIXED, wire, True))
            gates.append((AND, inputs))
    gates += [(OR, [(_LOCAL, letter * bits + k, False) for letter in range(m)]) for k in range(bits)]
    return _pattern(gates)


@functools.lru_cache(maxsize=PATTERN_CACHE)
def _product_pattern(n: int, bits: int) -> _Pattern:
    # one AND per (table entry, output bit), firing only when the operand bits
    # spell that entry's row p and column q; one OR per output bit.
    def selector(p: int, first_slot: int) -> list[tuple[int, int, bool]]:
        return [(first_slot + k, 0, bit == 0) for k, bit in enumerate(element_bits(p, bits))]

    gates = []
    for p in range(n):
        for q in range(n):
            select = selector(p, 2) + selector(q, 2 + bits)
            gates += [(AND, [(_FIXED, (p * n + q) * bits + k, False), *select]) for k in range(bits)]
    gates += [(OR, [(_LOCAL, e * bits + k, False) for e in range(n * n)]) for k in range(bits)]
    return _pattern(gates)


def slp_to_circuit(G: Slp, h: Morphism) -> BooleanCircuit:
    """Circuit computing the image of G's word under h from table and image bits.

    Each gadget is one AND layer then one OR layer, and all bits of a value
    share one depth, so depth is carried with each value: a lookup's outputs
    sit at depth 2 and a product's at max(dx, dy) + 2.
    """
    if G.alphabet_size != h.alphabet_size:
        raise ValueError(f"alphabet mismatch: SLP has {G.alphabet_size} letters, morphism {h.alphabet_size}")
    n = h.target.size
    m = h.alphabet_size
    bits = _bit_width(n)
    if bits == 0:
        # no input bits, so the constant wire is wire 0
        return BooleanCircuit(n, m, 0, (0,), 0, op=_frozen((), np.uint8), indptr=_frozen((0,), np.intp),
                              src=_frozen((), np.intp), neg=_frozen((), bool))

    first_gate = (n * n + m) * bits + 1  # wire id of gate 0
    placed: list[_Pattern] = []
    env: list[int] = []  # every gadget's env, one after another
    env_starts: list[int] = []
    count = 0  # gates placed so far

    def place(pattern: _Pattern, operands: list[int]) -> list[int]:
        nonlocal count
        base = first_gate + count
        env_starts.append(len(env))
        env.extend((0, base, *operands))
        placed.append(pattern)
        count += len(pattern.op)
        return list(range(base + len(pattern.op) - bits, base + len(pattern.op)))

    values: dict[int, tuple[list[int], int]] = {}  # variable -> (output wire ids, depth)
    for v in _topo_reachable(G):
        acc = None
        for sym in G.rhs[v]:
            if is_var_ref(sym):
                wires, d = values[ref_target(sym)]
            else:
                wires, d = place(_lookup_pattern(n, m, bits, sym), []), 2
            if acc is None:
                acc = (wires, d)
            else:
                acc = (place(_product_pattern(n, bits), acc[0] + wires), max(acc[1], d) + 2)
        values[v] = acc

    # one offset and one gather for all gadgets: input j of a gadget placed with
    # env e reads wire offset[j] + e[slot[j]]
    slot = np.concatenate([p.slot for p in placed]) + np.repeat(env_starts, [len(p.slot) for p in placed])
    src = np.concatenate([p.offset for p in placed]) + np.array(env, dtype=np.intp)[slot]
    lens = np.concatenate([p.lens for p in placed])
    out_wires, depth = values[G.start]
    return BooleanCircuit(n, m, bits, tuple(out_wires), depth,
                          op=_frozen(np.concatenate([p.op for p in placed]), np.uint8),
                          indptr=_frozen(np.concatenate(([0], np.cumsum(lens))), np.intp),
                          src=_frozen(src, np.intp),
                          neg=_frozen(np.concatenate([p.neg for p in placed]), bool))


def circuit_size_bound(slp_size: int, n: int, alphabet_size: int) -> int:
    """The guaranteed gate-count bound m*(N*N + |A| + 2)*ceil(log2 N)."""
    return slp_size * (n * n + alphabet_size + 2) * _bit_width(n)


def _check_bits(kind: str, values: list, expected: int) -> None:
    if len(values) != expected:
        raise ValueError(f"expected {expected} {kind} bits, got {len(values)}")
    if not set(values) <= {0, 1}:
        i, v = next((i, v) for i, v in enumerate(values) if v not in (0, 1))
        raise ValueError(f"{kind} bit {i} is {v!r}, expected 0 or 1")


def circuit_eval(C: BooleanCircuit, table_bits, image_bits) -> int:
    """Evaluate in gate order and decode the output bits as an element index.

    Each maximal run of one op is one gadget layer and reads only wires
    before its first gate, so it is one gather of its input wires, one XOR
    with the negation flags, one ``reduceat`` over the gates' input runs and
    one contiguous write into the wire values.
    """
    table_bits = list(table_bits)
    image_bits = list(image_bits)
    _check_bits("table", table_bits, C.table_bit_count)
    _check_bits("image", image_bits, C.image_bit_count)
    first_gate = C.input_count + 1
    values = np.zeros(first_gate + C.size, dtype=bool)  # the constant wire stays 0
    values[:first_gate - 1] = table_bits + image_bits

    firsts = np.flatnonzero(np.diff(C.op, prepend=-1)).tolist()
    for lo, hi in zip(firsts, firsts[1:] + [C.size]):
        reduce = np.logical_and if C.op[lo] == AND else np.logical_or
        start, stop = C.indptr[lo], C.indptr[hi]
        ins = values[C.src[start:stop]] ^ C.neg[start:stop]
        values[first_gate + lo:first_gate + hi] = reduce.reduceat(ins, C.indptr[lo:hi] - start)

    result = 0
    for wire in C.outputs:
        result = (result << 1) | int(values[wire])
    return result
