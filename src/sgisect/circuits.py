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
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Morphism, Semigroup
from .slp import Slp, is_var_ref, ref_target, _topo_reachable

# A wire is ("in", i), ("g", i) or ("c", 0); gate inputs carry a negation flag.
Wire = tuple
WireIn = tuple[Wire, bool]

CONST0: Wire = ("c", 0)


@dataclass(frozen=True)
class Gate:
    op: str  # "AND" | "OR"
    inputs: tuple[WireIn, ...]


@dataclass(frozen=True)
class BooleanCircuit:
    n: int
    alphabet_size: int
    bits: int
    gates: tuple[Gate, ...]
    outputs: tuple[WireIn, ...]
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


def _bit_width(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


def element_bits(x: int, bits: int) -> list[int]:
    return [(x >> (bits - 1 - k)) & 1 for k in range(bits)]


def semigroup_table_bits(S: Semigroup) -> list[int]:
    bits = _bit_width(S.size)
    out: list[int] = []
    for row in S.table:
        for v in row:
            out.extend(element_bits(v, bits))
    return out


def morphism_image_bits(h: Morphism) -> list[int]:
    bits = _bit_width(h.target.size)
    out: list[int] = []
    for v in h.images:
        out.extend(element_bits(v, bits))
    return out


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
        return BooleanCircuit(n, m, 0, (), ((CONST0, False),), 0)

    gates: list[Gate] = []

    def add(op: str, inputs: list[WireIn]) -> Wire:
        gates.append(Gate(op, tuple(inputs)))
        return ("g", len(gates) - 1)

    def lookup(a: int) -> list[WireIn]:
        # AND layer: keep letter a's image bits, zero everything else by
        # feeding each foreign bit together with its own negation.
        layer: list[list[Wire]] = []
        for letter in range(m):
            srcs = [("in", (n * n + letter) * bits + k) for k in range(bits)]
            layer.append([add("AND", [(src, False)] if letter == a else [(src, False), (src, True)])
                          for src in srcs])
        return [(add("OR", [(layer[letter][k], False) for letter in range(m)]), False)
                for k in range(bits)]

    def selectors(w: list[WireIn]) -> list[list[WireIn]]:
        # selectors[p] is true exactly when the bits on w spell element p
        return [[(wire, neg ^ (bit == 0)) for (wire, neg), bit in zip(w, element_bits(p, bits))]
                for p in range(n)]

    def mult(xw: list[WireIn], yw: list[WireIn]) -> list[WireIn]:
        # one AND per (table entry, output bit), firing only when the operand
        # bits spell that entry's row and column; one OR per output bit.
        xsel, ysel = selectors(xw), selectors(yw)
        per_bit_sources: list[list[Wire]] = [[] for _ in range(bits)]
        for p in range(n):
            for q in range(n):
                selector = xsel[p] + ysel[q]
                base = (p * n + q) * bits
                for k in range(bits):
                    per_bit_sources[k].append(add("AND", [(("in", base + k), False), *selector]))
        return [(add("OR", [(g, False) for g in per_bit_sources[k]]), False) for k in range(bits)]

    values: dict[int, tuple[list[WireIn], int]] = {}  # variable -> (output bits, depth)
    for v in _topo_reachable(G):
        acc = None
        for sym in G.rhs[v]:
            wires, d = values[ref_target(sym)] if is_var_ref(sym) else (lookup(sym), 2)
            acc = (wires, d) if acc is None else (mult(acc[0], wires), max(acc[1], d) + 2)
        values[v] = acc

    outputs, depth = values[G.start]
    return BooleanCircuit(n, m, bits, tuple(gates), tuple(outputs), depth)


def circuit_size_bound(slp_size: int, n: int, alphabet_size: int) -> int:
    """The guaranteed gate-count bound m*(N*N + |A| + 2)*ceil(log2 N)."""
    return slp_size * (n * n + alphabet_size + 2) * _bit_width(n)


def circuit_eval(C: BooleanCircuit, table_bits, image_bits) -> int:
    """Evaluate topologically and decode the output bits as an element index."""
    table_bits = list(table_bits)
    image_bits = list(image_bits)
    if len(table_bits) != C.table_bit_count:
        raise ValueError(f"expected {C.table_bit_count} table bits, got {len(table_bits)}")
    if len(image_bits) != C.image_bit_count:
        raise ValueError(f"expected {C.image_bit_count} image bits, got {len(image_bits)}")
    # a wire's value is 0 or 1; a negated input reads true when it differs from its flag
    values: dict[Wire, int] = {("in", i): v for i, v in enumerate(table_bits + image_bits)}
    values[CONST0] = 0
    for i, gate in enumerate(C.gates):
        test = all if gate.op == "AND" else any
        values[("g", i)] = test(values[w] != neg for w, neg in gate.inputs)

    result = 0
    for wire, neg in C.outputs:
        result = (result << 1) | (values[wire] != neg)
    return result
