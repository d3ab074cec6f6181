import hashlib
import random

import pytest

from sgisect.circuits import (circuit_eval, circuit_size_bound, morphism_image_bits,
                              semigroup_table_bits, slp_to_circuit)
from sgisect.core import Morphism
from sgisect.families import cyclic, leftzero, mincap, nilinterval, rightzero, trivial
from sgisect.formats import serialize_circuit_text
from sgisect.slp import canonical_slp, power_slp, slp_image, slp_stats

from _oracles import circuit_depth, random_slp


def _eval_on(G, h):
    C = slp_to_circuit(G, h)
    return C, circuit_eval(C, semigroup_table_bits(h.target), morphism_image_bits(h))


class TestExamples:
    def test_single_letter_lookup(self):
        S = leftzero(2)
        for image in (0, 1):
            h = Morphism((image,), S)
            C, value = _eval_on(canonical_slp((0,), 1), h)
            assert C.depth <= 4
            assert value == image

    def test_two_letter_product_over_mincap3(self):
        h = Morphism((0, 0), mincap(3))
        G = canonical_slp((0, 1), 2)
        C, value = _eval_on(G, h)
        assert value == 1 == slp_image(G, h)  # index 1 encodes value 2

    def test_trivial_target_constant_output(self):
        h = Morphism((0, 0), trivial())
        G = canonical_slp((0, 1), 2)
        C, value = _eval_on(G, h)
        assert C.size == 0 and C.bits == 0
        assert value == 0

    def test_layout_mismatch(self):
        h = Morphism((0,), mincap(3))
        C = slp_to_circuit(canonical_slp((0,), 1), h)
        with pytest.raises(ValueError, match="table bits"):
            circuit_eval(C, [0] * 3, morphism_image_bits(h))
        with pytest.raises(ValueError, match="image bits"):
            circuit_eval(C, semigroup_table_bits(mincap(3)), [0])


class TestGoldenNetlists:
    # sha256 of the serialized netlist; a change to gate order, wiring or
    # negation flags changes the hash even when the circuit still evaluates right
    @pytest.mark.parametrize("G, images, S, digest, size, depth", [
        (canonical_slp((0, 1), 2), (0, 0), mincap(3),
         "f1467d8276641b59d6aed951d1ca65fd5ed8db02d51a5e280d0ee3e62c2bf67f", 32, 4),
        (power_slp(canonical_slp((0, 1, 0), 2), 5), (1, 3), cyclic(4),
         "60ca7c25c6f81c23a3d6103d22092c6b6979b01aac09281f2b1061603d26a9e2", 188, 12),
        (power_slp(canonical_slp((1, 0), 3), 3), (1, 2, 0), nilinterval(2),
         "042e824a81b9ffaacaa47e1e5d16b3df0d9c7ae68255598e30edf1b9a5216dee", 118, 8),
        (canonical_slp((0, 1), 2), (0, 0), trivial(),
         "b44404012e0a6dbf2c224f361c0f4a1b0767240a57987e85d56f6085ab30176e", 0, 0),
    ], ids=["mincap3", "cyclic4-power", "nilinterval2-power", "trivial"])
    def test_netlist_pinned(self, G, images, S, digest, size, depth):
        C = slp_to_circuit(G, Morphism(images, S))
        assert hashlib.sha256(serialize_circuit_text(C).encode()).hexdigest() == digest
        assert (C.size, C.depth) == (size, depth)


class TestRandomAgreement:
    def test_eval_matches_image_within_bounds(self):
        rng = random.Random(31415)
        pool = [mincap(m) for m in (2, 3, 4, 5, 6)]
        pool += [leftzero(3), rightzero(2), cyclic(4), nilinterval(2), trivial()]
        for _ in range(100):
            S = rng.choice(pool)
            m = rng.randint(1, 3)
            h = Morphism(tuple(rng.randrange(S.size) for _ in range(m)), S)
            G = random_slp(rng, m, 8)
            C = slp_to_circuit(G, h)
            size = slp_stats(G)[0]
            assert C.size <= circuit_size_bound(size, S.size, m)
            assert C.depth <= 2 * size + 2
            assert C.depth == circuit_depth(C)
            assert C.size == len(C.gates)
            got = circuit_eval(C, semigroup_table_bits(S), morphism_image_bits(h))
            assert got == slp_image(G, h)

    def test_table_bits_round_trip_every_entry(self):
        # decoding the emitted table bits recovers the table
        S = mincap(5)
        bits = semigroup_table_bits(S)
        width = 3
        for x in range(5):
            for y in range(5):
                start = (x * 5 + y) * width
                value = 0
                for b in bits[start:start + width]:
                    value = (value << 1) | b
                assert value == S.table[x][y]
