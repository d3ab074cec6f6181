import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sgisect
from sgisect.circuits import (circuit_eval, circuit_size_bound, morphism_image_bits,
                              semigroup_table_bits, slp_to_circuit)
from sgisect.core import Morphism
from sgisect.families import cyclic, leftzero, mincap, nilinterval, rightzero, trivial
from sgisect.formats import serialize_circuit_text
from sgisect.slp import canonical_slp, power_slp, slp_image, slp_stats

from _oracles import (circuit_depth, circuit_eval_reference, image_bits_reference, random_morphism,
                      random_slp, runs_read_earlier_wires, serialize_circuit_reference,
                      slp_to_circuit_reference, table_bits_reference)


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

    @pytest.mark.parametrize("table_value, image_value", [(2, 2), (0, 2), (1, -1), (0, "1"), (0, None)])
    def test_rejects_bits_other_than_0_1(self, table_value, image_value):
        h = Morphism((0, 0), mincap(3))
        C = slp_to_circuit(canonical_slp((0, 1), 2), h)
        table_bits = [table_value] * C.table_bit_count
        image_bits = [0] * (C.image_bit_count - 1) + [image_value]
        with pytest.raises(ValueError, match="expected 0 or 1"):
            circuit_eval(C, table_bits, image_bits)


class TestRepresentation:
    G = power_slp(canonical_slp((0, 1, 0), 2), 5)
    h = Morphism((1, 3), cyclic(4))

    def test_arrays_read_only(self):
        C = slp_to_circuit(self.G, self.h)
        for name in ("op", "indptr", "src", "neg"):
            array = getattr(C, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_equal_lowerings_compare_and_hash_equal(self):
        C, D = slp_to_circuit(self.G, self.h), slp_to_circuit(self.G, self.h)
        assert C == D and hash(C) == hash(D)

    def test_different_netlists_compare_unequal(self):
        # same sizes, outputs and depth; only the hardwired letters differ
        h = Morphism((0, 1), mincap(4))
        C, value_c = _eval_on(canonical_slp((0, 0), 2), h)
        D, value_d = _eval_on(canonical_slp((1, 1), 2), h)
        assert (value_c, value_d) == (1, 3)
        assert C != D and hash(C) != hash(D)

    def test_one_element_target(self):
        C = slp_to_circuit(canonical_slp((0, 1, 1), 2), Morphism((0, 0), trivial()))
        assert C.size == 0
        assert C.outputs == (C.input_count,)
        assert circuit_eval(C, [], []) == 0

    def test_no_pattern_built_at_import(self):
        code = ("import sgisect, sgisect.circuits as c, sgisect.slp as s; "
                "print(c._lookup_pattern.cache_info().currsize, c._product_pattern.cache_info().currsize, "
                "s.first_words.cache_info().currsize)")
        src = str(Path(sgisect.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0", "0"]


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


class TestGateOrder:
    # circuit_eval writes each run of one op in one step, so a run must not
    # read its own or a later gate
    @pytest.mark.parametrize("G, images, S", [
        (canonical_slp((0, 1), 2), (0, 0), mincap(3)),
        (power_slp(canonical_slp((0, 1, 0), 2), 5), (1, 3), cyclic(4)),
        (power_slp(canonical_slp((1, 0), 3), 3), (1, 2, 0), nilinterval(2)),
        (canonical_slp((0, 1), 2), (0, 0), trivial()),
    ], ids=["mincap3", "cyclic4-power", "nilinterval2-power", "trivial"])
    def test_pinned_netlists_run_on_earlier_wires(self, G, images, S):
        assert runs_read_earlier_wires(slp_to_circuit(G, Morphism(images, S)))

    def test_checker_flags_a_run_reading_its_own_gate(self):
        C = slp_to_circuit(canonical_slp((0, 1), 2), Morphism((0, 0), mincap(3)))
        src = C.src.copy()
        src[C.indptr[-2]] = C.input_count + C.size  # the last OR reads the last gate, itself
        assert not runs_read_earlier_wires(dataclasses.replace(C, src=src))


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
            assert C.size == len(C.indptr) - 1 == len(C.op)
            got = circuit_eval(C, semigroup_table_bits(S), morphism_image_bits(h))
            assert got == slp_image(G, h)

    @pytest.mark.parametrize("n", [1, 2, 5, 256, 257])
    def test_table_bits_round_trip_every_entry(self, n):
        # decoding the emitted table bits recovers the table
        S = mincap(n)
        bits = semigroup_table_bits(S)
        width = (n - 1).bit_length()
        assert len(bits) == n * n * width
        for x in range(n):
            for y in range(n):
                start = (x * n + y) * width
                value = 0
                for b in bits[start:start + width]:
                    value = (value << 1) | b
                assert value == S.table[x][y]

    def test_bits_match_per_entry_loops(self, derived_pool):
        rng = random.Random(99)
        for S in derived_pool:
            table_bits = semigroup_table_bits(S)
            assert table_bits == table_bits_reference(S)
            assert type(table_bits) is list and all(type(b) is int for b in table_bits)
            h = random_morphism(rng, S, rng.randint(1, 4))
            assert morphism_image_bits(h) == image_bits_reference(h)


class TestReferenceAgreement:
    def test_matches_per_gate_lowering_and_evaluation(self):
        # The random input bits need not encode a semigroup, so an evaluator that
        # computed the image some other way than through the netlist would differ.
        rng = random.Random(2718)
        pool = [mincap(m) for m in (2, 3, 4, 5, 6)]
        pool += [leftzero(3), rightzero(2), cyclic(4), cyclic(5), nilinterval(2), trivial()]
        powered = 0
        for _ in range(300):
            S = rng.choice(pool)
            m = rng.randint(1, 3)
            h = Morphism(tuple(rng.randrange(S.size) for _ in range(m)), S)
            if rng.random() < 0.3:
                G = power_slp(random_slp(rng, m, 4), rng.randint(2, 40))
                powered += 1
            else:
                G = random_slp(rng, m, 8)
            C, R = slp_to_circuit(G, h), slp_to_circuit_reference(G, h)
            # the text holds every gate's op, inputs and negations, and the outputs
            assert serialize_circuit_text(C) == serialize_circuit_reference(R)
            assert (C.size, C.depth) == (R.size, R.depth)
            assert runs_read_earlier_wires(C)
            table_bits, image_bits = semigroup_table_bits(S), morphism_image_bits(h)
            assert circuit_eval(C, table_bits, image_bits) == circuit_eval_reference(R, table_bits, image_bits)
            for _ in range(2):
                table_bits = [rng.randint(0, 1) for _ in range(C.table_bit_count)]
                image_bits = [rng.randint(0, 1) for _ in range(C.image_bit_count)]
                assert circuit_eval(C, table_bits, image_bits) == circuit_eval_reference(R, table_bits, image_bits)
        assert 60 <= powered <= 120
