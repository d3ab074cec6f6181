import random

import pytest

from sgisect.families import mincap
from sgisect.formats import (FormatError, parse_instance, parse_slp_text, parse_table_text,
                             serialize_circuit_text, serialize_instance, serialize_slp_text,
                             serialize_table_text)
from sgisect.reductions import CnfFormula, reduce_unbounded
from sgisect.slp import canonical_slp, power_slp, slp_eval_word
from sgisect.solve import brute_force_solve

from _oracles import random_instance

MINIMAL = """\
SGI 1
ALPHABET 1
TABLE T0 1
0
END
CONSTRAINT T0
IMAGES 0
ACCEPT 0
END
"""


class TestInstanceFormat:
    def test_minimal_document(self):
        I = parse_instance(MINIMAL)
        assert I.letter_names == ("a0",)  # default names
        assert len(I.constraints) == 1
        assert brute_force_solve(I).satisfiable

    def test_comments_and_blanks_ignored(self):
        text = "# leading\nSGI 1  # trailing\n\nALPHABET 1\n" + MINIMAL.split("\n", 2)[2]
        assert parse_instance(text) == parse_instance(MINIMAL)

    def test_gadget_round_trip(self):
        I = reduce_unbounded(CnfFormula(2, (frozenset({1, -2}),)))
        text = serialize_instance(I)
        assert parse_instance(text) == I
        assert serialize_instance(parse_instance(text)) == text  # byte identical

    def test_shared_table_emitted_once(self):
        I = reduce_unbounded(CnfFormula(1, (frozenset({1}),)))
        text = serialize_instance(I)
        assert text.count("TABLE ") == 1
        assert text.count("CONSTRAINT ") == 3

    def test_empty_accept_serializes_bare(self):
        from sgisect.core import Morphism
        from sgisect.solve import Constraint, Instance
        I = Instance(("a",), (Constraint(Morphism((0,), mincap(2)), frozenset()),))
        text = serialize_instance(I)
        assert "\nACCEPT\n" in text
        assert parse_instance(text) == I

    def test_missing_header(self):
        with pytest.raises(FormatError, match="SGI 1"):
            parse_instance("ALPHABET 1\n")

    def test_error_carries_line_number(self):
        bad = MINIMAL.replace("IMAGES 0", "IMAGES 9")
        with pytest.raises(FormatError, match="line 7"):
            parse_instance(bad)

    def test_undeclared_table(self):
        bad = MINIMAL.replace("CONSTRAINT T0", "CONSTRAINT T9")
        with pytest.raises(FormatError, match="undeclared"):
            parse_instance(bad)

    def test_non_associative_table_names_triple(self):
        bad = "SGI 1\nALPHABET 1\nTABLE T0 2\n1 0\n0 0\nEND\nCONSTRAINT T0\nIMAGES 0\nACCEPT 0\nEND\n"
        with pytest.raises(FormatError, match=r"\(0, 0, 1\)"):
            parse_instance(bad)

    def test_accept_out_of_range(self):
        bad = MINIMAL.replace("ACCEPT 0", "ACCEPT 5")
        with pytest.raises(FormatError, match="out of range"):
            parse_instance(bad)

    @pytest.mark.parametrize("old, new, line", [
        ("TABLE T0 1\n0\n", "TABLE T0 2\n0 1\n1 2\n", 3),  # entry out of range: at TABLE
        ("TABLE T0 1\n0\n", "TABLE T0 2\n0 1\n1\n", 5),  # ragged row: at the row
        ("ACCEPT 0", "ACCEPT 0 5", 8),
    ])
    def test_value_type_errors_carry_line_number(self, old, new, line):
        bad = MINIMAL.replace(old, new)
        with pytest.raises(FormatError, match=rf"^line {line}: "):
            parse_instance(bad)

    def test_random_round_trips(self, family_pool):
        rng = random.Random(2718)
        for _ in range(30):
            semis = [rng.choice(family_pool) for _ in range(rng.randint(1, 3))]
            I = random_instance(rng, semis, rng.randint(1, 3), allow_empty_accept=True)
            text = serialize_instance(I)
            assert parse_instance(text) == I
            assert serialize_instance(parse_instance(text)) == text


class TestSlpFormat:
    def test_round_trip_default_names(self):
        G = power_slp(canonical_slp((0, 1), 2), 5)
        text = serialize_slp_text(G)
        back, names = parse_slp_text(text)
        assert back == G and names == ("a0", "a1")
        assert serialize_slp_text(back, names) == text

    def test_letters_in_first_appearance_order(self):
        G, names = parse_slp_text("SLP 1\nSTART X0\nX0 = b a b\n")
        assert names == ("b", "a")
        assert slp_eval_word(G) == (0, 1, 0)

    def test_fixed_letter_names(self):
        G, names = parse_slp_text("SLP 1\nSTART X0\nX0 = x1\n", ("x1", "nx1"))
        assert names == ("x1", "nx1") and G.alphabet_size == 2

    def test_unknown_letter_with_fixed_names(self):
        with pytest.raises(FormatError, match="unknown letter"):
            parse_slp_text("SLP 1\nSTART X0\nX0 = q\n", ("a",))

    def test_definition_order_is_free(self):
        text = "SLP 1\nSTART X1\nX0 = a a\nX1 = X0 X0\n"
        G, _ = parse_slp_text(text)
        assert slp_eval_word(G) == (0, 0, 0, 0)

    def test_undefined_reference(self):
        with pytest.raises(FormatError, match="never defined"):
            parse_slp_text("SLP 1\nSTART X0\nX0 = X7\n")

    def test_undefined_start(self):
        with pytest.raises(FormatError, match="never defined"):
            parse_slp_text("SLP 1\nSTART X3\nX0 = a\n")

    def test_duplicate_definition(self):
        with pytest.raises(FormatError, match="twice"):
            parse_slp_text("SLP 1\nSTART X0\nX0 = a\nX0 = a a\n")

    def test_comments(self):
        G, _ = parse_slp_text("# c\nSLP 1\nSTART X0 # start\nX0 = a # body\n")
        assert slp_eval_word(G) == (0,)


class TestTableFormat:
    def test_round_trip(self):
        S = mincap(4)
        assert parse_table_text(serialize_table_text(S)) == S

    def test_bad_row_count(self):
        with pytest.raises(FormatError, match="rows"):
            parse_table_text("0 1\n")

    def test_not_integer(self):
        with pytest.raises(FormatError, match="non-integer"):
            parse_table_text("x\n")

    def test_empty(self):
        with pytest.raises(FormatError, match="empty"):
            parse_table_text("# nothing here\n")

    def test_ragged_row(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_table_text("0 1\n1\n")

    def test_entry_out_of_range(self):
        with pytest.raises(FormatError, match="out of range"):
            parse_table_text("0 5\n1 0\n")


class TestCircuitFormat:
    def test_emit_shape(self):
        from sgisect.circuits import slp_to_circuit
        from sgisect.core import Morphism
        h = Morphism((0, 0), mincap(3))
        C = slp_to_circuit(canonical_slp((0, 1), 2), h)
        text = serialize_circuit_text(C)
        lines = text.splitlines()
        assert lines[0] == "CIRCUIT 1"
        assert sum(1 for l in lines if l.startswith("GATE ")) == C.size
        assert sum(1 for l in lines if l.startswith("OUTPUT ")) == len(C.outputs)
        assert f"SIZE {C.size}" in lines and f"DEPTH {C.depth}" in lines
