import hashlib
import random

import pytest

from sgisect.core import Morphism
from sgisect.families import cyclic, mincap
from sgisect.formats import (FormatError, parse_instance, parse_slp_text, parse_table_text,
                             serialize_circuit_text, serialize_instance, serialize_slp_text,
                             serialize_table_text)
from sgisect.reductions import CnfFormula, reduce_nilpotent, reduce_unbounded
from sgisect.slp import canonical_slp, power_slp, slp_eval_word
from sgisect.solve import Constraint, Instance, brute_force_solve

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

    @pytest.mark.parametrize("old, new, line", [
        ("IMAGES 0\n", "IMAGES 0\nIMAGES 0\n", 8),
        ("ACCEPT 0\n", "ACCEPT 0\nACCEPT 0\n", 9),
        ("IMAGES 0\n", "NAME c\nNAME d\nIMAGES 0\n", 8),
    ], ids=["IMAGES", "ACCEPT", "NAME"])
    def test_repeated_constraint_line(self, old, new, line):
        bad = MINIMAL.replace(old, new)
        keyword = new.split()[0]
        with pytest.raises(FormatError, match=rf"^line {line}: repeated {keyword} "):
            parse_instance(bad)

    def test_random_round_trips(self, family_pool):
        rng = random.Random(2718)
        for _ in range(30):
            semis = [rng.choice(family_pool) for _ in range(rng.randint(1, 3))]
            I = random_instance(rng, semis, rng.randint(1, 3), allow_empty_accept=True)
            text = serialize_instance(I)
            assert parse_instance(text) == I
            assert serialize_instance(parse_instance(text)) == text

    @pytest.mark.parametrize("names", [("a#", "b"), ("a b", "c"), ("", "b"), ("a\tb", "c")])
    def test_letter_names_the_format_cannot_hold(self, names):
        # such a name would be written into a NAMES line that no longer holds
        # one token per letter, so Instance rejects it before it is written
        h = Morphism((0, 1), mincap(3))
        with pytest.raises(ValueError, match="letter name .* not one token"):
            Instance(names, (Constraint(h, {2}),))
        text = serialize_instance(Instance(("p", "q"), (Constraint(h, {2}),)))
        written = text.replace("NAMES p q", "NAMES " + " ".join(names))
        with pytest.raises(FormatError, match="^line 3: NAMES needs 2 tokens"):
            parse_instance(written)

    def test_unusual_letter_names_round_trip(self):
        I = Instance(("α", "a-b", "x1'", "b*"),
                     (Constraint(Morphism((0, 1, 2, 0), mincap(3)), {2}),))
        text = serialize_instance(I)
        assert parse_instance(text) == I
        assert serialize_instance(parse_instance(text)) == text


def _mixed_instance() -> Instance:
    """Tables A, B, an equal copy of A, then B again."""
    A, B = mincap(4), cyclic(3)
    return Instance(("a", "b"), (
        Constraint(Morphism((1, 2), A), {3}),
        Constraint(Morphism((0, 1), B), {0, 2}),
        Constraint(Morphism((2, 0), mincap(4)), {1, 3}, "copy"),
        Constraint(Morphism((2, 2), B), set())))


NIL8 = CnfFormula(8, tuple(map(frozenset, [
    {1, -2, 3}, {-1, 4, 5}, {2, -6, 7}, {-3, -4, 8}, {5, 6, -8}, {-5, -7, 1},
    {2, 4, -6}, {-2, 3, 7}, {6, -7, -8}, {1, 8}, {-4}])))
UNB6 = CnfFormula(6, tuple(map(frozenset, [
    {1, 2, -3}, {-1, 4, 6}, {3, -5, -6}, {-2, 5}, {-4, -6, 2}, {1, -3, 5}])))


class TestCanonicalSerialization:
    """sha256 of serialize_instance output, pinned from the per-constraint
    table lookup that looked every constraint up by its table's content."""

    @pytest.mark.parametrize("build, tables, digest", [
        (lambda: reduce_nilpotent(NIL8), 1,
         "50a58bf5d571a02cebb1bcb828013c3e6d46e07770497f792d0f3b70d9baa897"),
        (lambda: reduce_unbounded(UNB6), 1,
         "adfb4583fc2e49a8763e8f02a17c79494a561d1e866ecd190bc89460178ec1c8"),
        (_mixed_instance, 2,
         "e36bee55a20b7a5e08c5e2f21929e51e9f2164cc73ef5bf0d12fc7f44147fd1e"),
    ], ids=["nilpotent-k8", "unbounded-k6", "mixed"])
    def test_digest_pinned(self, build, tables, digest):
        text = serialize_instance(build())
        assert text.count("TABLE ") == tables
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert serialize_instance(parse_instance(text)) == text

    def test_equal_tables_merge_in_order_of_first_appearance(self):
        text = serialize_instance(_mixed_instance())
        assert [l for l in text.splitlines() if l.startswith("TABLE ")] == ["TABLE T0 4", "TABLE T1 3"]
        assert [l for l in text.splitlines() if l.startswith("CONSTRAINT ")] == [
            "CONSTRAINT T0", "CONSTRAINT T1", "CONSTRAINT T0", "CONSTRAINT T1"]


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
