import hashlib
import random
import re
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sgisect import formats
from sgisect.core import Morphism
from sgisect.families import cyclic, mincap, nilinterval
from sgisect.formats import (FormatError, parse_instance, parse_slp_text, parse_table_text,
                             serialize_circuit_text, serialize_instance, serialize_slp_text,
                             serialize_table_text)
from sgisect.reductions import CnfFormula, reduce_nilpotent, reduce_unbounded
from sgisect.slp import canonical_slp, power_slp, slp_eval_word
from sgisect.solve import Constraint, Instance, brute_force_solve, li_solve, verify_witness

from _oracles import random_instance, serialize_table_text_reference

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

    def test_huge_alphabet_without_names_fails_at_images(self):
        # the default names a0, a1, ... are built only after every IMAGES line held m tokens
        bad = MINIMAL.replace("ALPHABET 1", "ALPHABET 1000000000000")
        with pytest.raises(FormatError, match=r"^line 7: IMAGES needs 1000000000000 indices, got 1$"):
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


def _seeded_formula(k: int) -> CnfFormula:
    """A random CNF over k variables, clause widths 1 to 3, about 4.2 clauses per variable."""
    rng = random.Random(f"reduction-{k}")
    return CnfFormula(k, tuple(
        frozenset(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, k + 1), rng.randint(1, min(3, k))))
        for _ in range(round(4.2 * k))))


class TestReductionSerialization:
    """sha256 of serialize_instance of each gadget, pinned from the reductions
    that looked up each letter's literal and diagonal image per clause."""

    @pytest.mark.parametrize("reduce, k, digest", [
        (reduce_nilpotent, 3, "cf2854e1348e45c752d4da6d7b26bdf986703f449f1525558c8ce512367da86e"),
        (reduce_nilpotent, 4, "8c6db866d9c1552cc02babbbaa9b035d5069f480ca457fa090b10463a3df8e5e"),
        (reduce_nilpotent, 5, "de9c207aeda11bad1b51bdc80b1dfc2c81f6a430799bbeae9a9c011365ffe78d"),
        (reduce_nilpotent, 6, "e1d506f0000fdae92ec8f5742ca08a938adf400bda9307431b3dac48d9941c4f"),
        (reduce_nilpotent, 7, "bcaced7dfd864ed903267b3923a1048b87f9857b1514e3da904f005289b7450f"),
        (reduce_nilpotent, 8, "bb64c0e397190b39c6186f4cc4fefe57c94522593a5643bd6c2da624673aebb5"),
        (reduce_unbounded, 3, "4c82cbbd4f5fa34ed843558e7f9edcc01edcbc1916754de9f9128dbeeb460784"),
        (reduce_unbounded, 4, "d4d4a5977f6986f2b0fca39a934ce56b6cfe367224da72e65ed5c728c63c7dd3"),
        (reduce_unbounded, 5, "f2572e99b309ef2ca5092e7329320566e1b2d59cebcadba74a66de522c6954a6"),
        (reduce_unbounded, 6, "eda799d7c1e180050e3da08ae140726053b3820ee60ff08c7c2b0a013349f34b"),
        (reduce_unbounded, 7, "134d999c0872a5794ba5ac596b939237232dfbb8b99b6f6d3493991ae314086d"),
        (reduce_unbounded, 8, "72dd213046915b12b97e94a592b84034c0985f6aa6fc3767c8089b3766cf60db"),
    ])
    def test_digest_pinned(self, reduce, k, digest):
        text = serialize_instance(reduce(_seeded_formula(k)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert serialize_instance(parse_instance(text)) == text


def _columns(I: Instance) -> tuple:
    """The instance's columns, arrays as lists and tables by value."""
    return (I.letter_names, I.tables, I.table_index.tolist(), I.images.tolist(), I.accepts, I.names)


class TestColumnarInstance:
    """A reduction, ``parse_instance`` and ``Instance(names, constraints)``
    build the same columns, and the pipeline reads them without building
    ``Constraint`` views."""

    @pytest.mark.parametrize("reduce, formula", [(reduce_nilpotent, NIL8), (reduce_unbounded, UNB6)],
                             ids=["nilpotent", "unbounded"])
    def test_three_construction_paths_agree(self, reduce, formula):
        reduced = reduce(formula)
        text = serialize_instance(reduced)
        parsed = parse_instance(text)
        assert "constraints" not in vars(reduced) and "constraints" not in vars(parsed)
        rebuilt = Instance(reduced.letter_names, reduced.constraints)
        for I in (parsed, rebuilt):
            assert I == reduced and hash(I) == hash(reduced)
            assert _columns(I) == _columns(reduced)
            assert serialize_instance(I) == text

    def test_pipeline_builds_no_views(self, fresh_table_intern):
        parsed = parse_instance(serialize_instance(reduce_nilpotent(NIL8)))
        result = li_solve(parsed)
        assert result.satisfiable and verify_witness(parsed, result.witness).ok
        assert "constraints" not in vars(parsed)
        assert parsed.constraints[1].morphism.images == tuple(parsed.images[1].tolist())
        assert "constraints" in vars(parsed)

    def test_columns_are_read_only(self):
        I = reduce_unbounded(UNB6)
        for column in (I.images, I.table_index):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        with pytest.raises(AttributeError):
            I.images = I.images.copy()

    def test_equal_tables_as_distinct_objects(self):
        # equality and text compare tables by value; the columns keep each object
        I = _mixed_instance()
        assert len(I.tables) == 3 and I.table_index.tolist() == [0, 1, 2, 1]
        parsed = parse_instance(serialize_instance(I))
        assert len(parsed.tables) == 2 and parsed.table_index.tolist() == [0, 1, 0, 1]
        assert parsed == I and hash(parsed) == hash(I)
        assert serialize_instance(parsed) == serialize_instance(I)

    def test_equality_compares_columns(self):
        # every column decides ==, each constraint's table by value, and no view is built
        I = _mixed_instance()
        columns = {"letter_names": I.letter_names, "tables": [I.tables[j] for j in I.table_index.tolist()],
                   "images": I.images, "accepts": I.accepts, "names": I.names}
        images = I.images.copy()
        images[3, 0] = 1
        changes = {"letter_names": ("a", "c"), "tables": [mincap(4), mincap(3), mincap(4), cyclic(3)],
                   "images": images, "accepts": I.accepts[:3] + (frozenset({1}),), "names": ("x",) + I.names[1:]}
        same = Instance.from_columns(**columns)
        assert same == I and hash(same) == hash(I)
        for key, value in changes.items():
            assert Instance.from_columns(**{**columns, key: value}) != I, key
        assert "constraints" not in vars(I)


_FOUR = "".join(f"CONSTRAINT T0\nNAME c{i}\nIMAGES 0 1\nACCEPT 2\nEND\n" for i in range(1, 5))


class TestConstraintErrorOrder:
    """Range errors on IMAGES and ACCEPT lines are raised at their line, so
    the first fault in the document is the one reported."""

    @pytest.mark.parametrize("bad, error", [
        ("IMAGES 0 7", "image 7 of letter 1 out of range 0..2"),
        ("ACCEPT 2 3", "accepting element 3 out of range 0..2"),
    ], ids=["IMAGES", "ACCEPT"])
    def test_range_error_before_a_later_structural_fault(self, bad, error):
        blocks = _FOUR.split("CONSTRAINT")
        keyword = bad.split()[0]
        good = "IMAGES 0 1" if keyword == "IMAGES" else "ACCEPT 2"
        blocks[2] = blocks[2].replace(good, bad)  # constraint 2
        blocks[4] = blocks[4].replace("ACCEPT 2", "ACCEPT 2\nBOGUS")  # constraint 4
        text = _HEAD + _GOOD_ROWS + "END\n" + "CONSTRAINT".join(blocks)
        lineno = 1 + text.splitlines().index(bad)
        with pytest.raises(FormatError) as exc:
            parse_instance(text)
        assert str(exc.value) == f"line {lineno}: {error}" and exc.value.line == lineno
        # with constraint 2 mended, the structural fault is reported
        with pytest.raises(FormatError, match=r"unexpected token 'BOGUS'"):
            parse_instance(text.replace(bad, good))

    def test_accept_range_error_before_a_fault_later_in_its_block(self):
        text = (_HEAD + _GOOD_ROWS + _TAIL).replace("ACCEPT 2\n", "ACCEPT 5\nIMAGES 0 1\n")
        with pytest.raises(FormatError, match=r"^line 10: accepting element 5 out of range 0\.\.2$"):
            parse_instance(text)


def _outcome(text: str):
    """The instance ``parse_instance`` returns for text, or its error's message and line."""
    try:
        return parse_instance(text)
    except FormatError as exc:
        return str(exc), exc.line


@pytest.fixture
def column_reads(monkeypatch):
    """What ``_constraint_columns`` returned during the test, in order: None
    for a CONSTRAINT section it handed to the line reader."""
    read, results = formats._constraint_columns, []
    monkeypatch.setattr(formats, "_constraint_columns", lambda *args: results.append(read(*args)) or results[-1])
    return results


def _line_reader_agrees(text: str, column_reads) -> Instance:
    """Parse a canonical document, which is read as columns, and the same text
    with a comment line, which only the line reader reads; both must give
    equal columns and the same table objects."""
    fast = parse_instance(text)
    assert column_reads[-1] is not None  # read as columns
    reads = len(column_reads)
    slow = parse_instance(text + "# x\n")
    assert len(column_reads) == reads  # a comment leaves the section to the line reader
    assert fast == slow and _columns(fast) == _columns(slow)
    assert all(a is b for a, b in zip(fast.tables, slow.tables) if formats._internable(a.size))
    assert len({id(a) for a in fast.accepts}) == len(set(fast.accepts))  # equal ACCEPT lines share one set
    assert serialize_instance(fast) == text
    return fast


class TestColumnReadParity:
    """A canonical CONSTRAINT section is read as whole columns, and the line
    reader reads everything else; both give the same instance."""

    @pytest.mark.parametrize("reduce", [reduce_nilpotent, reduce_unbounded])
    @pytest.mark.parametrize("k", range(3, 9))
    def test_reductions(self, reduce, k, column_reads):
        I = reduce(_seeded_formula(k))
        assert _line_reader_agrees(serialize_instance(I), column_reads) == I

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_random_instances(self, family_pool, column_reads, data):
        A = data.draw(st.integers(1, 4), label="letters")
        named = data.draw(st.booleans(), label="named")
        constraints = []
        for i in range(data.draw(st.integers(1, 6), label="constraints")):
            S = data.draw(st.sampled_from(family_pool))  # tables interleave as they are drawn
            elements = st.integers(0, S.size - 1)
            images = data.draw(st.lists(elements, min_size=A, max_size=A))
            accept = data.draw(st.frozensets(elements))  # may be empty: a bare ACCEPT
            constraints.append(Constraint(Morphism(images, S), accept, f"c{i}" if named else None))
        I = Instance(tuple(f"a{i}" for i in range(A)), tuple(constraints))
        assert _line_reader_agrees(serialize_instance(I), column_reads) == I

    @pytest.mark.parametrize("names", [("a", "b", "c", "d"), (None,) * 4], ids=["named", "unnamed"])
    def test_interleaved_tables(self, names, column_reads):
        A, B = mincap(4), cyclic(3)
        I = Instance(("x",), tuple(Constraint(Morphism((i % S.size,), S), accept, name) for i, (S, accept, name) in
                                  enumerate(zip((A, B, A, B), ({3}, set(), {3}, {0, 2}), names))))
        parsed = _line_reader_agrees(serialize_instance(I), column_reads)
        assert parsed == I and parsed.table_index.tolist() == [0, 1, 0, 1]
        assert parsed.accepts[0] is parsed.accepts[2]

    def test_values_past_the_decimal_lookup(self, monkeypatch, column_reads):
        # 1,024 and above are read by int(); the table's O(n^3) associativity
        # check is taken as done, as it is not what this test is about
        S = cyclic(1100)
        monkeypatch.setattr(formats, "check_associative", lambda table: S)
        I = Instance(("a", "b"), (Constraint(Morphism((1050, 3), S), {1099, 1024}, "big"),
                                  Constraint(Morphism((5, 1030), S), set(), "empty")))
        assert _line_reader_agrees(serialize_instance(I), column_reads) == I


_BLOCKS = [f"CONSTRAINT T0\nNAME c{i}\nIMAGES {(i + 2) % 3} {i % 3}\nACCEPT {(i + 2) % 3}\nEND\n" for i in range(30)]


def _thirty(block20: str = _BLOCKS[19], tail: str = "") -> str:
    """A canonical document of 30 named blocks over one table, block 20
    (IMAGES 0 1, ACCEPT 0) replaced, then ``tail``."""
    return (_HEAD.replace("ALPHABET 2\n", "ALPHABET 2\nNAMES a0 a1\n") + _GOOD_ROWS + "END\n"
            + "".join(_BLOCKS[:19] + [block20] + _BLOCKS[20:]) + tail)


class TestColumnReadFaults:
    """A fault anywhere in a canonical section hands it to the line reader,
    which reports the first fault in the document at its line; a section
    written otherwise but valid reads as the same instance."""

    def test_thirty_blocks_read_as_columns(self, column_reads):
        _line_reader_agrees(_thirty(), column_reads)

    @pytest.mark.parametrize("old, new, error", [
        # TestGoldenErrors.test_constraint_errors
        ("IMAGES 0 1", "IMAGES 0", "IMAGES needs 2 indices, got 1"),
        ("IMAGES 0 1", "IMAGES 0 1 2", "IMAGES needs 2 indices, got 3"),
        ("IMAGES 0 1", "IMAGES 0 3", "image 3 of letter 1 out of range 0..2"),
        ("IMAGES 0 1", "IMAGES -1 5", "image -1 of letter 0 out of range 0..2"),
        ("ACCEPT 0", "ACCEPT 1 3", "accepting element 3 out of range 0..2"),
        ("ACCEPT 0", "ACCEPT -1", "accepting element -1 out of range 0..2"),
        # TestConstraintErrorOrder
        ("IMAGES 0 1", "IMAGES 0 7", "image 7 of letter 1 out of range 0..2"),
        ("ACCEPT 0", "ACCEPT 2 3", "accepting element 3 out of range 0..2"),
        ("ACCEPT 0\n", "ACCEPT 5\nIMAGES 0 1\n", "accepting element 5 out of range 0..2"),
        ("ACCEPT 0\n", "ACCEPT 0\nBOGUS\n", "unexpected token 'BOGUS' in CONSTRAINT block"),
        # the column reader's own checks
        ("CONSTRAINT T0", "CONSTRAINT T9", "constraint references undeclared table 'T9'"),
        ("NAME c19", "NAME a b", "expected 'NAME <token>'"),
        ("END\n", "", "unexpected token 'CONSTRAINT' in CONSTRAINT block"),
        ("IMAGES 0 1", "IMAGES 0 x", "non-integer image index in ['0', 'x']"),
        ("IMAGES 0 1", f"IMAGES 0 {10**30}", f"image {10**30} of letter 1 out of range 0..2"),
        ("ACCEPT 0", f"ACCEPT {10**30}", f"accepting element {10**30} out of range 0..2"),
        ("ACCEPT 0", "ACCEPT 0.0", "non-integer accept index in ['0.0']"),
        ("IMAGES 0 1\n", "IMAGES 0 1\nIMAGES 0 1\n", "repeated IMAGES in CONSTRAINT block"),
        ("NAME c19\n", "NAME c19\nNAME d\n", "repeated NAME in CONSTRAINT block"),
        ("IMAGES 0 1", "IMAGES -1 1", "image -1 of letter 0 out of range 0..2"),
        ("ACCEPT 0", "REJECT 0", "unexpected token 'REJECT' in CONSTRAINT block"),
        ("CONSTRAINT T0", "CONSTRAINT T0 T0", "expected 'CONSTRAINT <tablename>'"),
        ("END", "END END", "unexpected token 'END' in CONSTRAINT block"),
        ("NAME c19", "NAMES c19", "unexpected token 'NAMES' in CONSTRAINT block"),
    ])
    def test_fault_in_block_20(self, old, new, error, column_reads):
        assert old in _BLOCKS[19]
        text = _thirty(_BLOCKS[19].replace(old, new))
        line = 1 + next(i for i, (a, b) in enumerate(zip(_thirty().splitlines(), text.splitlines())) if a != b)
        assert _outcome(text) == (f"line {line}: {error}", line) == _outcome(text + "# x\n")
        assert column_reads == [None]  # handed to the line reader

    @pytest.mark.parametrize("old20, new20, old21, new21, error", [
        ("IMAGES 0 1", "IMAGES 0 1 IMAGES", "IMAGES 1 2", "1 2", "non-integer image index in ['0', '1', 'IMAGES']"),
        ("IMAGES 0 1", "IMAGES 0 1 IMAGES 1", "IMAGES 1 2", "", "non-integer image index in ['0', '1', 'IMAGES', '1']"),
        ("NAME c19", "NAME", "NAME c20", "NAME c19 c20", "expected 'NAME <token>'"),
        ("NAME c19", "NAME c19 NAME", "NAME c20", "c20", "expected 'NAME <token>'"),
    ], ids=["images-run-on", "images-blank", "name-bare", "name-run-on"])
    def test_fault_spread_over_two_lines(self, old20, new20, old21, new21, error, column_reads):
        # the tokens of the two lines together are as many as two good lines hold
        text = _thirty(_BLOCKS[19].replace(old20, new20)).replace(_BLOCKS[20], _BLOCKS[20].replace(old21, new21))
        line = 1 + text.splitlines().index(new20)
        assert _outcome(text) == (f"line {line}: {error}", line) == _outcome(text + "# x\n")
        assert column_reads == [None]

    def test_missing_end_at_the_end(self, column_reads):
        text = _thirty()[:-len("END\n")]
        assert _outcome(text) == ("unexpected end of file", None) == _outcome(text + "# x\n")
        assert column_reads == [None]

    @pytest.mark.parametrize("block20, tail", [
        (_BLOCKS[19].replace("NAME c19\n", ""), ""),  # one block without NAME among named ones
        (_BLOCKS[19], "TABLE T1 1\n0\nEND\n"),  # a trailing TABLE block
        (_BLOCKS[19], "TABLE T1 1\n0\nEND\nCONSTRAINT T1\nIMAGES 0 0\nACCEPT 0\nEND\n"),
        (_BLOCKS[19].replace("IMAGES 0 1\nACCEPT 0", "ACCEPT 0\nIMAGES 0 1"), ""),  # another order
        (_BLOCKS[19].replace("IMAGES 0 1", "IMAGES  0\t1"), ""),  # other whitespace
        (_BLOCKS[19].replace("END", "\nEND"), ""),  # a blank line
        (_BLOCKS[19], "\n"),
    ], ids=["unnamed-block", "trailing-table", "trailing-table-used", "accept-first", "whitespace",
            "blank-line", "trailing-blank"])
    def test_valid_sections_written_otherwise(self, block20, tail):
        text = _thirty(block20, tail)
        assert _outcome(text) == _outcome(text + "# x\n") == parse_instance(text.replace("END\n", "END\n# x\n"))

    @pytest.mark.parametrize("tail, error", [
        ("TABLE T0 1\n0\nEND\n", "duplicate table 'T0'"),
        ("TABLE T1 2\n0 0\nEND\n", "expected 2 rows of 2 entries, got 1 rows"),
    ], ids=["duplicate", "short"])
    def test_faulty_trailing_table(self, tail, error, column_reads):
        text = _thirty(tail=tail)
        line = len(_thirty().splitlines()) + 1
        assert _outcome(text) == (f"line {line}: {error}", line) == _outcome(text + "# x\n")
        assert column_reads == [None]

    def test_accept_range_before_images_with_a_huge_alphabet(self):
        # the range error needs no morphism of the alphabet's size
        text = (_HEAD + _GOOD_ROWS + _TAIL).replace("ALPHABET 2", "ALPHABET 1000000000000").replace(
            "IMAGES 0 1\nACCEPT 2", "ACCEPT 3\nIMAGES 0 1")
        assert _outcome(text) == ("line 9: accepting element 3 out of range 0..2", 9)


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

    def test_matches_per_entry_writer(self, derived_pool):
        for S in derived_pool:
            assert serialize_table_text(S) == serialize_table_text_reference(S)

    @pytest.mark.parametrize("build, n, digest", [
        (mincap, 1, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
        (mincap, 255, "c80aa3e3052ead10dd7522a7b6973756c416e7476bf9f46da542b96dc082f6dc"),
        (mincap, 256, "b120cf8eff4d1ff1b3f43b122fdd35c831841a64694a865970e28439f658bc31"),
        (mincap, 257, "11c210c2fa73b50b6887c5db4d3a202f231d365686b421a55a752fa6225fcce1"),
        (mincap, 1100, "c17c629d1f25d5093e007970c4f1ff1e6c0965defa31ac91a26c5c06b25331d4"),
        (cyclic, 1, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
        (cyclic, 255, "e43186bad51ce1dd2a8ab11a271c4ceb35cb7e3cb581df2007907f6dcccd0014"),
        (cyclic, 256, "cb222a764a09522c0ab69deb38a1eb9a0162d07e53fc6caf7ad445b5be437e46"),
        (cyclic, 257, "93c4f06df131440939a599ea986b03db1f28c83b3ca7c44af1b8af4c3f727332"),
        (cyclic, 1100, "c767c9eab61e7d6fe8e21dd02d5cf96007422763d6f4ecc841c0a89d6d29cfdc"),
    ])
    def test_digest_pinned(self, build, n, digest):
        # pinned from the per-entry writer; n = 256 and 257 straddle the uint8/uint16 array dtypes
        assert hashlib.sha256(serialize_table_text(build(n)).encode()).hexdigest() == digest

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

    def test_token_lookup_is_int(self):
        from sgisect.formats import _int
        for token in ["0", "7", "1023", "1024", "99999", "007", "-0", "-3", "+5", "1_0", "\u0663", "10" * 20]:
            assert _int(token) == int(token) and type(_int(token)) is int
        for token in ["x", "1.0", "0x1", "", "1 2"]:
            with pytest.raises(ValueError):
                _int(token)


# A three-element table in a two-letter instance; the TABLE line is line 3 and
# the rows are lines 4-6 (lines 1-3 of a bare table text).
_HEAD = "SGI 1\nALPHABET 2\nTABLE T0 3\n"
_GOOD_ROWS = "0 1 2\n1 2 2\n2 2 2\n"
_TAIL = "END\nCONSTRAINT T0\nIMAGES 0 1\nACCEPT 2\nEND\n"


class TestGoldenErrors:
    """Exact messages and lines of the table, IMAGES and ACCEPT errors, as a
    row-by-row reader reports them: the first row that is not integers or not
    n long, and only then an out-of-range entry, at the table's first line."""

    @pytest.mark.parametrize("rows, instance_error, table_error", [
        ("0 1 2\n1 x 2\n2 2 2\n", "line 5: non-integer table entry in ['1', 'x', '2']",
         "line 2: non-integer table entry in ['1', 'x', '2']"),
        ("0 1 2\n1 2\n2 2 2\n", "line 5: row has 2 entries, expected 3",
         "line 2: row has 2 entries, expected 3"),
        ("0 1 2\n1 2 2 2\n2 2 2\n", "line 5: row has 4 entries, expected 3",
         "line 2: row has 4 entries, expected 3"),
        ("0 1 2\n1 2 2\n", "line 3: expected 3 rows of 3 entries, got 2 rows",  # the block stops at END
         "line 1: expected 3 rows of 3 entries, got 2 rows"),
        ("0 1 2\n1 2 3\n2 2 2\n", "line 3: entry 3 at (1, 2) out of range 0..2",
         "line 1: entry 3 at (1, 2) out of range 0..2"),
        ("0 1 2\n1 2 2\n2 -1 2\n", "line 3: entry -1 at (2, 1) out of range 0..2",
         "line 1: entry -1 at (2, 1) out of range 0..2"),
        ("0 1 2\n1 2 2\n2 2 " + str(10**30) + "\n",
         f"line 3: entry {10**30} at (2, 2) out of range 0..2",
         f"line 1: entry {10**30} at (2, 2) out of range 0..2"),
        ("0 1 2\n1 2\n2 y 2\n", "line 5: row has 2 entries, expected 3",
         "line 2: row has 2 entries, expected 3"),
        ("0 z 2\n1 2\n2 2 2\n", "line 4: non-integer table entry in ['0', 'z', '2']",
         "line 1: non-integer table entry in ['0', 'z', '2']"),
        ("0 1 7\n1 2\n2 2 2\n", "line 5: row has 2 entries, expected 3",
         "line 2: row has 2 entries, expected 3"),
        ("0 1 2\n1 2 2\n2 2 2.0\n", "line 6: non-integer table entry in ['2', '2', '2.0']",
         "line 3: non-integer table entry in ['2', '2', '2.0']"),
    ], ids=["non-integer", "short-row", "long-row", "row-count", "out-of-range", "negative",
            "10**30", "ragged-then-non-integer", "non-integer-then-ragged",
            "out-of-range-then-ragged", "float"])
    def test_table_errors(self, rows, instance_error, table_error):
        with pytest.raises(FormatError) as exc:
            parse_instance(_HEAD + rows + _TAIL)
        assert str(exc.value) == instance_error
        assert exc.value.line == int(instance_error.split()[1][:-1])
        with pytest.raises(FormatError) as exc:
            parse_table_text(rows)
        assert str(exc.value) == table_error

    @pytest.mark.parametrize("old, new, error", [
        ("IMAGES 0 1", "IMAGES 0", "line 9: IMAGES needs 2 indices, got 1"),
        ("IMAGES 0 1", "IMAGES 0 1 2", "line 9: IMAGES needs 2 indices, got 3"),
        ("IMAGES 0 1", "IMAGES 0 3", "line 9: image 3 of letter 1 out of range 0..2"),
        ("IMAGES 0 1", "IMAGES -1 5", "line 9: image -1 of letter 0 out of range 0..2"),
        ("ACCEPT 2", "ACCEPT 1 3", "line 10: accepting element 3 out of range 0..2"),
        ("ACCEPT 2", "ACCEPT -1", "line 10: accepting element -1 out of range 0..2"),
    ])
    def test_constraint_errors(self, old, new, error):
        with pytest.raises(FormatError, match="^" + re.escape(error) + "$"):
            parse_instance((_HEAD + _GOOD_ROWS + _TAIL).replace(old, new))

    def test_non_ascii_digits_read_as_int_does(self):
        # int() reads any Unicode decimal digit, and so does the table reader
        text = _HEAD + _GOOD_ROWS.replace("1 2 2", "1 2 \u0662") + _TAIL
        assert parse_instance(text) == parse_instance(_HEAD + _GOOD_ROWS + _TAIL)
        assert parse_table_text("0 +1\n0_1 1\n").table == ((0, 1), (1, 1))


class TestTableIntern:
    """``parse_instance`` returns one Semigroup object per distinct TABLE block
    and raises every error afresh, at its own line."""

    @staticmethod
    def _table(instance):
        return instance.constraints[0].semigroup

    def test_same_text_same_object(self, fresh_table_intern):
        text = _HEAD + _GOOD_ROWS + _TAIL
        first, second = parse_instance(text), parse_instance(text)
        assert first == second and self._table(first) is self._table(second)
        assert fresh_table_intern.cache_info().currsize == 1

    def test_one_entry_apart_distinct_objects(self, fresh_table_intern):
        S = self._table(parse_instance(_HEAD + _GOOD_ROWS + _TAIL))
        T = self._table(parse_instance(_HEAD + _GOOD_ROWS.replace("1 2 2", "2 2 2") + _TAIL))
        assert S is not T and S != T
        assert T.table == ((0, 1, 2), (2, 2, 2), (2, 2, 2))

    @pytest.mark.parametrize("rows, error", [
        ("0 1 2 1\n2 2\n2 2 2\n", "line 4: row has 4 entries, expected 3"),
        ("0 1 2\n1 2\n2 2 2 2\n", "line 5: row has 2 entries, expected 3"),
        ("0 1 2\n1 2 2\n2 2 x\n", "line 6: non-integer table entry in ['2', '2', 'x']"),
        ("0 1 2\n1 2 2\n2 2 3\n", "line 3: entry 3 at (2, 2) out of range 0..2"),
        ("0 1 2\n1 2 2\n2 2 0\n",
         "line 3: table 'T0' is not associative: associativity violated at triple (1, 1, 2)"),
    ], ids=["ragged-same-tokens", "ragged-same-tokens-later-row", "non-integer", "out-of-range",
            "non-associative"])
    def test_bad_block_after_a_valid_one(self, fresh_table_intern, rows, error):
        # the ragged blocks flatten to the valid block's tokens; each bad block
        # is parsed twice, the second time one line further down
        parse_instance(_HEAD + _GOOD_ROWS + _TAIL)
        lineno = int(error.split()[1][:-1])
        for shift in (0, 1):
            with pytest.raises(FormatError) as exc:
                parse_instance("# shifted\n" * shift + _HEAD + rows + _TAIL)
            assert str(exc.value) == error.replace(f"line {lineno}:", f"line {lineno + shift}:")
            assert exc.value.line == lineno + shift
        assert fresh_table_intern.cache_info().currsize == 1

    @pytest.mark.parametrize("rows", [
        "0 1 2\n\n1 2 2\n2 2 2\n", "0 1 2\n1 2 2 # row 1\n2 2 2\n", "# rows\n0 1 2\n1 2 2\n2 2 2\n",
        "0 1 2  \n\t1 2 2\n2  2 2\n", "0 1 2\r\n1 2 2\r\n2 2 2\r\n",
    ], ids=["blank-line", "comment", "comment-line", "spaces", "crlf"])
    def test_rows_written_otherwise_give_the_same_table(self, fresh_table_intern, rows):
        # a block whose raw lines are not just its rows is read from its tokens
        canonical = parse_instance(_HEAD + _GOOD_ROWS + _TAIL)
        for _ in range(2):  # the second time from the cache, if its raw lines are its rows
            parsed = parse_instance(_HEAD + rows + _TAIL)
            assert parsed == canonical and self._table(parsed).table == self._table(canonical).table
        assert parse_instance((_HEAD + _GOOD_ROWS + _TAIL).replace("\n", "\r\n")) == canonical

    def test_commented_rows_are_parsed_afresh(self, fresh_table_intern):
        # only a block's raw lines are looked up: a commented copy of a cached
        # block gives an equal table in a new object, and is not kept
        S = self._table(parse_instance(_HEAD + _GOOD_ROWS + _TAIL))
        commented = _HEAD + _GOOD_ROWS.replace("\n", " # c\n") + _TAIL
        first, second = (self._table(parse_instance(commented)) for _ in range(2))
        assert first == second == S and first is not S and second is not first
        assert fresh_table_intern.cache_info().currsize == 1

    def test_equal_blocks_in_one_document_share_an_object(self, fresh_table_intern):
        text = (_HEAD + _GOOD_ROWS + "END\nTABLE T1 3\n" + _GOOD_ROWS + _TAIL
                + "CONSTRAINT T1\nIMAGES 1 0\nACCEPT 2\nEND\n")
        first, second = (c.semigroup for c in parse_instance(text).constraints)
        assert first is second

    def test_table_over_the_cell_bound_is_not_kept(self, fresh_table_intern):
        # 16 tables of 64 x 64 fill the 2**16 cells; a 65-element table is parsed afresh
        big, kept = (_HEAD.replace("T0 3", f"T0 {n}") + serialize_table_text(mincap(n)) + _TAIL
                     for n in (65, 64))
        first, second = self._table(parse_instance(big)), self._table(parse_instance(big))
        assert first == second == mincap(65) and first is not second
        assert fresh_table_intern.cache_info().currsize == 0
        assert self._table(parse_instance(kept)) is self._table(parse_instance(kept))
        assert fresh_table_intern.cache_info().currsize == 1

    def test_least_recently_used_dropped_first(self, fresh_table_intern):
        texts = [_HEAD.replace("T0 3", f"T0 {n}") + serialize_table_text(mincap(n)) + _TAIL
                 for n in range(3, formats.INTERN_TABLES + 4)]  # one table more than the cache keeps
        first, second, *_ = (self._table(parse_instance(t)) for t in texts[:-1])
        assert self._table(parse_instance(texts[0])) is first  # the first is now the most recent
        parse_instance(texts[-1])
        assert fresh_table_intern.cache_info().currsize == formats.INTERN_TABLES
        assert self._table(parse_instance(texts[0])) is first
        assert self._table(parse_instance(texts[1])) is not second  # dropped for the last table

    def test_table_text_is_parsed_afresh(self, fresh_table_intern):
        text = serialize_table_text(mincap(3))
        first, second = parse_table_text(text), parse_table_text(text)
        assert first == second and first is not second
        assert fresh_table_intern.cache_info().currsize == 0

    def test_threads_parse_equal_instances(self, fresh_table_intern):
        texts = [serialize_instance(reduce_nilpotent(CnfFormula(k, (frozenset({1, -2}), frozenset({k})))))
                 for k in (2, 3, 4)] * 4
        expected = [parse_instance(t) for t in texts]
        fresh_table_intern.cache_clear()  # the threads start on an empty cache
        results: dict[int, list] = {}

        def work(i):
            results[i] = [parse_instance(t) for t in texts[i % 3:] + texts[:i % 3]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(results) == 6
        for i, got in results.items():
            assert got == expected[i % 3:] + expected[:i % 3]
        assert fresh_table_intern.cache_info().currsize == 3
        assert {self._table(p).table for p in expected} == {nilinterval(k).table for k in (2, 3, 4)}


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
