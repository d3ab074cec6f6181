import itertools
import random

import pytest

from sgisect.core import monogenic_orders, subsemigroup_closure
from sgisect.reductions import (Assignment, AssignmentUndefinedError, CnfFormula,
                                assignment_to_word, parse_dimacs, reduce_nilpotent,
                                reduce_unbounded, sat_solve_exhaustive, word_to_assignment)
from sgisect.solve import Witness, brute_force_solve, verify_witness
from sgisect.varieties import is_a2n, is_commutative, is_nilpotent

from _oracles import interval_labels, random_formula


class TestParseDimacs:
    def test_two_clauses(self):
        F = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
        assert F.variable_count == 3
        assert F.clauses == (frozenset({1, 2, 3}), frozenset({-1, -2, -3}))

    def test_single_unit_clause(self):
        F = parse_dimacs("p cnf 1 1\n1 0\n")
        assert F.variable_count == 1 and F.clauses == (frozenset({1}),)

    def test_duplicates_collapse(self):
        F = parse_dimacs("p cnf 2 1\n1 -1 2 2 0\n")
        assert F.clauses == (frozenset({1, -1, 2}),)

    def test_comments_and_blank_lines(self):
        F = parse_dimacs("c hello\n\np cnf 2 1\nc mid\n1 -2 0\n")
        assert F.clauses == (frozenset({1, -2}),)

    def test_clause_spanning_lines(self):
        F = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert F.clauses == (frozenset({1, 2, 3}),)

    def test_malformed_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_dimacs("p dnf 1 1\n1 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_dimacs("p cnf 1 1\n2 0\n")

    def test_wide_clause_rejected(self):
        with pytest.raises(ValueError, match="width"):
            parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")

    def test_clause_count_mismatch_warns(self):
        with pytest.warns(UserWarning, match="declares"):
            parse_dimacs("p cnf 1 2\n1 0\n")

    def test_zero_clause_formula(self):
        F = parse_dimacs("p cnf 2 0\n")
        assert F.variable_count == 2 and F.clauses == ()


class TestSatOracle:
    def test_unit(self):
        assert sat_solve_exhaustive(CnfFormula(1, (frozenset({1}),))).bits == (1,)

    def test_contradiction(self):
        assert sat_solve_exhaustive(CnfFormula(1, (frozenset({1}), frozenset({-1})))) is None

    def test_least_assignment(self):
        F = CnfFormula(3, (frozenset({1, 2, 3}), frozenset({-1, -2, -3})))
        assert sat_solve_exhaustive(F).bits == (0, 0, 1)

    def test_no_clauses_is_satisfiable(self):
        assert sat_solve_exhaustive(CnfFormula(2, ())).bits == (0, 0)

    def test_cap(self):
        with pytest.raises(ValueError):
            sat_solve_exhaustive(CnfFormula(25, (frozenset({1}),)))


class TestUnboundedGadget:
    def test_structure_for_unit_formula(self):
        I = reduce_unbounded(CnfFormula(1, (frozenset({1}),)))
        assert I.letter_names == ("x1", "nx1")
        assert [I.constraint_name(i) for i in range(3)] == ["g0", "g1", "h1"]
        g0, g1, h1 = I.constraints
        assert g0.morphism.images == (0, 0) and g0.accept == {0}
        assert g1.morphism.images == (1, 1) and g1.accept == {1}
        assert h1.morphism.images == (1, 0) and h1.accept == {1, 2}
        assert all(c.semigroup.size == 3 for c in I.constraints)

    def test_witness_and_rejection(self):
        I = reduce_unbounded(CnfFormula(1, (frozenset({1}),)))
        assert brute_force_solve(I).witness.word == (0,)
        assert not verify_witness(I, Witness.from_word((1,))).ok

    def test_contradiction_is_empty(self):
        I = reduce_unbounded(CnfFormula(1, (frozenset({1}), frozenset({-1}))))
        assert not brute_force_solve(I).satisfiable

    def test_zero_clauses(self):
        I = reduce_unbounded(CnfFormula(2, ()))
        assert len(I.constraints) == 3  # g0, g1, g2; no clause constraints
        r = brute_force_solve(I)
        assert r.satisfiable and r.witness.word == (0, 1)  # x1 x2
        # every one-letter-per-variable word is accepted
        for choice in itertools.product((0, 2), (1, 3)):
            assert verify_witness(I, Witness.from_word(choice)).ok

    def test_semigroup_shape(self):
        for k in (1, 2, 3, 4):
            I = reduce_unbounded(CnfFormula(k, ()))
            S = I.constraints[0].semigroup
            assert S.size == k + 2
            assert is_commutative(S) and is_nilpotent(S)
            _, order = monogenic_orders(S)
            assert order == k + 2  # monogenic: one generator reaches everything
            assert subsemigroup_closure(S, {0}) == frozenset(range(k + 2))


class TestNilpotentGadget:
    def test_structure_for_two_vars(self):
        F = CnfFormula(2, (frozenset({1}),))
        I = reduce_nilpotent(F)
        assert I.letter_names == ("x1", "x2", "nx1", "nx2")
        assert [I.constraint_name(i) for i in range(2)] == ["g", "h1"]
        g, h1 = I.constraints
        S = g.semigroup
        assert S.size == 2 * 3 // 2 + 1  # intervals over {1,2} plus zero
        labels = interval_labels(2)
        assert g.accept == {labels.index("(1,2)")}
        assert h1.accept == {0}
        # the table walk from the construction: g(x1 x2) = (1,2), h1(x1 x2) = 0
        r = brute_force_solve(I)
        assert r.satisfiable and r.witness.word == (0, 1)
        v = verify_witness(I, r.witness)
        assert v.images == (labels.index("(1,2)"), 0)

    def test_contradiction_is_empty(self):
        I = reduce_nilpotent(CnfFormula(1, (frozenset({1}), frozenset({-1}))))
        assert not brute_force_solve(I).satisfiable

    def test_emitted_semigroup_is_a2n(self):
        for k in (1, 2, 3, 4):
            S = reduce_nilpotent(CnfFormula(k, ())).constraints[0].semigroup
            assert is_a2n(S) and is_nilpotent(S)
            _, order = monogenic_orders(S)
            assert order == 2


class TestAssignmentWords:
    def test_single_variable(self):
        assert assignment_to_word(Assignment((1,))) == (0,)
        assert assignment_to_word(Assignment((0,))) == (1,)

    def test_three_variables(self):
        assert assignment_to_word(Assignment((1, 0, 1))) == (0, 4, 2)

    def test_round_trip(self):
        rng = random.Random(6)
        for _ in range(50):
            k = rng.randint(1, 8)
            bits = tuple(rng.randint(0, 1) for _ in range(k))
            word = assignment_to_word(Assignment(bits))
            assert len(word) == k
            assert word_to_assignment(word, k).bits == bits

    def test_word_reading(self):
        assert word_to_assignment((0, 3), 2).bits == (1, 0)  # x1 nx2

    def test_conflict(self):
        with pytest.raises(AssignmentUndefinedError, match="both"):
            word_to_assignment((0, 1), 1)  # x1 nx1

    def test_strict_missing_variable(self):
        with pytest.raises(AssignmentUndefinedError, match="neither"):
            word_to_assignment((0,), 2)

    def test_letter_out_of_alphabet(self):
        with pytest.raises(ValueError):
            word_to_assignment((5,), 2)


def _exhaustive_unit_clause_formulas(max_vars):
    for k in range(1, max_vars + 1):
        literals = [v for v in range(1, k + 1)] + [-v for v in range(1, k + 1)]
        for n in range(0, 4):
            for clauses in itertools.combinations(literals, n):
                yield CnfFormula(k, tuple(frozenset({l}) for l in clauses))


class TestReductionCorrectness:
    @pytest.mark.parametrize("reduce_fn", [reduce_unbounded, reduce_nilpotent])
    def test_unit_clause_patterns(self, reduce_fn):
        for F in _exhaustive_unit_clause_formulas(2):
            sat = sat_solve_exhaustive(F) is not None
            result = brute_force_solve(reduce_fn(F))
            assert result.satisfiable == sat

    @pytest.mark.parametrize("reduce_fn", [reduce_unbounded, reduce_nilpotent])
    def test_random_formulas_with_witness_transfer(self, reduce_fn):
        rng = random.Random(424242)
        for _ in range(40):
            F = random_formula(rng, 4, 4)
            assignment = sat_solve_exhaustive(F)
            I = reduce_fn(F)
            result = brute_force_solve(I)
            assert result.satisfiable == (assignment is not None)
            if result.satisfiable:
                word = result.witness.word
                assert len(word) == F.variable_count
                back = word_to_assignment(word, F.variable_count)
                assert back.satisfies(F)
                forward = assignment_to_word(assignment)
                assert verify_witness(I, Witness.from_word(forward)).ok
