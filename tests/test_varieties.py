import dataclasses
import gc
import math
import random
import time
import weakref

import pytest

from sgisect import varieties
from sgisect.core import Semigroup, direct_product, memo_on_object
from sgisect.formats import parse_instance, serialize_instance
from sgisect.families import cyclic, leftzero, mincap, nilinterval, rightzero, trivial
from sgisect.reductions import CnfFormula, reduce_nilpotent
from sgisect.solve import li_solve, li_witness_shorten
from sgisect.varieties import (classify, is_a2n, is_commutative, is_group, is_li, is_monoid,
                               is_nilpotent, li_degree, satisfies_li_k)

from _oracles import (is_a2n_definitional, is_commutative_definitional, is_group_definitional,
                      is_nilpotent_definitional, li_degree_definitional, sample_size4_subsemigroups)


class TestPredicateExamples:
    def test_commutative(self):
        assert is_commutative(trivial())
        assert is_commutative(mincap(4))
        assert not is_commutative(leftzero(2))

    def test_group(self):
        assert is_group(trivial())
        assert is_group(cyclic(2))
        assert not is_group(mincap(4))

    def test_nilpotent(self):
        assert is_nilpotent(mincap(4))
        assert not is_nilpotent(leftzero(2))
        assert is_nilpotent(trivial())

    def test_li(self):
        assert is_li(leftzero(2))
        assert not is_li(cyclic(2))
        assert is_li(mincap(4))

    def test_li_degree(self):
        assert li_degree(leftzero(2)) == 1
        assert li_degree(mincap(4)) == 2
        assert li_degree(cyclic(2)) is None

    def test_a2n(self):
        assert is_a2n(trivial())
        assert is_a2n(nilinterval(2))
        assert not is_a2n(mincap(4))

    def test_classify_mincap4(self):
        r = classify(mincap(4))
        assert r.is_commutative and not r.is_group and not r.is_monoid
        assert r.is_nilpotent and r.is_li and r.li_degree == 2
        assert not r.is_a2n and r.class_order == 4

    def test_classify_trivial(self):
        r = classify(trivial())
        assert r.is_commutative and r.is_group and r.is_monoid
        assert r.is_nilpotent and r.is_li and r.li_degree == 1
        assert r.is_a2n and r.class_order == 1

    def test_classify_cyclic2(self):
        r = classify(cyclic(2))
        assert r.is_group and is_monoid(cyclic(2))
        assert not r.is_li and r.li_degree is None and not r.is_nilpotent

    def test_classify_nilinterval3(self):
        r = classify(nilinterval(3))
        assert r.is_a2n and r.is_nilpotent and r.class_order == 2


class TestGroupAgainstDefinitionalCheck:
    def test_small_pool_and_cyclic_products(self, small_semigroups, family_pool):
        products = [direct_product([cyclic(a), cyclic(b)])[0] for a, b in ((2, 2), (2, 3), (3, 4))]
        products.append(direct_product([cyclic(2), mincap(2)])[0])
        for S in small_semigroups + family_pool + products:
            assert is_group(S) == is_group_definitional(S), S.table


class TestNilpotentAgainstDefinitionalCheck:
    def test_small_and_family_pool(self, small_semigroups, family_pool):
        pool = small_semigroups + family_pool + [mincap(9), nilinterval(4)]
        assert any(is_nilpotent(S) for S in pool) and not all(is_nilpotent(S) for S in pool)
        for S in pool:
            assert is_nilpotent(S) == is_nilpotent_definitional(S), S.table


class TestCommutativeAndA2nAgainstDefinitionalChecks:
    def test_small_and_family_pool(self, small_semigroups, family_pool):
        pool = small_semigroups + family_pool + [nilinterval(4)]
        for predicate in (is_commutative, is_a2n):
            assert any(predicate(S) for S in pool) and not all(predicate(S) for S in pool)
        for S in pool:
            assert is_commutative(S) == is_commutative_definitional(S), S.table
            assert is_a2n(S) == is_a2n_definitional(S), S.table

    def test_size4_subsemigroups(self):
        rng = random.Random(20241)
        for S in sample_size4_subsemigroups(rng, 60):
            assert is_commutative(S) == is_commutative_definitional(S), S.table
            assert is_a2n(S) == is_a2n_definitional(S), S.table


class TestDegreeAgainstDefinitionalCheck:
    def test_exhaustive_small(self, small_semigroups):
        for S in small_semigroups:
            assert li_degree(S) == li_degree_definitional(S, full_tuples=True)

    def test_mincap_closed_form(self):
        for m in range(2, 41):
            assert li_degree(mincap(m)) == math.ceil(m / 2)

    def test_violations_in_the_last_block_of_a_level(self):
        # mincap(m) with its elements listed in reverse: at every failing
        # level the only violating p is the last element of P_k, which lies
        # past the first block of the condition check
        for m in (24, 33, 40):
            t = mincap(m).table
            S = Semigroup(tuple(tuple(m - 1 - t[m - 1 - x][m - 1 - y] for y in range(m))
                                for x in range(m)))
            assert li_degree(S) == math.ceil(m / 2)
            for k in range(1, m + 1):
                assert satisfies_li_k(S, k) == (k >= math.ceil(m / 2))

    def test_family_pool_and_products(self, family_pool):
        products = [direct_product(fs)[0] for fs in (
            [mincap(3), mincap(4)], [leftzero(3), mincap(5)], [nilinterval(2), rightzero(2)],
            [mincap(2), cyclic(2)], [nilinterval(3), mincap(3)])]
        for S in family_pool + products:
            assert li_degree(S) == li_degree_definitional(S)

    def test_mincap_against_tuple_enumeration(self):
        for m in range(2, 13):
            assert li_degree_definitional(mincap(m)) == math.ceil(m / 2)


class TestLiDegreeOncePerObject:
    def test_classify_then_li_solve_build_one_product_chain(self, monkeypatch, fresh_table_intern):
        calls = []
        chain = varieties._product_chain

        def counted(S, k):
            calls.append(S)
            return chain(S, k)

        monkeypatch.setattr(varieties, "_product_chain", counted)
        clauses = (frozenset({1, -2, 3}), frozenset({-1, 4}), frozenset({2, -3, -4}))
        I = parse_instance(serialize_instance(reduce_nilpotent(CnfFormula(4, clauses))))
        S = I.constraints[0].semigroup
        assert all(c.semigroup is S for c in I.constraints)
        k = classify(S).li_degree
        li_solve(I)
        word = (0, 1, 2, 3) * 3
        assert li_witness_shorten([c.morphism for c in I.constraints], word, k) == word[:k] + word[-k:]
        assert len(calls) == 1
        # an equal table in another object computes its own degree
        copy = Semigroup(S.table)
        assert li_degree(copy) == k and len(calls) == 2

    def test_cache_changes_neither_equality_nor_lifetime(self):
        S, T = Semigroup(mincap(5).table), Semigroup(mincap(5).table)
        li_degree(S)
        assert S == T and hash(S) == hash(T)
        assert [f.name for f in dataclasses.fields(S)] == ["array"]
        ref = weakref.ref(S)
        del S
        gc.collect()
        assert ref() is None


class TestMemos:
    def test_memoised_classify_equals_a_fresh_computation(self, family_pool):
        for S in family_pool:
            report = classify(S)
            assert classify(S) is report
            fresh = Semigroup(S.table)  # an equal table in a new object: nothing memoised
            assert classify.__wrapped__(fresh) == report
            assert li_degree(S) == report.li_degree == li_degree.__wrapped__(Semigroup(S.table))
            assert S == fresh and hash(S) == hash(fresh)

    def test_a_call_that_raises_keeps_nothing(self):
        calls = []

        def compute(S):
            calls.append(S)
            if len(calls) == 1:
                raise ValueError("first call fails")
            return S.size

        memoised = memo_on_object(compute)
        S = Semigroup(mincap(3).table)
        with pytest.raises(ValueError):
            memoised(S)
        assert memoised(S) == memoised(S) == 3 and len(calls) == 2


class TestLocalTrivialityAtDegreeSizePlusOne:
    def test_exhaustive_small(self, small_semigroups):
        for S in small_semigroups:
            assert is_li(S) == satisfies_li_k(S, S.size + 1)

    def test_size4_subsemigroups(self):
        rng = random.Random(20240)
        for S in sample_size4_subsemigroups(rng, 60):
            assert is_li(S) == satisfies_li_k(S, 5)

    def test_degree_far_past_the_stable_chain_returns_at_once(self):
        for S, expected in ((mincap(5), True), (cyclic(3), False), (nilinterval(3), True)):
            t0 = time.perf_counter()
            assert satisfies_li_k(S, 10 ** 6) is expected
            assert time.perf_counter() - t0 < 1.0
            assert satisfies_li_k(S, S.size + 1) is expected

    def test_set_product_check_matches_tuple_check(self, small_semigroups):
        from _oracles import li_k_holds_by_full_tuples
        for S in small_semigroups:
            for k in range(1, S.size + 2):
                assert satisfies_li_k(S, k) == li_k_holds_by_full_tuples(S, k)


class TestStructuralImplications:
    def test_implication_chain(self, small_semigroups, family_pool):
        for S in small_semigroups + family_pool:
            if is_a2n(S):
                assert is_nilpotent(S)
            if is_nilpotent(S):
                assert is_li(S)

    def test_report_invariants(self, small_semigroups, family_pool):
        for S in small_semigroups + family_pool:
            r = classify(S)
            assert (r.li_degree is not None) == r.is_li
            if r.li_degree is not None:
                assert 1 <= r.li_degree <= S.size + 1
            if r.is_group and r.is_li:
                assert S.size == 1
