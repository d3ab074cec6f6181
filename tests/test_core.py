import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgisect.core import (ASSOC_BLOCK_CELLS, AssociativityError, Morphism, apply_morphism,
                          check_associative, direct_product, distinguished_elements,
                          local_monoid, monogenic_orders, multiply, power, product_morphism,
                          sub_semigroup, subsemigroup_closure)
from sgisect import families
from sgisect.families import build_family, leftzero, mincap, nilinterval, trivial
from sgisect.varieties import is_li, is_nilpotent

from _oracles import first_nonassociative_triple, fold


class TestCheckAssociative:
    def test_trivial(self):
        S = check_associative([[0]])
        assert S.size == 1

    def test_leftzero(self):
        S = check_associative([[0, 0], [1, 1]])
        assert S.table == ((0, 0), (1, 1))

    def test_violation_reports_first_triple(self):
        # (0*0)*1 = t[1][1] = 0 but 0*(0*1) = t[0][0] = 1; all earlier
        # triples check out, so (0, 0, 1) is the first counterexample.
        with pytest.raises(AssociativityError) as exc:
            check_associative([[1, 0], [0, 0]])
        assert exc.value.triple == (0, 0, 1)

    def test_non_square(self):
        with pytest.raises(ValueError, match="row 1"):
            check_associative([[0, 0], [0]])

    def test_out_of_range_entry(self):
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            check_associative([[0, 0], [2, 0]])

    def test_empty(self):
        with pytest.raises(ValueError):
            check_associative([])

    def test_random_small_tables_match_definition(self):
        rng = random.Random(31)
        violations = 0
        for _ in range(3000):
            n = rng.randint(2, 4)
            table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            expected = first_nonassociative_triple(table)
            if expected is None:
                assert check_associative(table).table == tuple(map(tuple, table))
                continue
            violations += 1
            with pytest.raises(AssociativityError) as exc:
                check_associative(table)
            assert exc.value.triple == expected
        assert violations > 1000

    @pytest.mark.parametrize("spec, past_first_block", [
        ("leftzero:80", True), ("rightzero:72", True), ("nilinterval:12", True),
        ("mincap:70", False), ("cyclic:75", False)])
    def test_one_changed_entry_past_the_first_block(self, spec, past_first_block):
        S = build_family(spec)
        n = S.size
        block_rows = max(1, ASSOC_BLOCK_CELLS // (n * n))
        assert n >= 70 and block_rows < n
        rng = random.Random(spec)
        for _ in range(3):
            x, y = rng.randrange(block_rows, n), rng.randrange(n)
            table = [list(row) for row in S.table]
            table[x][y] = (table[x][y] + 1) % n
            expected = first_nonassociative_triple(table)
            with pytest.raises(AssociativityError) as exc:
                check_associative(table)
            assert exc.value.triple == expected
            assert (expected[0] >= block_rows) == past_first_block


class TestArray:
    @pytest.mark.parametrize("spec, dtype", [
        ("mincap:1", np.uint8), ("mincap:256", np.uint8), ("leftzero:257", np.uint16)])
    def test_compact_read_only_copy_of_the_table(self, spec, dtype):
        S = build_family(spec)
        a = S.array
        assert a.dtype == np.min_scalar_type(S.size - 1) == dtype
        assert a.shape == (S.size, S.size) and np.array_equal(a, S.table)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0
        assert S.array is a

    def test_cache_does_not_change_equality_or_hash(self):
        S, fresh = mincap(5), mincap(5)
        before = hash(S)
        S.array
        assert S == fresh and hash(S) == hash(fresh) == before
        assert {S: 1}[fresh] == 1


class TestMultiply:
    def test_mincap4_examples(self):
        S = mincap(4)
        assert multiply(S, 1, 2) == 3  # values: 2*3 capped at 4
        assert all(multiply(S, 3, x) == 3 for x in range(4))  # zero absorbs
        assert multiply(S, 0, 0) == 1  # values: 1*1 = 2

    def test_out_of_range(self):
        S = mincap(4)
        with pytest.raises(IndexError):
            multiply(S, 4, 0)
        with pytest.raises(IndexError):
            multiply(S, 0, -1)


class TestPower:
    def test_examples(self):
        S = mincap(4)
        assert power(S, 0, 1) == 0
        assert power(S, 0, 4) == 3
        assert power(S, 0, 100) == 3

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            power(mincap(4), 0, 0)

    def test_matches_iterated_multiplication(self, family_pool):
        for S in family_pool:
            for x in range(S.size):
                acc = x
                for e in range(2, 20):
                    acc = S.table[acc][x]
                    assert power(S, x, e) == acc

    def test_additivity(self, family_pool):
        rng = random.Random(7)
        for S in family_pool:
            x = rng.randrange(S.size)
            for a in range(1, 65):
                for b in range(1, 65):
                    assert power(S, x, a + b) == S.table[power(S, x, a)][power(S, x, b)]

    def test_huge_exponent(self):
        assert power(mincap(4), 0, 10 ** 30) == 3


class TestDistinguishedElements:
    def test_trivial(self):
        d = distinguished_elements(trivial())
        assert d == type(d)(frozenset({0}), 0, 0)

    def test_mincap4(self):
        d = distinguished_elements(mincap(4))
        assert d.idempotents == frozenset({3})
        assert d.zero == 3
        assert d.neutral is None

    def test_leftzero(self):
        d = distinguished_elements(leftzero(2))
        assert d.idempotents == frozenset({0, 1})
        assert d.zero is None
        assert d.neutral is None


class TestMonogenicOrders:
    def test_mincap4(self):
        orders, class_order = monogenic_orders(mincap(4))
        assert orders[0] == 4
        assert class_order == 4

    def test_idempotents_have_order_one(self, family_pool):
        for S in family_pool:
            orders, _ = monogenic_orders(S)
            for e in distinguished_elements(S).idempotents:
                assert orders[e] == 1

    def test_nilinterval_pair(self):
        S = nilinterval(2)
        idx = S.labels.index("(1,1)")
        orders, _ = monogenic_orders(S)
        assert orders[idx] == 2  # the pair and then zero


class TestLocalMonoid:
    def test_trivial(self):
        M, elems = local_monoid(trivial(), 0)
        assert M.size == 1 and elems == (0,)

    def test_leftzero(self):
        M, elems = local_monoid(leftzero(2), 0)
        assert M.size == 1 and elems == (0,)

    def test_mincap4_zero(self):
        M, elems = local_monoid(mincap(4), 3)
        assert M.size == 1 and elems == (3,)

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError, match="not idempotent"):
            local_monoid(mincap(4), 0)

    def test_monoid_axioms(self, family_pool):
        for S in family_pool:
            for e in distinguished_elements(S).idempotents:
                M, elems = local_monoid(S, e)
                neutral = elems.index(e)
                d = distinguished_elements(M)
                assert d.neutral == neutral
                eSe = {S.table[S.table[e][x]][e] for x in S.elements()}
                assert (M, elems) == sub_semigroup(S, eSe)


class TestSubSemigroup:
    def test_one_function(self):
        assert families.sub_semigroup is sub_semigroup

    def test_labels_carry_over(self):
        T, elems = sub_semigroup(mincap(4), {3, 2})
        assert elems == (2, 3) and T.labels == ("3", "4")
        assert T.table == ((1, 1), (1, 1))

    def test_not_closed_rejected(self):
        with pytest.raises(ValueError, match=r"not closed: 1\*1 = 3 escapes"):
            sub_semigroup(mincap(4), {1, 2})

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            sub_semigroup(mincap(2), {-1, 1})  # t[-1] would alias the last row
        with pytest.raises(IndexError):
            sub_semigroup(mincap(2), {2})


class TestSubsemigroupClosure:
    def test_mincap4_generator(self):
        assert subsemigroup_closure(mincap(4), {0}) == frozenset({0, 1, 2, 3})

    def test_all_elements(self, family_pool):
        for S in family_pool:
            assert subsemigroup_closure(S, range(S.size)) == frozenset(range(S.size))

    def test_leftzero_singleton(self):
        assert subsemigroup_closure(leftzero(2), {0}) == frozenset({0})

    def test_empty_gens_rejected(self):
        with pytest.raises(ValueError):
            subsemigroup_closure(mincap(4), set())


class TestDirectProduct:
    def test_single_factor_is_copy(self):
        S = mincap(3)
        P, projs = direct_product([S])
        assert P.table == S.table
        assert projs == [tuple(range(3))]

    def test_trivial_times_s(self):
        S = mincap(3)
        P, projs = direct_product([trivial(), S])
        assert P.size == S.size
        assert all(P.table[x][y] == S.table[projs[1][x]][projs[1][y]]
                   for x in range(3) for y in range(3))

    def test_mincap3_squared_example(self):
        S = mincap(3)
        P, projs = direct_product([S, S])
        assert P.size == 9
        # (value 1, value 2) * (value 2, value 1) == (value 3, value 3)
        x = next(i for i in range(9) if (projs[0][i], projs[1][i]) == (0, 1))
        y = next(i for i in range(9) if (projs[0][i], projs[1][i]) == (1, 0))
        z = P.table[x][y]
        assert (projs[0][z], projs[1][z]) == (2, 2)

    def test_projections_are_morphisms(self, family_pool):
        P, projs = direct_product([family_pool[1], family_pool[3]])
        factors = [family_pool[1], family_pool[3]]
        for x in range(P.size):
            for y in range(P.size):
                z = P.table[x][y]
                for i, F in enumerate(factors):
                    assert projs[i][z] == F.table[projs[i][x]][projs[i][y]]

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            direct_product([mincap(4)] * 3, cap=60)


class TestApplyMorphism:
    def test_single_letter(self):
        h = Morphism((2, 0), mincap(4))
        assert apply_morphism(h, (0,)) == 2
        assert apply_morphism(h, (1,)) == 0

    def test_two_letters(self):
        # both letters map to value 1; a two-letter word reaches value 2
        h = Morphism((0, 0), mincap(3))
        assert apply_morphism(h, (0, 1)) == 1

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            apply_morphism(Morphism((0,), mincap(3)), ())

    def test_letter_out_of_range(self):
        with pytest.raises(IndexError):
            apply_morphism(Morphism((0,), mincap(3)), (1,))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_splits_as_product(self, data):
        from sgisect.families import cyclic, leftzero, mincap
        S = data.draw(st.sampled_from([mincap(4), leftzero(3), cyclic(3), nilinterval(2)]))
        m = data.draw(st.integers(1, 3))
        images = tuple(data.draw(st.integers(0, S.size - 1)) for _ in range(m))
        h = Morphism(images, S)
        u = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=16))
        v = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=16))
        lhs = apply_morphism(h, u + v)
        rhs = S.table[apply_morphism(h, u)][apply_morphism(h, v)]
        assert lhs == rhs


class TestProductMorphism:
    def test_single(self):
        h = Morphism((1, 0), mincap(3))
        ph = product_morphism([h])
        assert ph.images == h.images

    def test_diagonal(self):
        h = Morphism((1, 0), mincap(3))
        ph = product_morphism([h, h])
        _, projs = direct_product([h.target, h.target])
        for a in range(2):
            assert projs[0][ph.images[a]] == projs[1][ph.images[a]] == h.images[a]

    def test_combined_gadget_images(self):
        # letter weights 2 under both morphisms: combined image is (2, 2)
        S = mincap(3)
        g1 = Morphism((1, 1), S)
        h1 = Morphism((1, 0), S)
        ph = product_morphism([g1, h1])
        _, projs = direct_product([S, S])
        img = apply_morphism(ph, (0,))
        assert (projs[0][img], projs[1][img]) == (1, 1)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            product_morphism([Morphism((0,), mincap(3)), Morphism((0, 0), mincap(3))])

    def test_commutes_with_words(self, family_pool):
        rng = random.Random(11)
        for _ in range(40):
            factors = rng.sample(family_pool[:8], 2)
            hs = [Morphism(tuple(rng.randrange(S.size) for _ in range(2)), S) for S in factors]
            ph = product_morphism(hs)
            _, projs = direct_product(factors)
            word = [rng.randrange(2) for _ in range(rng.randint(1, 10))]
            img = apply_morphism(ph, word)
            for i, h in enumerate(hs):
                assert projs[i][img] == apply_morphism(h, word)


class TestEventualPowers:
    def test_stabilization_in_locally_trivial_semigroups(self, family_pool):
        for S in family_pool:
            if not is_li(S):
                continue
            orders, _ = monogenic_orders(S)
            zero = distinguished_elements(S).zero
            for s in range(S.size):
                n = orders[s]
                assert power(S, s, n + 1) == power(S, s, n)
                if is_nilpotent(S):
                    assert power(S, s, n) == zero

    def test_oracle_fold_agrees_with_power(self, family_pool):
        for S in family_pool[:6]:
            for s in range(S.size):
                for e in range(1, 12):
                    assert power(S, s, e) == fold(S, [s] * e)
