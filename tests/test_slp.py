import itertools
import random
import time

import pytest

from sgisect import slp
from sgisect.circuits import slp_to_circuit
from sgisect.core import Morphism, apply_morphism, direct_product, product_morphism
from sgisect.families import cyclic, leftzero, mincap, nilinterval
from sgisect.slp import (Slp, SlpCycleError, SlpLimitError, canonical_slp, enumerate_slps,
                         power_slp, slp_eval_word, slp_image, slp_stats, validate_slp, var_ref)

from _oracles import canonical_bodies_by_filter, random_slp, validate_slp_cycle_reference


def _memo_summary(alphabet_size, sizes):
    return [(w.start, w.count, [(g.letters.tolist(), g.index.tolist(), g.bodies) for g in w.groups], w.seen)
            for w in (slp.first_words(alphabet_size, size) for size in sizes)]


class TestValidate:
    def test_canonical_word(self):
        G = validate_slp(2, [(0, 1)], 0)
        assert G.size == 2 and G.variable_count == 1

    def test_squaring(self):
        G = validate_slp(1, [(var_ref(1), var_ref(1)), (0,)], 0)
        assert G.size == 3

    def test_self_cycle(self):
        with pytest.raises(SlpCycleError) as exc:
            validate_slp(1, [(var_ref(0), 0)], 0)
        assert exc.value.cycle == (0, 0)

    def test_two_step_cycle(self):
        with pytest.raises(SlpCycleError):
            validate_slp(1, [(var_ref(1),), (var_ref(0),)], 0)

    def test_cycle_off_the_start_path(self):
        # X0 is fine but X1 loops on itself
        with pytest.raises(SlpCycleError):
            validate_slp(1, [(0,), (var_ref(1),)], 0)

    def test_one_pass_reports_the_per_variable_cycle(self):
        # the reference searches from each variable afresh; validate_slp
        # shares finished variables across its roots
        rng = random.Random(4242)
        cycles = off_start = 0
        for _ in range(600):
            k = rng.randint(1, 8)
            pool = [0, 1] * 4 + [var_ref(j) for j in range(k)]
            rhs = [tuple(rng.choice(pool) for _ in range(rng.randint(1, 3))) for _ in range(k)]
            start = rng.randrange(k)
            expected = validate_slp_cycle_reference(2, rhs, start)
            try:
                validate_slp(2, rhs, start)
            except SlpCycleError as exc:
                assert exc.cycle == expected
                cycles += 1
                try:
                    slp_stats(Slp(2, tuple(rhs), start))
                except SlpCycleError:
                    continue
                off_start += 1
            else:
                assert expected is None
        assert 200 <= cycles <= 450 and off_start >= 100

    def test_long_chain_validates_in_one_pass(self):
        # X_i = X_{i+1} X_{i+1}: a search per variable takes quadratic time
        n = 20_000
        rhs = [(var_ref(i + 1), var_ref(i + 1)) for i in range(n - 1)] + [(0,)]
        started = time.perf_counter()
        G = validate_slp(1, rhs, 0)
        assert time.perf_counter() - started < 5.0
        assert G.variable_count == n

    @pytest.mark.parametrize("evaluate", [
        lambda G: slp_to_circuit(G, Morphism((0,), mincap(3))),
        lambda G: slp_image(G, Morphism((0,), mincap(3))),
        slp_stats,
        slp_eval_word,
    ], ids=["slp_to_circuit", "slp_image", "slp_stats", "slp_eval_word"])
    def test_evaluation_detects_cycle_lazily(self, evaluate):
        # direct construction skips the acyclicity check; X0 -> X1 -> X2 -> X1
        G = Slp(1, ((0, var_ref(1)), (var_ref(2), 0), (var_ref(1),)), 0)
        with pytest.raises(SlpCycleError) as exc:
            evaluate(G)
        assert exc.value.cycle == (1, 2, 1)

    def test_empty_rhs(self):
        with pytest.raises(ValueError, match="empty right-hand side"):
            validate_slp(1, [()], 0)

    def test_dangling_reference(self):
        with pytest.raises(ValueError, match="undefined variable"):
            validate_slp(1, [(var_ref(3),)], 0)

    def test_letter_out_of_alphabet(self):
        with pytest.raises(ValueError, match="outside alphabet"):
            validate_slp(2, [(2,)], 0)


class TestStats:
    def test_canonical(self):
        assert slp_stats(canonical_slp((0, 1), 2)) == (2, 2)

    def test_double_squaring(self):
        G = Slp(2, ((var_ref(1), var_ref(1)), (var_ref(2), var_ref(2)), (0, 1)), 0)
        assert slp_stats(G) == (6, 8)

    def test_twenty_fold_squaring(self):
        rhs = [(var_ref(i + 1), var_ref(i + 1)) for i in range(20)] + [(0,)]
        G = Slp(1, tuple(rhs), 0)
        assert slp_stats(G) == (41, 1 << 20)

    def test_size_counts_unreachable_variables(self):
        G = Slp(1, ((0,), (0, 0, 0)), 0)
        assert slp_stats(G) == (4, 1)


class TestEvalWord:
    def test_canonical(self):
        assert slp_eval_word(canonical_slp((0, 1), 2)) == (0, 1)

    def test_expansion(self):
        G = Slp(2, ((var_ref(1), var_ref(1)), (0, 1)), 0)
        assert slp_eval_word(G) == (0, 1, 0, 1)

    def test_limit_guard(self):
        rhs = [(var_ref(i + 1), var_ref(i + 1)) for i in range(20)] + [(0,)]
        G = Slp(1, tuple(rhs), 0)
        with pytest.raises(SlpLimitError):
            slp_eval_word(G, limit=10 ** 6)


class TestImage:
    def test_single_letter(self):
        h = Morphism((1, 1), mincap(3))
        assert slp_image(canonical_slp((0,), 2), h) == 1

    def test_squared_letter(self):
        h = Morphism((0,), mincap(4))
        G = Slp(1, ((var_ref(1), var_ref(1)), (0,)), 0)
        assert slp_image(G, h) == 1  # value 1 squared is value 2

    def test_huge_power_reaches_zero(self):
        rhs = [(var_ref(i + 1), var_ref(i + 1)) for i in range(20)] + [(0,)]
        G = Slp(1, tuple(rhs), 0)
        h = Morphism((0,), mincap(4))
        assert slp_image(G, h) == 3

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            slp_image(canonical_slp((0, 1), 2), Morphism((0,), mincap(3)))

    def test_matches_word_expansion(self):
        rng = random.Random(501)
        pool = [mincap(4), mincap(6), leftzero(3), cyclic(4), nilinterval(2)]
        checked = 0
        while checked < 500:
            m = rng.randint(1, 3)
            G = random_slp(rng, m, 8)
            if slp_stats(G)[1] > 10 ** 4:
                continue
            S = rng.choice(pool)
            h = Morphism(tuple(rng.randrange(S.size) for _ in range(m)), S)
            assert slp_image(G, h) == apply_morphism(h, slp_eval_word(G))
            checked += 1

    def test_projects_through_product_morphism(self):
        rng = random.Random(502)
        pool = [mincap(3), leftzero(2), cyclic(3)]
        for _ in range(50):
            factors = [rng.choice(pool) for _ in range(2)]
            hs = [Morphism(tuple(rng.randrange(S.size) for _ in range(2)), S) for S in factors]
            ph = product_morphism(hs)
            _, projs = direct_product(factors)
            G = random_slp(rng, 2, 6)
            img = slp_image(G, ph)
            for i, h in enumerate(hs):
                assert projs[i][img] == slp_image(G, h)


class TestPower:
    def test_identity(self):
        G = canonical_slp((0, 1), 2)
        assert power_slp(G, 1) is G

    def test_exponent_five(self):
        G = canonical_slp((0, 1), 2)
        H = power_slp(G, 5)
        size, length = slp_stats(H)
        assert size == 8 and length == 10
        assert slp_eval_word(H) == (0, 1) * 5
        assert size <= G.size + 4 * 3  # ceil(log2 5) == 3

    def test_power_of_two(self):
        G = canonical_slp((0,), 1)
        H = power_slp(G, 1 << 20)
        size, length = slp_stats(H)
        assert length == 1 << 20 and size <= 1 + 4 * 20

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            power_slp(canonical_slp((0,), 1), 0)

    def test_size_bound_and_value(self):
        rng = random.Random(77)
        for _ in range(60):
            G = random_slp(rng, rng.randint(1, 3), 6)
            e = rng.randint(2, 500)
            H = power_slp(G, e)
            gsize, glen = slp_stats(G)
            hsize, hlen = slp_stats(H)
            assert hlen == e * glen  # exact multiplicativity
            assert hsize <= gsize + 4 * (e - 1).bit_length()  # ceil(log2 e) for e >= 2
            if e * glen <= 10 ** 4:
                assert slp_eval_word(H) == slp_eval_word(G) * e


class TestEnumeration:
    def test_first_slp_is_first_letter(self):
        first = next(enumerate_slps(3, 4))
        assert first.rhs == ((0,),) and first.start == 0

    def test_sizes_ascending_and_canonical(self):
        last = 0
        for G in enumerate_slps(2, 4):
            size = G.size
            assert size >= last
            last = size
            # upward references only, every non-start variable referenced
            used = set()
            for v, body in enumerate(G.rhs):
                for sym in body:
                    if sym < 0:
                        assert -sym - 1 > v
                        used.add(-sym - 1)
            assert used == set(range(1, G.variable_count))

    @pytest.mark.parametrize("alphabet_size, max_size", [(1, 6), (2, 5), (3, 5), (4, 4)])
    def test_bodies_match_filtered_products(self, alphabet_size, max_size):
        for size in range(1, max_size + 1):
            assert (list(slp._canonical_bodies(alphabet_size, size))
                    == list(canonical_bodies_by_filter(alphabet_size, size)))

    def test_first_words_keep_each_first_occurrence(self, fresh_word_memo):
        expected, seen = [], set()
        for i, G in enumerate(enumerate_slps(2, 4)):
            word = slp_eval_word(G)
            if word not in seen:
                seen.add(word)
                expected.append((i, word, G.rhs))
        got, next_start = [], 0
        for size in range(1, 5):
            words = slp.first_words(2, size)
            assert words.start == next_start and words.count > 0
            next_start += words.count
            for group in words.groups:
                for column, i, bodies in zip(group.letters.T, group.index, group.bodies):
                    assert words.start <= i < next_start
                    assert sum(len(body) for body in bodies) == size
                    got.append((int(i), tuple(int(a) for a in column), bodies))
            assert words.seen == {word for _, word, _ in got}
        assert next_start == sum(1 for _ in enumerate_slps(2, 4))
        assert sorted(got) == expected

    def test_first_words_survive_eviction(self, fresh_word_memo):
        expected = _memo_summary(2, range(1, 5))
        slp.first_words.cache_clear()
        got = _memo_summary(2, (1, 2))
        for alphabet in (1, 3, 4, 5, 6, 7, 8, 9):  # 24 more entries evict those of 2 letters
            _memo_summary(alphabet, (1, 2, 3))
        misses = slp.first_words.cache_info().misses
        got += _memo_summary(2, (3, 4))  # refills sizes 1 and 2 on the way
        assert slp.first_words.cache_info().misses == misses + 4
        assert got == expected

    def test_error_while_filling_caches_nothing(self, fresh_word_memo, monkeypatch):
        expected = _memo_summary(2, range(1, 5))
        slp.first_words.cache_clear()
        canonical_word, calls = slp._canonical_word, itertools.count()

        def failing(bodies):
            if next(calls) == 10:  # the fifth body of size 3, after the six of size 2
                raise KeyboardInterrupt
            return canonical_word(bodies)

        got = _memo_summary(2, (1,))
        monkeypatch.setattr(slp, "_canonical_word", failing)
        with pytest.raises(KeyboardInterrupt):
            slp.first_words(2, 4)
        assert slp.first_words.cache_info().currsize == 2  # sizes 1 and 2
        monkeypatch.setattr(slp, "_canonical_word", canonical_word)
        got += _memo_summary(2, (2, 3, 4))
        assert got == expected

    def test_covers_all_short_words(self):
        words = set()
        for G in enumerate_slps(2, 4):
            length = slp_stats(G)[1]
            if length <= 12:
                words.add(slp_eval_word(G))
        for length in range(1, 5):
            for w in itertools.product(range(2), repeat=length):
                assert w in words
        assert all(len(w) <= 4 for w in words)
