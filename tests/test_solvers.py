import itertools
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sgisect.core import Morphism, Semigroup, apply_morphism, direct_product
from sgisect.families import cyclic, leftzero, mincap, nilinterval, rightzero, trivial
from sgisect import slp, solve, varieties
from sgisect.reductions import CnfFormula, reduce_nilpotent, reduce_unbounded
from sgisect.slp import canonical_slp, power_slp, slp_eval_word, slp_stats
from sgisect.solve import (Constraint, Instance, PreconditionError, StateCapError, Witness,
                           bounded_solve, brute_force_solve, comli_solve, enum_slp_solve,
                           li_solve, li_witness_shorten, verify_witness)
from sgisect.varieties import is_commutative, is_li, li_degree

from _oracles import (bfs_reference, commuting_letter_pairs, first_enumerated_slp, length_sets,
                      live_elements, random_instance, random_morphism, solve_by_word_enumeration)


def _single(S, images, accept, names=None) -> Instance:
    names = names or tuple(f"a{i}" for i in range(len(images)))
    return Instance(names, (Constraint(Morphism(tuple(images), S), frozenset(accept)),))


GADGET_SAT = reduce_unbounded(CnfFormula(1, (frozenset({1}),)))
GADGET_EMPTY = reduce_unbounded(CnfFormula(1, (frozenset({1}), frozenset({-1}))))


def _summary(r):
    return (r.status, r.witness and r.witness.word, r.stats.states_explored,
            r.stats.max_depth, r.complete)


def _answer(r):
    return r.status, r.witness and r.witness.word, r.complete


def _agree_with_reference(I, depth_cap=None, solver=None):
    """The engine against ``bfs_reference``: equal answers, equal new states
    at every depth, and equal candidates unless the commutation rule can
    drop some.  With ``solver`` (``li_solve`` or ``comli_solve``) in place
    of brute force, the reference prunes at the solver's horizon, twice the
    largest degree, and the status, witness and completeness must also be
    brute force's."""
    if solver is None:
        horizon, r = 0, brute_force_solve(I) if depth_cap is None else bounded_solve(I, depth_cap)
    else:
        horizon, r = 2 * max(li_degree(S) for S in I.tables), solver(I)
        assert _answer(r) == _answer(brute_force_solve(I))
    ref = bfs_reference(I, depth_cap, horizon)
    assert _summary(r) == ref[:5]
    if commuting_letter_pairs(I):
        assert r.stats.candidates <= ref[5]
    else:
        assert r.stats.candidates == ref[5]
    _check_layers(r)
    assert [new for _, new, _ in r.stats.layers[:r.stats.max_depth]] == ref[6]
    return r, ref


def _profiles(I, horizon):
    """Each element row's length profile in ``_tables``: bits A + 1 to
    A + horizon + 1 of the mask words it gives every constraint's rows."""
    A = I.alphabet_size
    rows = np.unpackbits(solve._tables(I, horizon)[0].view(np.uint8), axis=1, bitorder="little")
    return rows[:, A + 1:A + horizon + 2]


def _check_layers(r):
    """``stats.layers`` holds one (candidates, new states, seconds) per round
    that generated candidates: one per depth, plus, when a closed search ends
    on a round that found no new tuple, that round.  Set-up and the layers
    fit in the wall time, which also holds the round that stopped the search."""
    layers, depth = r.stats.layers, r.stats.max_depth
    assert 0 <= r.stats.setup_s
    assert r.stats.setup_s + sum(seconds for _, _, seconds in layers) <= r.stats.wall_time
    assert sum(new for _, new, _ in layers) == r.stats.states_explored
    assert sum(cand for cand, _, _ in layers) == r.stats.candidates
    assert all(new > 0 and seconds >= 0 for _, new, seconds in layers[:depth])
    assert len(layers) == depth or (
        len(layers) == depth + 1 and layers[-1][1] == 0 and r.complete and not r.satisfiable)


class TestBruteForce:
    def test_satisfiable_gadget(self):
        r = brute_force_solve(GADGET_SAT)
        assert r.satisfiable and r.complete
        assert r.witness.word == (0,)  # the letter x1

    def test_contradiction_gadget(self):
        r = brute_force_solve(GADGET_EMPTY)
        assert not r.satisfiable and r.complete

    def test_empty_accept_set_short_circuits(self):
        I = _single(mincap(3), (0,), ())
        r = brute_force_solve(I)
        assert not r.satisfiable and r.complete
        assert r.stats.states_explored == 0

    def test_state_cap(self):
        I = _single(mincap(8), (0,), (7,))
        with pytest.raises(StateCapError):
            brute_force_solve(I, state_cap=3)

    @pytest.mark.parametrize("formula", [
        CnfFormula(1, (frozenset({1}),)),
        CnfFormula(1, (frozenset({1}), frozenset({-1}))),
        CnfFormula(4, (frozenset({1, -2, 3}), frozenset({-1, 2, 4}), frozenset({-3, -4, 2}))),
        CnfFormula(3, tuple(frozenset(s * v for s, v in zip(signs, (1, 2, 3)))
                            for signs in itertools.product((1, -1), repeat=3)))],
        ids=["sat", "contradiction", "sat-k4", "unsat-k3"])
    def test_state_cap_is_checked_after_each_whole_layer(self, formula):
        # the cap is compared with the states stored once a layer is inserted
        # in full: a cap equal to the final count passes, one below it stops
        # in the last layer that stored anything, and the error says so
        I = reduce_unbounded(formula)
        r = brute_force_solve(I)
        s = r.stats.states_explored
        assert _summary(brute_force_solve(I, state_cap=s)) == _summary(r)
        with pytest.raises(StateCapError) as err:
            brute_force_solve(I, state_cap=s - 1)
        assert (err.value.cap, err.value.depth, err.value.states) == (s - 1, r.stats.max_depth, s)
        assert f"depth {r.stats.max_depth}" in str(err.value) and f"{s} states" in str(err.value)
        # a cap reached inside the last layer still reports the whole layer
        before = bounded_solve(I, r.stats.max_depth - 1).stats.states_explored if r.stats.max_depth > 1 else 0
        assert s - before >= 2
        with pytest.raises(StateCapError) as err:
            brute_force_solve(I, state_cap=before)
        assert (err.value.depth, err.value.states) == (r.stats.max_depth, s)

    def test_state_cap_error_without_progress(self):
        err = StateCapError(5)
        assert (err.cap, err.depth, err.states) == (5, None, None)
        assert str(err) == "search exceeded the state cap of 5"

    def test_agrees_with_word_enumeration(self, family_pool):
        rng = random.Random(9001)
        for _ in range(60):
            semis = [rng.choice(family_pool) for _ in range(rng.randint(1, 2))]
            I = random_instance(rng, semis, rng.randint(1, 3), allow_empty_accept=True)
            r = brute_force_solve(I)
            oracle = solve_by_word_enumeration(I, 8)
            if r.satisfiable and len(r.witness.word) <= 8:
                assert r.witness.word == oracle  # shortest and lexicographically least
            elif not r.satisfiable:
                assert oracle is None
            assert not r.satisfiable or verify_witness(I, r.witness).ok


class TestBounded:
    def test_cap_equal_to_witness_length(self):
        r = bounded_solve(GADGET_SAT, 1)
        assert r.satisfiable and r.witness.word == (0,)

    def test_cap_not_binding_matches_brute(self):
        full = brute_force_solve(GADGET_SAT)
        capped = bounded_solve(GADGET_SAT, 10)
        assert capped.satisfiable and capped.witness.word == full.witness.word

    def test_cap_below_shortest_witness(self):
        # needs exactly three letters to hit value 3 in the min-capped semigroup on {1..4}
        I = _single(mincap(4), (0,), (2,))
        assert brute_force_solve(I).witness.word == (0, 0, 0)
        r = bounded_solve(I, 2)
        assert not r.satisfiable and not r.complete  # documented incompleteness

    def test_closed_search_below_cap_is_complete(self):
        r = bounded_solve(GADGET_EMPTY, 50)
        assert not r.satisfiable and r.complete

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            bounded_solve(GADGET_SAT, 0)


class TestPrunedSearch:
    """Liveness pruning and packed-key deduplication inside the BFS engine."""

    def test_dead_letter_is_empty_at_depth_zero(self):
        # 2 is the cap of mincap(3): every product stays at 2, never at 0
        I = _single(mincap(3), (2,), (0,))
        for r in (brute_force_solve(I), bounded_solve(I, 5)):
            assert not r.satisfiable and r.complete
            assert r.stats.states_explored == 0 and r.stats.max_depth == 0

    def test_unsat_gadget_closes_at_the_word_length(self):
        k = 3
        clauses = tuple(frozenset({a, b, c}) for a in (1, -1) for b in (2, -2) for c in (3, -3))
        I = reduce_unbounded(CnfFormula(k, clauses))  # all 8 sign patterns: UNSAT
        for r in (li_solve(I), bounded_solve(I, 50)):
            assert not r.satisfiable and r.complete
            assert r.stats.max_depth <= k + 1

    def test_keys_spanning_several_words(self):
        # 22 accept-all constraints pinned at the top element of mincap(8) fill
        # the first key word with the same bits for every tuple, so tuples
        # differ only in the trailing constraints, which the second word holds
        rng = random.Random(2024)
        top = mincap(8)
        S = mincap(5)
        for _ in range(12):
            A = rng.randint(2, 3)
            padding = [Constraint(Morphism((7,) * A, top), frozenset(range(8)))] * 22
            tail = [Constraint(random_morphism(rng, S, A),
                               frozenset(rng.sample(range(S.size), rng.randint(1, 2))))
                    for _ in range(rng.randint(1, 3))]
            I = Instance(tuple(f"a{i}" for i in range(A)), tuple(padding + tail))
            assert 3 * len(I.constraints) > 64  # three bits per component
            r = brute_force_solve(I)
            # every word of length >= 5 maps to the cap, so length 5 is exhaustive
            assert (r.witness.word if r.satisfiable else None) == solve_by_word_enumeration(I, 5)
            assert r.complete

    def test_global_ids_past_the_compact_table_dtype(self):
        # every table here is uint8, but the global ids of the later
        # constraints pass 255, so the engine must widen before offsetting
        rng = random.Random(255)
        semis = [leftzero(200), mincap(150), rightzero(180)]
        found = 0
        for _ in range(15):
            A = rng.randint(2, 3)
            I = Instance(tuple(f"a{i}" for i in range(A)), tuple(
                Constraint(random_morphism(rng, S, A), frozenset(rng.sample(range(S.size), 60)))
                for S in semis))
            r = bounded_solve(I, 5)
            assert (r.witness.word if r.satisfiable else None) == solve_by_word_enumeration(I, 5)
            found += r.satisfiable
        assert 0 < found < 15

    def test_sparse_accept_sets_match_word_enumeration(self, family_pool):
        rng = random.Random(4242)
        for _ in range(40):
            semis = [rng.choice(family_pool) for _ in range(rng.randint(1, 3))]
            A = rng.randint(1, 3)
            constraints = tuple(
                Constraint(random_morphism(rng, S, A), frozenset({rng.randrange(S.size)}))
                for S in semis)
            I = Instance(tuple(f"a{i}" for i in range(A)), constraints)
            oracle = solve_by_word_enumeration(I, 8)
            capped = bounded_solve(I, 8)
            assert (capped.witness.word if capped.satisfiable else None) == oracle
            short = bounded_solve(I, 3)
            if not short.satisfiable and short.complete:
                assert oracle is None  # a closed search rules out every length
            full = brute_force_solve(I)
            if oracle is not None:
                assert full.witness.word == oracle
            else:
                assert not full.satisfiable or len(full.witness.word) > 8


class TestBatchedSetup:
    """The engine fills its tables with one gather per distinct Semigroup
    object; grouping, interleaving and sharing must not change the search."""

    @staticmethod
    def _same_search(I, oracle_len, capped=None):
        """brute_force_solve against li_solve and ``bfs_reference`` at its
        horizon (or bounded_solve at a cap past the search, for non-LI
        tables), and the word-enumeration oracle."""
        brute = brute_force_solve(I)
        if capped:
            assert _summary(bounded_solve(I, capped)) == _summary(brute)
        else:
            _agree_with_reference(I, solver=li_solve)
        word = brute.witness.word if brute.satisfiable else None
        expected = solve_by_word_enumeration(I, oracle_len)
        assert word == expected or (expected is None and len(word) > oracle_len)
        return _summary(brute)

    def test_interleaved_semigroups_of_different_sizes(self):
        rng = random.Random(31)
        M = mincap(4)  # one object in the first and third constraint; the last has its size only
        for semis, capped in (([M, rightzero(3), M, leftzero(4)], None),
                              ([M, cyclic(3), M, cyclic(4)], 12)):
            for _ in range(12):
                A = rng.randint(1, 3)
                constraints = tuple(
                    Constraint(random_morphism(rng, S, A),
                               frozenset(rng.sample(range(S.size), rng.randint(1, 2))))
                    for S in semis)
                assert constraints[0].semigroup is constraints[2].semigroup
                self._same_search(Instance(tuple(f"a{i}" for i in range(A)), constraints), 5, capped)

    def test_shared_semigroup_and_equal_copies(self):
        rng = random.Random(32)
        for k in (3, 4):
            clauses = tuple(frozenset(v * rng.choice((1, -1)) for v in rng.sample(range(1, k + 1), 2))
                            for _ in range(3 * k))
            for I in (reduce_nilpotent(CnfFormula(k, clauses)), reduce_unbounded(CnfFormula(k, clauses))):
                assert len({id(c.semigroup) for c in I.constraints}) == 1
                copies = Instance(I.letter_names, tuple(
                    Constraint(Morphism(c.morphism.images, Semigroup(c.semigroup.table)), c.accept, c.name)
                    for c in I.constraints))
                assert len({id(c.semigroup) for c in copies.constraints}) == len(I.constraints)
                assert self._same_search(copies, 3) == self._same_search(I, 3)

    def test_empty_accept_set(self):
        S = mincap(4)
        for accept in (frozenset(), frozenset({3})):
            I = Instance(("a", "b"), (Constraint(Morphism((0, 1), S), frozenset({2, 3})),
                                      Constraint(Morphism((1, 0), S), frozenset()),
                                      Constraint(Morphism((0, 0), S), accept)))
            r = brute_force_solve(I)
            assert not r.satisfiable and r.stats.states_explored == 0 and r.stats.max_depth == 0
            self._same_search(I, 4)

    @pytest.mark.parametrize("A", [9, 17])
    def test_alphabets_past_one_byte_of_letters(self, A):
        # live_letters holds one bit per letter, so 9 and 17 letters span 2 and 3 bytes
        rng = random.Random(A)
        pool = [mincap(4), leftzero(2), nilinterval(3), mincap(3)]
        found = 0
        for _ in range(8):
            semis = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
            I = Instance(tuple(f"a{i}" for i in range(A)), tuple(
                Constraint(random_morphism(rng, S, A), frozenset(rng.sample(range(S.size), 1)))
                for S in semis))
            found += self._same_search(I, 3)[0] == solve.SATISFIABLE
        assert 0 < found < 8


class TestBlockMemo:
    """``_tables`` keeps each constraint's block, its mask and "allowed
    after" words, in a store on the table object, one per alphabet size and
    horizon, keyed by the letter images in letter order and the accept set,
    and each length profile in the same memo, keyed by the set of images,
    the accept set and the horizon; a store is (ids, one array), and the
    successor rows come from the table.  The stores' capacity and the
    profiles are held to ``MEMO_CELLS`` array cells.  Set-up goes span by
    span, a span being a run of consecutive constraints over one table.  A
    search that reads the memo must equal one over an equal table with an
    empty memo."""

    @staticmethod
    def _fresh(I):
        """I over new, equal tables, whose memos are empty."""
        copies = [Semigroup(S.array) for S in I.tables]
        return Instance.from_columns(I.letter_names, [copies[j] for j in I.table_index.tolist()],
                                     I.images, I.accepts, I.names)

    @staticmethod
    def _same_as_fresh(I, horizon):
        for ours, theirs in zip(solve._tables(I, horizon), solve._tables(TestBlockMemo._fresh(I), horizon)):
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)

    @staticmethod
    def _memo_cells(S):
        memo = vars(S).get("_bfs_memo", {None: 0})
        cells = sum(sum(a.size for a in v[1:]) if isinstance(v, tuple) else v.size
                    for k, v in memo.items() if k is not None)
        assert cells == memo[None]
        return cells

    def test_letter_order_is_part_of_the_key(self):
        # one image set in two letter orders: a+a reaches 4 in Z_5 with a -> 2,
        # and only b+b does with b -> 2; the letters' successor rows differ
        S = cyclic(5)
        forward, backward = _single(S, (1, 2), {4}), _single(S, (2, 1), {4})
        assert brute_force_solve(forward).witness.word == (1, 1)
        assert brute_force_solve(backward).witness.word == (0, 0)
        assert not np.array_equal(solve._tables(forward, 0)[3], solve._tables(backward, 0)[3])
        both = Instance(("a", "b"), (Constraint(Morphism((1, 2), S), frozenset({4})),
                                     Constraint(Morphism((2, 1), S), frozenset({4}))))
        for I in (forward, backward, both):
            self._same_as_fresh(I, 0)
            _agree_with_reference(I)

    def test_bounded_then_li_on_one_instance(self):
        # the horizon is part of the key: bounded_solve (horizon 0) fills the
        # memo that li_solve (horizon 2k) then reads
        rng = random.Random(2626)
        for k in (4, 5):
            clauses = tuple(frozenset(v * rng.choice((1, -1)) for v in rng.sample(range(1, k + 1), 3))
                            for _ in range(round(4.2 * k)))
            for I in (reduce_nilpotent(CnfFormula(k, clauses)), reduce_unbounded(CnfFormula(k, clauses))):
                I = self._fresh(I)
                horizon = 2 * li_degree(I.tables[0])
                for run, h in ((lambda J: bounded_solve(J, k), 0), (li_solve, horizon)):
                    assert _summary(run(I)) == _summary(run(self._fresh(I)))
                    self._same_as_fresh(I, h)

    def test_image_matrix_in_column_order(self):
        # the keys are the rows' bytes, so Instance keeps its matrix in row order
        S = Semigroup(mincap(4).array)
        images = np.asfortranarray([[0, 1, 2], [1, 2, 3]])
        I = Instance.from_columns(("a", "b", "c"), [S, S], images, [frozenset({3})] * 2, [None] * 2)
        assert I.images.flags.c_contiguous
        assert _agree_with_reference(I)[0].witness.word == (0, 2)

    def test_cached_arrays_are_read_only(self):
        I = self._fresh(reduce_nilpotent(CnfFormula(3, (frozenset({1, -2}), frozenset({2, 3})))))
        li_solve(I)
        memo = vars(I.tables[0])["_bfs_memo"]
        stores = [v for v in memo.values() if isinstance(v, tuple)]
        profiles = [v for k, v in memo.items() if k is not None and not isinstance(v, tuple)]
        assert [len(store) for store in stores] == [2] and profiles  # one store, of (ids, one array)
        _, _, _, _, base, _, length_bits = solve._tables(I, 0)
        for a in profiles + [stores[0][1], base, length_bits]:
            with pytest.raises(ValueError):
                a.flat[0] = 0

    def test_many_distinct_constraints_stay_under_the_cap(self, monkeypatch):
        # a small cap: each instance's misses are built one per chunk, the
        # memo is emptied whenever it would pass the cap, and a block larger
        # than the cap is used but not kept
        monkeypatch.setattr(solve, "MEMO_CELLS", 600)
        rng = random.Random(2727)
        S, other = Semigroup(mincap(6).array), Semigroup(leftzero(3).array)
        memos = []
        for _ in range(40):
            A = rng.randint(1, 4)
            semis = [rng.choice((S, other)) for _ in range(rng.randint(1, 4))]
            _agree_with_reference(random_instance(rng, semis, A))
            assert self._memo_cells(S) <= 600 and self._memo_cells(other) <= 600
            if not memos or vars(S)["_bfs_memo"] is not memos[-1]:
                memos.append(vars(S)["_bfs_memo"])
        assert len(memos) > 2  # emptied at least twice
        wide = _single(S, [rng.randrange(6) for _ in range(200)], {5})  # 6 + 200 rows of 4 words: 824 cells
        _agree_with_reference(wide)
        assert (200, 0) not in vars(S)["_bfs_memo"]
        assert self._memo_cells(S) <= 600

    def test_memo_emptied_while_building(self, monkeypatch):
        # a cap of 30 cells, where a Z_5 profile takes 15 and a two-letter
        # block 7: the second instance finds its first block in the store,
        # but storing the other block's profile inside _blocks empties the
        # memo, so the store grown with the miss lacks the first block, and
        # both are built again
        monkeypatch.setattr(solve, "MEMO_CELLS", 30)
        S = Semigroup(cyclic(5).array)
        known = Constraint(Morphism((1, 2), S), frozenset({4}))
        _agree_with_reference(Instance(("a", "b"), (known,)))
        memo = vars(S)["_bfs_memo"]
        assert memo[None] == 22 and len(memo[2, 0][0]) == 1
        I = Instance(("a", "b"), (known, Constraint(Morphism((2, 3), S), frozenset({4}))))
        self._same_as_fresh(I, 0)
        assert vars(S)["_bfs_memo"] is not memo and len(vars(S)["_bfs_memo"][2, 0][0]) == 2
        _agree_with_reference(I)

    def test_threads_share_one_memo(self, monkeypatch):
        # four threads fill and empty one table's memo under a small cap; a
        # lost update to its cell count would leave the count off the sum
        monkeypatch.setattr(solve, "MEMO_CELLS", 2000)
        rng = random.Random(2929)
        S = Semigroup(mincap(6).array)
        cases = [random_instance(rng, [S] * rng.randint(1, 4), rng.randint(1, 4)) for _ in range(48)]
        expected = [_summary(brute_force_solve(self._fresh(I))) for I in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                start = threading.Barrier(4, timeout=60)

                def work(k):
                    start.wait()
                    return [_summary(brute_force_solve(I)) for I in cases[k::4]]

                with ThreadPoolExecutor(4) as pool:
                    futures = [pool.submit(work, k) for k in range(4)]
                    got = [f.result(timeout=60) for f in futures]
                for k, summaries in enumerate(got):
                    assert summaries == expected[k::4]
                assert self._memo_cells(S) <= 2000
        finally:
            sys.setswitchinterval(interval)

    def test_interleaved_tables(self):
        # constraints over three tables in the order S, T, S, U, T, S, six
        # spans of one constraint each, gathered span by span in constraint
        # order, in one-constraint cells (sizes 17, 18 and 16 pack no pair)
        # and in packed ones (sizes 3, 2 and 4)
        rng = random.Random(3131)
        for S, T, U in ((mincap(17), leftzero(18), cyclic(16)), (mincap(3), cyclic(2), rightzero(4))):
            S, T, U = (Semigroup(X.array) for X in (S, T, U))
            packed = S.size < 17
            for _ in range(6):
                I = random_instance(rng, [S, T, S, U, T, S], rng.randint(2, 4))
                assert I.table_index.tolist() == [0, 1, 0, 2, 1, 0]
                *_, runs, spans = solve._layout(tuple(X.size for X in I.tables), I.table_index.tobytes(),
                                                I.alphabet_size, 0)
                assert (runs is not None) == packed
                assert spans == ((0, 0, 1), (1, 1, 2), (0, 2, 3), (2, 3, 4), (1, 4, 5), (0, 5, 6))
                for _ in range(2):  # building the blocks, then reading them back
                    self._same_as_fresh(I, 0)
                    _agree_with_reference(I)
                horizon = 2 * max(li_degree(X) or 0 for X in I.tables)
                self._same_as_fresh(I, horizon)

    def test_store_fills_before_the_memo_is_emptied(self):
        # each new constraint brings one block to the store and one 3,000-cell
        # length profile to the memo, so growth must leave room for the
        # profiles of the slots it adds: the memo is emptied only when a
        # block finds the store full
        rng = random.Random(2828)
        S = Semigroup(cyclic(1000).array)
        for i in range(40):
            memo = vars(S).get("_bfs_memo", {})
            solve._tables(_single(S, [rng.randrange(1000) for _ in range(600)], {rng.randrange(1000)}), 0)
            if vars(S)["_bfs_memo"] is not memo and (600, 0) in memo:
                ids, words = memo[(600, 0)]
                assert len(ids) == len(words), f"emptied at instance {i + 1} with {len(ids)} of {len(words)} blocks"
        assert len(vars(S)["_bfs_memo"][(600, 0)][0]) == 40

    def test_real_cap_on_one_wide_table(self):
        # 600 letters into Z_1000: a block holds 1,600 rows of 10 words and a
        # length profile 3,000 cells, so the 56th distinct constraint passes
        # the cap
        rng = random.Random(2828)
        S = Semigroup(cyclic(1000).array)
        memos = []
        for _ in range(60):
            I = _single(S, [rng.randrange(1000) for _ in range(600)], {rng.randrange(1000)})
            solve._tables(I, 0)
            assert self._memo_cells(S) <= solve.MEMO_CELLS
            if not memos or vars(S)["_bfs_memo"] is not memos[-1]:
                memos.append(vars(S)["_bfs_memo"])
        assert len(memos) > 1  # emptied at least once
        self._same_as_fresh(I, 0)


class TestCells:
    """``_bfs`` packs consecutive constraints into cells of at most 256
    values and gives a constraint of more than 256 elements a cell of its
    own; a row is one value per cell.  Every layout must search exactly as
    ``bfs_reference`` does."""

    @staticmethod
    def _agree_on(seed, semis, cells, count, caps=(), share=1.0):
        """``count`` random instances over ``semis``, laid out as ``cells``,
        each accept set at most ``share`` of its semigroup; returns how many
        were satisfiable."""
        assert solve._cells([S.size for S in semis]) == cells
        rng = random.Random(seed)
        found = 0
        for _ in range(count):
            A = rng.choice((2, 3))
            I = Instance(tuple(f"a{i}" for i in range(A)), tuple(
                Constraint(random_morphism(rng, S, A),
                           frozenset(rng.sample(range(S.size), rng.randint(1, max(1, round(share * S.size))))))
                for S in semis))
            found += _agree_with_reference(I)[0].satisfiable
            for cap in caps:
                _agree_with_reference(I, cap)
        return found

    def test_many_one_element_constraints_share_a_cell(self):
        one = trivial()
        semis = [one] * 12 + [mincap(4)] + [one] * 12 + [cyclic(3)] + [one] * 6
        assert 0 < self._agree_on(1, semis, [0], 12, (2,), 0.5) < 12

    def test_product_256_fits_one_cell_and_257_does_not(self):
        assert solve._cells([16, 16]) == [0] and solve._cells([16, 17]) == [0, 1]
        assert solve._cells([1, 256, 1]) == [0] and solve._cells([2, 128, 2]) == [0, 2]
        for semis, cells in (([mincap(16), cyclic(16)], [0]), ([cyclic(15), mincap(17)], [0]),
                             ([mincap(16), mincap(17)], [0, 1])):
            assert 0 < self._agree_on(16 * 16, semis, cells, 10, (3,), 0.5) < 10
        # 256 elements fill a one-byte cell; a size-1 constraint before them
        # shares it, so Horner's rule multiplies by 256.  The one letter
        # steps through all of Z_256, so the search meets every cell value.
        C = cyclic(256)
        for semis, cells in (([C], [0]), ([trivial(), C], [0]), ([mincap(2), C], [0, 1])):
            assert solve._cells([S.size for S in semis]) == cells
            I = Instance(("a",), tuple(Constraint(Morphism((S.size - 1,), S), frozenset(range(S.size)))
                                       for S in semis[:-1]) + (Constraint(Morphism((1,), C), frozenset({255})),))
            assert solve._tables(I, 0)[3].dtype == np.uint8
            assert _agree_with_reference(I)[0].witness.word == (0,) * 255
            _agree_with_reference(I, 254)

    def test_mixed_sizes_split_a_cell_mid_run(self):
        # 3 * 5 * 7 * 2 = 210 values fit, times 4 would not: the second cell
        # starts at the fifth constraint and holds 4 * 6 * 2 = 48 values
        semis = [mincap(3), cyclic(5), mincap(7), leftzero(2), cyclic(4), mincap(6), rightzero(2)]
        assert 0 < self._agree_on(210, semis, [0, 4], 10, (4,)) < 10

    def test_constraints_over_one_semigroup_that_are_not_consecutive(self):
        M = mincap(5)
        semis = [M, cyclic(3), M, leftzero(2), M, M]
        assert 0 < self._agree_on(5, semis, [0, 4], 12, (3,)) < 12

    def test_wide_constraint_between_small_ones(self):
        # cyclic(300) takes a 16-bit cell of its own, and so every cell of the
        # row is 16 bits wide
        semis = [mincap(4), cyclic(300), mincap(3), leftzero(2)]
        assert 0 < self._agree_on(300, semis, [0, 1, 2], 8, (2,)) < 8

    @pytest.mark.parametrize("A", [7, 8, 15, 16, 31, 32, 63, 64])
    def test_accept_bit_past_the_letter_bits(self, A):
        # each row's mask holds a bit per letter, then the accept bit, in one
        # to eight bytes; at 8, 16, 32 and 64 letters the accept bit starts a
        # new byte or word
        rng = random.Random(A)
        for semis in ([mincap(5), cyclic(4)], [leftzero(3), mincap(4), cyclic(3)]):
            I = Instance(tuple(f"a{i}" for i in range(A)), tuple(
                Constraint(random_morphism(rng, S, A), frozenset(rng.sample(range(S.size), 2)))
                for S in semis))
            _agree_with_reference(I)
            _agree_with_reference(I, 2)

    def test_row_numbers_times_letters_pass_16_bits(self):
        # 220 letters into cyclic(300), a 16-bit cell: a value of 298 or
        # more times |A|, and a letter of 219 or more times the 300 rows,
        # pass 65,535, so an index computed in the cell dtype would wrap
        rng = random.Random(220)
        S = cyclic(300)
        for accept in ({299}, {0, 150}, {7}):
            images = tuple(rng.randrange(1, 300) for _ in range(220))
            _agree_with_reference(_single(S, images, accept))
            _agree_with_reference(_single(S, images[::-1], accept), 1)


class TestLiveness:
    """A row of ``_tables`` is live when its length profile is not 0, at
    any horizon; its live rows must be the live elements of the definition
    (``_oracles.live_elements``)."""

    @staticmethod
    def _same_live_rows(I):
        for horizon in (0, 3):
            TestLiveness._live_rows_at(I, horizon)

    @staticmethod
    def _live_rows_at(I, horizon):
        live = _profiles(I, horizon).any(axis=1)
        row = 0
        for c, expected in zip(I.constraints, live_elements(I)):
            n = c.semigroup.size
            assert set(np.flatnonzero(live[row:row + n]).tolist()) == expected
            row += n
        assert row == live.size

    def test_family_pool(self, family_pool):
        rng = random.Random(1616)
        for _ in range(300):
            semis = [rng.choice(family_pool) for _ in range(rng.randint(1, 4))]
            self._same_live_rows(random_instance(rng, semis, rng.randint(1, 4), allow_empty_accept=True))

    def test_one_element_per_round(self):
        # with one letter of image 1 into Z_n and accept {0}, element x is
        # n - x steps from 0, so the closure needs n - 1 rounds, each adding
        # one element; an image of 0 or a second constraint changes nothing
        for n in (5, 9, 16):
            S = cyclic(n)
            self._same_live_rows(_single(S, (1,), (0,)))
            self._same_live_rows(Instance(("a", "b"), (Constraint(Morphism((1, 1), S), frozenset({0})),
                                                       Constraint(Morphism((0, 1), mincap(3)), frozenset({2})))))

    def test_nilpotent_gadget(self):
        # every clause constraint accepts the zero, which some letter maps
        # to; the constraint accepting k needs words of k letters to get there
        rng = random.Random(1617)
        for k in (5, 6, 7):
            for _ in range(2):
                clauses = tuple(frozenset(v * rng.choice((1, -1)) for v in rng.sample(range(1, k + 1), 3))
                                for _ in range(round(4.2 * k)))
                I = reduce_nilpotent(CnfFormula(k, clauses))
                self._same_live_rows(I)
                _agree_with_reference(I)
                _agree_with_reference(I, solver=li_solve)


class TestLengthProfile:
    """Bit t < H of a row's profile in ``_tables`` says some word of length
    t takes it into its accept set, bit H that some word of length >= H
    does; every row must match ``_oracles.length_sets``."""

    @staticmethod
    def _same_profiles(I, horizon):
        profile = _profiles(I, horizon)
        assert profile.shape[1] == horizon + 1
        rows = [set(np.flatnonzero(bits).tolist()) for bits in profile]
        # length_sets ends each constraint's list with the empty word's lengths
        assert rows == [lengths for per in length_sets(I, horizon) for lengths in per[:-1]]

    def test_family_pool(self, family_pool):
        rng = random.Random(2424)
        for _ in range(300):
            semis = [rng.choice(family_pool) for _ in range(rng.randint(1, 4))]
            I = random_instance(rng, semis, rng.randint(1, 4), allow_empty_accept=True)
            self._same_profiles(I, rng.randint(0, 9))

    @pytest.mark.parametrize("reduce", [reduce_unbounded, reduce_nilpotent])
    def test_gadgets(self, reduce):
        # at twice the degree each profile is exact: the reachable images,
        # and so the completion lengths, are the same at every length >= 2k
        rng = random.Random(2425)
        for k in (3, 4, 5, 6):
            clauses = tuple(frozenset(v * rng.choice((1, -1)) for v in rng.sample(range(1, k + 1), 3))
                            for _ in range(round(4.2 * k)))
            I = reduce(CnfFormula(k, clauses))
            horizon = 2 * li_degree(I.tables[0])
            for h in (0, horizon - 1, horizon):
                self._same_profiles(I, h)
            for per in length_sets(I, horizon + 3):
                for lengths in per:
                    assert len(lengths & set(range(horizon, horizon + 4))) in (0, 4)


class TestOutOfMemory:
    """A ``MemoryError`` in the depth loop comes out as a
    ``SearchMemoryError`` carrying the depth and the states stored."""

    def test_depth_and_states(self, memory_error_at_depth_2):
        with pytest.raises(solve.SearchMemoryError) as err:
            brute_force_solve(_single(cyclic(7), (1,), (6,)))  # a^6: one new state per depth
        assert isinstance(err.value, MemoryError)
        assert (err.value.depth, err.value.states) == (2, 2)
        assert str(err.value) == "at depth 2, with 2 states stored: Unable to allocate 1.00 MiB"

    def test_empty_message(self):
        assert str(solve.SearchMemoryError(MemoryError(), 0, 0)) == "at depth 0, with 0 states stored"


class TestTraceNormalForm:
    """The engine extends no word ending in l by a smaller letter commuting
    with l.  ``bfs_reference``, the same search without that rule, must give
    the same status, witness, states, depth and completeness, and the same
    candidate count wherever no two letters commute."""

    def test_counting_gadget_generates_each_state_once(self):
        rng = random.Random(13)
        for k in (3, 4, 5):
            for _ in range(3):
                clauses = tuple(frozenset(v * rng.choice((1, -1)) for v in rng.sample(range(1, k + 1), 3))
                                for _ in range(round(4.2 * k)))
                I = reduce_unbounded(CnfFormula(k, clauses))
                A = I.alphabet_size
                assert len(commuting_letter_pairs(I)) == A * (A - 1) // 2
                r, ref = _agree_with_reference(I)
                assert r.stats.candidates == r.stats.states_explored < ref[5]
                pruned, _ = _agree_with_reference(I, solver=li_solve)
                assert pruned.stats.candidates == pruned.stats.states_explored <= r.stats.states_explored

    def test_family_pool(self, family_pool):
        rng = random.Random(1313)
        for _ in range(300):
            semis = [rng.choice(family_pool) for _ in range(rng.randint(1, 3))]
            I = random_instance(rng, semis, rng.randint(1, 4))
            _agree_with_reference(I)
            _agree_with_reference(I, rng.randint(1, 4))

    def test_no_two_letters_commute(self):
        # letters with distinct images into a left or right zero semigroup
        # never commute, whatever the other constraints do
        rng = random.Random(1314)
        others = [mincap(4), cyclic(3), nilinterval(2), leftzero(2)]
        for _ in range(40):
            S = rng.choice([leftzero(3), rightzero(3), leftzero(4), rightzero(4)])
            A = rng.randint(2, S.size)
            constraints = [Constraint(Morphism(tuple(rng.sample(range(S.size), A)), S),
                                      frozenset(rng.sample(range(S.size), rng.randint(1, 2))))]
            for T in rng.sample(others, rng.randint(1, 2)):
                constraints.append(Constraint(random_morphism(rng, T, A),
                                              frozenset(rng.sample(range(T.size), rng.randint(1, 2)))))
            rng.shuffle(constraints)
            I = Instance(tuple(f"a{i}" for i in range(A)), tuple(constraints))
            assert not commuting_letter_pairs(I)
            _agree_with_reference(I)
            _agree_with_reference(I, rng.randint(1, 3))

    def test_partly_commuting_products(self):
        # letters commute in these products exactly when their images'
        # non-commutative components are equal
        rng = random.Random(1315)
        products = [direct_product([mincap(3), leftzero(2)])[0], direct_product([cyclic(3), rightzero(2)])[0],
                    direct_product([leftzero(2), mincap(2)])[0]]
        partial = 0
        for _ in range(100):
            semis = [rng.choice(products)] + [rng.choice([mincap(3), cyclic(2), rightzero(2)])
                                              for _ in range(rng.randint(0, 2))]
            I = random_instance(rng, semis, rng.randint(2, 4))
            A = I.alphabet_size
            partial += 0 < len(commuting_letter_pairs(I)) < A * (A - 1) // 2
            _agree_with_reference(I)
        assert partial >= 25

    def test_more_letters_than_global_rows(self):
        # with more letters than the constraints have elements, each
        # constraint is its own chunk of the commutation gather
        rng = random.Random(1316)
        semis = [mincap(2), leftzero(2), cyclic(2), rightzero(2)]
        for _ in range(30):
            chosen = rng.sample(semis, rng.randint(2, 3))
            A = rng.randint(3 * len(chosen) + 1, 11)
            I = random_instance(rng, chosen, A)
            assert A > sum(S.size for S in chosen)
            _agree_with_reference(I)
        # every letter commutes in the first chunk, only equal images in the
        # second; the word must start with a7 and have length 2
        I = Instance(tuple(f"a{i}" for i in range(8)), (
            Constraint(Morphism((0,) * 8, mincap(2)), frozenset({1})),
            Constraint(Morphism((0,) * 7 + (1,), leftzero(3)), frozenset({1}))))
        assert _agree_with_reference(I)[0].witness.word == (7, 0)


class TestFirstDiscovery:
    """Each tuple keeps the word of its first discovery in candidate order
    (parent-major, letter-minor) and is stored once, as in ``bfs_reference``."""

    def test_later_candidate_of_one_layer_loses(self):
        # in Z_5 with letter images 1, 2, 3, the depth-2 candidates a0 a2
        # (parent a0) and a1 a1 (parent a1) both reach 4, the accepting
        # element; keeping the later one would answer a1 a1
        I = _single(cyclic(5), (1, 2, 3), (4,))
        h = I.constraints[0].morphism
        assert apply_morphism(h, (0, 2)) == apply_morphism(h, (1, 1)) == 4
        r, _ = _agree_with_reference(I)
        assert r.witness.word == (0, 2)
        assert r.stats.states_explored == 5  # 1, 2, 3, then 4 and 0

    def test_tuple_of_an_earlier_depth_is_not_counted_again(self):
        # (last letter, #a0 mod 3): a1 a0 and a1 a1 repeat the depth-1 tuples
        # of a0 and a1.  No two letters commute, so every live pair is a
        # candidate, and a repeat kept as a row would add two at depth 3.
        I = Instance(("a0", "a1"), (
            Constraint(Morphism((0, 1), rightzero(2)), frozenset({1})),
            Constraint(Morphism((1, 0), cyclic(3)), frozenset({2}))))
        last, count = (c.morphism for c in I.constraints)
        for earlier, later in (((0,), (1, 0)), ((1,), (1, 1))):
            assert all(apply_morphism(h, earlier) == apply_morphism(h, later) for h in (last, count))
        assert not commuting_letter_pairs(I)
        r, _ = _agree_with_reference(I)
        assert r.witness.word == (0, 0, 1)
        assert r.stats.states_explored == 6  # 2 at depth 1, then 2 and 2 new
        assert r.stats.candidates == 2 + 4 + 4


class TestShorten:
    def test_mincap4_prefix_suffix(self):
        h = Morphism((0,), mincap(4))
        out = li_witness_shorten([h], (0,) * 5, 2)
        assert out == (0,) * 4
        # both the long and the shortened word saturate at value 4

    def test_word_at_twice_degree_unchanged(self):
        h = Morphism((0,), mincap(4))
        assert li_witness_shorten([h], (0, 0, 0, 0), 2) == (0, 0, 0, 0)

    def test_rejects_non_locally_trivial_target(self):
        h = Morphism((0,), cyclic(2))
        with pytest.raises(PreconditionError):
            li_witness_shorten([h], (0,) * 5, 2)

    def test_rejects_degree_above_k(self):
        h = Morphism((0,), mincap(6))  # degree 3
        with pytest.raises(PreconditionError):
            li_witness_shorten([h], (0,) * 7, 2)

    def test_default_degree_is_the_largest(self):
        hs = [Morphism((0,), mincap(4)), Morphism((0,), mincap(6))]  # degrees 2 and 3
        assert li_witness_shorten(hs, (0,) * 9) == (0,) * 6
        assert li_witness_shorten(hs, (0,) * 6) == (0,) * 6

    def test_rejects_no_morphisms(self):
        for k in (None, 2):
            with pytest.raises(ValueError, match="at least one morphism"):
                li_witness_shorten([], (0,) * 5, k)

    def test_rejects_empty_word(self):
        h = Morphism((0,), mincap(4))
        with pytest.raises(ValueError, match="no empty word"):
            li_witness_shorten([h], (), 2)

    def test_checks_letters_at_any_length(self):
        # a short word comes back unchanged, but only after the same check
        # as a long one
        hs = [Morphism((0, 1), mincap(4)), Morphism((1, 0), mincap(4))]
        for word in ((0, 5), (0, 1, 0, 1, 5), (-1,)):
            with pytest.raises(IndexError, match="out of range 0..1"):
                li_witness_shorten(hs, word, 2)

    def test_default_degree_rejects_non_locally_trivial_target(self):
        hs = [Morphism((0,), mincap(4)), Morphism((0,), cyclic(2))]
        with pytest.raises(PreconditionError) as exc:
            li_witness_shorten(hs, (0,) * 9)
        assert (exc.value.predicate, exc.value.constraint) == ("is_li", 1)

    def test_randomized_image_equality(self):
        rng = random.Random(1234)
        pool = [mincap(m) for m in range(2, 11)] + [leftzero(n) for n in (1, 2, 3)] \
            + [rightzero(n) for n in (1, 2, 3)]
        for _ in range(200):
            count = rng.randint(1, 3)
            semis = [rng.choice(pool) for _ in range(count)]
            k = max(li_degree(S) for S in semis)
            m = rng.randint(1, 4)
            hs = [random_morphism(rng, S, m) for S in semis]
            length = rng.randint(2 * k + 1, 2 * k + 6)
            word = tuple(rng.randrange(m) for _ in range(length))
            short = li_witness_shorten(hs, word, k)
            assert short == word[:k] + word[-k:]

    def test_degree_once_per_shared_semigroup(self, monkeypatch):
        rng = random.Random(8)
        clauses = tuple(frozenset(v * rng.choice((1, -1)) for v in rng.sample(range(1, 9), 3))
                        for _ in range(34))
        inst = reduce_nilpotent(CnfFormula(8, clauses))
        k = li_degree(inst.constraints[0].semigroup)
        # one fresh table shared by every constraint, so no degree is cached yet
        S = Semigroup(inst.constraints[0].semigroup.table)
        hs = [Morphism(c.morphism.images, S) for c in inst.constraints]
        calls = []
        chain = varieties._product_chain

        def counted(S, bound):
            calls.append(S)
            return chain(S, bound)

        monkeypatch.setattr(varieties, "_product_chain", counted)
        word = tuple(rng.randrange(16) for _ in range(2 * k + 5))
        assert li_witness_shorten(hs, word, k) == word[:k] + word[-k:]
        assert len(calls) == 1
        # a non-li target after the shared ones is still reported by its own index
        calls.clear()
        group = Morphism((0,) * 16, cyclic(2))
        with pytest.raises(PreconditionError) as exc:
            li_witness_shorten(hs + [group, hs[0]], word, k)
        assert exc.value.constraint == len(hs) and len(calls) == 1


class TestLiSolve:
    def test_matches_brute_on_gadgets(self):
        for I in (GADGET_SAT, GADGET_EMPTY):
            a = brute_force_solve(I)
            b = li_solve(I)
            assert a.status == b.status and b.complete
            if a.satisfiable:
                assert a.witness.word == b.witness.word

    def test_leftzero_witness_is_short(self):
        rng = random.Random(5)
        for _ in range(20):
            semis = [leftzero(rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            I = random_instance(rng, semis, rng.randint(1, 3))
            r = li_solve(I)
            if r.satisfiable:
                assert len(r.witness.word) <= 2

    def test_all_accepting_needs_one_letter(self):
        I = _single(mincap(4), (1,), range(4))
        r = li_solve(I)
        assert r.satisfiable and len(r.witness.word) == 1

    def test_rejects_groups(self):
        with pytest.raises(PreconditionError) as exc:
            li_solve(_single(cyclic(2), (1,), (0,)))
        assert exc.value.predicate == "is_li"

    def test_under_reported_degree_trips_the_2k_check(self, monkeypatch):
        # the witness a a a of mincap(4) has length 3, past twice a degree of 1
        I = _single(mincap(4), (0,), (2,))
        assert li_solve(I).witness.word == (0, 0, 0)
        monkeypatch.setattr(solve, "li_degree", lambda S: 1)
        with pytest.raises(AssertionError):
            li_solve(I)

    def test_agrees_with_brute(self, family_pool):
        rng = random.Random(77)
        li_pool = [S for S in family_pool if is_li(S)]
        for _ in range(40):
            semis = [rng.choice(li_pool) for _ in range(rng.randint(1, 2))]
            I = random_instance(rng, semis, rng.randint(1, 3), allow_empty_accept=True)
            _agree_with_reference(I, solver=li_solve)
            # the 2k bound never exceeds the size-based bound 2N+2
            total = sum(S.size for S in semis)
            assert 2 * max(li_degree(S) for S in semis) <= 2 * total + 2


class TestComli:
    def test_rejects_noncommutative(self):
        with pytest.raises(PreconditionError) as exc:
            comli_solve(_single(leftzero(2), (0,), (0,)))
        assert exc.value.predicate == "is_commutative"

    def test_rejects_groups(self):
        with pytest.raises(PreconditionError) as exc:
            comli_solve(_single(cyclic(3), (0,), (0,)))
        assert exc.value.predicate == "is_li"

    def test_zero_accepting_witness(self):
        I = _single(mincap(3), (0,), (2,))
        r = comli_solve(I)
        assert r.satisfiable and r.witness.word == (0, 0, 0)

    def test_all_accepting(self):
        I = _single(mincap(3), (0,), range(3))
        r = comli_solve(I)
        assert r.satisfiable and len(r.witness.word) == 1

    def test_agrees_with_brute(self, family_pool):
        rng = random.Random(88)
        pool = [S for S in family_pool if is_commutative(S) and is_li(S)]
        for _ in range(40):
            semis = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            I = random_instance(rng, semis, rng.randint(1, 3), allow_empty_accept=True)
            _agree_with_reference(I, solver=comli_solve)


class TestEnumSlp:
    def test_smallest_witness_on_gadget(self):
        r = enum_slp_solve(GADGET_SAT, 1)
        assert r.satisfiable
        assert r.witness.slp.rhs == ((0,),)

    def test_bound_zero_is_vacuously_empty(self):
        r = enum_slp_solve(GADGET_SAT, 0)
        assert not r.satisfiable and not r.complete

    def test_length_four_witness_needs_size_four(self):
        I = _single(mincap(4), (0,), (3,), names=("a",))
        # shortest witness is aaaa: no size-3 SLP produces a word that long
        missed = enum_slp_solve(I, 3)
        assert not missed.satisfiable and not missed.complete
        found = enum_slp_solve(I, 4)
        assert found.satisfiable
        assert slp_eval_word(found.witness.slp) == (0, 0, 0, 0)
        assert slp_stats(found.witness.slp)[0] == 4

    def test_bound_over_cap(self):
        for bound in (7, -1):
            with pytest.raises(ValueError):
                enum_slp_solve(GADGET_SAT, bound)

    def test_found_iff_short_word_exists(self, family_pool):
        rng = random.Random(99)
        for _ in range(30):
            semis = [rng.choice(family_pool[:8])]
            I = random_instance(rng, semis, rng.randint(1, 2), allow_empty_accept=True)
            enum = enum_slp_solve(I, 4)
            brute = brute_force_solve(I)
            short_word = brute.satisfiable and len(brute.witness.word) <= 4
            assert enum.satisfiable == short_word
            if enum.satisfiable:
                assert verify_witness(I, enum.witness).ok

    def test_matches_per_slp_loop(self, family_pool, fresh_word_memo):
        # a fresh memo, grown and re-read by bounds in mixed order
        rng = random.Random(61)
        for bound in [5, 2, 5, 3, 0, 4, 1, 6, 2, 4, 3, 5] * 6:
            alphabet = rng.randint(1, {5: 3, 6: 2}.get(bound, 4))
            semis = [rng.choice(family_pool) for _ in range(rng.randint(1, 3))]
            I = random_instance(rng, semis, alphabet, allow_empty_accept=True)
            G, index = first_enumerated_slp(I, bound)
            r = enum_slp_solve(I, bound)
            assert r.satisfiable == (G is not None) and r.complete == (G is not None)
            assert r.stats.states_explored == index
            if G is not None:
                assert r.witness.slp == G

    def test_first_in_canonical_order_not_shortest(self):
        # at size 6, X0 = X1 X1, X1 = aaaa (a^8) comes before X0 = a X1 X1, X1 = aaa (a^7)
        I = _single(mincap(7), (0,), (6,), names=("a",))
        r = enum_slp_solve(I, 6)
        assert r.witness.slp.rhs == ((-2, -2), (0, 0, 0, 0))
        assert (r.witness.slp, r.stats.states_explored) == first_enumerated_slp(I, 6)

    def test_early_witness_draws_no_larger_slp(self, fresh_word_memo, monkeypatch):
        drawn = []

        def counting(alphabet_size, size):
            for bodies in canonical_bodies(alphabet_size, size):
                drawn.append(size)
                yield bodies

        canonical_bodies = slp._canonical_bodies
        monkeypatch.setattr(slp, "_canonical_bodies", counting)
        I = _single(mincap(3), (0, 0, 0, 0, 1, 0, 0), (1,))  # a4 is the one accepted letter
        r = enum_slp_solve(I, 6)
        assert r.witness.slp.rhs == ((4,),) and r.stats.states_explored == 5
        assert drawn == [1] * 7


    def test_threads_share_one_memo(self, family_pool, fresh_word_memo):
        rng = random.Random(67)
        cases = []
        for _ in range(16):
            bound = rng.choice((3, 4, 5))
            semis = [rng.choice(family_pool) for _ in range(rng.randint(1, 3))]
            I = random_instance(rng, semis, rng.randint(2, 3), allow_empty_accept=True)
            cases.append((I, bound, first_enumerated_slp(I, bound)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside fills too
        try:
            for _ in range(3):
                slp.first_words.cache_clear()
                start = threading.Barrier(4)

                def work(k):
                    start.wait()
                    return [enum_slp_solve(I, bound) for I, bound, _ in cases[k::4]]

                with ThreadPoolExecutor(4) as pool:
                    results = list(pool.map(work, range(4)))
                got = [None] * len(cases)
                for k, rs in enumerate(results):
                    got[k::4] = [(r.witness.slp if r.satisfiable else None, r.stats.states_explored) for r in rs]
                assert got == [expected for _, _, expected in cases]
        finally:
            sys.setswitchinterval(interval)

class TestVerify:
    def test_gadget_witness_images(self):
        r = verify_witness(GADGET_SAT, Witness.from_word((0,)))
        assert r.ok and r.images == (0, 1, 1) and r.failing == ()

    def test_gadget_rejects_wrong_polarity(self):
        r = verify_witness(GADGET_SAT, Witness.from_word((1,)))
        assert not r.ok and r.failing == (2,)  # the clause constraint

    def test_all_accepting_accepts_anything(self):
        I = _single(mincap(4), (2,), range(4))
        rng = random.Random(3)
        for _ in range(10):
            word = tuple(rng.randrange(1) for _ in range(rng.randint(1, 6)))
            assert verify_witness(I, Witness.from_word(word)).ok

    def test_slp_witness(self):
        from sgisect.slp import canonical_slp
        r = verify_witness(GADGET_SAT, Witness.from_slp(canonical_slp((0,), 2)))
        assert r.ok and r.images == (0, 1, 1)

    def test_folds_each_table_as_apply_morphism_does(self, family_pool):
        # several constraints per table, equal tables as distinct objects, words up to 40 letters
        rng = random.Random(5)
        for _ in range(40):
            semis = [rng.choice(family_pool) for _ in range(rng.randint(1, 3))]
            semis += [rng.choice(semis) for _ in range(3)] + [Semigroup(semis[0].array)]
            I = random_instance(rng, semis, rng.randint(1, 3), allow_empty_accept=True)
            word = tuple(rng.randrange(I.alphabet_size) for _ in range(rng.randint(1, 40)))
            images = tuple(apply_morphism(c.morphism, word) for c in I.constraints)
            r = verify_witness(I, Witness.from_word(word))
            assert r.images == images
            assert r.failing == tuple(i for i, c in enumerate(I.constraints) if images[i] not in c.accept)
            cubed = Witness.from_slp(power_slp(canonical_slp(word, I.alphabet_size), 3))
            assert verify_witness(I, cubed).images == tuple(apply_morphism(c.morphism, word * 3)
                                                            for c in I.constraints)

    def test_large_table_builds_no_tuples(self):
        # the fold gathers the entries it needs from the array, not from the n**2 tuple view
        S = mincap(2048)  # element v - 1 is value v, and values add up to at most 2048
        I = Instance.from_columns(("a", "b"), [S, S], [[0, 5], [7, 2046]], [frozenset({6}), frozenset({2047})],
                                  [None, None])
        word = verify_witness(I, Witness.from_word((0, 1)))
        cubed = verify_witness(I, Witness.from_slp(power_slp(canonical_slp((0, 1), 2), 3)))
        assert word.ok and word.images == (6, 2047)
        assert not cubed.ok and cubed.images == (20, 2047) and cubed.failing == (0,)
        assert "table" not in vars(S)

    def test_letter_out_of_range(self):
        with pytest.raises(IndexError, match=r"^letter 2 out of range 0\.\.1$"):
            verify_witness(GADGET_SAT, Witness.from_word((0, 2)))

    def test_witness_must_be_word_or_slp(self):
        with pytest.raises(ValueError):
            Witness("x")
        with pytest.raises(ValueError):
            Witness("x", word=())


class TestMinWitnessStats:
    def test_gadget(self):
        assert len(brute_force_solve(GADGET_SAT).witness.word) == 1
        assert slp_stats(enum_slp_solve(GADGET_SAT, 4).witness.slp)[0] == 1

    def test_empty(self):
        assert not brute_force_solve(GADGET_EMPTY).satisfiable
        assert not enum_slp_solve(GADGET_EMPTY, 4).satisfiable

    def test_degree_two_instances_stay_below_four(self):
        rng = random.Random(41)
        for _ in range(15):
            I = random_instance(rng, [mincap(4)], rng.randint(1, 2))
            brute = brute_force_solve(I)
            if brute.satisfiable:
                assert len(brute.witness.word) <= 4  # twice the local triviality degree


class TestInstanceValidation:
    def test_accept_out_of_range(self):
        with pytest.raises(ValueError):
            Constraint(Morphism((0,), mincap(3)), frozenset({3}))

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            Instance(("a", "b"), (Constraint(Morphism((0,), mincap(3)), frozenset({0})),))

    @pytest.mark.parametrize("images, accepts, error", [
        ([[0, 1], [2, 0]], [{0}, {1}], "constraint 1: image 2 of letter 0 out of range 0..1"),
        ([[0, 1], [1, -1]], [{0}, {1}], "constraint 1: image -1 of letter 1 out of range 0..1"),
        ([[0, 1], [1, 1]], [{0}, {1, 2}], "constraint 1: accepting element 2 out of range 0..1"),
        ([[0, 1], [1, 5]], [{9}, {1}], "constraint 0: accepting element 9 out of range 0..1"),
    ], ids=["image", "negative-image", "accept", "first-constraint-first"])
    def test_bulk_check_names_the_first_bad_constraint(self, images, accepts, error):
        with pytest.raises(ValueError, match="^" + re.escape(error) + "$"):
            Instance.from_columns(("a", "b"), [mincap(2)] * 2, np.array(images),
                                  list(map(frozenset, accepts)), [None] * 2)

    def test_column_lengths_must_agree(self):
        with pytest.raises(ValueError, match="constraints over 2 letters"):
            Instance.from_columns(("a", "b"), [mincap(2)], np.zeros((1, 3), dtype=int), [frozenset()], [None])
        with pytest.raises(ValueError, match="constraints over 2 letters"):
            Instance.from_columns(("a", "b"), [mincap(2)] * 2, np.zeros((1, 2), dtype=int), [frozenset()],
                                  [None])

    def test_no_constraints(self):
        with pytest.raises(ValueError):
            Instance(("a",), ())

    @pytest.mark.parametrize("names, repeated", [
        (("a", "b", "a"), "a"), (("a", "b", "b", "a"), "b"), (("p", "q", "r", "s", "q", "p"), "q")])
    def test_first_repeated_letter_name(self, names, repeated):
        h = Morphism((0,) * len(names), mincap(3))
        with pytest.raises(ValueError, match=f"^letter name '{repeated}' is repeated$"):
            Instance(names, (Constraint(h, frozenset({0})),))
