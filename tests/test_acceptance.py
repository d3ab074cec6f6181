"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

from sgisect.circuits import (circuit_eval, circuit_size_bound, morphism_image_bits,
                              semigroup_table_bits, slp_to_circuit)
from sgisect.core import (Morphism, direct_product, distinguished_elements, monogenic_orders)
from sgisect.families import (cyclic, enumerate_semigroup_tables, leftzero, mincap,
                              nilinterval, rightzero, trivial)
from sgisect.formats import parse_instance, serialize_instance
from sgisect.reductions import (CnfFormula, assignment_to_word, parse_dimacs,
                                reduce_nilpotent, reduce_unbounded, sat_solve_exhaustive,
                                word_to_assignment)
from sgisect.slp import power_slp, slp_eval_word, slp_image, slp_stats
from sgisect.solve import (Witness, brute_force_solve, comli_solve, enum_slp_solve, li_solve,
                           li_witness_shorten, verify_witness)
from sgisect.varieties import is_commutative, is_li, li_degree, satisfies_li_k

from _oracles import (li_degree_definitional, li_k_holds_by_full_tuples, random_formula,
                      random_instance, random_morphism, random_slp,
                      sample_size4_subsemigroups)


@contextmanager
def _criterion(num, title):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num}: FAIL — {title}")
        raise
    print(f"criterion {num}: PASS ({time.perf_counter() - t0:.1f}s) — {title}")


def _unit_clause_formulas(max_vars, max_clauses):
    for k in range(1, max_vars + 1):
        literals = [v for v in range(1, k + 1)] + [-v for v in range(1, k + 1)]
        for n in range(0, max_clauses + 1):
            for clauses in itertools.combinations(literals, n):
                yield CnfFormula(k, tuple(frozenset({l}) for l in clauses))


def test_criterion_1_reduction_correctness():
    with _criterion(1, "both gadgets agree with the SAT oracle, witnesses transfer"):
        rng = random.Random(0xC1)
        formulas = list(_unit_clause_formulas(3, 3))
        formulas += [random_formula(rng, 6, 8) for _ in range(200)]
        for F in formulas:
            assignment = sat_solve_exhaustive(F)
            for build in (reduce_unbounded, reduce_nilpotent):
                instance = build(F)
                result = brute_force_solve(instance)
                assert result.satisfiable == (assignment is not None)
                if result.satisfiable:
                    word = result.witness.word
                    assert len(word) == F.variable_count
                    assert word_to_assignment(word, F.variable_count).satisfies(F)
                    forward = assignment_to_word(assignment)
                    assert verify_witness(instance, Witness.from_word(forward)).ok


def test_criterion_2_prefix_suffix_shortening():
    with _criterion(2, "degree-k prefix-suffix shortening preserves images; "
                       "witnesses stay within twice the degree"):
        for m in range(2, 11):
            assert li_degree(mincap(m)) == math.ceil(m / 2)
            assert li_degree_definitional(mincap(m)) == math.ceil(m / 2)
        for n in (1, 2, 3, 4):
            assert li_degree(leftzero(n)) == 1 == li_degree(rightzero(n))

        pool = [mincap(m) for m in range(2, 11)]
        pool += [leftzero(n) for n in (1, 2, 3, 4)]
        pool += [rightzero(n) for n in (1, 2, 3, 4)]
        rng = random.Random(0xC2)
        for _ in range(1000):
            semis = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            k = max(li_degree(S) for S in semis)
            alphabet = rng.randint(1, 4)
            hs = [random_morphism(rng, S, alphabet) for S in semis]
            length = rng.randint(2 * k + 1, 2 * k + 6)
            u = tuple(rng.randrange(alphabet) for _ in range(length))
            v = li_witness_shorten(hs, u, k)
            assert v == u[:k] + u[-k:] and len(v) == 2 * k
            for h in hs:
                from sgisect.core import apply_morphism
                assert apply_morphism(h, v) == apply_morphism(h, u)  # exact equality

        for _ in range(60):
            semis = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            I = random_instance(rng, semis, rng.randint(1, 3))
            k = max(li_degree(S) for S in semis)
            result = brute_force_solve(I)
            if result.satisfiable:
                assert len(result.witness.word) <= 2 * k


def test_criterion_3_zero_absorption_bound():
    with _criterion(3, "commutative locally trivial semigroups absorb products of "
                       "length c*(ceil(log2 |S|)+1) into zero"):
        pool = [mincap(m) for m in range(1, 13)]
        pool += [direct_product([mincap(a), mincap(b)])[0]
                 for a in range(2, 9) for b in range(a, 9) if a * b <= 64]
        pool += [direct_product([mincap(2), mincap(3), mincap(4)])[0],
                 direct_product([mincap(2), mincap(2), mincap(2)])[0],
                 direct_product([mincap(3), mincap(3), mincap(3)])[0]]
        assert all(is_commutative(S) and is_li(S) and S.size <= 64 for S in pool)
        for S in pool:
            zero = distinguished_elements(S).zero
            _, c = monogenic_orders(S)
            bound = c * ((S.size - 1).bit_length() + 1)  # ceil(log2 |S|) + 1 factors
            t = S.table
            elements = range(S.size)
            prods = set(elements)
            for length in range(2, bound + 4):
                prods = {t[p][s] for p in prods for s in elements}
                if length >= bound:
                    assert prods == {zero}, (S.size, c, bound, length)


def test_criterion_4_power_compression_bound():
    with _criterion(4, "powering an SLP adds at most 4*ceil(log2 e) symbols"):
        rng = random.Random(0xC4)
        corpus = [random_slp(rng, rng.randint(1, 3), rng.randint(1, 10)) for _ in range(100)]
        exponents = [2, 3, 5, 7, 2 ** 10, 2 ** 20 - 1, 2 ** 20 + 1]
        for G in corpus:
            gsize, glen = slp_stats(G)
            for e in exponents:
                H = power_slp(G, e)
                hsize, hlen = slp_stats(H)
                assert hlen == e * glen
                assert hsize <= gsize + 4 * (e - 1).bit_length()  # ceil(log2 e), e >= 2
                if hlen <= 10 ** 4:
                    assert slp_eval_word(H) == slp_eval_word(G) * e


def test_criterion_5_circuit_bounds_and_agreement():
    with _criterion(5, "circuit lowering stays within size/depth bounds and "
                       "matches direct image evaluation"):
        rng = random.Random(0xC5)
        pool = [mincap(m) for m in range(1, 7)]
        pool += [leftzero(3), rightzero(3), cyclic(4), cyclic(6), nilinterval(2), trivial()]
        pool += list(enumerate_semigroup_tables(2))
        for _ in range(100):
            S = rng.choice(pool)
            alphabet = rng.randint(1, 3)
            h = Morphism(tuple(rng.randrange(S.size) for _ in range(alphabet)), S)
            G = random_slp(rng, alphabet, 8)
            m = slp_stats(G)[0]
            C = slp_to_circuit(G, h)
            assert C.size <= circuit_size_bound(m, S.size, alphabet)
            assert C.depth <= 2 * m + 2
            got = circuit_eval(C, semigroup_table_bits(S), morphism_image_bits(h))
            assert got == slp_image(G, h)


def test_criterion_6_local_triviality_carries_to_degree_size_plus_one():
    with _criterion(6, "local triviality is equivalent to the degree size+1 equation"):
        small = [S for n in (1, 2, 3) for S in enumerate_semigroup_tables(n)]
        assert len(small) == 1 + 8 + 113
        for S in small:
            assert is_li(S) == li_k_holds_by_full_tuples(S, S.size + 1)
        rng = random.Random(0xC6)
        subs = sample_size4_subsemigroups(rng, 500)
        seen = {True: 0, False: 0}
        for S in subs:
            answer = is_li(S)
            seen[answer] += 1
            assert answer == satisfies_li_k(S, 5)
        assert seen[True] and seen[False]  # the sample exercises both outcomes


def test_criterion_7_solver_cross_validation(family_pool):
    with _criterion(7, "structure-capped solvers and SLP enumeration agree with "
                       "the brute-force oracle"):
        rng = random.Random(0xC7)
        for _ in range(300):
            semis = [rng.choice(family_pool) for _ in range(rng.randint(1, 3))]
            product = 1
            for S in semis:
                product *= S.size
            assert product <= 2 ** 16
            I = random_instance(rng, semis, rng.randint(1, 3), allow_empty_accept=True)

            brute = brute_force_solve(I)
            if brute.satisfiable:
                assert verify_witness(I, brute.witness).ok

            if all(is_li(c.semigroup) for c in I.constraints):
                li = li_solve(I)
                assert li.status == brute.status
                if li.satisfiable:
                    assert verify_witness(I, li.witness).ok

            if all(is_li(c.semigroup) and is_commutative(c.semigroup) for c in I.constraints):
                comli = comli_solve(I)
                assert comli.status == brute.status
                if comli.satisfiable:
                    assert verify_witness(I, comli.witness).ok

            if product <= 256:  # keep the doubly exponential enumeration tiny
                enum = enum_slp_solve(I, 4)
                short = brute.satisfiable and len(brute.witness.word) <= 4
                assert enum.satisfiable == short
                if enum.satisfiable:
                    assert verify_witness(I, enum.witness).ok


DIMACS_FIXTURES = [
    ("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n", 3, ({1, 2, 3}, {-1, -2, -3})),
    ("p cnf 1 1\n1 0\n", 1, ({1},)),
    ("p cnf 2 1\n1 -1 2 2 0\n", 2, ({1, -1, 2},)),
]


def test_criterion_8_format_round_trips(family_pool):
    with _criterion(8, "canonical serialization round trips byte-exactly; "
                       "DIMACS fixtures parse"):
        rng = random.Random(0xC8)
        instances = []
        for _ in range(460):
            semis = [rng.choice(family_pool) for _ in range(rng.randint(1, 3))]
            instances.append(random_instance(rng, semis, rng.randint(1, 4),
                                             allow_empty_accept=True))
        for _ in range(20):
            F = random_formula(rng, 4, 4)
            instances.append(reduce_unbounded(F))
            instances.append(reduce_nilpotent(F))
        assert len(instances) == 500
        for I in instances:
            text = serialize_instance(I)
            back = parse_instance(text)
            assert back == I  # structural equality
            assert serialize_instance(back) == text  # byte equality on canonical docs
        for text, k, clauses in DIMACS_FIXTURES:
            F = parse_dimacs(text)
            assert F.variable_count == k
            assert F.clauses == tuple(frozenset(c) for c in clauses)
