#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate on tiny seeded inputs.

    python3 perfbench/selftest.py

Runs the real pipelines on a few small formulas and SLP instances, checks that
the gate passes them, then plants a wrong verdict and a wrong witness (plus a
wrong SLP verdict and a wrong circuit value) and checks that the gate counts
each one.  Also checks that an SLP witness of length 6, beyond the size bound
but produced by a size-5 SLP, is found and that an EMPTY over it is flagged.  Exits non-zero if any expectation fails.
"""

import dataclasses
import random
import sys

import run

sys.path.insert(0, str(run.SRC))

import inputs  # noqa: E402
import oracle  # noqa: E402
import sgisect as sg  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Untraced  # noqa: E402

failures = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def gate_wrong(items, outcomes) -> int:
    p = run.Pass()
    p.outcomes = outcomes
    gate = run.Gate(wl, items)
    gate.check(p)
    return gate.wrong


def with_result(outcome, **changes):
    return dataclasses.replace(outcome, result=dataclasses.replace(outcome.result, **changes))


def main() -> int:
    rng = random.Random("selftest:0")
    tr = Untraced()
    for gadget in ("unbounded", "nilpotent"):
        items = wl.build(inputs.sat_specs(rng, gadget, (3,), 8, {3: 0.5}))
        outcomes = [wl.run_item(item, tr) for item in items]
        expect(gate_wrong(items, outcomes) == 0, f"{gadget}: honest outcomes pass the gate")
        sat = next(i for i, item in enumerate(items) if item.expected is not None)
        unsat = next(i for i, item in enumerate(items) if item.expected is None)

        planted = list(outcomes)
        planted[unsat] = with_result(outcomes[unsat], status="satisfiable",
                                     witness=outcomes[sat].result.witness)
        expect(gate_wrong(items, planted) == 1, f"{gadget}: planted SAT verdict on an UNSAT formula is flagged")
        planted = list(outcomes)
        planted[sat] = with_result(outcomes[sat], status="empty", witness=None)
        expect(gate_wrong(items, planted) == 1, f"{gadget}: planted EMPTY verdict on a SAT formula is flagged")

        word = list(outcomes[sat].result.witness.word)
        k = items[sat].formula.variable_count
        word[0] = (word[0] + k) % (2 * k)  # flip the first letter's polarity
        planted = list(outcomes)
        planted[sat] = with_result(outcomes[sat], witness=sg.Witness("planted", word=tuple(word)))
        expect(gate_wrong(items, planted) == 1, f"{gadget}: planted wrong witness is flagged")

    items = wl.build(inputs.slp_specs(rng)[:12])
    outcomes = [wl.run_item(item, tr) for item in items]
    expect(gate_wrong(items, outcomes) == 0, "tables-slp: honest SLP outcomes pass the gate")
    found = next(i for i, o in enumerate(outcomes)
                 if o.result.satisfiable and items[i].shortest <= wl.SLP_SIZE_BOUND)
    planted = list(outcomes)
    planted[found] = wl.SlpOutcome(dataclasses.replace(outcomes[found].result, status="empty", witness=None),
                                   None, [], [], [])
    expect(gate_wrong(items, planted) == 1, "tables-slp: planted EMPTY over a short witness is flagged")
    planted = list(outcomes)
    bad = dataclasses.replace(outcomes[found], evaluated=list(outcomes[found].evaluated))
    bad.evaluated[0] += 1
    planted[found] = bad
    expect(gate_wrong(items, planted) == 1, "tables-slp: planted wrong circuit_eval is flagged")

    # In Z6 with every letter mapped to 1, only words of length 6k reach 0;
    # a^6 = X0 -> X1 X1, X1 -> a a a has size 5.
    constraints = ((oracle.family_table("cyclic", 6), (1, 1, 1), frozenset({0})),)
    shortest = oracle.slp_witness_length(wl.SLP_ALPHABET, wl.SLP_SIZE_BOUND, constraints)
    expect(shortest == 6, "tables-slp: the oracle finds a length-6 SLP witness")
    items = wl.build([inputs.SlpSpec(constraints, 3, shortest)])
    outcomes = [wl.run_item(items[0], tr)]
    expect(outcomes[0].result.satisfiable and gate_wrong(items, outcomes) == 0,
           "tables-slp: enum_slp_solve finds it and passes the gate")
    planted = [wl.SlpOutcome(dataclasses.replace(outcomes[0].result, status="empty", witness=None),
                             None, [], [], [])]
    expect(gate_wrong(items, planted) == 1, "tables-slp: planted EMPTY over a length-6 SLP witness is flagged")

    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
