"""One sha256 per batch over every answer the solvers give, pinned.

A refactor or a speed-up must not change what the solvers answer or how much
work they report, so each batch below hashes, per solve: the status, the
witness word, the states explored, the depth reached, ``complete``, the
candidates generated and the (candidates, new states) pair of every BFS
layer.  Seconds are never hashed.  For a SAT instance the digest also takes
the serialized text and the classification of each distinct table.

The SAT batches are the benchmark's seed-1 formulas, drawn by
``perfbench/inputs.py`` (which imports nothing from sgisect) and put through
the benchmark's pipeline: reduce, serialize, parse, classify, ``li_solve``.
The random batch is 3,000 small instances over ``family_pool``, each solved
by ``brute_force_solve`` and by ``bounded_solve`` at depth caps 1, 2 and 3.

A change that alters a digest on purpose updates the pin and says why in
CHANGES.md.
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest

from sgisect.core import Morphism
from sgisect.formats import default_letter_names, parse_instance, serialize_instance
from sgisect.reductions import CnfFormula, reduce_nilpotent, reduce_unbounded
from sgisect.solve import Constraint, Instance, bounded_solve, brute_force_solve, li_solve
from sgisect.varieties import classify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RANDOM_INSTANCES = 3000


def _draw(workload: str, seed: int = 1):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(PERFBENCH))
    return inputs.draw(workload, seed)


def _answer(result) -> tuple:
    """Everything a solve reports except its seconds."""
    s = result.stats
    word = result.witness.word if result.witness is not None else None
    layers = tuple((candidates, new) for candidates, new, _ in s.layers)
    return (result.status, word, s.states_explored, s.max_depth, result.complete, s.candidates, layers)


def _sat_digest(workload: str, reduce) -> str:
    h = hashlib.sha256()
    for spec in _draw(workload):
        text = serialize_instance(reduce(CnfFormula(spec.k, spec.clauses)))
        parsed = parse_instance(text)
        tables = {id(c.semigroup): c.semigroup for c in parsed.constraints}.values()
        result = li_solve(parsed)
        h.update(text.encode())
        h.update(repr([classify(S) for S in tables]).encode())
        h.update(repr(_answer(result)).encode())
    return h.hexdigest()


def _random_instance(rng: random.Random, pool) -> Instance:
    m = rng.randint(1, 3)
    constraints = []
    for _ in range(rng.randint(1, 4)):
        S = rng.choice(pool)
        images = tuple(rng.randrange(S.size) for _ in range(m))
        accept = rng.sample(range(S.size), rng.randint(1, max(1, S.size // 2)))
        constraints.append(Constraint(Morphism(images, S), accept))
    return Instance(default_letter_names(m), tuple(constraints))


@pytest.mark.parametrize("workload, reduce, digest", [
    ("sat-unbounded", reduce_unbounded, "015ff01c5619bbbe3d4070f34be12984f6ef5058aa9c3a31d2a2d59aac7a6db3"),
    ("sat-nilpotent", reduce_nilpotent, "0b60d347d527f451ad17c3591a31061f5c14b63738fe4a2aeea89cbc48177e04"),
])
def test_sat_batch_digest_pinned(workload, reduce, digest):
    assert _sat_digest(workload, reduce) == digest


def test_random_instances_digest_pinned(family_pool):
    rng = random.Random("answers-digest")
    h = hashlib.sha256()
    for _ in range(RANDOM_INSTANCES):
        instance = _random_instance(rng, family_pool)
        h.update(repr(_answer(brute_force_solve(instance))).encode())
        for depth in (1, 2, 3):
            h.update(repr(_answer(bounded_solve(instance, depth))).encode())
    assert h.hexdigest() == "3901371420095ab2a75b06de499facedf29bb5cb53fc60073caeca458362b4f0"
