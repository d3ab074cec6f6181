"""One sha256 per batch over every answer the solvers give, pinned.

A refactor or a speed-up must not change what the solvers answer or how much
work they report, so each batch below hashes, per solve: the status, the
witness word, the states explored, the depth reached, ``complete``, the
candidates kept and the (candidates, new states) pair of every BFS
layer.  Seconds are never hashed.  For a SAT instance the digest also takes
the serialized text and the classification of each distinct table.

The SAT batches are the benchmark's seed-1 formulas, drawn by
``perfbench/inputs.py`` (which imports nothing from sgisect) and put through
the benchmark's pipeline: reduce, serialize, parse, classify, ``li_solve``.
The random batch is 3,000 small instances over ``family_pool``, each solved
by ``brute_force_solve`` and by ``bounded_solve`` at depth caps 1, 2 and 3.

A change that alters a digest on purpose updates the pin and says why in
CHANGES.md.  So that such a change can show what it kept, each SAT batch
also pins a second digest over the status and witness alone.
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


def _sat_digests(workload: str, reduce) -> tuple[str, str]:
    """The batch's digest, and the digest of its statuses and witnesses alone."""
    h, answers = hashlib.sha256(), hashlib.sha256()
    for spec in _draw(workload):
        text = serialize_instance(reduce(CnfFormula(spec.k, spec.clauses)))
        parsed = parse_instance(text)
        tables = {id(c.semigroup): c.semigroup for c in parsed.constraints}.values()
        result = li_solve(parsed)
        h.update(text.encode())
        h.update(repr([classify(S) for S in tables]).encode())
        h.update(repr(_answer(result)).encode())
        answers.update(repr(_answer(result)[:2]).encode())
    return h.hexdigest(), answers.hexdigest()


def _random_instance(rng: random.Random, pool) -> Instance:
    m = rng.randint(1, 3)
    constraints = []
    for _ in range(rng.randint(1, 4)):
        S = rng.choice(pool)
        images = tuple(rng.randrange(S.size) for _ in range(m))
        accept = rng.sample(range(S.size), rng.randint(1, max(1, S.size // 2)))
        constraints.append(Constraint(Morphism(images, S), accept))
    return Instance(default_letter_names(m), tuple(constraints))


@pytest.mark.parametrize("workload, reduce, digests", [
    pytest.param("sat-unbounded", reduce_unbounded, (
        "7a5fdc886dd03d0219d69d91dbcb06d27270ddc792dc0456f7ca7da3c1530857",
        "affa130533f7be871abd90faab1accdae38bbaa518bb0d046203258910051b8a"), id="sat-unbounded"),
    pytest.param("sat-nilpotent", reduce_nilpotent, (
        "11f8f3fcc85c56be6e879f21bdd80fcd90a4c2f61058be4afc82669d022d0c84",
        "4ae52b51cdb1249726988b7ddc49d5fca6d4ec3cc69518f46db7b20ed4726b7e"), id="sat-nilpotent"),
])
def test_sat_batch_digest_pinned(workload, reduce, digests):
    assert _sat_digests(workload, reduce) == digests


def test_random_instances_digest_pinned(family_pool):
    rng = random.Random("answers-digest")
    h = hashlib.sha256()
    for _ in range(RANDOM_INSTANCES):
        instance = _random_instance(rng, family_pool)
        h.update(repr(_answer(brute_force_solve(instance))).encode())
        for depth in (1, 2, 3):
            h.update(repr(_answer(bounded_solve(instance, depth))).encode())
    assert h.hexdigest() == "3901371420095ab2a75b06de499facedf29bb5cb53fc60073caeca458362b4f0"
