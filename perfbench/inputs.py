"""Seeded inputs of the benchmark workloads, drawn without sgisect.

``draw`` turns a workload name and a seed into a fixed batch of plain-data
specs, with the oracle's expected answers attached.  Nothing here imports
sgisect: the oracle work of drawing (satisfiability, SLP witness lengths) is
not part of the timed set-up, which ``workloads.build`` does from these specs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import oracle

CLAUSES_PER_VARIABLE = 4.2
# Share of satisfiable formulas among random 3-CNF at 4.2 clauses/variable,
# per k, measured over 100,000 draws each (95% interval about +-0.0025).
# Each batch takes that share of SAT formulas, rounded, so every seed's batch
# is equally expensive: an UNSAT formula costs about 4x a SAT one on the
# counting gadget.
SAT_RATE = {6: 0.845, 7: 0.841, 8: 0.802}

SLP_SIZE_BOUND = 5
SLP_ALPHABET = 3
# Length of the shortest accepted word that an SLP of size <= SLP_SIZE_BOUND
# produces -> SLP items per batch; None means no such word, so enum_slp_solve
# walks all 2955 SLPs.  Instances whose shortest such word has length 6 (a
# size-5 SLP yields words of length <= 6) are not drawn.
SLP_STRATA = {1: 12, 2: 9, 3: 6, 4: 4, 5: 4, None: 16}
# Two constraints per SLP instance, over 6-element semigroups, and exponents
# of 13 bits with 7 set: every powered SLP then has about the same size and
# every lowered multiplication the same cost, so the seed changes which
# instances are drawn, not how much lowering work they ask for.
SLP_CONSTRAINTS = 2
SMALL_SEMIGROUPS = (("mincap", 6), ("cyclic", 6), ("leftzero", 6), ("rightzero", 6))

TABLE_FAMILIES = ("mincap", "nilinterval", "leftzero", "rightzero", "cyclic")
TABLE_SIZES = (30, 170)
TABLES_PER_FAMILY = 3


@dataclass(frozen=True)
class SatSpec:
    gadget: str  # "unbounded" or "nilpotent"
    k: int
    clauses: tuple[frozenset[int], ...]
    expected: tuple[int, ...] | None  # oracle's shortest, lexicographically least witness


@dataclass(frozen=True)
class TableSpec:
    family: str
    n: int  # family parameter


@dataclass(frozen=True)
class SlpSpec:
    constraints: tuple  # (table, images, accept) per constraint
    exponent: int
    shortest: int | None  # oracle's SLP witness length, see SLP_STRATA


def _random_3cnf(rng: random.Random, k: int) -> tuple[frozenset[int], ...]:
    clauses = []
    for _ in range(round(CLAUSES_PER_VARIABLE * k)):
        variables = rng.sample(range(1, k + 1), 3)
        clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in variables))
    return tuple(clauses)


def sat_specs(rng: random.Random, gadget: str, ks, per_k: int, sat_rate=SAT_RATE) -> list[SatSpec]:
    """per_k formulas for each k, of which round(per_k * sat_rate[k]) are SAT."""
    specs = []
    for k in ks:
        want = {True: round(per_k * sat_rate[k])}
        want[False] = per_k - want[True]
        while want[True] or want[False]:
            clauses = _random_3cnf(rng, k)
            sat = oracle.satisfying_assignments(k, clauses)
            if want[bool(sat)]:
                want[bool(sat)] -= 1
                specs.append(SatSpec(gadget, k, clauses, oracle.expected_witness(gadget, sat)))
    rng.shuffle(specs)
    return specs


def _nilinterval_parameter(size: int) -> int:
    # nilinterval(k) has k(k+1)/2 + 1 elements
    return min(range(1, 64), key=lambda k: abs(k * (k + 1) // 2 + 1 - size))


def table_specs(rng: random.Random) -> list[TableSpec]:
    """One table per size bin, families spread evenly over the bins."""
    names = list(TABLE_FAMILIES) * TABLES_PER_FAMILY
    rng.shuffle(names)
    lo, hi = TABLE_SIZES
    width = (hi - lo) / len(names)
    specs = []
    for i, name in enumerate(names):
        size = rng.randint(round(lo + i * width), round(lo + (i + 1) * width) - 1)
        specs.append(TableSpec(name, _nilinterval_parameter(size) if name == "nilinterval" else size))
    return specs


def slp_specs(rng: random.Random, strata=SLP_STRATA) -> list[SlpSpec]:
    """Small instances over small family semigroups, stratified by the oracle's
    SLP witness length so every seed asks the SLP layers for the same work."""
    pool = [oracle.family_table(name, n) for name, n in SMALL_SEMIGROUPS]
    want = dict(strata)
    specs = []
    while any(want.values()):
        constraints = []
        for _ in range(SLP_CONSTRAINTS):
            table = rng.choice(pool)
            images = tuple(rng.randrange(len(table)) for _ in range(SLP_ALPHABET))
            accept = frozenset(rng.sample(range(len(table)), rng.randint(1, len(table) // 2)))
            constraints.append((table, images, accept))
        shortest = oracle.slp_witness_length(SLP_ALPHABET, SLP_SIZE_BOUND, constraints)
        if not want.get(shortest):
            continue
        want[shortest] -= 1
        exponent = 1 << 12 | sum(1 << b for b in rng.sample(range(12), 6))
        specs.append(SlpSpec(tuple(constraints), exponent, shortest))
    rng.shuffle(specs)
    return specs


WORKLOADS = {
    # ~17.7k image tuples per SAT formula, ~20k per UNSAT one: li_solve's
    # deduplication throughput dominates.
    "sat-unbounded": lambda rng: sat_specs(rng, "unbounded", (6,), 16),
    # ~550 tuples per formula over <= k depths: per-call and per-depth
    # overhead dominate inside solve; parsing and reduction are visible.
    "sat-nilpotent": lambda rng: sat_specs(rng, "nilpotent", (6, 7, 8), 64),
    # core, varieties, slp and circuits do the work; the BFS is not used.
    "tables-slp": lambda rng: table_specs(rng) + slp_specs(rng),
}


def draw(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def fingerprint(workload: str, seed: int, specs) -> dict:
    """Seed, a hash of the generated inputs and their SAT/UNSAT split."""
    h = hashlib.sha256()
    split = {"sat": 0, "unsat": 0}
    for spec in specs:
        if isinstance(spec, SatSpec):
            key = (spec.gadget, spec.k, tuple(tuple(sorted(c)) for c in spec.clauses))
            witness = spec.expected
        elif isinstance(spec, TableSpec):
            key = (spec.family, spec.n)
        else:
            key = (spec.exponent, tuple((table, images, tuple(sorted(accept)))
                                        for table, images, accept in spec.constraints))
            witness = spec.shortest
        h.update(repr(key).encode())
        if not isinstance(spec, TableSpec):
            split["sat" if witness is not None else "unsat"] += 1
    return {"workload": workload, "seed": seed, "inputs_sha256": h.hexdigest(), **split,
            "items": len(specs)}
