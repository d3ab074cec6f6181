"""Per-instance pipelines of the benchmark workloads and their correctness gate.

``build`` turns the specs ``inputs.draw`` made into sgisect inputs.
``run_item`` pushes one item through the public sgisect calls of its pipeline,
routing every call through ``tracer.call(<layer>.<op>, fn, *args)`` so that a
traced run can put a span around it; ``check_item`` compares the outcome with
``oracle`` and returns one message per disagreement.  ``counts`` gives the
work counts that must repeat exactly for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import sgisect as sg
from sgisect import families, formats

import oracle
from inputs import SLP_ALPHABET, SLP_SIZE_BOUND, SatSpec, TableSpec


@dataclass(frozen=True)
class SatItem:
    gadget: str  # "unbounded" or "nilpotent"
    formula: sg.CnfFormula
    expected: tuple[int, ...] | None  # oracle's shortest, lexicographically least witness


@dataclass(frozen=True)
class TableItem:
    family: str
    n: int  # family parameter; the table has semigroup.size elements
    semigroup: sg.Semigroup


@dataclass(frozen=True)
class SlpItem:
    instance: sg.Instance
    exponent: int
    shortest: int | None  # oracle's SLP witness length, None when no SLP within the bound is one


@dataclass
class SatOutcome:
    instance: sg.Instance
    text_bytes: int
    reports: list
    result: sg.SolveResult


@dataclass
class TableOutcome:
    text: str
    parsed: sg.Semigroup
    report: sg.ClassificationReport


@dataclass
class SlpOutcome:
    result: sg.SolveResult
    powered: sg.Slp | None
    circuits: list[tuple[int, int, int]]  # (gates, depth, circuit_size_bound) per constraint
    evaluated: list[int]  # circuit_eval per constraint
    images: list[int]  # slp_image per constraint


def build(specs) -> list:
    """The sgisect inputs of a drawn batch: formulas, family tables and
    instances.  Equal small tables share one Semigroup, as in a user's batch."""
    semigroups: dict[tuple, sg.Semigroup] = {}
    letters = tuple(f"a{i}" for i in range(SLP_ALPHABET))
    items = []
    for spec in specs:
        if isinstance(spec, SatSpec):
            items.append(SatItem(spec.gadget, sg.CnfFormula(spec.k, spec.clauses), spec.expected))
        elif isinstance(spec, TableSpec):
            items.append(TableItem(spec.family, spec.n, families.FAMILY_BUILDERS[spec.family](spec.n)))
        else:
            constraints = []
            for table, images, accept in spec.constraints:
                if table not in semigroups:
                    semigroups[table] = sg.Semigroup(table)
                constraints.append(sg.Constraint(sg.Morphism(images, semigroups[table]), accept))
            items.append(SlpItem(sg.Instance(letters, tuple(constraints)), spec.exponent, spec.shortest))
    return items


# -- pipelines ------------------------------------------------------------------

_REDUCE = {"unbounded": sg.reduce_unbounded, "nilpotent": sg.reduce_nilpotent}


def _run_sat(item: SatItem, tr) -> SatOutcome:
    instance = tr.call("reductions.reduce", _REDUCE[item.gadget], item.formula)
    text = tr.call("formats.serialize", formats.serialize_instance, instance)
    parsed = tr.call("formats.parse", formats.parse_instance, text)
    tables = {id(c.semigroup): c.semigroup for c in parsed.constraints}.values()
    reports = [tr.call("varieties.classify", sg.classify, S) for S in tables]
    result = tr.call("solve.solve", sg.li_solve, parsed)
    if result.satisfiable:
        tr.call("solve.verify", sg.verify_witness, parsed, result.witness)
    return SatOutcome(parsed, len(text.encode()), reports, result)


def _run_table(item: TableItem, tr) -> TableOutcome:
    text = tr.call("formats.serialize", formats.serialize_table_text, item.semigroup)
    parsed = tr.call("formats.parse", formats.parse_table_text, text)
    report = tr.call("varieties.classify", sg.classify, parsed)
    return TableOutcome(text, parsed, report)


def _eval_circuit(C, h: sg.Morphism) -> int:
    return sg.circuit_eval(C, sg.semigroup_table_bits(h.target), sg.morphism_image_bits(h))


def _run_slp(item: SlpItem, tr) -> SlpOutcome:
    result = tr.call("solve.enum", sg.enum_slp_solve, item.instance, SLP_SIZE_BOUND)
    out = SlpOutcome(result, None, [], [], [])
    if not result.satisfiable:
        return out
    tr.call("solve.verify", sg.verify_witness, item.instance, result.witness)
    out.powered = tr.call("slp.power", sg.power_slp, result.witness.slp, item.exponent)
    for c in item.instance.constraints:
        h = c.morphism
        C = tr.call("circuits.lower", sg.slp_to_circuit, out.powered, h)
        out.circuits.append((C.size, C.depth,
                             sg.circuit_size_bound(out.powered.size, h.target.size, h.alphabet_size)))
        out.evaluated.append(tr.call("circuits.eval", _eval_circuit, C, h))
        out.images.append(tr.call("slp.image", sg.slp_image, out.powered, h))
    return out


_RUNNERS = {SatItem: _run_sat, TableItem: _run_table, SlpItem: _run_slp}


def run_item(item, tr):
    return _RUNNERS[type(item)](item, tr)


def incomplete(outcome) -> bool:
    """An EMPTY verdict that only means "nothing within the cap" where the
    pipeline requires a complete answer (li_solve is complete by contract)."""
    return isinstance(outcome, SatOutcome) and not outcome.result.complete


def counts(outcome) -> dict[str, int]:
    if isinstance(outcome, SatOutcome):
        stats = outcome.result.stats
        return {"solve.states": stats.states_explored, "solve.depth": stats.max_depth,
                "formats.bytes": outcome.text_bytes,
                "reductions.constraints": len(outcome.instance.constraints)}
    if isinstance(outcome, TableOutcome):
        return {"formats.bytes": len(outcome.text.encode())}
    return {"slp.enumerated": outcome.result.stats.states_explored,
            "circuits.gates": sum(g for g, _, _ in outcome.circuits),
            "circuits.bound": sum(b for _, _, b in outcome.circuits)}


# -- correctness gate -----------------------------------------------------------

def _check_sat(item: SatItem, out: SatOutcome) -> list[str]:
    F = item.formula
    k = F.variable_count
    errors = []
    oracle_sat = sg.sat_solve_exhaustive(F) is not None
    if oracle_sat != (item.expected is not None):
        errors.append("sat_solve_exhaustive disagrees with the bitmask enumeration")
    result = out.result
    if result.satisfiable != oracle_sat:
        errors.append(f"verdict {result.status}, oracle says {'SAT' if oracle_sat else 'UNSAT'}")
        return errors
    if not oracle_sat:
        return errors
    word = result.witness.word
    if not sg.verify_witness(out.instance, result.witness).ok:
        errors.append(f"witness {word} fails verify_witness")
    try:
        bits = sg.word_to_assignment(word, k).bits
    except (sg.AssignmentUndefinedError, ValueError) as e:
        errors.append(f"witness {word} maps to no assignment: {e}")
    else:
        if not oracle.satisfies(F.clauses, bits):
            errors.append(f"witness {word} maps to a non-satisfying assignment")
    if word != item.expected:
        errors.append(f"witness {word}, expected the least shortest word {item.expected}")
    return errors


def _check_table(item: TableItem, out: TableOutcome) -> list[str]:
    errors = []
    if out.parsed.table != item.semigroup.table:
        errors.append("parse_table_text(serialize_table_text(S)) != S")
    if formats.serialize_table_text(out.parsed) != out.text:
        errors.append("table text does not round-trip byte for byte")
    for field, want in oracle.family_facts(item.family, item.n).items():
        got = getattr(out.report, field)
        if got != want:
            errors.append(f"classify({item.family}:{item.n}).{field} = {got}, expected {want}")
    return errors


def _check_slp(item: SlpItem, out: SlpOutcome) -> list[str]:
    errors = []
    result = out.result
    constraints = item.instance.constraints
    if not result.satisfiable:
        if item.shortest is not None:
            errors.append(f"enum_slp_solve found nothing, but an SLP of size <= {SLP_SIZE_BOUND} "
                          f"produces an accepted word of length {item.shortest}")
        return errors
    G = result.witness.slp
    word = oracle.expand_slp(G.rhs, G.start)
    if G.size > SLP_SIZE_BOUND:
        errors.append(f"SLP witness of size {G.size} exceeds the bound {SLP_SIZE_BOUND}")
    if not sg.verify_witness(item.instance, result.witness).ok:
        errors.append("SLP witness fails verify_witness")
    if item.shortest is None:
        errors.append(f"SLP witness where the oracle finds no SLP of size <= {SLP_SIZE_BOUND}")
    for i, c in enumerate(constraints):
        if oracle.fold(c.semigroup.table, c.morphism.images, word) not in c.accept:
            errors.append(f"SLP witness word rejected by constraint {i}")
    powered = oracle.expand_slp(out.powered.rhs, out.powered.start)
    if powered != word * item.exponent:
        errors.append(f"power_slp does not produce the word to the power {item.exponent}")
    for i, c in enumerate(constraints):
        want = oracle.fold(c.semigroup.table, c.morphism.images, powered)
        if not out.evaluated[i] == out.images[i] == want:
            errors.append(f"constraint {i}: circuit_eval {out.evaluated[i]}, "
                          f"slp_image {out.images[i]}, fold {want}")
        gates, _, bound = out.circuits[i]
        if gates > bound:
            errors.append(f"constraint {i}: {gates} gates exceed circuit_size_bound {bound}")
    return errors


_CHECKERS = {SatItem: _check_sat, TableItem: _check_table, SlpItem: _check_slp}


def check_item(item, outcome) -> list[str]:
    return _CHECKERS[type(item)](item, outcome)
