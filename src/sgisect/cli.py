"""Command-line interface.

Exit codes: 0 = satisfiable / valid / success, 1 = empty / invalid,
2 = usage or input error, or a solver that hit its state cap or ran out of
memory.  Results go to stdout, diagnostics to stderr; ``--json`` switches
commands that report results to machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .circuits import slp_to_circuit
from .core import AssociativityError
from .families import FAMILY_BUILDERS, build_family, build_product
from .formats import (FormatError, parse_instance, parse_slp_text, parse_table_text,
                      serialize_circuit_text, serialize_instance, serialize_slp_text,
                      serialize_table_text)
from .reductions import parse_dimacs, reduce_nilpotent, reduce_unbounded
from .slp import power_slp
from .solve import (Instance, PreconditionError, StateCapError, Witness, bounded_solve,
                    brute_force_solve, comli_solve, enum_slp_solve, li_solve,
                    li_witness_shorten, verify_witness)
from .varieties import classify, li_degree


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(2, f"cannot read {path}: {exc}") from exc


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_instance(path: str) -> Instance:
    try:
        return parse_instance(_read(path))
    except FormatError as exc:
        raise _CliError(2, f"{path}: {exc}") from exc


def _parse_word(instance: Instance, text: str) -> tuple[int, ...]:
    index = {name: i for i, name in enumerate(instance.letter_names)}
    letters = []
    for tok in text.split():
        if tok not in index:
            raise _CliError(2, f"unknown letter {tok!r}; alphabet is {' '.join(instance.letter_names)}")
        letters.append(index[tok])
    if not letters:
        raise _CliError(2, "the witness word must be non-empty")
    return tuple(letters)


def _word_names(instance: Instance, word) -> str:
    return " ".join(instance.letter_names[a] for a in word)


def _cmd_classify(args) -> int:
    try:
        S = parse_table_text(_read(args.table))
    except AssociativityError as exc:
        if args.json:
            print(json.dumps({"valid": False, "violation": list(exc.triple)}))
        else:
            print(f"INVALID: {exc}")
        return 1
    except FormatError as exc:
        raise _CliError(2, f"{args.table}: {exc}") from exc
    report = classify(S)
    fields = [
        ("size", S.size),
        ("commutative", report.is_commutative),
        ("group", report.is_group),
        ("monoid", report.is_monoid),
        ("nilpotent", report.is_nilpotent),
        ("li", report.is_li),
        ("li_degree", report.li_degree),
        ("a2n", report.is_a2n),
        ("class_order", report.class_order),
    ]
    if args.json:
        print(json.dumps({"valid": True, **dict(fields)}))
    else:
        for key, value in fields:
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif value is None:
                value = "none"
            print(f"{key}: {value}")
    return 0


def _run_strategy(instance: Instance, args):
    if args.strategy == "brute":
        if args.max_depth is not None:
            return bounded_solve(instance, args.max_depth)
        return brute_force_solve(instance)
    if args.strategy == "li":
        return li_solve(instance)
    if args.strategy == "comli":
        return comli_solve(instance)
    return enum_slp_solve(instance, args.slp_size)


def _cmd_solve(args) -> int:
    if args.max_depth is not None and args.strategy != "brute":
        raise _CliError(2, f"--max-depth applies to --strategy brute only, not {args.strategy!r}")
    instance = _load_instance(args.instance)
    try:
        result = _run_strategy(instance, args)
    except PreconditionError as exc:
        raise _CliError(2, f"strategy {args.strategy!r} not applicable: {exc}") from exc

    if args.json:
        payload = {
            "status": result.status,
            "complete": result.complete,
            "stats": {
                "states_explored": result.stats.states_explored,
                "max_depth": result.stats.max_depth,
                "wall_time": result.stats.wall_time,
            },
        }
        if result.witness is not None:
            if result.witness.word is not None:
                payload["witness"] = {"word": _word_names(instance, result.witness.word).split()}
            else:
                payload["witness"] = {"slp": serialize_slp_text(result.witness.slp, instance.letter_names)}
        print(json.dumps(payload))
    else:
        if result.satisfiable:
            print("SAT")
            if result.witness.word is not None:
                print(f"witness: {_word_names(instance, result.witness.word)}")
                print(f"length: {len(result.witness.word)}")
            else:
                print("witness-slp:")
                sys.stdout.write(serialize_slp_text(result.witness.slp, instance.letter_names))
        else:
            print("EMPTY")
            print(f"complete: {'true' if result.complete else 'false'}")
    return 0 if result.satisfiable else 1


def _cmd_reduce(args) -> int:
    try:
        formula = parse_dimacs(_read(args.cnf))
    except ValueError as exc:
        raise _CliError(2, f"{args.cnf}: {exc}") from exc
    try:
        build = reduce_unbounded if args.gadget == "unbounded" else reduce_nilpotent
        instance = build(formula)
    except ValueError as exc:
        raise _CliError(2, str(exc)) from exc
    _write_out(serialize_instance(instance), args.output)
    return 0


def _cmd_shorten(args) -> int:
    instance = _load_instance(args.instance)
    word = _parse_word(instance, args.word)
    if args.degree is not None:
        k = args.degree
    else:
        degrees = [li_degree(c.semigroup) for c in instance.constraints]
        if None in degrees:
            i = degrees.index(None)
            raise _CliError(2, f"constraint {instance.constraint_name(i)} violates is_li")
        k = max(degrees)
    try:
        short = li_witness_shorten([c.morphism for c in instance.constraints], word, k)
    except PreconditionError as exc:
        raise _CliError(2, str(exc)) from exc
    print(_word_names(instance, short))
    return 0


def _cmd_power_slp(args) -> int:
    try:
        G, names = parse_slp_text(_read(args.slp))
    except FormatError as exc:
        raise _CliError(2, f"{args.slp}: {exc}") from exc
    if args.exp < 1:
        raise _CliError(2, "exponent must be >= 1")
    _write_out(serialize_slp_text(power_slp(G, args.exp), names), args.output)
    return 0


def _cmd_emit_circuit(args) -> int:
    instance = _load_instance(args.instance)
    try:
        G, _ = parse_slp_text(_read(args.slp), instance.letter_names)
    except FormatError as exc:
        raise _CliError(2, f"{args.slp}: {exc}") from exc
    if not 0 <= args.constraint < len(instance.constraints):
        raise _CliError(2, f"constraint index {args.constraint} out of range")
    circuit = slp_to_circuit(G, instance.constraints[args.constraint].morphism)
    _write_out(serialize_circuit_text(circuit), args.output)
    return 0


def _cmd_verify(args) -> int:
    instance = _load_instance(args.instance)
    if args.word is not None:
        witness = Witness.from_word(_parse_word(instance, args.word), "cli")
    else:
        try:
            G, _ = parse_slp_text(_read(args.slp), instance.letter_names)
        except FormatError as exc:
            raise _CliError(2, f"{args.slp}: {exc}") from exc
        witness = Witness.from_slp(G, "cli")
    result = verify_witness(instance, witness)
    names = [instance.constraint_name(i) for i in range(len(instance.constraints))]
    if args.json:
        print(json.dumps({
            "ok": result.ok,
            "images": list(result.images),
            "failing": [names[i] for i in result.failing],
        }))
    else:
        for i, img in enumerate(result.images):
            verdict = "FAIL" if i in result.failing else "ok"
            print(f"{names[i]}: image {img} {verdict}")
        print("ACCEPTED" if result.ok else "REJECTED")
    return 0 if result.ok else 1


def _cmd_gen(args) -> int:
    try:
        if args.family == "product":
            if not args.params:
                raise _CliError(2, "product needs at least one factor spec like mincap:3")
            S = build_product(args.params)
        else:
            if len(args.params) != 1:
                raise _CliError(2, f"family {args.family!r} takes exactly one integer parameter")
            S = build_family(f"{args.family}:{args.params[0]}")
    except ValueError as exc:
        raise _CliError(2, str(exc)) from exc
    _write_out(serialize_table_text(S), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgisect",
                                     description="intersection non-emptiness for "
                                                 "semigroup-recognized languages")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a multiplication table")
    p.add_argument("--table", required=True, help="table file: n rows of n indices")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("solve", help="decide an SGI instance")
    p.add_argument("instance")
    p.add_argument("--strategy", choices=["brute", "li", "comli", "slp"], default="brute")
    p.add_argument("--slp-size", type=int, default=4, help="SLP size bound for --strategy slp")
    p.add_argument("--max-depth", type=int, default=None,
                   help="length cap, for --strategy brute only (result may be incomplete)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("reduce", help="compile a DIMACS CNF file to an SGI instance")
    p.add_argument("cnf")
    p.add_argument("--gadget", choices=["unbounded", "nilpotent"], default="unbounded")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("shorten", help="prefix-suffix shorten a word over an instance")
    p.add_argument("instance")
    p.add_argument("--word", required=True, help="letters separated by spaces")
    p.add_argument("--degree", type=int, default=None,
                   help="local triviality degree k (default: maximum over constraints)")
    p.set_defaults(fn=_cmd_shorten)

    p = sub.add_parser("power-slp", help="raise an SLP's word to a power")
    p.add_argument("slp")
    p.add_argument("--exp", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_power_slp)

    p = sub.add_parser("emit-circuit", help="lower an SLP image computation to a circuit")
    p.add_argument("instance")
    p.add_argument("--slp", required=True)
    p.add_argument("--constraint", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_emit_circuit)

    p = sub.add_parser("verify", help="check a witness against every constraint")
    p.add_argument("instance")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="letters separated by spaces")
    group.add_argument("--slp", help="SLP file over the instance alphabet")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gen", help="emit a table from a constructive family")
    p.add_argument("family", choices=sorted(FAMILY_BUILDERS) + ["product"])
    p.add_argument("params", nargs="*",
                   help="integer parameter, or factor specs like mincap:3 for product")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_gen)

    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FormatError, ValueError, OSError, StateCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
