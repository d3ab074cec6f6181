"""Command-line interface: a thin shell over the library.

Exit codes: 0 = satisfiable / valid / success, 1 = empty / invalid,
2 = usage or input error, a solver that hit its state cap or ran out of
memory, or any other exception (an internal error).  Results go to stdout,
diagnostics to stderr; ``--json`` switches commands that report results to
machine-readable output.

Every input file goes through one loader, so every read or parse error names
its file (the formats layer adds the line number), and ``run_command`` turns
every error into one ``error: ...`` line and exit 2.  ``shorten`` defaults to
the largest ``li_degree`` of the constraints.  ``--max-depth`` is accepted
only with ``--strategy brute``, and ``--slp-size`` only with ``--strategy slp``.
``solve --trace`` adds the solve's set-up seconds and one line per BFS depth
to stderr, and leaves stdout as it is.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .circuits import slp_to_circuit
from .core import AssociativityError
from .families import FAMILY_BUILDERS, build_family, build_product
from .formats import (parse_instance, parse_slp_text, parse_table_text, serialize_circuit_text,
                      serialize_instance, serialize_slp_text, serialize_table_text)
from .reductions import parse_dimacs, reduce_nilpotent, reduce_unbounded
from .slp import power_slp
from .solve import (Instance, PreconditionError, StateCapError, Witness, bounded_solve,
                    brute_force_solve, comli_solve, enum_slp_solve, li_solve,
                    li_witness_shorten, verify_witness)
from .varieties import classify


def _load(path: str, parse, *args):
    """``parse(text, *args)`` on the file at ``path``; a read or parse error names the path.

    An ``AssociativityError`` passes through unchanged, for ``classify`` to report.
    """
    try:
        return parse(Path(path).read_text(encoding="utf-8"), *args)
    except AssociativityError:
        raise
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _parse_word(instance: Instance, text: str) -> tuple[int, ...]:
    index = {name: i for i, name in enumerate(instance.letter_names)}
    letters = []
    for tok in text.split():
        if tok not in index:
            raise ValueError(f"unknown letter {tok!r}; alphabet is {' '.join(instance.letter_names)}")
        letters.append(index[tok])
    if not letters:
        raise ValueError("the witness word must be non-empty")
    return tuple(letters)


def _word_names(instance: Instance, word) -> str:
    return " ".join(instance.letter_names[a] for a in word)


def _cmd_classify(args) -> int:
    try:
        S = _load(args.table, parse_table_text)
    except AssociativityError as exc:
        if args.json:
            print(json.dumps({"valid": False, "violation": list(exc.triple)}))
        else:
            print(f"INVALID: {exc}")
        return 1
    report = {key.removeprefix("is_"): value for key, value in asdict(classify(S)).items()}
    fields = {"size": S.size, **report}
    if args.json:
        print(json.dumps({"valid": True, **fields}))
    else:
        for key, value in fields.items():
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
    return enum_slp_solve(instance, 4 if args.slp_size is None else args.slp_size)


def _cmd_solve(args) -> int:
    for flag, value, strategy in (("--max-depth", args.max_depth, "brute"),
                                  ("--slp-size", args.slp_size, "slp")):
        if value is not None and args.strategy != strategy:
            raise ValueError(f"{flag} applies to --strategy {strategy} only, not {args.strategy!r}")
    instance = _load(args.instance, parse_instance)
    try:
        result = _run_strategy(instance, args)
    except PreconditionError as exc:
        raise ValueError(f"strategy {args.strategy!r} not applicable: {exc}") from exc

    if args.trace:
        print(f"trace setup_s={result.stats.setup_s:.6f}", file=sys.stderr)
        for depth, (candidates, new, seconds) in enumerate(result.stats.layers, start=1):
            print(f"trace depth={depth} candidates={candidates} new_states={new} seconds={seconds:.6f}",
                  file=sys.stderr)
    if args.json:
        payload = {
            "status": result.status,
            "complete": result.complete,
            "stats": {
                "states_explored": result.stats.states_explored,
                "max_depth": result.stats.max_depth,
                "candidates": result.stats.candidates,
                "wall_time": result.stats.wall_time,
                "setup_s": result.stats.setup_s,
                "layers": [{"candidates": c, "new_states": n, "seconds": t}
                           for c, n, t in result.stats.layers],
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
    formula = _load(args.cnf, parse_dimacs)
    build = reduce_unbounded if args.gadget == "unbounded" else reduce_nilpotent
    _write_out(serialize_instance(build(formula)), args.output)
    return 0


def _cmd_shorten(args) -> int:
    instance = _load(args.instance, parse_instance)
    word = _parse_word(instance, args.word)
    try:
        short = li_witness_shorten([c.morphism for c in instance.constraints], word, args.degree)
    except PreconditionError as exc:
        raise ValueError(f"constraint {instance.constraint_name(exc.constraint)} "
                         f"violates {exc.predicate}") from exc
    print(_word_names(instance, short))
    return 0


def _cmd_power_slp(args) -> int:
    G, names = _load(args.slp, parse_slp_text)
    if args.exp < 1:
        raise ValueError("exponent must be >= 1")
    _write_out(serialize_slp_text(power_slp(G, args.exp), names), args.output)
    return 0


def _cmd_emit_circuit(args) -> int:
    instance = _load(args.instance, parse_instance)
    G, _ = _load(args.slp, parse_slp_text, instance.letter_names)
    if not 0 <= args.constraint < len(instance.names):
        raise ValueError(f"constraint index {args.constraint} out of range")
    circuit = slp_to_circuit(G, instance.constraints[args.constraint].morphism)
    _write_out(serialize_circuit_text(circuit), args.output)
    return 0


def _cmd_verify(args) -> int:
    instance = _load(args.instance, parse_instance)
    if args.word is not None:
        witness = Witness.from_word(_parse_word(instance, args.word), "cli")
    else:
        witness = Witness.from_slp(_load(args.slp, parse_slp_text, instance.letter_names)[0], "cli")
    result = verify_witness(instance, witness)
    names = [instance.constraint_name(i) for i in range(len(instance.names))]
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
    if args.family == "product":
        if not args.params:
            raise ValueError("product needs at least one factor spec like mincap:3")
        S = build_product(args.params)
    else:
        if len(args.params) != 1:
            raise ValueError(f"family {args.family!r} takes exactly one integer parameter")
        S = build_family(f"{args.family}:{args.params[0]}")
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
    p.add_argument("--slp-size", type=int, default=None,
                   help="SLP size bound, for --strategy slp only (default: 4)")
    p.add_argument("--max-depth", type=int, default=None,
                   help="length cap, for --strategy brute only (result may be incomplete)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true",
                   help="print set-up seconds and per-depth candidates, new states and seconds to stderr")
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
    except (ValueError, OSError, StateCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except Exception as exc:  # a failed assertion or other crash exits 2, never 1 (EMPTY/REJECTED)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
