import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sgisect
import sgisect.solve as solve
from sgisect import families
from sgisect.core import DEFAULT_PRODUCT_CAP, Morphism
from sgisect.cli import run_command
from sgisect.formats import parse_instance, parse_slp_text, serialize_instance
from sgisect.reductions import CnfFormula, reduce_unbounded
from sgisect.slp import slp_eval_word

UNIT_CNF = "p cnf 1 1\n1 0\n"
CONTRADICTION_CNF = "p cnf 1 2\n1 0\n-1 0\n"


@pytest.fixture()
def sat_gadget(tmp_path):
    path = tmp_path / "sat.sgi"
    path.write_text(serialize_instance(reduce_unbounded(CnfFormula(1, (frozenset({1}),)))))
    return str(path)


def _run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_mincap4(self, capsys, tmp_path):
        table = tmp_path / "mincap4.tbl"
        assert run_command(["gen", "mincap", "4", "-o", str(table)]) == 0
        capsys.readouterr()
        code, out, _ = _run(capsys, "classify", "--table", str(table))
        assert code == 0
        assert "li_degree: 2" in out
        assert "nilpotent: true" in out
        assert "class_order: 4" in out

    def test_json(self, capsys, tmp_path):
        table = tmp_path / "t.tbl"
        run_command(["gen", "cyclic", "2", "-o", str(table)])
        capsys.readouterr()
        code, out, _ = _run(capsys, "classify", "--table", str(table), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["group"] is True and data["li_degree"] is None

    def test_invalid_table(self, capsys, tmp_path):
        table = tmp_path / "bad.tbl"
        table.write_text("1 0\n0 0\n")
        code, out, _ = _run(capsys, "classify", "--table", str(table))
        assert code == 1
        assert "INVALID" in out

    def test_ragged_table(self, capsys, tmp_path):
        table = tmp_path / "ragged.tbl"
        table.write_text("0 1\n1\n")
        code, _, err = _run(capsys, "classify", "--table", str(table))
        assert code == 2
        assert str(table) in err and "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, "classify", "--table", "/nonexistent.tbl")
        assert code == 2 and "error" in err


class TestSolve:
    def test_brute_sat(self, capsys, sat_gadget):
        code, out, _ = _run(capsys, "solve", "--strategy", "brute", sat_gadget)
        assert code == 0
        assert out.splitlines()[0] == "SAT"
        assert "witness: x1" in out

    def test_empty_instance(self, capsys, tmp_path):
        path = tmp_path / "empty.sgi"
        path.write_text(serialize_instance(
            reduce_unbounded(CnfFormula(1, (frozenset({1}), frozenset({-1}))))))
        code, out, _ = _run(capsys, "solve", str(path))
        assert code == 1
        assert out.splitlines()[0] == "EMPTY"
        assert "complete: true" in out

    def test_strategies_agree(self, capsys, sat_gadget):
        for strategy in ("brute", "li", "comli", "slp"):
            code, out, _ = _run(capsys, "solve", "--strategy", strategy, sat_gadget)
            assert code == 0 and out.startswith("SAT")

    def test_slp_witness_output(self, capsys, sat_gadget):
        code, out, _ = _run(capsys, "solve", "--strategy", "slp", sat_gadget, "--slp-size", "2")
        assert code == 0 and "witness-slp:" in out and "X0 = x1" in out

    def test_slp_size_out_of_range(self, capsys, sat_gadget):
        for size in ("-2", "7"):
            code, out, err = _run(capsys, "solve", "--strategy", "slp", sat_gadget, "--slp-size", size)
            assert code == 2 and out == "" and "size bound" in err

    def test_precondition_violation_names_predicate(self, capsys, tmp_path):
        path = tmp_path / "group.sgi"
        path.write_text("SGI 1\nALPHABET 1\nTABLE T0 2\n0 1\n1 0\nEND\n"
                        "CONSTRAINT T0\nIMAGES 1\nACCEPT 0\nEND\n")
        code, _, err = _run(capsys, "solve", "--strategy", "li", str(path))
        assert code == 2 and "is_li" in err

    def test_max_depth(self, capsys, tmp_path):
        path = tmp_path / "deep.sgi"
        path.write_text("SGI 1\nALPHABET 1\nNAMES a\nTABLE T0 4\n1 2 3 3\n2 3 3 3\n3 3 3 3\n3 3 3 3\nEND\n"
                        "CONSTRAINT T0\nIMAGES 0\nACCEPT 2\nEND\n")
        code, out, _ = _run(capsys, "solve", str(path), "--max-depth", "2")
        assert code == 1 and "complete: false" in out
        code, out, _ = _run(capsys, "solve", str(path), "--max-depth", "3")
        assert code == 0 and "witness: a a a" in out

    @pytest.mark.parametrize("flag, strategy", [
        ("--max-depth", "li"), ("--max-depth", "comli"), ("--max-depth", "slp"),
        ("--slp-size", "brute"), ("--slp-size", "li"), ("--slp-size", "comli")],
        ids=["li", "comli", "slp", "slp-size-brute", "slp-size-li", "slp-size-comli"])
    def test_max_depth_with_another_strategy_is_an_error(self, capsys, tmp_path, flag, strategy):
        path = tmp_path / "deep.sgi"
        path.write_text("SGI 1\nALPHABET 1\nNAMES a\nTABLE T0 4\n1 2 3 3\n2 3 3 3\n3 3 3 3\n3 3 3 3\nEND\n"
                        "CONSTRAINT T0\nIMAGES 0\nACCEPT 2\nEND\n")
        code, out, err = _run(capsys, "solve", str(path), "--strategy", strategy, flag, "1")
        assert code == 2 and out == ""
        assert flag in err and strategy in err

    def test_json(self, capsys, sat_gadget):
        code, out, _ = _run(capsys, "solve", "--json", sat_gadget)
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "satisfiable"
        assert data["witness"]["word"] == ["x1"]
        assert data["complete"] is True
        assert data["stats"]["states_explored"] == data["stats"]["candidates"] == 2  # x1 and nx1
        [layer] = data["stats"]["layers"]  # x1 accepts, so the search stops at depth 1
        assert (layer["candidates"], layer["new_states"]) == (2, 2) and layer["seconds"] >= 0
        stats = data["stats"]
        assert 0 <= stats["setup_s"] and stats["setup_s"] + layer["seconds"] <= stats["wall_time"]

    def test_trace_goes_to_stderr_only(self, capsys, tmp_path):
        path = tmp_path / "deep.sgi"
        path.write_text("SGI 1\nALPHABET 1\nNAMES a\nTABLE T0 4\n1 2 3 3\n2 3 3 3\n3 3 3 3\n3 3 3 3\nEND\n"
                        "CONSTRAINT T0\nIMAGES 0\nACCEPT 2\nEND\n")
        code, plain, err = _run(capsys, "solve", str(path))
        assert code == 0 and err == ""
        code, out, err = _run(capsys, "solve", str(path), "--trace")
        assert code == 0 and out == plain
        code, out, err = _run(capsys, "solve", str(path), "--json", "--trace")
        stats = json.loads(out)["stats"]
        assert [line.split("=")[0] for line in err.splitlines()] == ["trace setup_s"] + ["trace depth"] * 3
        assert err.splitlines() == [f"trace setup_s={stats['setup_s']:.6f}"] + [
            f"trace depth={d} candidates={layer['candidates']} new_states={layer['new_states']} "
            f"seconds={layer['seconds']:.6f}" for d, layer in enumerate(stats["layers"], start=1)]

    def test_json_slp_has_no_layers(self, capsys, sat_gadget):
        code, out, _ = _run(capsys, "solve", "--json", "--strategy", "slp", sat_gadget)
        assert code == 0
        assert json.loads(out)["stats"]["layers"] == []
        assert json.loads(out)["stats"]["setup_s"] == 0.0

    def test_bad_instance_file(self, capsys, tmp_path):
        path = tmp_path / "bad.sgi"
        path.write_text("not an instance\n")
        code, _, err = _run(capsys, "solve", str(path))
        assert code == 2 and "error" in err


class TestVerify:
    def test_accepting_word(self, capsys, sat_gadget):
        code, out, _ = _run(capsys, "verify", sat_gadget, "--word", "x1")
        assert code == 0 and out.strip().endswith("ACCEPTED")

    def test_rejecting_word_names_constraint(self, capsys, sat_gadget):
        code, out, _ = _run(capsys, "verify", sat_gadget, "--word", "nx1")
        assert code == 1
        assert "h1: image 0 FAIL" in out
        assert out.strip().endswith("REJECTED")

    def test_json(self, capsys, sat_gadget):
        code, out, _ = _run(capsys, "verify", sat_gadget, "--word", "nx1", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False and data["failing"] == ["h1"]

    def test_slp_witness(self, capsys, sat_gadget, tmp_path):
        slp = tmp_path / "w.slp"
        slp.write_text("SLP 1\nSTART X0\nX0 = x1\n")
        code, out, _ = _run(capsys, "verify", sat_gadget, "--slp", str(slp))
        assert code == 0 and "ACCEPTED" in out

    def test_unknown_letter(self, capsys, sat_gadget):
        code, _, err = _run(capsys, "verify", sat_gadget, "--word", "zz")
        assert code == 2 and "unknown letter" in err


class TestRoundTrip:
    @pytest.mark.parametrize("strategy", ["brute", "li", "comli", "slp"])
    def test_printed_witness_verifies(self, capsys, sat_gadget, tmp_path, strategy):
        code, out, _ = _run(capsys, "solve", "--strategy", strategy, sat_gadget)
        assert code == 0
        if "witness-slp:" in out:
            slp = tmp_path / "w.slp"
            slp.write_text(out.split("witness-slp:\n", 1)[1])
            code, out, _ = _run(capsys, "verify", sat_gadget, "--slp", str(slp))
        else:
            word = next(l for l in out.splitlines() if l.startswith("witness: "))[len("witness: "):]
            code, out, _ = _run(capsys, "verify", sat_gadget, "--word", word)
        assert code == 0 and out.strip().endswith("ACCEPTED")

    @pytest.mark.parametrize("names, message", [("a a", "repeated"), ("Xa b", "starts with 'X'")])
    def test_ambiguous_letter_names_rejected(self, capsys, tmp_path, names, message):
        path = tmp_path / "names.sgi"
        path.write_text(f"SGI 1\nALPHABET 2\nNAMES {names}\nTABLE T0 3\n1 2 2\n2 2 2\n2 2 2\nEND\n"
                        "CONSTRAINT T0\nIMAGES 0 2\nACCEPT 0\nEND\n")
        for argv in (["solve", str(path)], ["verify", str(path), "--word", names.split()[0]]):
            code, out, err = _run(capsys, *argv)
            assert code == 2 and out == ""
            assert "line 3: letter name" in err and message in err

    @pytest.mark.parametrize("names, got", [("a# b", 1), ("a b c", 3)])
    def test_names_line_of_a_name_the_format_cannot_hold(self, capsys, tmp_path, names, got):
        # what a serializer would write for the names ('a#', 'b') and ('a b', 'c'),
        # which Instance now rejects
        path = tmp_path / "names.sgi"
        path.write_text(f"SGI 1\nALPHABET 2\nNAMES {names}\nTABLE T0 3\n1 2 2\n2 2 2\n2 2 2\nEND\n"
                        "CONSTRAINT T0\nIMAGES 0 2\nACCEPT 0\nEND\n")
        code, out, err = _run(capsys, "solve", str(path))
        assert code == 2 and out == ""
        assert f"line 3: NAMES needs 2 tokens, got {got}" in err


class TestReduce:
    def test_unbounded(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(UNIT_CNF)
        code, out, _ = _run(capsys, "reduce", str(cnf))
        assert code == 0
        instance = parse_instance(out)
        assert [instance.constraint_name(i) for i in range(3)] == ["g0", "g1", "h1"]

    def test_nilpotent_to_file(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(CONTRADICTION_CNF)
        out_path = tmp_path / "g.sgi"
        code, _, _ = _run(capsys, "reduce", str(cnf), "--gadget", "nilpotent",
                          "-o", str(out_path))
        assert code == 0
        instance = parse_instance(out_path.read_text())
        assert instance.constraint_name(0) == "g"

    def test_bad_cnf(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n3 0\n")
        code, _, err = _run(capsys, "reduce", str(cnf))
        assert code == 2 and "out of range" in err

    @pytest.mark.parametrize("gadget, variables, elements", [
        ("nilpotent", 200, 200 * 201 // 2 + 1),  # nilinterval(200)
        ("unbounded", 6000, 6002),  # mincap(6002)
    ])
    def test_oversize_gadget_rejected_before_building(self, capsys, tmp_path, gadget, variables, elements):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(f"p cnf {variables} 1\n1 0\n")
        start = time.perf_counter()
        code, out, err = _run(capsys, "reduce", str(cnf), "--gadget", gadget)
        assert code == 2 and out == ""
        assert err == f"error: table of {elements} x {elements} cells exceeds cap {DEFAULT_PRODUCT_CAP}\n"
        assert time.perf_counter() - start < 5  # building the table took 39 s and more


class TestShorten:
    def test_long_word_shrinks_to_twice_degree(self, capsys, tmp_path):
        table = tmp_path / "m4.sgi"
        table.write_text("SGI 1\nALPHABET 1\nNAMES a\nTABLE T0 4\n1 2 3 3\n2 3 3 3\n3 3 3 3\n3 3 3 3\nEND\n"
                         "CONSTRAINT T0\nIMAGES 0\nACCEPT 3\nEND\n")
        code, out, _ = _run(capsys, "shorten", str(table), "--word", "a a a a a")
        assert code == 0 and out.strip() == "a a a a"
        code, out, err = _run(capsys, "shorten", str(table), "--word", "a a a a a", "--degree", "1")
        assert code == 2 and out == "" and "constraint c0 violates li_degree <= 1" in err

    def test_rejects_group_instance(self, capsys, tmp_path):
        path = tmp_path / "group.sgi"
        path.write_text("SGI 1\nALPHABET 1\nTABLE T0 2\n0 1\n1 0\nEND\n"
                        "CONSTRAINT T0\nIMAGES 1\nACCEPT 0\nEND\n")
        code, _, err = _run(capsys, "shorten", str(path), "--word", "a0 a0 a0")
        assert code == 2 and "is_li" in err


class TestSlpCommands:
    def test_power_slp(self, capsys, tmp_path):
        slp = tmp_path / "g.slp"
        slp.write_text("SLP 1\nSTART X0\nX0 = a b\n")
        code, out, _ = _run(capsys, "power-slp", str(slp), "--exp", "5")
        assert code == 0
        G, names = parse_slp_text(out)
        assert names == ("a", "b")
        assert slp_eval_word(G) == (0, 1) * 5

    def test_emit_circuit(self, capsys, sat_gadget, tmp_path):
        slp = tmp_path / "w.slp"
        slp.write_text("SLP 1\nSTART X0\nX0 = x1\n")
        code, out, _ = _run(capsys, "emit-circuit", sat_gadget, "--slp", str(slp),
                            "--constraint", "2")
        assert code == 0
        assert out.startswith("CIRCUIT 1\n")
        assert "DEPTH" in out

    def test_emit_circuit_bad_index(self, capsys, sat_gadget, tmp_path):
        slp = tmp_path / "w.slp"
        slp.write_text("SLP 1\nSTART X0\nX0 = x1\n")
        code, _, err = _run(capsys, "emit-circuit", sat_gadget, "--slp", str(slp),
                            "--constraint", "9")
        assert code == 2 and "out of range" in err


class TestGen:
    def test_leftzero(self, capsys):
        code, out, _ = _run(capsys, "gen", "leftzero", "3")
        assert code == 0
        assert out == "0 0 0\n1 1 1\n2 2 2\n"

    def test_product(self, capsys):
        code, out, _ = _run(capsys, "gen", "product", "mincap:2", "mincap:2")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_every_family_emits_a_parsable_table(self, capsys):
        from sgisect.formats import parse_table_text
        for family, arg in (("mincap", "5"), ("leftzero", "2"), ("rightzero", "2"),
                            ("cyclic", "3"), ("nilinterval", "2")):
            code, out, _ = _run(capsys, "gen", family, arg)
            assert code == 0
            parse_table_text(out)

    def test_bad_family_parameter(self, capsys):
        code, _, err = _run(capsys, "gen", "mincap", "zero")
        assert code == 2 and "error" in err

    def test_unknown_family(self, capsys):
        code, _, _ = _run(capsys, "gen", "nosuch", "3")
        assert code == 2

    def test_oversize_product_rejected_before_building(self, capsys, monkeypatch):
        calls = []
        for name, build in list(families.FAMILY_BUILDERS.items()):
            monkeypatch.setitem(families.FAMILY_BUILDERS, name,
                                lambda k, build=build: calls.append(k) or build(k))
        # 10**6 elements; 1500**2; nilinterval(90) has 4096 elements, so 4096 * 4
        for specs in (["mincap:100"] * 3, ["mincap:1500", "mincap:1500"],
                      ["nilinterval:90", "cyclic:4"]):
            code, out, err = _run(capsys, "gen", "product", *specs)
            assert code == 2 and out == "" and "cap" in err
        assert calls == []

    def test_oversize_family_rejected_before_building(self, capsys, monkeypatch):
        built = []  # each builder checks the cap itself, before its table
        monkeypatch.setattr(families, "Semigroup", lambda *args: built.append(args))
        # the cap is 2**24 cells: 4096 elements, and nilinterval(90) has 4096
        for family, arg in (("mincap", "4097"), ("leftzero", "4097"), ("rightzero", "100000"),
                            ("cyclic", "4097"), ("nilinterval", "91")):
            code, out, err = _run(capsys, "gen", family, arg)
            assert code == 2 and out == "" and "cap" in err
        assert built == []

    def test_product_cap_reads_the_family_element_counts(self):
        for name, build in families.FAMILY_BUILDERS.items():
            for k in range(1, 6):
                assert families._element_count(name, k) == build(k).size


MALFORMED = {
    "table": "0 1\n1\n",
    "sgi": "not an instance\n",
    "slp": "SLP 1\nSTART X0\nX0 = X1 x1\nX1 = X0\n",  # a variable cycle
    "cnf": "p cnf 1 1\nx 0\n",
}


class TestLoader:
    """Every argument that names an input file: a fault names the path and exits 2."""

    @pytest.mark.parametrize("fault", ["missing", "malformed"])
    @pytest.mark.parametrize("argv, kind", [
        (["classify", "--table", "{file}"], "table"),
        (["solve", "{file}"], "sgi"),
        (["verify", "{file}", "--word", "x1"], "sgi"),
        (["shorten", "{file}", "--word", "x1"], "sgi"),
        (["emit-circuit", "{file}", "--slp", "{slp}"], "sgi"),
        (["verify", "{sgi}", "--slp", "{file}"], "slp"),
        (["emit-circuit", "{sgi}", "--slp", "{file}"], "slp"),
        (["power-slp", "{file}", "--exp", "2"], "slp"),
        (["reduce", "{file}"], "cnf"),
    ], ids=["classify-table", "solve", "verify", "shorten", "emit-circuit", "verify-slp",
            "emit-circuit-slp", "power-slp", "reduce"])
    def test_fault_names_the_file(self, capsys, sat_gadget, tmp_path, argv, kind, fault):
        slp = tmp_path / "w.slp"
        slp.write_text("SLP 1\nSTART X0\nX0 = x1\n")
        path = tmp_path / f"input.{kind}"
        if fault == "malformed":
            path.write_text(MALFORMED[kind])
        argv = [a.format(file=path, sgi=sat_gadget, slp=slp) for a in argv]
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err
        if fault == "missing":
            assert f"cannot read {path}" in err


class TestSolverFailures:
    @pytest.mark.parametrize("command", ["solve"])
    @pytest.mark.parametrize("error", [solve.StateCapError(5), MemoryError(), AssertionError("2k bound"),
                                       IndexError("tuple index out of range")],
                             ids=["cap", "memory", "assertion", "index"])
    def test_exit_2_with_error_line(self, capsys, monkeypatch, sat_gadget, command, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr("sgisect.cli.brute_force_solve", fail)
        code, out, err = _run(capsys, command, sat_gadget)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_cap_error_says_how_far_the_search_got(self, capsys, monkeypatch, sat_gadget):
        def fail(*args, **kwargs):
            raise solve.StateCapError(5, 3, 6)

        monkeypatch.setattr("sgisect.cli.brute_force_solve", fail)
        code, out, err = _run(capsys, "solve", sat_gadget)
        assert code == 2 and out == ""
        assert err == "error: search exceeded the state cap of 5 at depth 3, with 6 states stored\n"

    def test_memory_error_says_how_far_the_search_got(self, capsys, memory_error_at_depth_2, tmp_path):
        path = tmp_path / "deep.sgi"  # a^6 into Z_7, one new state per depth
        path.write_text(serialize_instance(solve.Instance(("a",), (
            solve.Constraint(Morphism((1,), families.cyclic(7)), frozenset({6})),))))
        code, out, err = _run(capsys, "solve", str(path))
        assert code == 2 and out == ""
        assert err == "error: out of memory: at depth 2, with 2 states stored: Unable to allocate 1.00 MiB\n"

    def test_crash_names_its_exception(self, capsys, monkeypatch, sat_gadget):
        def fail(*args, **kwargs):
            raise AssertionError("witness longer than 2k")

        monkeypatch.setattr("sgisect.cli.brute_force_solve", fail)
        code, out, err = _run(capsys, "solve", sat_gadget)
        assert code == 2 and out == ""
        assert err == "error: internal error: AssertionError: witness longer than 2k\n"


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        table = tmp_path / "mincap3.tbl"
        assert run_command(["gen", "mincap", "3", "-o", str(table)]) == 0
        src = str(Path(sgisect.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-m", "sgisect", "classify", "--table", str(table)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "size: 3" in done.stdout


class TestUsage:
    def test_no_command(self, capsys):
        assert run_command([]) == 2

    def test_unknown_command(self, capsys):
        assert run_command(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run_command(["classify"]) == 2

    def test_readme_names_only_real_subcommands(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = readme.split("```")[1::2]
        subs = {line.split()[1] for block in blocks for line in block.splitlines()
                if line.startswith("sgisect ")}
        assert {"solve", "reduce", "verify"} <= subs
        for sub in sorted(subs):
            assert run_command([sub, "--help"]) == 0, sub

    def test_readme_library_example(self):
        # the README's python block runs, and every expression gives what its comment says
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```python\n")[1].split("```")[0]
        namespace, checked = {}, []
        for line in block.splitlines():
            code, _, comment = line.partition("  # ")
            try:
                value = eval(code, namespace)
            except SyntaxError:  # an assignment or import
                exec(code, namespace)
                continue
            if isinstance(value, np.ndarray):
                assert f"read-only {value.dtype} numpy array" in comment and not value.flags.writeable
                checked.append(str(value.dtype))
            elif comment.startswith("("):
                assert repr(value) == comment.partition(":")[0], line
                checked.append(repr(value))
            else:
                assert comment.startswith(type(value).__name__ + "("), line
        assert checked == ["uint8", "(0, 0, 0)", "(0, 1, 1, 1)"]
