import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgisect
import sgisect.solve as solve
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

    def test_json(self, capsys, sat_gadget):
        code, out, _ = _run(capsys, "solve", "--json", sat_gadget)
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "satisfiable"
        assert data["witness"]["word"] == ["x1"]
        assert data["complete"] is True

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


class TestShorten:
    def test_long_word_shrinks_to_twice_degree(self, capsys, tmp_path):
        table = tmp_path / "m4.sgi"
        table.write_text("SGI 1\nALPHABET 1\nNAMES a\nTABLE T0 4\n1 2 3 3\n2 3 3 3\n3 3 3 3\n3 3 3 3\nEND\n"
                         "CONSTRAINT T0\nIMAGES 0\nACCEPT 3\nEND\n")
        code, out, _ = _run(capsys, "shorten", str(table), "--word", "a a a a a")
        assert code == 0 and out.strip() == "a a a a"

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


class TestBench:
    def test_csv_output(self, capsys, sat_gadget):
        code, out, _ = _run(capsys, "bench", sat_gadget)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("instance,N,min_word_length,min_slp_size")
        cells = lines[1].split(",")
        assert cells[1] == "9" and cells[2] == "1" and cells[3] == "1"
        assert all(cells[i] for i in (4, 5, 6, 7))  # all four strategies timed

    def test_empty_instance_leaves_witness_cells_blank(self, capsys, tmp_path):
        path = tmp_path / "empty.sgi"
        instance = reduce_unbounded(CnfFormula(1, (frozenset({1}), frozenset({-1}))))
        path.write_text(serialize_instance(instance))
        code, out, _ = _run(capsys, "bench", str(path))
        assert code == 0
        assert out.splitlines()[1].split(",")[2:4] == ["", ""]

    def test_each_solver_runs_once(self, capsys, monkeypatch, sat_gadget):
        calls = {"bfs": 0, "slp": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(solve, "_bfs", counting("bfs", solve._bfs))
        monkeypatch.setattr(solve, "enumerate_slps", counting("slp", solve.enumerate_slps))
        code, _, _ = _run(capsys, "bench", sat_gadget)
        assert code == 0
        assert calls == {"bfs": 3, "slp": 1}  # brute, li, comli; SLP enumeration


class TestSolverFailures:
    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("error", [solve.StateCapError(5), MemoryError()], ids=["cap", "memory"])
    def test_exit_2_with_error_line(self, capsys, monkeypatch, sat_gadget, command, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr("sgisect.cli.brute_force_solve", fail)
        code, out, err = _run(capsys, command, sat_gadget)
        assert code == 2 and out == ""
        assert err.startswith("error:")


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
