import json
import math
import os
import subprocess
import sys

import pytest

import starwalk
from starwalk.cli import (EXIT_NUMERICS, EXIT_OK, EXIT_ORACLE, EXIT_SPEC,
                          ORACLE_MAX_STATES, main)


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:   # argparse-level rejections also exit with 2
        return int(exc.code)


class TestAnalyze:
    def test_bolo_report(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert run(["analyze", "bolo", "--out", str(out)]) == EXIT_OK
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert abs(rep["best"]["c"] - math.sqrt(3.0 / 4.0)) < 1e-9
        assert abs(complex(*rep["best"]["lambda0"]) - (-1.0)) < 1e-9
        assert len(rep["c_table"]) == 4
        assert "best lambda0" in capsys.readouterr().out

    def test_grover_two_paired_groups(self, tmp_path):
        out = tmp_path / "rep"
        assert run(["analyze", "grover", "--out", str(out)]) == EXIT_OK
        rep = json.loads((tmp_path / "rep.json").read_text())
        paired = [f for f in rep["pairing_fits"] if f["case"] == "paired"]
        assert len(paired) == 2
        for f in paired:
            assert abs(f["c_fit"] - 1.0) < 1e-3

    def test_bad_spec_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "vertices": [{"id": "1", "ports_in": ["0->1"], "ports_out": ["1->0"],
                          "matrix": [[[2, 0]]]}],   # not unitary
            "attachment": "1", "interior": []}))
        assert run(["analyze", str(bad), "--out", str(tmp_path / "x")]) == EXIT_SPEC

    def test_malformed_matrix_entry_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "vertices": [{"id": "1", "ports_in": ["0->1"], "ports_out": ["1->0"],
                          "matrix": [["a"]]}],
            "attachment": "1", "interior": []}))
        assert run(["analyze", str(bad), "--out", str(tmp_path / "x")]) == EXIT_SPEC

    def test_missing_spec_exits_2(self, tmp_path):
        assert run(["analyze", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "x")]) == EXIT_SPEC


class TestSearch:
    def test_bolo_million(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run(["search", "bolo", "--n", "1000000", "--out", str(out)]) == EXIT_OK
        csv = (tmp_path / "s.csv").read_text().splitlines()
        header = csv[0].split(",")
        row = dict(zip(header, csv[1].split(",")))
        assert int(row["m"]) == 1813
        assert abs(float(row["p_marked"]) - 0.75) < 0.01
        assert "m = 1813" in capsys.readouterr().out

    def test_shots_recorded_in_sidecar(self, tmp_path):
        out = tmp_path / "s"
        assert run(["search", "grover", "--n", "100", "--shots", "500",
                    "--seed", "3", "--out", str(out)]) == EXIT_OK
        payload = json.loads((tmp_path / "s.json").read_text())
        assert sum(payload["counts"].values()) == 500
        assert payload["counts"]["marked"] > 450   # success prob ~0.995

    def test_explicit_lambda(self, tmp_path):
        out = tmp_path / "s"
        assert run(["search", "bolo", "--n", "10000", "--lambda", "1,0",
                    "--out", str(out)]) == EXIT_OK
        payload = json.loads((tmp_path / "s.json").read_text())
        assert abs(payload["plan"]["c"] - math.sqrt(0.5)) < 1e-9

    def test_range_rejected(self, tmp_path):
        assert run(["search", "grover", "--n", "10..20",
                    "--out", str(tmp_path / "s")]) == EXIT_SPEC


class TestSweep:
    def test_grover_success_floor(self, tmp_path):
        out = tmp_path / "sw"
        assert run(["sweep", "grover", "--n", "100..10000", "--points", "4",
                    "--log", "--out", str(out)]) == EXIT_OK
        lines = (tmp_path / "sw.csv").read_text().splitlines()
        assert len(lines) == 5
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            N = int(row["N"])
            assert float(row["p_marked"]) >= 1.0 - 5.0 / math.sqrt(N)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["sweep", "bolo", "--n", "100..1000", "--points", "3",
                        "--out", str(out)]) == EXIT_OK
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestTolerance:
    def test_explicit_grid(self, tmp_path):
        out = tmp_path / "tol"
        assert run(["tolerance", "grover", "--n", "10000", "--lambda=-1,0",
                    "--delta-grid", "0,0.01", "--out", str(out)]) == EXIT_OK
        lines = (tmp_path / "tol.csv").read_text().splitlines()
        assert lines[0].split(",") == [
            "N", "M", "delta", "t", "epsilon0_re", "epsilon0_im",
            "m_naive", "m_comp", "P_measured_naive", "P_measured_comp",
            "P_predicted_naive", "P_predicted_comp"]
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert abs(float(row["t"]) - 0.25) < 1e-9
        assert abs(float(row["P_predicted_comp"]) - 0.8) < 1e-9

    def test_auto_grid_crosses_half(self, tmp_path):
        out = tmp_path / "tol"
        assert run(["tolerance", "grover", "--n", "10000",
                    "--out", str(out)]) == EXIT_OK
        lines = (tmp_path / "tol.csv").read_text().splitlines()
        header = lines[0].split(",")
        naive = [float(dict(zip(header, l.split(",")))["P_measured_naive"])
                 for l in lines[1:]]
        # {0, 0.5, 1, 1.5} x c*sqrt(2/N): the 50% line falls between the
        # boundary point (t=1/2) and the 1.5x point (t=9/8)
        assert naive[0] > 0.99 and naive[2] > 0.5 and naive[3] < 0.5

    def test_bolo_double_root_follows_the_drift_law(self, tmp_path):
        # +1 and -1 both pair on bolo; each row must follow the -1 family
        assert run(["tolerance", "bolo", "--n", "1000000",
                    "--out", str(tmp_path / "tol")]) == EXIT_OK
        payload = json.loads((tmp_path / "tol.json").read_text())
        c = payload["c"]
        assert abs(c - math.sqrt(3.0 / 4.0)) < 1e-12
        for row in payload["profiles"]:
            law = -(row["delta"] / (2.0 * c)) ** 2
            if row["delta"] == 0.0:
                assert row["epsilon0_re"] == 0.0 and row["epsilon0_im"] == 0.0
            else:
                assert abs(row["epsilon0_re"] / law - 1.0) < 0.01


class TestOracleCheck:
    def test_bolo_passes(self, capsys):
        assert run(["oracle-check", "bolo", "--n", "16", "--steps", "200"]) == EXIT_OK
        out = capsys.readouterr().out
        dev = float(out.split("max deviation = ")[1])
        assert dev < 1e-10

    def test_impossible_tolerance_exits_4(self):
        assert run(["oracle-check", "grover", "--n", "8", "--steps", "10",
                    "--tol", "1e-30"]) == EXIT_ORACLE

    def test_large_n_rejected(self):
        # 2N states for grover: one past ORACLE_MAX_STATES
        N = ORACLE_MAX_STATES // 2 + 1
        assert run(["oracle-check", "grover", "--n", str(N)]) == EXIT_SPEC

    def test_bolo_hundred_thousand_edges(self, capsys):
        assert run(["oracle-check", "bolo", "--n", "100000", "--steps", "20"]) == EXIT_OK
        dev = float(capsys.readouterr().out.split("max deviation = ")[1])
        assert dev < 1e-10


class TestDemo:
    def test_runs_and_narrates(self, capsys):
        assert run(["demo"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Best target" in out
        assert "p_marked = 0.75" in out or "p_marked = 0.74" in out


class TestArgParsing:
    def test_bad_lambda_exits_2(self, tmp_path):
        assert run(["search", "grover", "--n", "100", "--lambda", "banana",
                    "--out", str(tmp_path / "s")]) == EXIT_SPEC

    @pytest.mark.parametrize("argv", [
        ["search", "bolo", "--n", "1e6"],
        ["search", "bolo", "--n", "1000", "--shots", "-5"],
        ["search", "bolo", "--n", "1000000", "--m-copies", "0"],
        ["search", "grover", "--n", "10", "--m-copies", "10"],
        ["search", "bolo", "--n", "1000", "--lambda", "0.5,0.5"],
        ["sweep", "bolo", "--n", "100..1000", "--points", "0"],
        ["sweep", "bolo", "--n", "0..100"],
        ["tolerance", "grover", "--n", "1" + "0" * 400],
        ["tolerance", "grover", "--n", "1000", "--delta-grid", "x"],
        ["oracle-check", "bolo", "--n", "8", "--steps", "-3"],
        ["search", "bolo", "--n", "1000", "--lambda", "nan,0"],
        ["tolerance", "grover", "--n", "1000", "--delta-grid", "0,nan"],
        ["tolerance", "grover", "--n", "1000", "--delta-grid", "inf"],
        ["analyze", "bolo", "--phi", "nan"],
        ["analyze", "bolo", "--phi", "inf"],
        ["oracle-check", "bolo", "--n", "64", "--tol", "nan"],
        ["oracle-check", "bolo", "--n", "64", "--tol", "inf"],
        ["oracle-check", "bolo", "--n", "64", "--tol=-1e-8"],
        ["search", "bolo", "--n", "100", "--shots", "10", "--seed", "-1"],
        ["demo", "--seed", "-1"],
    ], ids=lambda argv: " ".join(argv)[:40])
    def test_bad_input_exits_2(self, argv, tmp_path, capsys):
        writes = argv[0] not in ("demo", "oracle-check")        # these take no --out
        out = ["--out", str(tmp_path / "x")] if writes else []
        assert run(argv + out) == EXIT_SPEC
        assert "Traceback" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["analyze", "bolo", "--m-copies", "2"],
        ["analyze", "bolo", "--seed", "1"],
        ["sweep", "bolo", "--n", "100", "--seed", "1"],
        ["tolerance", "grover", "--n", "1000", "--seed", "1"],
        ["oracle-check", "bolo", "--n", "8", "--out", "x"],
        ["oracle-check", "bolo", "--n", "8", "--format", "json"],
        ["oracle-check", "bolo", "--n", "8", "--seed", "1"],
    ], ids=lambda argv: " ".join(argv)[:40])
    def test_unread_option_rejected(self, argv, capsys):
        assert run(argv) == EXIT_SPEC
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_out_exits_2(self, fmt, tmp_path, capsys):
        out = str(tmp_path / "no" / "such" / "x")
        assert run(["search", "grover", "--n", "100", "--format", fmt, "--out", out]) == EXIT_SPEC
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert "cannot write --out" in err

    def test_precision_envelope_exits_3(self, tmp_path, capsys):
        assert run(["search", "bolo", "--n", str(10 ** 30),
                    "--out", str(tmp_path / "s")]) == EXIT_NUMERICS
        assert "norm drifted" in capsys.readouterr().err

    def test_numerics_exit_code(self, monkeypatch, tmp_path):
        # force a numerical diagnostic through the analyze path
        import starwalk.cli as cli

        def boom(*a, **k):
            from starwalk.graph import NumericsError
            raise NumericsError("synthetic")
        monkeypatch.setattr(cli.spectral, "spectral_report", boom)
        assert run(["analyze", "grover", "--out", str(tmp_path / "x")]) == EXIT_NUMERICS


class TestSpecCompiledOnce:
    @pytest.mark.parametrize("argv", [
        ["sweep", "bolo", "--n", "100..1000000000000", "--log", "--points", "11"],
        ["tolerance", "grover", "--n", "10000"],
        ["demo"],
    ], ids=lambda argv: argv[0])
    def test_right_block_decomposed_once(self, argv, tmp_path, decompositions):
        out = [] if argv[0] == "demo" else ["--out", str(tmp_path / "x")]
        assert run(argv + out) == EXIT_OK
        assert len(decompositions) == 1

    def test_import_leaves_scipy_optimize_out(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(starwalk.__file__)))
        code = "import sys, starwalk.cli; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
        assert proc.stdout.strip() == "False"

    def test_analyze_leaves_scipy_optimize_out(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(starwalk.__file__)))
        code = ("import sys, starwalk.cli; starwalk.cli.main(['analyze', 'bolo', '--out', "
                f"{str(tmp_path / 'rep')!r}]); print('scipy.optimize' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
        assert proc.stdout.strip().splitlines()[-1] == "False"
