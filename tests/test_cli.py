import gc
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import starwalk
import starwalk.cli as cli
from starwalk.cli import (EXIT_NUMERICS, EXIT_OK, EXIT_ORACLE, EXIT_PIPE, EXIT_SPEC,
                          ORACLE_MAX_STATES, main)

from conftest import random_spec
from test_graph import BAD_WIRING, bad_wiring

SRC = os.path.dirname(os.path.dirname(os.path.abspath(starwalk.__file__)))
ROOT = os.path.dirname(SRC)


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

    @pytest.mark.parametrize("name", sorted(BAD_WIRING))
    def test_bad_wiring_exits_2(self, tmp_path, capsys, name):
        data, message = bad_wiring(name)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run(["analyze", str(bad), "--out", str(tmp_path / "x")]) == EXIT_SPEC
        assert re.search(message, capsys.readouterr().err)

    def test_spec_not_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["analyze", str(bad), "--out", str(tmp_path / "x")]) == EXIT_SPEC
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        # an integer literal past 4300 digits (a plain ValueError from json.loads)
        json.dumps(starwalk.load_spec("bolo").to_dict()).replace(
            "0.6666666666666666", "1" * 5000, 1).encode(),
        b"[" * 100_000 + b"]" * 100_000,        # nesting past the recursion limit
        b"\xff\xfe{",                           # not UTF-8, -16 or -32
    ], ids=["huge_integer", "deep_nesting", "bad_encoding"])
    def test_undecodable_spec_exits_2(self, content, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert run(["analyze", str(bad), "--out", str(tmp_path / "x")]) == EXIT_SPEC
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("spec error: spec file") and "is not valid JSON" in line
        assert list(tmp_path.iterdir()) == [bad]


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

    def test_boolean_matrix_entry_exits_2(self, tmp_path, capsys):
        data = {"vertices": [{"id": "1", "ports_in": ["0->1", "b"], "ports_out": ["1->0", "a"],
                              "matrix": [[0.6, 0.8], [0.8, -0.6]]},
                             {"id": "2", "ports_in": ["a"], "ports_out": ["b"], "matrix": [[1]]}],
                "attachment": "1", "interior": ["a", "b"]}
        path = tmp_path / "spec.json"
        argv = ["search", str(path), "--n", "100", "--out", str(tmp_path / "s")]
        path.write_text(json.dumps(data))
        assert run(argv) == EXIT_OK
        data["vertices"][1]["matrix"] = [[True]]        # not the number 1
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(argv) == EXIT_SPEC
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("spec error: malformed matrix entry: True is not a number")


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

    def test_single_n_gives_one_row(self, tmp_path):
        assert run(["sweep", "grover", "--n", "400", "--out", str(tmp_path / "sw")]) == EXIT_OK
        header, row = (tmp_path / "sw.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["N"] == "400"

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["sweep", "bolo", "--n", "100..1000", "--points", "3",
                        "--out", str(out)]) == EXIT_OK
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_exponent_form_is_the_integer(self, tmp_path):
        # <digits>e<digits> is int(a) * 10**int(b) exactly, at each end of a range
        for n, out in (("100..1e12", "e"), ("100..1000000000000", "digits")):
            assert run(["sweep", "bolo", "--n", n, "--points", "11", "--log",
                        "--out", str(tmp_path / out)]) == EXIT_OK
        for ext in ("csv", "json"):
            assert (tmp_path / f"e.{ext}").read_bytes() == (tmp_path / f"digits.{ext}").read_bytes()
        assert cli._parse_n_range("3E2..12e0") == (300, 12)
        assert cli._parse_n_range("1e308") == (10 ** 308, None)

    def test_dense_grid_gives_one_row_per_n(self, tmp_path):
        assert run(["sweep", "bolo", "--n", "100..1000", "--points", "100000",
                    "--format", "json", "--out", str(tmp_path / "sw")]) == EXIT_OK
        ns = [p["N"] for p in json.loads((tmp_path / "sw.json").read_text())["points"]]
        assert ns == list(range(100, 1001))

    def test_points_beyond_the_bound_exit_2_in_one_line(self, tmp_path):
        # the grid is refused before it is allocated: no MemoryError traceback
        from starwalk.cli import SWEEP_MAX_POINTS
        src = os.path.dirname(os.path.dirname(os.path.abspath(starwalk.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "starwalk.cli", "sweep", "grover", "--n", "100..1000",
             "--points", str(10 ** 12), "--out", str(tmp_path / "sw")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert proc.returncode == EXIT_SPEC
        (line,) = proc.stderr.splitlines()
        assert "--points" in line and str(SWEEP_MAX_POINTS) in line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("lo,hi,log", [
        (100, 2 ** 64, False),                  # past numpy's integer casts
        (2 ** 53 + 1, 2 ** 53 + 3, False),      # between doubles
        (100, 10 ** 23 + 1, True),
    ])
    def test_endpoints_are_the_requested_n(self, tmp_path, lo, hi, log):
        out = tmp_path / "sw"
        assert run(["sweep", "grover", "--n", f"{lo}..{hi}", "--points", "3",
                    "--format", "json", "--out", str(out)] + ["--log"] * log) == EXIT_OK
        ns = [p["N"] for p in json.loads((tmp_path / "sw.json").read_text())["points"]]
        assert ns[0] == lo and ns[-1] == hi
        assert ns == sorted(ns) and all(lo <= N <= hi for N in ns)


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

    def test_auto_grid_straddles_the_boundary_at_every_m(self, tmp_path):
        # {0, 0.5, 1, 1.5} x c*sqrt(2M/N) is t = k^2/2 at any M: the t = 1/2 boundary at 1
        assert run(["tolerance", "grover", "--n", "1000000", "--m-copies", "3",
                    "--out", str(tmp_path / "tol")]) == EXIT_OK
        rows = json.loads((tmp_path / "tol.json").read_text())["profiles"]
        assert [row["t"] for row in rows] == pytest.approx([0.0, 0.125, 0.5, 1.125], rel=1e-12)

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


    def test_large_detuning_follows_the_matched_branch(self, tmp_path):
        # for pi/2 < |delta| <= pi the other left pole is the nearer one; epsilon0 is still
        # the matched branch's double root: two eigenvalues of U(eps0) meet on delta's side
        assert run(["tolerance", "bolo", "--n", "10000", "--lambda", "1,0", "--delta-grid",
                    "2.5,-3", "--out", str(tmp_path / "tol")]) == EXIT_OK
        spec = starwalk.load_spec("bolo")
        for row in json.loads((tmp_path / "tol.json").read_text())["profiles"]:
            eps0 = complex(row["epsilon0_re"], row["epsilon0_im"])
            U = starwalk.collapsed_matrix(spec, eps0, starwalk.detuned_phase(1.0, row["delta"]))
            w = np.linalg.eigvals(U)
            gap = np.abs(w[:, None] - w) + np.diag(np.full(len(w), np.inf))
            i, j = np.unravel_index(np.argmin(gap), gap.shape)
            assert gap[i, j] < 1e-6
            assert np.sign(np.angle(w[i])) == np.sign(np.angle(w[j])) == np.sign(row["delta"])

    def test_huge_detuning_predicts_zero(self, tmp_path):
        # t overflows to inf; its t -> inf limit is 0, not a math domain error
        assert run(["tolerance", "grover", "--n", "1000000", "--delta-grid", "1e300",
                    "--out", str(tmp_path / "tol")]) == EXIT_OK
        (row,) = json.loads((tmp_path / "tol.json").read_text())["profiles"]
        assert row["t"] == math.inf
        assert row["P_predicted_naive"] == 0.0 and row["P_predicted_comp"] == 0.0

    def test_huge_detuning_warns_in_one_short_line(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(starwalk.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "starwalk.cli", "tolerance", "grover", "--n", "1000000",
             "--delta-grid", "1e300", "--out", str(tmp_path / "tol")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert proc.returncode == EXIT_OK
        (line,) = proc.stderr.splitlines()
        assert "small-angle" in line and len(line) < 200

    @pytest.mark.parametrize("delta", ["1e308", "-1e308"])
    def test_detuning_without_a_finite_phase_is_named(self, delta, tmp_path):
        # the grid check passes it, but the detuned phase phi0 + 2*delta overflows
        proc = subprocess.run(
            [sys.executable, "-m", "starwalk.cli", "tolerance", "grover", "--n", "1000",
             "--delta-grid", delta, "--out", str(tmp_path / "tol")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
        assert proc.returncode == EXIT_SPEC
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"spec error: detuning {float(delta)!r} has no finite")
        assert list(tmp_path.iterdir()) == []


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

    def test_plus_minus_one_have_exact_zero_imaginary_part(self, tmp_path, capsys):
        # bolo's +-1 families print and write a zero imaginary part of sign +
        assert run(["demo"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lambda0 = +1.000000+0.000000j" in out and "lambda0 = -1.000000+0.000000j" in out
        assert "-0.000000" not in out and "-0.000j" not in out
        for lam in ("1,0", "-1,0"):
            stem = tmp_path / f"s{lam}"
            assert run(["search", "bolo", "--n", "1000", f"--lambda={lam}", "--out", str(stem)]) == EXIT_OK
            row = (tmp_path / f"s{lam}.csv").read_text().splitlines()[1].split(",")
            assert row[2:4] == [lam.split(",")[0], "0"]
        assert run(["analyze", "bolo", "--out", str(tmp_path / "rep")]) == EXIT_OK
        assert "best lambda0 = -1.000000+0.000000i" in capsys.readouterr().out
        rep = json.loads((tmp_path / "rep.json").read_text())
        for entry in rep["classifications"] + rep["pairing_fits"]:
            re, im = entry["lambda0"]
            if abs(abs(re) - 1.0) < 1e-9:
                assert math.copysign(1.0, im) == 1.0 and im == 0.0


class TestArgParsing:
    def test_bad_lambda_exits_2(self, tmp_path, capsys):
        for lam in ("banana", "1,0,0"):
            assert run(["search", "grover", "--n", "100", "--lambda", lam,
                        "--out", str(tmp_path / "s")]) == EXIT_SPEC
            (line,) = capsys.readouterr().err.splitlines()
            assert line.endswith(f'argument --lambda: must be "auto" or "re,im", got {lam!r}')

    @pytest.mark.parametrize("argv", [
        ["search", "bolo", "--n", "1.5e3"],
        ["search", "bolo", "--n", "1e-3"],
        ["search", "bolo", "--n", "1e"],
        ["search", "bolo", "--n", "e5"],
        ["search", "bolo", "--n", "1e309"],
        ["search", "bolo", "--n", "1e999999999"],
        ["sweep", "bolo", "--n", "100..1e999999999"],
        ["search", "bolo", "--n", "2e308"],
        ["search", "bolo", "--n", "1" + "0" * 400],
        ["search", "bolo", "--n", "1" * 5001],
        ["search", "bolo", "--n", "9" * 4000 + "e308"],
        ["search", "bolo", "--n", "1e" + "9" * 400],
        ["search", "bolo", "--n", "1000", "--shots", "-5"],
        ["search", "bolo", "--n", "1000", "--shots", "100000000000000000000"],
        ["search", "bolo", "--n", "1000000", "--m-copies", "0"],
        ["search", "grover", "--n", "10", "--m-copies", "10"],
        ["search", "bolo", "--n", "1000", "--lambda", "0.5,0.5"],
        ["search", "bolo", "--n", "1000", "--lambda", "1,0,0"],
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
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert all(len(line) < 200 for line in err.splitlines())     # --n is not echoed in full
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["search", "bolo", "--n", "1000", "--m-copies", "9" * 5000],
        ["search", "bolo", "--n", "1000", "--m-copies", "9" * 4000],
        ["search", "bolo", "--n", "1000", "--shots", "9" * 5000],
        ["search", "bolo", "--n", "1000", "--shots", "9" * 4000],
        ["search", "bolo", "--n", "1000", "--shots", "10", "--seed", "9" * 5000],
        ["search", "bolo", "--n", "1000", "--shots", "10", "--seed", "-" + "9" * 4000],
        ["demo", "--seed", "x" * 5000],
        ["oracle-check", "bolo", "--n", "8", "--steps", "9" * 5000],
        ["oracle-check", "bolo", "--n", "8", "--steps", "-" + "9" * 4000],
        ["oracle-check", "bolo", "--n", "1e300"],          # 2N + M*n has 301 digits
        ["sweep", "bolo", "--n", "100..1000", "--points", "9" * 5000],
        ["sweep", "bolo", "--n", "100..1000", "--points", "9" * 4000],
        ["analyze", "bolo", "--phi", "x" * 5000],
        ["oracle-check", "bolo", "--n", "8", "--tol", "x" * 5000],
        ["search", "bolo", "--n", "1000", "--lambda", "x" * 5000],
        ["tolerance", "grover", "--n", "1000", "--delta-grid", "x" * 5000],
        pytest.param(["search", "bolo", "--n", "1000", "--format", "x" * 5000], id="choice"),
        pytest.param(["search", "bolo", "--n", "1000", "--format", ("it's a b " * 600)[:5000]],
                     id="choice with spaces and a quote"),
        pytest.param(["x" * 5000, "bolo"], id="subcommand"),
        pytest.param(["analyze", "bolo", "x" * 5000], id="unrecognized argument"),
        pytest.param(["search", "bolo", "--n", "1000", "--s=" + "x" * 5000], id="ambiguous option"),
        pytest.param(["analyze", "x" * 5000], id="spec path"),
    ], ids=lambda argv: f"{argv[0]} {argv[-2]} {argv[-1][:2]}-{len(argv[-1])}")
    def test_long_option_value_is_not_echoed(self, argv, tmp_path, capsys):
        writes = argv[0] not in ("demo", "oracle-check")
        assert run(argv + (["--out", str(tmp_path / "x")] if writes else [])) == EXIT_SPEC
        (line,) = capsys.readouterr().err.splitlines()
        assert len(line) < 200 and "Traceback" not in line

    @pytest.mark.parametrize("argv, message", [
        (["search", "bolo", "--n", "10", "--m-copies", "abc"],
         "starwalk search: error: argument --m-copies: invalid int value: 'abc'"),
        (["search", "bolo", "--n", "10", "--m-copies", "it's \"q\""],
         "starwalk search: error: argument --m-copies: invalid int value: 'it\\'s \"q\"'"),
        (["search", "bolo", "--n", "10", "--lambda", "1,2,3"],
         "starwalk search: error: argument --lambda: must be \"auto\" or \"re,im\", got '1,2,3'"),
        (["search", "bolo", "--n", "10", "--format", "it's"],
         "starwalk search: error: argument --format: invalid choice: \"it's\" "
         "(choose from 'json', 'csv')"),
        (["analyze", "bolo", "x" * 30, "''" * 15],
         f"starwalk: error: unrecognized arguments: {'x' * 30} {chr(39) * 30}"),
    ], ids=["int", "int with quotes", "lambda", "choice", "unrecognized arguments"])
    def test_short_value_is_repeated_verbatim(self, argv, message, capsys):
        assert run(argv) == EXIT_SPEC
        assert capsys.readouterr().err == message + "\n"

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

    def test_long_out_path_is_not_echoed(self, tmp_path, capsys):
        out = str(tmp_path / ("x" * 5000))
        assert run(["search", "grover", "--n", "100", "--out", out]) == EXIT_SPEC
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"spec error: cannot write --out a text of {len(out)} characters: "
                        "File name too long")

    def test_precision_envelope_exits_3(self, tmp_path, capsys):
        assert run(["search", "bolo", "--n", str(10 ** 30),
                    "--out", str(tmp_path / "s")]) == EXIT_NUMERICS
        assert "norm drifted" in capsys.readouterr().err

    def test_precision_envelope_edge(self, tmp_path):
        # bolo still runs at N = 1e21; at 1e22 the norm drifts by 1.9e-6
        assert run(["search", "bolo", "--n", str(10 ** 21),
                    "--out", str(tmp_path / "a")]) == EXIT_OK
        assert run(["search", "bolo", "--n", str(10 ** 22),
                    "--out", str(tmp_path / "b")]) == EXIT_NUMERICS

    @pytest.mark.parametrize("k", [50, 60, 100])
    def test_non_unitarity_guard_exits_3(self, k, tmp_path, capsys):
        # bolo's float eigenvalue at -1 has modulus 1 - 4.2e-17: over 1.8e25
        # steps the marked side decays to p_marked 1.7e-17 (exact: 0.75)
        # while the norm holds, so the drift check alone cannot see it
        assert run(["search", "bolo", "--n", str(10 ** k),
                    "--out", str(tmp_path / "s")]) == EXIT_NUMERICS
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "unitarity residual" in err

    def test_huge_star_tolerance_exits_3(self, tmp_path, capsys):
        # the secular sums overflow in the double-root Newton: one diagnostic
        # line, no numpy RuntimeWarning (an error under pytest)
        assert run(["tolerance", "grover", "--n", str(10 ** 300),
                    "--out", str(tmp_path / "t")]) == EXIT_NUMERICS
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "double-root" in err

    def test_powers_never_overflow(self, tmp_path, capsys):
        # squared 67 times, this walk's powers overflow: numpy's RuntimeWarnings
        # and a NaN norm unless the run is refused first
        spec = random_spec(np.random.default_rng(2), arms=3)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert run(["search", str(path), "--n", str(10 ** 40),
                    "--out", str(tmp_path / "s")]) == EXIT_NUMERICS
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "nan" not in err

    @pytest.mark.parametrize("argv", [
        ["search", "bolo", "--n", "1000", "--shots", "10"],
        ["sweep", "bolo", "--n", "100..1000", "--points", "3"],
        ["tolerance", "grover", "--n", "10000", "--delta-grid", "0,0.01"],
    ], ids=lambda argv: argv[0])
    def test_negative_lambda_as_separate_token(self, argv, tmp_path):
        for stem, lam in (("apart", ["--lambda", "-1,0"]), ("joined", ["--lambda=-1,0"])):
            for fmt in ("csv", "json"):
                out = tmp_path / f"{stem}_{fmt}"
                assert run(argv + lam + ["--format", fmt, "--out", str(out)]) == EXIT_OK
        for suffix in ("_csv.csv", "_csv.json", "_json.json"):
            outputs = [(tmp_path / (stem + suffix)).read_bytes() for stem in ("apart", "joined")]
            assert outputs[0] == outputs[1], suffix

    def test_numerics_exit_code(self, monkeypatch, tmp_path):
        # force a numerical diagnostic through the analyze path
        def boom(*a, **k):
            from starwalk.graph import NumericsError
            raise NumericsError("synthetic")
        monkeypatch.setattr(cli.spectral, "spectral_report", boom)
        assert run(["analyze", "grover", "--out", str(tmp_path / "x")]) == EXIT_NUMERICS


class TestClosedStdout:
    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [
        ["demo"],
        ["search", "bolo", "--n", "1000", "--shots", "100"],
    ], ids=lambda argv: argv[0])
    def test_reader_gone_leaves_no_traceback(self, argv, buffered, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:        # each print reaches the pipe, not only the exit flush
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)      # the reader closes before the first line arrives
        try:
            proc = subprocess.run([sys.executable, "-m", "starwalk.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  cwd=tmp_path, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == EXIT_PIPE


# One cheap, valid invocation per subcommand; the fuzzer mutates its argv.
FUZZ_BASE = {
    "analyze": ["analyze", "grover", "--phi", "0.5"],
    "search": ["search", "grover", "--n", "100", "--m-copies", "1", "--lambda", "1,0",
               "--shots", "10", "--seed", "1"],
    "sweep": ["sweep", "grover", "--n", "100..1000", "--points", "3", "--lambda", "auto"],
    "tolerance": ["tolerance", "grover", "--n", "100", "--delta-grid", "0,0.01"],
    "oracle-check": ["oracle-check", "grover", "--n", "16", "--steps", "5", "--tol", "1e-8"],
    "demo": ["demo", "--seed", "1"],
}
BAD_VALUES = ["abc", "", "nan", "NaN", "inf", "-inf", "-1", "-2.5", "1e400", "nan,0",
              "1,inf", "..", "3..nan", "-5..100"]


@st.composite
def mutated_argv(draw, command):
    """The base argv of ``command`` with one to three of: an unknown flag, a value
    replaced by a bad one, a token dropped (missing operand)."""
    argv = list(FUZZ_BASE[command])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flag", "value", "drop"]))
        if kind == "flag":
            flag = draw(st.sampled_from(["--bogus", "--bogus=1", "-z", "--n-copies"]))
            argv.insert(draw(st.integers(1, len(argv))), flag)
        elif kind == "value" and len(argv) > 1:
            argv[draw(st.integers(1, len(argv) - 1))] = draw(st.sampled_from(BAD_VALUES))
        elif len(argv) > 1:
            del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


class TestArgvFuzz:
    @pytest.mark.parametrize("command", sorted(FUZZ_BASE))
    def test_base_argv_is_valid(self, command, tmp_path):
        writes = command not in ("demo", "oracle-check")
        assert run(FUZZ_BASE[command] + (["--out", str(tmp_path / "x")] if writes else [])) == EXIT_OK

    @pytest.mark.parametrize("command", sorted(FUZZ_BASE))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bad_argv_exits_2_with_one_line(self, command, data, tmp_path, capsys):
        argv = data.draw(mutated_argv(command), label="argv")
        writes = command not in ("demo", "oracle-check")
        capsys.readouterr()
        code = run(argv + (["--out", str(tmp_path / "x")] if writes else []))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code in (EXIT_OK, EXIT_SPEC, EXIT_NUMERICS, EXIT_ORACLE)
        if code == EXIT_SPEC:
            assert len(err.strip().splitlines()) == 1, err


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

    @staticmethod
    def _loaded_after(argvs, modules=("scipy", "numpy.ma")) -> list[tuple[bool, ...]]:
        """Which of ``modules`` are in sys.modules of a fresh interpreter, after
        ``import starwalk.cli`` and after each argv run through ``main``."""
        code = ("import sys, starwalk.cli\n"
                f"mods = {modules!r}\n"
                "print('LOADED', *(m in sys.modules for m in mods))\n"
                f"for argv in {argvs!r}:\n"
                "    assert starwalk.cli.main(argv) == 0, argv\n"
                "    print('LOADED', *(m in sys.modules for m in mods))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC), timeout=120, check=True)
        return [tuple(word == "True" for word in line.split()[1:])
                for line in proc.stdout.splitlines() if line.startswith("LOADED")]

    def test_import_leaves_scipy_optimize_out(self):
        assert self._loaded_after([]) == [(False, False)]

    def test_analyze_leaves_scipy_optimize_out(self, tmp_path):
        assert self._loaded_after(
            [["analyze", "bolo", "--out", str(tmp_path / "rep")]]) == [(False, False)] * 2

    def test_every_subcommand_leaves_scipy_out(self, tmp_path):
        """Neither scipy nor numpy.ma (which np.unique pulls in) is imported."""
        out = ["--out", str(tmp_path / "x")]
        argvs = [["analyze", "bolo"] + out,
                 ["search", "bolo", "--n", "1000", "--shots", "100"] + out,
                 ["sweep", "grover", "--n", "100..1000000", "--log", "--points", "3"] + out,
                 ["tolerance", "grover", "--n", "10000"] + out,
                 ["oracle-check", "bolo", "--n", "64", "--steps", "20"],
                 ["demo"]]
        assert self._loaded_after(argvs) == [(False, False)] * 7


def cold(argv, cwd, **env) -> subprocess.CompletedProcess:
    """``python -m starwalk.cli`` in a fresh interpreter, as a shell would run it."""
    return subprocess.run([sys.executable, "-m", "starwalk.cli", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC, **env),
                          capture_output=True, text=True, timeout=120)


class TestLogLevel:
    # `basic_format` and `_styles` name attributes of `logging` that are not
    # levels; they once reached basicConfig as levels: a traceback and exit 1
    @pytest.mark.parametrize("value, warns", [("basic_format", True), ("_styles", True),
                                              ("root", True), ("nonsense", True),
                                              ("ErRoR", False)])
    def test_any_value_runs(self, value, warns, tmp_path):
        # a detuning outside the small-angle regime logs one warning
        proc = cold(["tolerance", "grover", "--n", "1000", "--delta-grid", "0,1", "--out", "t"],
                    tmp_path, STARWALK_LOG=value)
        assert proc.returncode == EXIT_OK
        assert "Traceback" not in proc.stderr
        assert ("outside the small-angle regime" in proc.stderr) == warns


class TestEntry:
    """The process entry freezes the import-time heap; ``main`` never does."""

    def test_entry_freezes_then_runs_main(self, monkeypatch):
        calls = []
        real_main = cli.main
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or real_main())
        monkeypatch.setattr(sys, "argv", ["starwalk", "search", "bolo", "--n", "1"])
        assert cli.entry() == EXIT_SPEC
        assert calls == ["freeze", "main"]

    def test_main_does_not_freeze(self, tmp_path):
        before = gc.get_freeze_count()
        assert run(["search", "bolo", "--n", "1000", "--out", str(tmp_path / "s")]) == EXIT_OK
        assert run(["demo", "--seed", "1"]) == EXIT_OK
        assert gc.get_freeze_count() == before

    def test_console_script_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"starwalk": "starwalk.cli:entry"}

    @pytest.mark.parametrize("argv, code", [
        (["analyze", "bolo", "--out", "o"], EXIT_OK),
        (["search", "bolo", "--n", "1000000", "--shots", "100", "--seed", "1", "--out", "o"],
         EXIT_OK),
        (["sweep", "grover", "--n", "100..1000000", "--log", "--points", "4", "--out", "o"],
         EXIT_OK),
        (["tolerance", "grover", "--n", "10000", "--out", "o"], EXIT_OK),
        (["oracle-check", "bolo", "--n", "1000", "--steps", "20"], EXIT_OK),
        (["demo", "--seed", "1"], EXIT_OK),
        (["search", "bolo", "--n", "1"], EXIT_SPEC),
        (["search", "bolo", "--n", str(10 ** 22), "--out", "o"], EXIT_NUMERICS),
        (["oracle-check", "bolo", "--n", "1000", "--steps", "20", "--tol", "0"], EXIT_ORACLE),
    ], ids=lambda v: v[0] if isinstance(v, list) else str(v))
    def test_same_program_as_main(self, argv, code, tmp_path, monkeypatch, capsys):
        """A cold run writes the same exit code, files and stdout as ``main(argv)``."""
        (tmp_path / "cold").mkdir()
        (tmp_path / "warm").mkdir()
        proc = cold(argv, tmp_path / "cold")
        monkeypatch.chdir(tmp_path / "warm")
        assert (proc.returncode, run(argv)) == (code, code)
        assert proc.stdout == capsys.readouterr().out

        def files(d):
            return {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        written = files(tmp_path / "cold")
        assert written == files(tmp_path / "warm")
        assert bool(written) == ("--out" in argv and code == EXIT_OK)
