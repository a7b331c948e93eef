"""The four workloads: inputs made from the seed, operations, and their checks.

Every workload is a fixed list of operations (a round).  An operation is a
call into the program, timed by the runner, and a check of what it returned,
run outside the timing.  ``known_fault`` marks operations that fail every time
because of a fault in the program; they are attempted and counted as failed.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import reference
import specgen

# spectral_ladder: arms per seeded rung, giving dim_right 8, 12, 18, 28, 40.
LADDER_ARMS = (3, 5, 8, 13, 19)
# search_scan / tolerance_drift: small seeded specs (dim_right 4, 6 and 8).
SEARCH_ARMS = (1, 2, 3)
TOLERANCE_ARMS = (1, 2)
SEARCH_NS = tuple(10 ** k for k in range(2, 13))
SEARCH_MS = (1, 3)
SHOTS = 1000
TOLERANCE_NS = (10 ** 6, 10 ** 8, 10 ** 10)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: bool = False
    warm_up: Callable[[], object] | None = None   # set-up variant of ``run``


def _seeded(rng: np.random.Generator, arms_list, separated: bool) -> list[tuple[str, dict]]:
    make = specgen.separated_spec if separated else specgen.arm_spec
    return [(f"arms{arms}", make(rng, arms)) for arms in arms_list]


def star_size(nominal: int, data: dict, name: str) -> int:
    """N for a spec: the nominal value, scaled up for seeded specs.

    A walk's step count, which sets its cost, is pi sqrt(N/M) / 2c.  A seeded
    spec's N is scaled by (c / c_floor)^2, where c_floor = sqrt(2/dim_right) is
    the least best c the sum rule allows, so that its step count does not
    depend on the seed and N never drops below the nominal value.
    """
    if name in checks.CLOSED_FORMS:
        return nominal
    c2 = reference.best_family(reference.families(reference.right_block(data))).c2
    c2_floor = 2.0 / (2 + len(data["interior"]))
    return round(nominal * c2 / c2_floor)


def _load_all(sw, named_specs, src_dir: str, out_dir: str):
    """(name, program spec, JSON dict): bundled ones by name, the rest from files."""
    loaded = [(name, sw.load_spec(name), specgen.bundled(name, src_dir))
              for name in ("grover", "bolo")]
    for name, path, spec in specgen.write_specs(named_specs, out_dir):
        loaded.append((name, sw.load_spec(path), spec))
    return loaded


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------

def spectral_ladder(sw, seed: int, src_dir: str, out_dir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    specs = _load_all(sw, _seeded(rng, LADDER_ARMS, separated=False), src_dir, out_dir)
    ops = []
    for name, spec, data in specs:
        ops.append(Op(
            name=f"report {name} d={spec.dim_right}",
            run=lambda spec=spec: sw.spectral_report(spec),
            check=lambda rep, data=data, name=name: checks.check_report(rep, data, name)))
    return ops


def search_scan(sw, seed: int, src_dir: str, out_dir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    specs = _load_all(sw, _seeded(rng, SEARCH_ARMS, separated=True), src_dir, out_dir)
    ops = []
    for name, spec, data in specs:
        for N in (star_size(n, data, name) for n in SEARCH_NS):
            for M in SEARCH_MS:
                sample_seed = seed * 1000 + len(ops)

                def run(spec=spec, N=N, M=M, sample_seed=sample_seed):
                    plan = sw.plan_search(spec, N, M=M)
                    result = sw.run_search(plan, spec)
                    return plan, result, sw.sample_measurement(result, sample_seed, SHOTS)

                def check(out, data=data, N=N, M=M):
                    plan, res, counts = out
                    checks.check_search(data, N, M, plan.lambda0, plan.phi, plan.c, plan.m,
                                        res.p_marked, res.p_null, res.p_unmarked,
                                        predicted=plan.predicted_success)
                    checks.check_counts(counts, SHOTS, res.p_marked, res.p_null,
                                        res.p_unmarked)

                ops.append(Op(f"search {name} N={N} M={M}", run, check))
    return ops


def tolerance_drift(sw, seed: int, src_dir: str, out_dir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    specs = _load_all(sw, _seeded(rng, TOLERANCE_ARMS, separated=True), src_dir, out_dir)
    ops = []
    for name, spec, data in specs:
        best = reference.best_family(reference.families(reference.right_block(data)))
        c = math.sqrt(best.c2)
        for N in (star_size(n, data, name) for n in TOLERANCE_NS):
            for delta in checks.auto_deltas(c, N):
                def check(profiles, data=data, name=name, N=N):
                    (p,) = profiles
                    checks.check_tolerance(data, name, N, p.M, p.delta, p.t, p.epsilon0,
                                           p.P_measured_naive, p.P_measured_comp,
                                           p.P_predicted_naive, p.P_predicted_comp)

                ops.append(Op(
                    name=f"tolerance {name} N={N} delta={delta:.3g}",
                    run=lambda spec=spec, N=N, lam=best.lam, delta=delta:
                        sw.tolerance_sweep(spec, N, 1, lam, [delta]),
                    check=check,
                    # locate_double_root is not told which lambda0 family to
                    # follow; on bolo (+1 and -1 both pair) it returns the +1
                    # family's root or does not converge.
                    known_fault=(name == "bolo" and delta > 0.0)))
    return ops


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

SWEEP_N = "100..1000000000000"
SWEEP_POINTS = 11
CLI_SHOTS = 10000
ORACLE_N, ORACLE_STEPS = 64, 200
DEMO_N, DEMO_SHOTS = 10 ** 6, 10000


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _num(row: dict, key: str) -> float:
    return float(row[key])


def _check_search_row(data: dict, row: dict) -> None:
    checks.check_search(data, int(row["N"]), int(row["M"]),
                        complex(_num(row, "lambda0_re"), _num(row, "lambda0_im")),
                        _num(row, "phi"), _num(row, "c"), int(row["m"]),
                        _num(row, "p_marked"), _num(row, "p_null"),
                        _num(row, "p_unmarked"), slack=checks.CSV_SLACK)


@dataclass
class CliResult:
    code: int
    stdout: str
    output_bytes: int


class CliRunner:
    """Runs one CLI command, in a fresh interpreter or in this one."""

    def __init__(self, src_dir: str, root: str, in_process: bool):
        self.root, self.in_process = root, in_process
        self.env = dict(os.environ, PYTHONPATH=src_dir)

    def __call__(self, argv: list[str], outputs: list[str]) -> CliResult:
        """Run one command; ``outputs`` are the files it writes, removed first."""
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        if self.in_process:
            from starwalk import cli
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            stdout = buf.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "starwalk.cli", *argv],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=120)
            code, stdout = proc.returncode, proc.stdout
        size = len(stdout.encode())
        size += sum(os.path.getsize(p) for p in outputs if os.path.exists(p))
        return CliResult(code, stdout, size)


def cli_cold(run_cli: CliRunner, seed: int, src_dir: str, out_dir: str) -> list[Op]:
    os.makedirs(out_dir, exist_ok=True)
    grover = specgen.bundled("grover", src_dir)
    bolo = specgen.bundled("bolo", src_dir)
    stem = {k: os.path.join(out_dir, k) for k in ("analyze", "search", "sweep", "tolerance")}

    def ok(res: CliResult) -> None:
        checks.expect(res.code == 0, f"exit code {res.code}")

    def check_analyze(res):
        ok(res)
        checks.check_report(_read_json(stem["analyze"] + ".json"), bolo, "bolo")

    def check_search(res):
        ok(res)
        (row,) = _read_csv(stem["search"] + ".csv")
        _check_search_row(bolo, row)
        side = _read_json(stem["search"] + ".json")
        checks.expect(side["plan"]["m"] == int(row["m"]), "CSV and JSON disagree on m")
        r = side["result"]
        checks.check_counts(side["counts"], CLI_SHOTS, r["p_marked"], r["p_null"],
                            r["p_unmarked"])

    def check_sweep(res):
        ok(res)
        rows = _read_csv(stem["sweep"] + ".csv")
        side = _read_json(stem["sweep"] + ".json")["points"]
        checks.expect(len(rows) == SWEEP_POINTS == len(side), f"{len(rows)} sweep rows")
        for row, point in zip(rows, side):
            _check_search_row(grover, row)
            checks.expect(point["m"] == int(row["m"]), "CSV and JSON disagree on m")

    def check_tolerance(res):
        ok(res)
        rows = _read_csv(stem["tolerance"] + ".csv")
        side = _read_json(stem["tolerance"] + ".json")
        grid = checks.auto_deltas(side["c"], 10 ** 6)
        checks.expect(len(rows) == len(grid), f"{len(rows)} tolerance rows")
        for row, delta in zip(rows, grid):
            checks.expect(abs(_num(row, "delta") - delta) <= checks.CSV_SLACK,
                          f"delta {row['delta']} is not on the auto grid")
            checks.check_tolerance(
                grover, "grover", int(row["N"]), int(row["M"]), _num(row, "delta"),
                _num(row, "t"), complex(_num(row, "epsilon0_re"), _num(row, "epsilon0_im")),
                _num(row, "P_measured_naive"), _num(row, "P_measured_comp"),
                _num(row, "P_predicted_naive"), _num(row, "P_predicted_comp"),
                slack=checks.CSV_SLACK)

    def check_oracle(res):
        ok(res)
        dev = float(re.search(r"max deviation = (\S+)", res.stdout).group(1))
        checks.expect(dev < 1e-8, f"oracle deviation {dev}")

    def check_demo(res):
        ok(res)
        p = float(re.search(r"p_marked = ([0-9.]+)", res.stdout).group(1))
        counts = json.loads(re.search(r"measurements: (\{.*\})", res.stdout)
                            .group(1).replace("'", '"'))
        # bolo's best target is lambda0 = -1 (c = sqrt(3)/2): phi = 0, branch -1
        m = reference.search_m(DEMO_N, 1, math.sqrt(3.0) / 2.0)
        U = reference.collapsed(bolo, DEMO_N, 1, 0.0)
        psi = reference.propagate(U, reference.initial_state(U.shape[0], DEMO_N, 1, 0.0, -1), m)
        p_own = reference.masses(psi)[0]
        checks.expect(abs(p - p_own) <= 6e-5, f"demo p_marked {p} vs {p_own}")
        checks.expect(sum(counts.values()) == DEMO_SHOTS, f"demo counts {counts}")

    def files(k, *exts):
        return [stem[k] + ext for ext in exts]

    commands = [
        ("analyze", ["analyze", "bolo", "--out", stem["analyze"]],
         files("analyze", ".json"), check_analyze),
        ("search", ["search", "bolo", "--n", "1000000", "--shots", str(CLI_SHOTS),
                    "--seed", str(seed), "--out", stem["search"]],
         files("search", ".csv", ".json"), check_search),
        ("sweep", ["sweep", "grover", "--n", SWEEP_N, "--points", str(SWEEP_POINTS),
                   "--log", "--out", stem["sweep"]],
         files("sweep", ".csv", ".json"), check_sweep),
        ("tolerance", ["tolerance", "grover", "--n", "1000000", "--out", stem["tolerance"]],
         files("tolerance", ".csv", ".json"), check_tolerance),
        ("oracle-check", ["oracle-check", "bolo", "--n", str(ORACLE_N),
                          "--steps", str(ORACLE_STEPS)], [], check_oracle),
        ("demo", ["demo", "--seed", str(seed)], [], check_demo),
    ]
    # The set-up's warm-up runs in the benchmark's own interpreter, as it does
    # in the set-up probes, so that every set-up sample measures the same work.
    warm = CliRunner(src_dir, run_cli.root, in_process=True)
    return [Op(name=f"cli {name}",
               run=lambda argv=argv, outputs=outputs: run_cli(argv, outputs),
               check=check,
               warm_up=lambda argv=argv, outputs=outputs: warm(argv, outputs))
            for name, argv, outputs, check in commands]
