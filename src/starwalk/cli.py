"""
Command-line front end.
=======================

Subcommands
-----------
analyze       spectral report: eigenvalue groups, bound/active split, c table,
              pairing fits, monodromy, best search eigenvalue
search        plan and run one search, report the mass split and samples
sweep         scan N (linear or log spaced), one CSV row per point
tolerance     detuning sweep: t, eps0, naive/compensated success
oracle-check  full-graph vs collapsed evolution deviation (regression guard)
demo          narrated end-to-end run on the bundled 'bolo' fixture

Exit codes: 0 ok; 1 standard output closed by its reader; 2 bad input or
unwritable --out; 3 numerical diagnostic; 4 oracle-check deviation above
threshold.  CSV output is byte-deterministic for a fixed config and seed on one
numpy/BLAS build with one BLAS thread count (across those, values can move in
the last bits); set STARWALK_LOG to debug, info, warning, error or critical
(any case) for verbosity; any other value means warning.
"""
from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import re
import sys

import numpy as np

from . import graph, search as search_mod, spectral, tolerance as tol_mod
from .graph import NumericsError, SpecError

EXIT_OK = 0
EXIT_PIPE = 1          # what Python's own recipe returns for a closed stdout
EXIT_SPEC = 2
EXIT_NUMERICS = 3
EXIT_ORACLE = 4

ORACLE_TOL = 1e-8
# The oracle holds a few amplitude arrays of 16 bytes per full-graph state
# (2N + M*n states); 4M states keep each array at 64 MB.
ORACLE_MAX_STATES = 4_000_000
# sweep grids hold 8 bytes per point; 1M points keep the grid at 8 MB
SWEEP_MAX_POINTS = 1_000_000
LOG_LEVELS = ("debug", "info", "warning", "error", "critical")

SEARCH_COLUMNS = ["N", "M", "lambda0_re", "lambda0_im", "phi", "c", "m",
                  "p_marked", "p_null", "p_unmarked", "overlap_r0"]
TOLERANCE_COLUMNS = ["N", "M", "delta", "t", "epsilon0_re", "epsilon0_im",
                     "m_naive", "m_comp", "P_measured_naive", "P_measured_comp",
                     "P_predicted_naive", "P_predicted_comp"]


def _fmt(x) -> str:
    return format(x, ".12g") if isinstance(x, float) else str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(args, header, rows, payload) -> None:
    """Write the tabular rows and the full JSON sidecar."""
    out = args.out or f"starwalk_{args.command.replace('-', '_')}"
    try:
        if args.format == "csv":
            csv_path = out if out.endswith(".csv") else out + ".csv"
            _write_csv(csv_path, header, rows)
            _write_json(os.path.splitext(csv_path)[0] + ".json", payload)
            wrote = f"{csv_path} ({len(rows)} rows)"
        else:
            wrote = out if out.endswith(".json") else out + ".json"
            _write_json(wrote, payload)
    except OSError as exc:
        raise SpecError(f"cannot write --out {out!r}: {exc.strerror or exc}") from None
    print(f"{args.command}: wrote {wrote}")


def _parse_lambda(text: str):
    if text == "auto":
        return "auto"
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise argparse.ArgumentTypeError(f'must be "auto" or "re,im", got {text!r}') from None


def _parse_n_range(text: str) -> tuple[int, int | None]:
    """N or A..B, each an integer or <digits>e<digits>, built exactly as int(a) * 10**int(b)."""
    ends = []
    for part in text.split("..", 1):
        exp = re.fullmatch(r"(\d+)[eE](\d+)", part)
        try:
            mantissa, power = (int(exp[1]), int(exp[2])) if exp else (int(part), 0)
        except ValueError:
            raise SpecError(f"--n must be an integer N or a range A..B, "
                            f"got {graph._echo(text)}") from None
        if power > 308:         # N is at most 1.8e308: refused before the integer is built
            raise SpecError(f"--n exponent {graph._echo(power)} is above 308, "
                            f"got {graph._echo(text)}")
        ends.append(mantissa * 10 ** power)
    return ends[0], ends[1] if len(ends) > 1 else None


def _single_n(args) -> int:
    """The one --n of a non-sweep command, checked against --m-copies."""
    N, hi = _parse_n_range(args.n)
    if hi is not None:
        raise SpecError(f"{args.command} takes a single --n; use sweep for ranges")
    graph.check_star(N, args.m_copies)
    return N


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    spec = graph.load_spec(args.spec)
    report = spectral.spectral_report(spec, phi=args.phi)
    rows = [
        [lam, c]
        for lam, c in sorted(report["c_table"].items())
    ]
    _emit(args, ["lambda0", "c"], rows, report)
    best = report["best"]
    print(f"best lambda0 = {best['lambda0'][0]:+.6f}{best['lambda0'][1]:+.6f}i, "
          f"c = {best['c']:.6f}, d = {best['d']}")
    return EXIT_OK


def _search_row(plan, result) -> list:
    return [plan.N, plan.M, plan.lambda0.real, plan.lambda0.imag, plan.phi,
            plan.c, plan.m, result.p_marked, result.p_null, result.p_unmarked,
            result.overlap_r0]


def cmd_search(args) -> int:
    spec = graph.load_spec(args.spec)
    N = _single_n(args)
    plan = search_mod.plan_search(spec, N, M=args.m_copies, lambda0=args.lam)
    result = search_mod.run_search(plan, spec)
    counts = (search_mod.sample_measurement(result, args.seed, args.shots)
              if args.shots else None)
    payload = {
        "plan": {"N": plan.N, "M": plan.M,
                 "lambda0": [plan.lambda0.real, plan.lambda0.imag],
                 "phi": plan.phi, "branch": plan.branch, "c": plan.c,
                 "m": plan.m, "predicted_success": plan.predicted_success},
        "result": {"p_marked": result.p_marked, "p_null": result.p_null,
                   "p_unmarked": result.p_unmarked,
                   "overlap_r0": result.overlap_r0, "norm_drift": result.norm_drift},
        "counts": counts,
    }
    _emit(args, SEARCH_COLUMNS, [_search_row(plan, result)], payload)
    print(f"m = {plan.m}, p_marked = {result.p_marked:.6f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = graph.load_spec(args.spec)
    lo, hi = _parse_n_range(args.n)
    for N in (lo, hi or lo):
        graph.check_star(N, args.m_copies)
    if not 1 <= args.points <= SWEEP_MAX_POINTS:
        raise SpecError(f"--points must be in 1..{SWEEP_MAX_POINTS}, got {args.points}")
    if hi is None:
        ns = [lo]
    else:
        # a float grid between exact endpoints: above 2**53 the floats alone
        # would move the ends, and numpy cannot cast ints of 2**64 and above
        grid = (np.logspace(math.log10(lo), math.log10(hi), args.points) if args.log
                else np.linspace(float(lo), float(hi), args.points))
        ends = (lo, hi) if args.points > 1 else (lo,)
        a, b = sorted((lo, hi))
        ns = sorted({*ends, *(min(max(int(round(v)), a), b) for v in grid[1:-1])})
    rows = []
    for N in ns:
        plan = search_mod.plan_search(spec, N, M=args.m_copies, lambda0=args.lam)
        rows.append(_search_row(plan, search_mod.run_search(plan, spec)))
    payload = {"points": [dict(zip(SEARCH_COLUMNS, row)) for row in rows]}
    _emit(args, SEARCH_COLUMNS, rows, payload)
    return EXIT_OK


def cmd_tolerance(args) -> int:
    spec = graph.load_spec(args.spec)
    N = _single_n(args)
    M = args.m_copies
    plan = search_mod.plan_search(spec, N, M=M, lambda0=args.lam)
    lam, c = plan.lambda0, plan.c
    if args.delta_grid == "auto":
        unit = c * math.sqrt(2.0 * M / N)
        deltas = [0.0, 0.5 * unit, 1.0 * unit, 1.5 * unit]
    else:
        try:
            deltas = [float(v) for v in args.delta_grid.split(",")]
            if not all(math.isfinite(d) for d in deltas):
                raise ValueError
        except ValueError:
            raise SpecError(f"--delta-grid must be \"auto\" or a comma list of finite "
                            f"numbers, got {args.delta_grid!r}") from None
    profiles = tol_mod.tolerance_sweep(spec, N, M, lam, deltas)
    rows = [[p.N, p.M, p.delta, p.t, p.epsilon0.real, p.epsilon0.imag,
             p.m_naive, p.m_compensated, p.P_measured_naive, p.P_measured_comp,
             p.P_predicted_naive, p.P_predicted_comp] for p in profiles]
    payload = {"lambda0": [lam.real, lam.imag],
               "c": c,
               "profiles": [dict(zip(TOLERANCE_COLUMNS, row)) for row in rows]}
    _emit(args, TOLERANCE_COLUMNS, rows, payload)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    spec = graph.load_spec(args.spec)
    N = _single_n(args)
    M = args.m_copies
    nstates = 2 * N + M * spec.n_interior
    if nstates > ORACLE_MAX_STATES or args.steps < 0:
        raise SpecError(f"oracle-check takes --steps >= 0 and at most {ORACLE_MAX_STATES} "
                        f"full-graph states (2N + M*n); got --steps {args.steps}, "
                        f"{nstates} states")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise SpecError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    plan = search_mod.plan_search(spec, N, M=M)
    Uc = graph.build_collapsed(spec, graph.hub_coefficients(N, M=M), plan.phi)
    Uf = graph.build_full(spec, N, M=M, phi=plan.phi)
    state_c = plan.initial
    state_f = graph.lift_collapsed_state(spec, state_c, N, M)
    worst = 0.0
    for _ in range(args.steps):
        state_c = Uc.matrix @ state_c
        state_f = graph.apply(Uf, state_f)
        restricted, leak = graph.restrict_full_state(spec, state_f, N, M)
        dev = float(np.linalg.norm(restricted - state_c))
        worst = max(worst, dev, leak)
    print(f"oracle-check: N={N} M={M} steps={args.steps} max deviation = {worst:.3e}")
    if worst > args.tol:
        print(f"oracle-check FAILED: deviation {worst:.3e} > {args.tol:.1e}",
              file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


def cmd_demo(args) -> int:
    spec = graph.load_spec("bolo")
    print("Demo: search on a 10^6-edge star with the bundled 'bolo' subgraph.")
    cls = spectral.right_classifications(spec)
    print("Right-block eigenvalues and coupling constants:")
    for cl in cls:
        tag = f"c = {cl.c:.6f}" if cl.c is not None else "bound only (no hub contact)"
        print(f"  lambda0 = {cl.lambda0:+.6f}   {tag}   ({cl.n_bound} bound)")
    best, d = spectral.best_target(cls)
    print(f"Best target: lambda0 = {best.lambda0:+.3f} with c = {best.c:.6f} "
          f"(d = {d} active eigenvalues, sum c^2 = 2).")
    plan = search_mod.plan_search(spec, 10 ** 6, lambda0="auto")
    print(f"Plan: phi = {plan.phi:.3f}, branch = {plan.branch:+d}, "
          f"m = {plan.m} steps, predicted success = {plan.predicted_success:.3f}.")
    result = search_mod.run_search(plan, spec)
    print(f"After {plan.m} steps: p_marked = {result.p_marked:.4f}, "
          f"p_null = {result.p_null:.4f}, p_unmarked = {result.p_unmarked:.4f}.")
    counts = search_mod.sample_measurement(result, seed=args.seed, shots=10000)
    print(f"10000 simulated measurements: {counts}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token that starts with "-" as an option unless it is
        # a plain negative number; no option here starts "-<digit>", so widen
        # that rule and "--lambda -1,0" parses like "--lambda=-1,0"
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        """A usage error: one line on stderr and exit 2, without the usage dump."""
        self.exit(EXIT_SPEC, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="starwalk",
        description="Quantum-walk search on star graphs with a marked subgraph")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n=True, fmt="csv"):
        """The spec, then --n/--m-copies and, with a default --format, --out."""
        p.add_argument("spec", help="subgraph JSON file or bundled name (grover, bolo)")
        if n:
            p.add_argument("--n", required=True,
                           help="hub degree N (digits or <digits>e<digits>), or A..B for sweeps")
            p.add_argument("--m-copies", type=int, default=1, metavar="INT",
                           help="number of marked copies M (default 1)")
        if fmt:
            p.add_argument("--out", default=None, help="output path stem")
            p.add_argument("--format", choices=("json", "csv"), default=fmt)

    p = sub.add_parser("analyze", help="spectral report for a subgraph")
    common(p, n=False, fmt="json")
    p.add_argument("--phi", type=float, default=None,
                   help="reflector phase (default: matched per eigenvalue)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="plan and run one search")
    common(p)
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, default="auto",
                   metavar='auto|"re,im"')
    p.add_argument("--shots", type=int, default=0,
                   help="measurement samples to draw (0 = none)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="scan N and log success rows")
    common(p)
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, default="auto",
                   metavar='auto|"re,im"')
    p.add_argument("--points", type=int, default=10, help=f"grid points, 1..{SWEEP_MAX_POINTS}")
    p.add_argument("--log", action="store_true", help="log-spaced N grid")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tolerance", help="detuning sweep")
    common(p)
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, default="auto",
                   metavar='auto|"re,im"')
    p.add_argument("--delta-grid", default="auto",
                   help='comma list of detunings, or "auto" for '
                        "{0, 0.5, 1, 1.5} x c*sqrt(2M/N), the t = 1/2 boundary at 1")
    p.set_defaults(func=cmd_tolerance)

    p = sub.add_parser("oracle-check", help="full vs collapsed regression check",
                       description=f"Full vs collapsed regression check on at most "
                       f"{ORACLE_MAX_STATES:,} full-graph states (2N + M*n, 16 B each per array).")
    common(p, fmt=None)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--tol", type=float, default=ORACLE_TOL)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("demo", help="narrated end-to-end run on 'bolo'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("STARWALK_LOG", "warning").lower()
    logging.basicConfig(level=level.upper() if level in LOG_LEVELS else logging.WARNING,
                        stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()          # a closed stdout raises here, not at exit
        return code
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except NumericsError as exc:
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except BrokenPipeError:
        # the reader went away (``starwalk demo | head -1``); point stdout at
        # devnull so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


def entry() -> int:
    """Process entry of ``python -m starwalk.cli`` and the ``starwalk`` script: the
    interpreter's final collections skip the import-time heap frozen here."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(entry())
