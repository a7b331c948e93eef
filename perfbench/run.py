"""starwalk benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload search_scan --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Builds nothing: the program is imported from ``src/`` of the checkout this
file sits in, and the run fails if that source tree is missing.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  See README.md for what each measures.
"""
import time

_T0 = time.perf_counter()   # set-up is timed from here: imports, inputs, warm-up

import os  # noqa: E402

# One BLAS thread, so that no process competes with its own BLAS threads for
# a small machine's CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# The benchmark's own modules (checks, spans, workloads) import numpy and
# scipy, so they are imported only after the program, whose import is timed
# in a clean interpreter.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

WORKLOADS = ("spectral_ladder", "search_scan", "tolerance_drift", "cli_cold")
SETUP_PROBES = 4           # fresh-process set-ups besides this process's own
FASTEST_MIN_REPS = 20
END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import starwalk from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "starwalk", "__init__.py")):
        sys.exit(f"benchmark: no program source at {SRC}/starwalk")
    sys.path.insert(0, SRC)
    t = time.perf_counter()     # numpy and scipy are not imported yet
    import starwalk
    import starwalk.cli  # noqa: F401
    import_s = time.perf_counter() - t
    if not os.path.abspath(starwalk.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: imported starwalk from {starwalk.__file__}, not {SRC}")
    return starwalk, import_s


def set_up(args):
    """Import, make inputs, run one discarded warm-up operation."""
    sw, import_s = import_program()
    import spans
    import workloads
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.on = True        # set-up spans: spec loading, the warm-up
    out_dir = os.path.join(OUT, args.workload)
    if args.workload == "cli_cold":
        runner = workloads.CliRunner(SRC, ROOT, in_process=tracer is not None)
        ops = workloads.cli_cold(runner, args.seed, SRC, out_dir)
    else:
        ops = getattr(workloads, args.workload)(sw, args.seed, SRC, out_dir)
    (ops[0].warm_up or ops[0].run)()
    if tracer is not None:
        tracer.on = False
    return ops, tracer, import_s


def probe_setups(args) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"benchmark: set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_round(ops, tracer, round_no: int, traced: bool) -> dict:
    latencies, failed, unexpected, out_bytes = [], 0, [], 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.round, tracer.op, tracer.on = round_no, i, traced
        error = None
        t = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:      # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.on = False
        if error is None:
            try:
                op.check(result)
            except Exception as exc:  # a wrong or unreadable output fails the operation
                error = f"check failed: {type(exc).__name__}: {exc}"
            out_bytes += getattr(result, "output_bytes", 0)
        if error is not None:
            failed += 1
            if not op.known_fault:
                unexpected.append(f"{op.name}: {error}")
    return {"latencies": latencies, "failed": failed, "unexpected": unexpected,
            "traced": traced, "output_bytes": out_bytes}


def timed_phase(ops, seconds: float, tracer) -> list[dict]:
    """Whole rounds, as many as fit in ``seconds`` at the mean round time so far.

    With a tracer, rounds alternate untraced/traced (at least one of each),
    so the tracing overhead is measured under the same conditions.
    """
    rounds = []
    start = time.perf_counter()
    need = 2 if tracer is not None else 1
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(ops, tracer, len(rounds), traced))
        elapsed = time.perf_counter() - start
        if len(rounds) >= need and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def per_op_latency(rounds: list[dict]) -> list[float]:
    """Each operation's latency in the run, one value per operation.

    The host's speed drifts by tens of percent over tens of seconds.  An
    operation repeated at least ``FASTEST_MIN_REPS`` times takes its fastest
    repetition, as timeit does: short operations repeat often enough to catch
    the host at full speed in almost every run.  Fewer repetitions (long
    operations, such as a CLI process) rarely all do, and their median
    repeats better from run to run.
    """
    reps = list(zip(*(r["latencies"] for r in rounds)))
    if len(rounds) >= FASTEST_MIN_REPS:
        return [min(p) for p in reps]
    return [statistics.median(p) for p in reps]


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def run_workload(args) -> dict:
    ops, tracer, import_s = set_up(args)
    setup_own = time.perf_counter() - _T0
    if args.probe_setup:
        return {"setup_s": setup_own}
    setups = [setup_own] + probe_setups(args)
    rounds = timed_phase(ops, args.seconds, tracer)
    with open(os.path.join(OUT, f"rounds-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"ops": [op.name for op in ops], "setups": setups,
                   "latencies": [r["latencies"] for r in rounds]}, fh)
    unexpected = [u for r in rounds for u in r["unexpected"]]
    for msg in sorted(set(unexpected)):
        print(f"FAILED {msg}", file=sys.stderr)
    result = {"correct": not unexpected, "attempted": len(ops) * len(rounds),
              "failed": sum(r["failed"] for r in rounds)}
    if tracer is None:
        latency = per_op_latency(rounds)
        values = {"wall_s": sum(latency),
                  "op_p50_ms": statistics.median(latency) * 1e3,
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb(args.workload == "cli_cold")}
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    else:
        import spans
        traced = [i for i, r in enumerate(rounds) if r["traced"]]
        plain = sum(per_op_latency([r for r in rounds if not r["traced"]]))
        overhead = 100.0 * (sum(per_op_latency([rounds[i] for i in traced])) - plain) / plain
        result["metrics"] = spans.per_layer(
            tracer, traced, import_s, [rounds[i]["output_bytes"] for i in traced], overhead)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    return result


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"benchmark: workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        res = results[name]
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:42s} {v['value']:>14.6g} {v['unit']}")
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        if not args.probe_setup:
            with open(os.path.join(
                    OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                    "w") as fh:
                json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
