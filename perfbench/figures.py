"""Reference figures outside the workloads: sizes too slow to run every time.

    python3 perfbench/figures.py --seed 1

Times one ``spectral_report`` at dim_right 98 and 162 (seeded arm specs) and
one ``tolerance_sweep`` of grover at N = 1e12 (one detuning), single runs,
one BLAS thread.  Takes about three minutes on a 2-CPU machine.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    sys.path.insert(0, SRC)
    import numpy as np
    import starwalk as sw
    import specgen

    rng = np.random.default_rng(args.seed)
    out_dir = os.path.join(HERE, ".out", "figures")
    figures = {}
    for arms in (48, 80):
        ((_, path, _),) = specgen.write_specs([(f"arms{arms}", specgen.arm_spec(rng, arms))],
                                              out_dir)
        spec = sw.load_spec(path)
        t = time.perf_counter()
        sw.spectral_report(spec)
        figures[f"spectral_report d={spec.dim_right} s"] = time.perf_counter() - t
    grover = sw.load_spec("grover")
    N = 10 ** 12
    t = time.perf_counter()
    sw.tolerance_sweep(grover, N, 1, -1 + 0j, [0.5 * math.sqrt(2.0 / N)], locate_eps0=False)
    figures["tolerance_sweep grover N=1e12, one delta s"] = time.perf_counter() - t
    print(json.dumps(figures, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
