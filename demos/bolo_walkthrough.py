"""End-to-end walkthrough: searching a million-edge star for a five-state
"bolo" subgraph (a vertex with a pendant arm and a self-loop).

Every step prints what the theory predicts next, then verifies it numerically:

1. eigenvalues of the attached structure and their bound/active split;
2. the coupling constants c and the sum rule sum c^2 = 2;
3. choosing the best eigenvalue, matching the reflector phase to it;
4. the sqrt(eps) eigenvalue pairing that powers the search;
5. running the walk for m = floor(pi sqrt(N) / 2c) steps and measuring.

Run:  python3 demos/bolo_walkthrough.py
"""
import math

import numpy as np

import starwalk as sw
from starwalk.graph import RESERVED_LABELS


def main() -> None:
    spec = sw.load_spec("bolo")
    N = 10 ** 6

    print("=== 1. Spectrum of the attached structure ===")
    print(f"right-side basis: {RESERVED_LABELS[2:] + spec.interior}")
    cls = sw.right_classifications(spec)
    for cl in cls:
        tag = (f"active, c = {cl.c:.6f}" if cl.c is not None
               else "bound only (never sees the hub)")
        print(f"  lambda0 = {cl.lambda0:+.6f}  [{cl.n_bound} bound]  {tag}")

    print("\n=== 2. Sum rule ===")
    total = sum(cl.c ** 2 for cl in cls if cl.c is not None)
    print(f"sum of c^2 over active eigenvalues = {total:.12f} (theory: 2)")

    print("\n=== 3. Best target and matched phase ===")
    best, d = sw.best_target(cls)
    lam, c, phi, branch = best.lambda0, best.c, best.phi, best.branch
    print(f"largest coupling: lambda0 = {lam:+.3f}, c = {c:.6f} "
          f"(of d = {d} candidates)")
    print(f"reflector phase phi = {phi:.6f}, branch = {branch:+d} puts a left "
          f"eigenvalue exactly on lambda0")

    print("\n=== 4. Eigenvalue pairing ===")
    fit = sw.pairing_fit(spec, phi, lam)
    print(f"case: {fit.case}; fitted c = {fit.c_fit:.6f} "
          f"(analytic {c:.6f}); remainder slope {fit.residual_slope:.2f} "
          f"(O(eps) remainder -> slope ~1)")
    eps = 1e-4
    lp, vp, lm, vm = sw.paired_vectors(spec, phi, lam, eps)
    print(f"at eps = {eps:g}: pair at {lp:+.6f} / {lm:+.6f}")
    print(f"predicted:        {lam * np.exp(1j * c * math.sqrt(eps)):+.6f} / "
          f"{lam * np.exp(-1j * c * math.sqrt(eps)):+.6f}")
    left_mass = abs(vp[0]) ** 2 + abs(vp[1]) ** 2
    print(f"left mass of the plus vector = {left_mass:.4f} (theory: 0.5)")

    print(f"\n=== 5. The search at N = {N} ===")
    plan = sw.plan_search(spec, N)
    print(f"m = {plan.m} steps; predicted success = hub mass of the active "
          f"right vector = {plan.predicted_success:.4f}")
    result = sw.run_search(plan, spec)
    print(f"after {plan.m} steps: p_marked = {result.p_marked:.4f}, "
          f"p_null = {result.p_null:.4f}, p_unmarked = {result.p_unmarked:.4f}")
    counts = sw.sample_measurement(result, seed=1, shots=10_000)
    print(f"10000 shots: {counts}")
    print(f"\nclassical search would need ~{N // 2} queries; "
          f"the walk used {plan.m}.")


if __name__ == "__main__":
    main()
