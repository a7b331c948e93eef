"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import cmath
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import starwalk as sw
from starwalk.spectral import embed_left, embed_right

from conftest import random_spec
from test_spectral import affine_residual, dense_monodromy


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"\ncriterion {num:2d} FAIL: {desc}")
        raise
    print(f"\ncriterion {num:2d} PASS: {desc}")


def test_c01_bolo_reproduction(bolo_spec):
    with criterion(1, "five-state fixture: eigenvalues, c table, m=1813, "
                      "p_marked=0.75 +- 0.01, < 1 s"):
        t0 = time.perf_counter()
        A = sw.right_block(bolo_spec)
        vals = np.sort_complex(np.linalg.eigvals(A))
        expected = np.sort_complex(np.array(
            [-1, -1, 1, (1 + 2j * math.sqrt(2)) / 3, (1 - 2j * math.sqrt(2)) / 3]))
        assert np.max(np.abs(vals - expected)) < 1e-9

        want_c = {
            (-1.0, 0.0): math.sqrt(3.0 / 4.0),
            (1.0, 0.0): math.sqrt(1.0 / 2.0),
            (1.0 / 3.0, 2.0 * math.sqrt(2) / 3.0): math.sqrt(3.0 / 8.0),
            (1.0 / 3.0, -2.0 * math.sqrt(2) / 3.0): math.sqrt(3.0 / 8.0),
        }
        cls = sw.right_classifications(bolo_spec)
        for (re, im), c in want_c.items():
            got = min(cls, key=lambda cl: abs(cl.lambda0 - complex(re, im)))
            assert abs(got.lambda0 - complex(re, im)) < 1e-9
            assert abs(got.c - c) < 1e-9

        best, _ = sw.best_target(cls)
        assert abs(best.lambda0 - (-1.0)) < 1e-9

        plan = sw.plan_search(bolo_spec, 10 ** 6)
        assert plan.m == 1813
        result = sw.run_search(plan, bolo_spec)
        assert abs(result.p_marked - 0.75) < 0.01
        assert time.perf_counter() - t0 < 1.0


def test_c02_grover_reproduction(grover_spec):
    with criterion(2, "two-state fixture: U(eps) spectrum closed form to 1e-10; "
                      "success >= 1 - 5/sqrt(N)"):
        for eps in (1e-2, 1e-4):
            N = int(round(1 / eps))
            U = sw.build_collapsed(grover_spec, sw.hub_coefficients(N), 0.0)
            got = np.linalg.eigvals(U.matrix)
            z = 1 - 2 * eps + 2j * math.sqrt(eps - eps * eps)
            roots = [cmath.sqrt(z), -cmath.sqrt(z),
                     cmath.sqrt(z.conjugate()), -cmath.sqrt(z.conjugate())]
            for r in roots:
                assert np.min(np.abs(got - r)) < 1e-10

        for N in (10 ** 2, 10 ** 4):
            plan = sw.plan_search(grover_spec, N)
            assert plan.m == math.floor(0.5 * math.pi * math.sqrt(N))
            result = sw.run_search(plan, grover_spec)
            assert result.p_marked >= 1.0 - 5.0 / math.sqrt(N)


def test_c03_oracle_equivalence(grover_spec, bolo_spec):
    with criterion(3, "full vs collapsed evolution < 1e-10 per step, 200 steps, "
                      "N in {4,8,16,32}, M in {1,2}, < 10 s"):
        t0 = time.perf_counter()
        for spec in (grover_spec, bolo_spec):
            best, _ = sw.best_target(sw.right_classifications(spec))
            phi, branch = best.phi, best.branch
            for N in (4, 8, 16, 32):
                for M in (1, 2):
                    Uc = sw.build_collapsed(spec, sw.hub_coefficients(N, M=M), phi)
                    Uf = sw.build_full(spec, N, M=M, phi=phi)
                    sc = sw.initial_state(spec, N, M, branch, phi)
                    sf = sw.lift_collapsed_state(spec, sc, N, M)
                    for _ in range(200):
                        sc = Uc.matrix @ sc
                        sf = sw.apply(Uf, sf)
                        restricted, leak = sw.restrict_full_state(spec, sf, N, M)
                        dev = np.linalg.norm(restricted - sc)
                        assert max(dev, leak) < 1e-10
        assert time.perf_counter() - t0 < 10.0


def test_c04_affine_char_poly(grover_spec, bolo_spec):
    with criterion(4, "characteristic polynomial linear in eps: residual < 1e-10 "
                      "at 20 random unit-circle z"):
        rng = np.random.default_rng(4)
        zs = np.exp(2j * math.pi * rng.uniform(size=20))
        eps = [0.01, 0.04 + 0.03j, 0.08, -0.05 + 0.02j, 0.06j, 0.095]
        for spec in (grover_spec, bolo_spec):
            for phi in (0.0, 0.9):
                assert affine_residual(spec, phi, zs, eps) < 1e-10


def test_c05_pairing_form(grover_spec, bolo_spec):
    with criterion(5, "paired eigenvalues lambda0*e^{+-ic sqrt(eps)}: c_fit "
                      "within 1e-3, remainder slope >= 0.9"):
        targets = [
            (grover_spec, 1.0 + 0j, 1.0),
            (grover_spec, -1.0 + 0j, 1.0),
            (bolo_spec, -1.0 + 0j, math.sqrt(3.0 / 4.0)),
            (bolo_spec, 1.0 + 0j, math.sqrt(1.0 / 2.0)),
        ]
        for spec, lam, c in targets:
            phi, _ = sw.matched_phi(lam)
            fit = sw.pairing_fit(spec, phi, lam)   # default grid [1e-10, 1e-6]
            assert fit.case == "paired"
            assert abs(fit.c_fit - c) < 1e-3
            assert fit.residual_slope >= 0.9


def test_c06_monodromy(grover_spec, bolo_spec):
    with criterion(6, "monodromy: matched phi gives the expected 2-cycles, "
                      "detuned gives identity, cycles in {1,2} on 50 random specs"):
        assert sorted(sw.monodromy(grover_spec, 0.0).cycle_lengths) == [2, 2]
        assert sorted(sw.monodromy(bolo_spec, 0.0).cycle_lengths) == [1, 1, 1, 2, 2]
        for spec in (grover_spec, bolo_spec):
            rep = sw.monodromy(spec, 0.2)   # delta = 0.1 detuning of phi = 0
            assert rep.permutation == tuple(range(spec.dim_collapsed))
        rng = np.random.default_rng(6)
        for _ in range(50):
            spec = random_spec(rng)
            best, _ = sw.best_target(sw.right_classifications(spec))
            phi = best.phi
            rep = sw.monodromy(spec, phi)
            assert set(rep.cycle_lengths) <= {1, 2}
            assert sorted(rep.cycle_lengths) == dense_monodromy(spec, phi)


def test_c07_sum_rule(grover_spec, bolo_spec):
    with criterion(7, "sum of c^2 over active eigenvalues = 2 within 1e-9; "
                      "max c >= sqrt(2/d)"):
        rng = np.random.default_rng(7)
        specs = [grover_spec, bolo_spec] + [random_spec(rng) for _ in range(20)]
        for spec in specs:
            actives = [cl for cl in sw.right_classifications(spec)
                       if cl.c is not None]
            assert abs(sum(cl.c ** 2 for cl in actives) - 2.0) < 1e-9
            d = len(actives)
            assert max(cl.c for cl in actives) >= math.sqrt(2.0 / d) - 1e-12


def test_c08_even_split(grover_spec, bolo_spec):
    with criterion(8, "paired eigenvectors: left mass 0.5 +- 0.02 and distance "
                      "to (l0 +- r0)/sqrt(2) scaling as sqrt(eps)"):
        for spec, lam in ((grover_spec, 1.0 + 0j), (bolo_spec, -1.0 + 0j)):
            phi, branch = sw.matched_phi(lam)
            dim = spec.dim_collapsed
            cl = sw.classify_right(spec, lam)
            l0 = embed_left(sw.left_active(phi, branch), dim)
            r0 = embed_right(cl.active_vector, dim)
            dist = {+1: [], -1: []}
            for eps in (1e-4, 1e-6):
                _, vp, _, vm = sw.paired_vectors(spec, phi, lam, eps)
                # relative left/right phase read off the plus vector
                psi = cmath.phase(complex(np.vdot(r0, vp))) - \
                    cmath.phase(complex(np.vdot(l0, vp)))
                for sign, v in ((+1, vp), (-1, vm)):
                    assert abs(abs(v[0]) ** 2 + abs(v[1]) ** 2 - 0.5) < 0.02
                    target = (l0 + sign * cmath.exp(1j * psi) * r0) / math.sqrt(2)
                    ov = complex(np.vdot(target, v))
                    aligned = v * cmath.exp(-1j * cmath.phase(ov))
                    dist[sign].append(float(np.linalg.norm(aligned - target)))
            for sign in (+1, -1):
                slope = (math.log(dist[sign][0]) - math.log(dist[sign][1])) / \
                    (math.log(1e-4) - math.log(1e-6))
                assert abs(slope - 0.5) < 0.1


def test_c09_tolerance_boundary(grover_spec):
    with criterion(9, "naive schedule survives delta = 0.9*c*sqrt(2/N); "
                      "t = 1/2 prediction 0.587 +- 0.01; gaps <= 0.05"):
        N = 10 ** 4
        c = 1.0
        boundary = c * math.sqrt(2.0 / N)
        grid = [0.0, 0.25 * boundary, 0.5 * boundary, 0.75 * boundary,
                0.9 * boundary, boundary]
        rows = sw.tolerance_sweep(grover_spec, N, 1, -1.0 + 0j, grid,
                                  locate_eps0=False)
        for r in rows:
            assert abs(r.P_measured_naive - r.P_predicted_naive) <= 0.05
            assert abs(r.P_measured_comp - r.P_predicted_comp) <= 0.05
        assert rows[4].P_measured_naive > 0.5            # 0.9x the boundary
        assert abs(rows[5].t - 0.5) < 1e-12
        assert abs(rows[5].P_predicted_naive - 0.587) < 0.01


def test_c10_double_root_drift(grover_spec):
    with criterion(10, "double root drifts to 1/2 - 1/(2cos(delta)) within 1e-8; "
                       "quadratic law -(delta/2c)^2 to 10%"):
        for delta in (0.02, 0.05, 0.1):
            eps0 = sw.locate_double_root(grover_spec, 1.0 + 0j, delta)
            exact = 0.5 - 1.0 / (2.0 * math.cos(delta))
            assert abs(eps0 - exact) < 1e-8
        deltas = np.array([0.02, 0.04, 0.06, 0.08, 0.1])
        mags = [abs(sw.locate_double_root(grover_spec, 1.0 + 0j, d)) for d in deltas]
        slope, intercept = np.polyfit(np.log(deltas), np.log(mags), 1)
        assert abs(slope - 2.0) < 0.1
        assert abs(math.exp(intercept) - 0.25) < 0.025   # (1/2c)^2 with c = 1


def test_c11_hub_invariants():
    with criterion(11, "diffusive hub: unitarity/consistency invariants to 1e-12"):
        for N, M in ((2, 1), (10, 1), (100, 1), (100, 3), (1000, 2), (10 ** 12, 7)):
            hub = sw.hub_coefficients(N, M=M)
            r, t = hub.r, hub.t
            assert abs(abs(r) ** 2 + (N - 1) * abs(t) ** 2 - 1) < 1e-12
            assert abs(2 * (r.conjugate() * t).real + (N - 2) * abs(t) ** 2) < 1e-12
            for R in (hub.R_L, hub.R_R):
                assert abs(abs(R) ** 2 + abs(hub.T) ** 2 - 1) < 1e-12
            assert abs(hub.T ** 2 - hub.R_R * hub.R_L - 1) < 1e-12
