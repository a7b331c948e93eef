import cmath
import logging
import math

import numpy as np
import pytest

import starwalk as sw
from starwalk import spectral
from starwalk.spectral import embed_left, embed_right, left_active
from starwalk.tolerance import SMALL_ANGLE_GUARD

import exact
from conftest import random_spec


class TestDetunedPhase:
    def test_small_offset(self):
        # matched phase for lambda0 = -1 is 0, so detuning shifts it to 2*delta
        phi = sw.detuned_phase(-1.0 + 0j, 0.001)
        assert abs(phi - 0.002) < 1e-15

    def test_moves_left_eigenvalue_by_delta(self):
        lam0 = cmath.exp(0.7j)
        delta = 0.01
        phi = sw.detuned_phase(lam0, delta)
        _, branch = sw.matched_phi(lam0)
        lam_left = branch * cmath.exp(0.5j * phi)
        assert abs(lam_left - lam0 * cmath.exp(1j * delta)) < 1e-12

    def test_warns_outside_small_angle_regime(self, caplog):
        with caplog.at_level(logging.WARNING, logger="starwalk.tolerance"):
            sw.detuned_phase(-1.0 + 0j, SMALL_ANGLE_GUARD + 0.1)
        assert any("small-angle" in r.message for r in caplog.records)


class TestTuningParameter:
    def test_value(self):
        # delta^2/(4 c^2 eps) with c=1, eps=1e-4
        assert abs(sw.tuning_t(0.01, 1.0, 10 ** 4) - 0.25) < 1e-12

    def test_scales_with_copies(self):
        assert abs(sw.tuning_t(0.01, 1.0, 10 ** 4, M=4) - 0.0625) < 1e-12

    def test_predicted_success_values(self):
        assert abs(sw.predicted_success_naive(0.0) - 1.0) < 1e-12
        assert abs(sw.predicted_success_compensated(0.0) - 1.0) < 1e-12
        # the 50% boundary value at t = 1/2
        assert abs(sw.predicted_success_naive(0.5) - 0.587) < 0.01
        assert sw.predicted_success_naive(0.5) > 0.5
        assert abs(sw.predicted_success_compensated(0.5) - 2.0 / 3.0) < 1e-12

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            sw.predicted_success_naive(-0.1)
        with pytest.raises(ValueError):
            sw.predicted_success_compensated(-0.1)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_coupling_not_finite_positive(self, c):
        with pytest.raises(sw.SpecError, match="coupling constant c must be finite and positive"):
            sw.tuning_t(0.1, c, 100)

    def test_infinite_t_is_the_limit(self):
        # a huge detuning overflows t to inf; both predictions go to 0
        assert sw.tuning_t(1e300, 1.0, 10 ** 6) == math.inf
        assert sw.predicted_success_naive(math.inf) == 0.0
        assert sw.predicted_success_compensated(math.inf) == 0.0

    def test_rejects_nan_t(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sw.predicted_success_naive(math.nan)
        with pytest.raises(ValueError, match="nonnegative"):
            sw.predicted_success_compensated(math.nan)


class TestLocateDoubleRoot:
    def test_matched_phase_root_at_zero(self, grover_spec, bolo_spec):
        for spec, lam in ((grover_spec, -1.0 + 0j), (bolo_spec, -1.0 + 0j)):
            eps0 = sw.locate_double_root(spec, lam, 0.0)
            assert abs(eps0) < 1e-8

    def test_zero_detuning_is_exactly_zero_on_every_family(self):
        # a complex lambda0's matched phase is a float whose e^{i phi/2} misses lambda0 by
        # ~1e-16; the family's own left pole is lambda0 itself, so no drift is left over
        specs = [sw.load_spec("bolo"), sw.load_spec("grover")]
        specs += [random_spec(np.random.default_rng(s), arms=3) for s in range(1, 6)]
        families = 0
        for spec in specs:
            for cl in sw.right_classifications(spec):
                if cl.c is not None:
                    sec, k, _ = spectral._family(spec, cl, 0.0)
                    assert sec.poles[0] == sec.poles[k] == cl.lambda0
                    assert sw.locate_double_root(spec, cl.lambda0, 0.0) == 0, cl.lambda0
                    families += 1
        assert families == 40 + 4 + 2       # the seeded specs', bolo's and grover's

    @pytest.mark.parametrize("delta", [0.02, 0.05, 0.1])
    def test_closed_form(self, grover_spec, delta):
        """For the two-state attachment the drifted double root has the exact
        closed form 1/2 - 1/(2 cos(delta))."""
        eps0 = sw.locate_double_root(grover_spec, -1.0 + 0j, delta)
        exact = 0.5 - 1.0 / (2.0 * math.cos(delta))
        assert abs(eps0 - exact) < 1e-8

    def test_quadratic_drift_law(self, grover_spec):
        # eps0 ~ -(delta/2c)^2 with c=1: slope 2, coefficient 1/4
        deltas = np.array([0.02, 0.04, 0.06, 0.08, 0.1])
        mags = []
        for d in deltas:
            eps0 = sw.locate_double_root(grover_spec, -1.0 + 0j, d)
            assert abs(eps0.imag) < 1e-8       # drift stays on the real axis here
            assert eps0.real < 0
            mags.append(abs(eps0))
        slope, intercept = np.polyfit(np.log(deltas), np.log(mags), 1)
        assert abs(slope - 2.0) < 0.1
        assert abs(math.exp(intercept) - 0.25) < 0.025

    def test_bolo_drift(self, bolo_spec):
        delta = 0.05
        c = math.sqrt(3.0 / 4.0)
        eps0 = sw.locate_double_root(bolo_spec, -1.0 + 0j, delta)
        assert abs(eps0 - (-(delta / (2 * c)) ** 2)) < 2e-4


    @pytest.mark.parametrize("lam, delta, expected", [(1.0, 1e-2, -5.0e-5),
                                                      (-1.0, 1e-3, -1.0 / 3.0e6)])
    def test_bolo_follows_the_requested_family(self, bolo_spec, lam, delta, expected):
        # +1 (c^2 = 1/2) and -1 (c^2 = 3/4) both pair: each keeps its own law
        eps0 = sw.locate_double_root(bolo_spec, lam, delta)
        assert abs(eps0 / expected - 1.0) < 0.01

    def test_matches_60_digit_reference(self, bolo_spec):
        # the same poles in mpmath (exact.py): every active family of bolo and three seeded
        # specs at N = 1e8 and 1e12, t = 1/8; a left pole built from a float phase
        # phi0 + 2 delta puts eps0 4.4e-9 off, lambda0*e^{i delta} 1.1e-9
        specs = [bolo_spec] + [random_spec(np.random.default_rng(s), arms=3) for s in (1, 2, 3)]
        errors = []
        for spec in specs:
            for cl in sw.right_classifications(spec):
                for N in (10 ** 8, 10 ** 12) if cl.c is not None else ():
                    delta = 0.5 * cl.c * math.sqrt(2.0 / N)
                    sec, k, _ = spectral._family(spec, cl, delta)
                    theta, eps0 = sec.branch_point(k, 0)
                    assert sw.locate_double_root(spec, cl.lambda0, delta) == eps0
                    ref = exact.double_root(spec, cl, delta, theta)
                    errors.append(abs(eps0 - ref) / abs(ref))
        assert len(errors) == 56
        assert max(errors) <= 2e-9
        assert np.median(errors) <= 1e-11

    @pytest.mark.parametrize("N", [10 ** 12, 10 ** 20])
    @pytest.mark.parametrize("lam", [1.0 + 0j, -1.0 + 0j])
    def test_drift_law_at_huge_n(self, grover_spec, bolo_spec, N, lam):
        for spec in (grover_spec, bolo_spec):
            c = sw.classify_right(spec, lam).c
            delta = c * math.sqrt(2.0 / N)
            eps0 = sw.locate_double_root(spec, lam, delta)
            assert abs(eps0 / -(delta / (2.0 * c)) ** 2 - 1.0) < 1e-6

    def test_no_dense_eigensolver_once_classified(self, bolo_spec, monkeypatch):
        import scipy.linalg
        sw.right_classifications(bolo_spec)

        def forbidden(*args, **kwargs):
            raise AssertionError("dense eigensolver called")
        for module, name in ((np.linalg, "eig"), (np.linalg, "eigvals"), (np.linalg, "eigh"),
                             (scipy.linalg, "schur")):
            monkeypatch.setattr(module, name, forbidden)
        assert sw.locate_double_root(bolo_spec, -1.0, 1e-3) != 0

    def test_rejects_inactive_lambda(self):
        from test_spectral import _decoupled_spec
        with pytest.raises(ValueError, match="no active"):
            sw.locate_double_root(_decoupled_spec(), cmath.exp(0.5j), 0.0)


def _mass(s: np.ndarray) -> float:
    """The norm of a state as ``run_search`` reads it: its marked, null and unmarked masses."""
    p = (np.abs(s) ** 2).tolist()
    return p[2] + p[3] + sum(p[4:], 0.0) + (p[0] + p[1])


class TestToleranceSweep:
    def test_measured_matches_predicted(self, grover_spec):
        N = 10 ** 4
        c = 1.0
        boundary = c * math.sqrt(2.0 / N)
        grid = [0.0, 0.5 * boundary, 0.9 * boundary, boundary]
        rows = sw.tolerance_sweep(grover_spec, N, 1, -1.0 + 0j, grid)
        assert len(rows) == 4
        for r in rows:
            assert abs(r.P_measured_naive - r.P_predicted_naive) <= 0.05
            assert abs(r.P_measured_comp - r.P_predicted_comp) <= 0.05
        # inside the boundary the naive schedule stays above 1/2
        assert rows[2].P_measured_naive > 0.5
        # at the boundary t = 1/2 and the prediction is the 0.587 landmark
        assert abs(rows[3].t - 0.5) < 1e-12
        assert abs(rows[3].P_predicted_naive - 0.587) < 0.01
        # compensated schedule runs shorter but converts better
        assert rows[3].m_compensated < rows[3].m_naive
        assert rows[3].P_measured_comp > rows[3].P_measured_naive

    def test_zero_detuning_row(self, bolo_spec):
        rows = sw.tolerance_sweep(bolo_spec, 10 ** 4, 1, -1.0 + 0j, [0.0])
        r = rows[0]
        assert r.t == 0.0
        assert abs(r.epsilon0) < 1e-8
        assert r.m_naive == r.m_compensated
        assert r.P_measured_naive > 0.98
        assert abs(r.P_predicted_naive - 1.0) < 1e-12

    def test_epsilon0_tracks_drift_law(self, grover_spec):
        rows = sw.tolerance_sweep(grover_spec, 10 ** 4, 1, -1.0 + 0j,
                                  [0.02, 0.04])
        for r in rows:
            assert abs(r.epsilon0 - (-(r.delta / 2.0) ** 2)) < 1e-4

    def test_strong_detuning_suppresses_transfer(self, grover_spec):
        # t >> 1: the active pair barely mixes and success collapses to ~1/t
        rows = sw.tolerance_sweep(grover_spec, 10 ** 4, 1, -1.0 + 0j, [0.3],
                                  locate_eps0=False)
        r = rows[0]
        assert r.t > 100
        assert r.P_measured_naive < 0.02
        assert r.P_measured_comp < 0.02

    def test_zero_step_schedule_measures_start_state(self, grover_spec):
        # t ~ 9.3 at N=4 leaves the compensated schedule at 0 steps: the walk
        # is still in |l0>, which has no overlap with |r0>
        r = sw.tolerance_sweep(grover_spec, 4, 1, 1.0 + 0j, [3.05])[0]
        assert r.m_compensated == 0 and r.m_naive == 3
        assert r.P_measured_comp == 0.0

    @pytest.mark.parametrize("name", ["grover", "bolo"])
    def test_rows_are_the_public_composition(self, name):
        # a detuned walk is complex and bit-identical to build_collapsed + evolve;
        # at delta = 0 and lambda0 = +-1 the walk is real and squares in float64;
        # epsilon0 is locate_double_root at the row's own delta
        spec = sw.load_spec(name)
        dim = spec.dim_collapsed
        real_rows = 0
        for cl in sw.right_classifications(spec):
            if cl.c is None:
                continue
            r0 = embed_right(cl.active_vector, dim)
            _, branch = sw.matched_phi(cl.lambda0)
            for N, M in ((100, 1), (10 ** 4, 3), (10 ** 8, 1)):
                rows = sw.tolerance_sweep(spec, N, M, cl.lambda0,
                                          [0.0, 0.003, -0.02, 0.01 + 2.0 * math.pi])
                for row in rows:
                    assert row.epsilon0 == sw.locate_double_root(spec, cl.lambda0, row.delta)
                    phi = sw.detuned_phase(cl.lambda0, row.delta)
                    U = sw.build_collapsed(spec, sw.hub_coefficients(N, M), phi)
                    l0 = embed_left(sw.left_active(phi, branch), dim)
                    comp = sw.evolve(U, l0, row.m_compensated)
                    naive = sw.evolve(U, comp, row.m_naive - row.m_compensated)
                    want = np.array([abs(np.vdot(r0, s)) ** 2 / _mass(s)
                                     for s in (naive, comp)])
                    got = np.array([row.P_measured_naive, row.P_measured_comp])
                    if phi == 0.0:
                        real_rows += 1
                        assert np.max(np.abs(got - want)) <= 2e-15
                    else:
                        assert np.array_equal(got, want)
        assert real_rows > 0

    @pytest.mark.parametrize("name, N", [("grover", 10 ** 6), ("grover", 10 ** 33),
                                         ("bolo", 10 ** 6)])
    def test_naive_schedule_is_the_search_step_count(self, name, N):
        # the naive schedule is the planned search's m at any N, also where its last digits
        # move with the rounding order (grover 1e33 plans 49672941328980496 steps)
        spec = sw.load_spec(name)
        grid = [0.0] if N > 10 ** 12 else [0.0, 0.003, -0.02]
        for cl in sw.right_classifications(spec):
            if cl.c is None:
                continue
            m = sw.plan_search(spec, N, 1, cl.lambda0).m
            rows = sw.tolerance_sweep(spec, N, 1, cl.lambda0, grid, locate_eps0=False)
            assert [row.m_naive for row in rows] == [m] * len(grid)
            assert rows[0].m_compensated == m

    @pytest.mark.parametrize("name", ["grover", "bolo"])
    def test_compensated_schedule_is_the_search_step_count_at_c_sqrt_1_plus_t(self, name):
        # the compensated schedule is the search's floor(pi sqrt(N/M) / 2c) with c*sqrt(1+t)
        spec = sw.load_spec(name)
        grid = [0.0, 0.003, -0.02, 0.1, 1.0, 3.0]
        for cl in sw.right_classifications(spec):
            if cl.c is None:
                continue
            for N, M in ((100, 1), (10 ** 4, 3), (10 ** 12, 1)):
                rows = sw.tolerance_sweep(spec, N, M, cl.lambda0, grid, locate_eps0=False)
                assert [row.m_compensated for row in rows] == [
                    math.floor(math.pi * math.sqrt(N / M) / (2.0 * cl.c * math.sqrt(1.0 + row.t)))
                    for row in rows]

    def test_detuning_is_reduced_mod_two_pi(self, grover_spec):
        near, far = sw.tolerance_sweep(grover_spec, 10 ** 4, 1, -1.0 + 0j,
                                       [0.01, 0.01 + 2.0 * math.pi], locate_eps0=False)
        assert abs(far.delta - 0.01) <= 1e-15
        for name in ("t", "P_predicted_naive", "P_predicted_comp",
                     "P_measured_naive", "P_measured_comp"):
            assert abs(getattr(far, name) - getattr(near, name)) <= 1e-12, name
        assert (far.m_naive, far.m_compensated) == (near.m_naive, near.m_compensated)

    def test_detuning_within_a_turn_kept_exactly(self, grover_spec):
        grid = [-math.pi, -1.0, -1e-9, 0.0, 0.25, 3.0, math.pi]
        rows = sw.tolerance_sweep(grover_spec, 10 ** 4, 1, -1.0 + 0j, grid, locate_eps0=False)
        assert [row.delta for row in rows] == grid
        c = sw.classify_right(grover_spec, -1.0).c
        assert [row.t for row in rows] == [sw.tuning_t(d, c, 10 ** 4) for d in grid]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_detuning(self, grover_spec, bad):
        # as input, in each entry point that takes a detuning, not by a Newton that diverges
        with pytest.raises(sw.SpecError, match="finite"):
            sw.tolerance_sweep(grover_spec, 1000, 1, -1.0 + 0j, [0.0, bad])
        with pytest.raises(sw.SpecError, match="finite"):
            sw.locate_double_root(grover_spec, -1.0, bad)
        with pytest.raises(sw.SpecError, match="finite"):
            sw.paired_mix_angle(grover_spec, 10 ** 4, 1, -1.0, bad)

    def test_rejects_inactive_lambda(self):
        # decoupled arm: bound-only eigenvalue cannot drive a sweep
        from test_spectral import _decoupled_spec
        with pytest.raises(ValueError, match="no active"):
            sw.tolerance_sweep(_decoupled_spec(), 100, 1, cmath.exp(0.5j), [0.0])


class TestMixingAngle:
    def test_matches_tuning_prediction(self, grover_spec):
        # sin^2(2 omega) = 1/(1+t); delta=0.01 at N=1e4 gives t=1/4
        val = sw.paired_mix_angle(grover_spec, 10 ** 4, 1, -1.0 + 0j, 0.01)
        assert abs(val - 0.8) < 0.01

    def test_perfect_mixing_when_tuned(self, bolo_spec):
        val = sw.paired_mix_angle(bolo_spec, 10 ** 4, 1, -1.0 + 0j, 0.0)
        assert abs(val - 1.0) < 0.01

    @pytest.mark.parametrize("delta", [0.005, 0.01, 0.02])
    def test_sweep_against_formula(self, grover_spec, delta):
        t = sw.tuning_t(delta, 1.0, 10 ** 4)
        val = sw.paired_mix_angle(grover_spec, 10 ** 4, 1, -1.0 + 0j, delta)
        assert abs(val - 1.0 / (1.0 + t)) < 0.02

    def test_matches_dense_eigenvector(self, grover_spec, bolo_spec):
        """sin^2(2 omega) of the dense eigenvector nearest the root leaving lambda0,
        for families with no bound partner, down to t ~ 1e8 (N = 1e10, delta = 0.3)."""
        rng = np.random.default_rng(3)
        checked = 0
        for spec in [random_spec(rng) for _ in range(4)] + [grover_spec, bolo_spec]:
            for cl in sw.right_classifications(spec):
                if cl.c is None or cl.n_bound:
                    continue
                r0 = embed_right(cl.active_vector, spec.dim_collapsed)
                for N in (10 ** 4, 10 ** 6, 10 ** 10):
                    for delta in (1e-3, 1e-2, -2e-2, 0.3):
                        phi = sw.detuned_phase(cl.lambda0, delta)
                        sec = sw.secular_function(spec, phi)
                        k = 2 + int(np.argmin(np.abs(sec.poles[2:] - cl.lambda0)))
                        root = sec.z(sec.roots([1.0 / N], [k])[0], [k])[0]
                        vals, vecs = sw.eigendecompose(sw.collapsed_matrix(spec, 1.0 / N, phi))
                        w = vecs[:, np.argmin(np.abs(vals - root))]
                        half = cmath.exp(0.5j * phi)
                        branch = 1 if abs(half - cl.lambda0) < abs(half + cl.lambda0) else -1
                        l0 = embed_left(left_active(phi, branch), spec.dim_collapsed)
                        L, R = abs(np.vdot(l0, w)) ** 2, abs(np.vdot(r0, w)) ** 2
                        val = sw.paired_mix_angle(spec, N, 1, cl.lambda0, delta)
                        assert abs(val / (4.0 * L * R / (L + R) ** 2) - 1.0) <= 1e-9
                        checked += 1
        assert checked == 29 * 12           # 29 families without a bound partner

    def test_large_eps_is_a_diagnostic_not_a_warning(self, bolo_spec):
        # M/N = 1/2 lies far beyond the small-eps seeds: refused, with no numpy warning
        with pytest.raises(sw.NumericsError, match="secular root"):
            sw.paired_mix_angle(bolo_spec, 2, 1, -1.0 + 0j, 0.01)

    def test_rejects_constant_family(self):
        from test_spectral import _decoupled_spec
        with pytest.raises(sw.SpecError, match="constant-family"):
            sw.paired_mix_angle(_decoupled_spec(), 100, 1, cmath.exp(0.5j), 0.01)
