import cmath
import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

import starwalk as sw
from starwalk import graph, search, spectral
from starwalk.graph import IN, MARKED_IN, MARKED_OUT, OUT
from starwalk.spectral import embed_left, embed_right

from conftest import random_spec
from test_spectral import _decoupled_spec


class TestInitialState:
    def test_uniform_superposition_lifts_correctly(self, grover_spec):
        """On the full N=4 graph the prepared state must be
        (1/sqrt(2N)) * sum_j (|0,j> + alpha*sqrt(2)/... ) -- i.e. each directed
        edge carries weight 1/sqrt(2N), with the chosen left phase on inward edges."""
        N = 4
        phi, branch = 0.0, -1
        st = sw.initial_state(grover_spec, N, 1, branch, phi)
        full = sw.lift_collapsed_state(st, N).amplitudes
        alpha = branch * cmath.exp(0.5j * phi)
        assert len(full) == 2 * N                   # 0->j at j-1, j->0 at N+j-1
        assert np.max(np.abs(full[:N] - 1.0 / math.sqrt(2 * N))) < 1e-12
        assert np.max(np.abs(full[N:] - alpha / math.sqrt(2 * N))) < 1e-12

    def test_norm_and_support(self, bolo_spec):
        st = sw.initial_state(bolo_spec, 100, 1, +1, 0.3)
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12
        # no initial amplitude inside the attached structure
        assert np.all(st.amplitudes[4:] == 0)

    def test_overlap_with_left_active(self, bolo_spec):
        # the prepared state overlaps the left active vector with weight (N-M)/N
        phi, branch = sw.matched_phi(-1.0 + 0j)
        dim = bolo_spec.dim_collapsed
        l0 = embed_left(sw.left_active(phi, branch), dim)
        for N in (100, 10 ** 6):
            st = sw.initial_state(bolo_spec, N, 1, branch, phi)
            assert abs(abs(np.vdot(l0, st.amplitudes)) ** 2 - (N - 1) / N) < 1e-12

    def test_all_marked_rejected(self, grover_spec):
        # M = N leaves no unmarked edge: the same rule as hub_coefficients
        with pytest.raises(sw.SpecError, match="1 <= M < N"):
            sw.initial_state(grover_spec, 5, 5, +1, 0.0)

    def test_rejects_bad_M(self, grover_spec):
        with pytest.raises(ValueError):
            sw.initial_state(grover_spec, 4, 0, +1, 0.0)
        with pytest.raises(ValueError):
            sw.initial_state(grover_spec, 4, 5, +1, 0.0)


class TestPlanSearch:
    def test_bolo_plan(self, bolo_spec):
        plan = sw.plan_search(bolo_spec, 10 ** 6)
        assert abs(plan.lambda0 - (-1.0)) < 1e-9
        assert plan.m == 1813
        assert abs(plan.c - math.sqrt(3.0 / 4.0)) < 1e-9
        # predicted success = hub-edge mass of the active right vector = 3/4
        assert abs(plan.predicted_success - 0.75) < 1e-9

    def test_grover_plan(self, grover_spec):
        plan = sw.plan_search(grover_spec, 100)
        assert plan.m == math.floor(0.5 * math.pi * 10)  # = 15
        assert abs(plan.c - 1.0) < 1e-12
        assert abs(plan.predicted_success - 1.0) < 1e-12

    def test_explicit_lambda(self, bolo_spec):
        plan = sw.plan_search(bolo_spec, 10 ** 4, lambda0=1.0 + 0j)
        assert abs(plan.lambda0 - 1.0) < 1e-9
        assert abs(plan.c - math.sqrt(0.5)) < 1e-9
        assert plan.m == math.floor(math.pi * 100 / (2.0 * math.sqrt(0.5)))

    def test_marked_copies_shorten_search(self, grover_spec):
        p1 = sw.plan_search(grover_spec, 10 ** 4, M=1)
        p4 = sw.plan_search(grover_spec, 10 ** 4, M=4)
        assert p4.m == p1.m // 2

    def test_rejects_unknown_lambda(self, bolo_spec):
        with pytest.raises(ValueError, match="not an eigenvalue"):
            sw.plan_search(bolo_spec, 100, lambda0=0.2 + 0.2j)


class TestSearchTargetMemo:
    """A search reads its family's classification record, kept on the spec once."""

    def test_one_entry_per_group(self):
        spec = sw.load_spec("bolo")
        plans = []
        for N in (100, 10 ** 6, 10 ** 12):
            plans += [sw.plan_search(spec, N), sw.plan_search(spec, N, M=3, lambda0=-1.0 + 0j),
                      sw.plan_search(spec, N, lambda0=-1.0 + 1e-9j)]     # the same group
        classes = spec._derived["classes"]
        assert set(spec._derived) == {"classes", "auto"}
        assert list(classes.values()) == sw.right_classifications(spec) and len(classes) == 4
        assert spec._derived["auto"] is classes[-1.0]
        assert all(plan.r0 is classes[-1.0].r0 for plan in plans)
        assert sw.plan_search(spec, 100, lambda0=1.0 + 0j).r0 is classes[1.0].r0
        assert set(spec._derived) == {"classes", "auto"} and len(classes) == 4

    def test_auto_and_explicit_best_give_identical_plans(self):
        spec = sw.load_spec("bolo")
        auto = sw.plan_search(spec, 10 ** 6, M=2)
        explicit = sw.plan_search(spec, 10 ** 6, M=2, lambda0=auto.lambda0)
        for field in dataclasses.fields(sw.SearchPlan):
            a, b = getattr(auto, field.name), getattr(explicit, field.name)
            if field.name == "initial":
                assert a.basis == b.basis and np.array_equal(a.amplitudes, b.amplitudes)
            elif field.name == "r0":
                assert a is b
            else:
                assert a == b, field.name

    def test_r0_is_read_only(self, bolo_spec):
        r0 = sw.plan_search(bolo_spec, 1000).r0
        with pytest.raises(ValueError, match="read-only"):
            r0[2] = 0.0

    def test_constant_family_raises_every_time_and_is_not_cached(self):
        spec = _decoupled_spec()
        for _ in range(2):
            with pytest.raises(sw.SpecError, match="constant-family"):
                sw.plan_search(spec, 100, lambda0=cmath.exp(0.5j))
        assert set(spec._derived) == {"classes"}
        bound = sw.classify_right(spec, cmath.exp(0.5j))
        assert bound.c is bound.r0 is bound.predicted_success is bound.alpha is None
        sw.plan_search(spec, 100)
        assert set(spec._derived) == {"classes", "auto"}
        assert spec._derived["auto"] is not bound

    def test_best_target_checked_on_the_first_plan_only(self, monkeypatch):
        calls = []

        def counting(classifications, *args, **kwargs):
            calls.append(classifications)
            return sw.best_target(classifications, *args, **kwargs)
        monkeypatch.setattr(search, "best_target", counting)
        a, b = sw.load_spec("bolo"), sw.load_spec("bolo")
        for N in (100, 10 ** 6, 10 ** 12):
            sw.plan_search(a, N)
            sw.plan_search(b, N, M=3)
        assert len(calls) == 2

    def test_hit_writes_nothing(self):
        class Counting(dict):
            writes = 0

            def __setitem__(self, key, value):
                Counting.writes += 1
                super().__setitem__(key, value)

            def setdefault(self, key, default=None):
                Counting.writes += 1
                return super().setdefault(key, default)
        spec = sw.load_spec("bolo")
        object.__setattr__(spec, "_derived", Counting())
        sw.plan_search(spec, 100)
        sw.plan_search(spec, 100, lambda0=1.0 + 0j)
        assert Counting.writes == 2     # the classification and "auto"
        for N in (1000, 10 ** 6):
            sw.plan_search(spec, N)
            sw.plan_search(spec, N, lambda0=1.0 + 0j)
            sw.tolerance_sweep(spec, N, 1, -1.0, [0.0, 0.01])
            sw.paired_mix_angle(spec, N, 1, -1.0, 0.01)
        assert Counting.writes == 2

    def test_exact_group_lambda0_is_found_by_its_key(self, monkeypatch):
        spec = sw.load_spec("bolo")
        target = search._search_target(spec, -1.0 + 0j)
        sw.plan_search(spec, 100)
        before = dict(spec._derived)

        def nearest_search(*args):
            raise AssertionError("nearest-eigenvalue search for a group's exact lambda0")
        monkeypatch.setattr(spectral, "_nearest", nearest_search)
        assert sw.classify_right(spec, -1.0) is target
        assert search._search_target(spec, -1.0) is target
        assert search._search_target(spec, complex(-1.0, -0.0)) is target
        assert sw.plan_search(spec, 10 ** 6, lambda0=-1.0 + 0j).r0 is target.r0
        assert sw.locate_double_root(spec, 0.02, -1.0) != 0j
        assert spec._derived == before
        monkeypatch.undo()
        assert search._search_target(spec, -1.0 + 1e-9j) is target
        with pytest.raises(sw.SpecError):
            search._search_target(spec, complex(math.nan, 0.0))
        assert spec._derived == before

    @pytest.mark.parametrize("name", ["grover", "bolo", 1, 2, 3])
    def test_every_entry_point_finds_every_group_by_its_key(self, name, monkeypatch):
        # on the bundled specs and three seeded ones, no lambda0 entry point runs a
        # nearest-eigenvalue search for a group's exact lambda0
        spec = sw.load_spec(name) if isinstance(name, str) else random_spec(
            np.random.default_rng(name))
        classes = sw.right_classifications(spec)

        def nearest_search(*args):
            raise AssertionError("nearest-eigenvalue search for a group's exact lambda0")
        monkeypatch.setattr(spectral, "_nearest", nearest_search)
        for cl in classes:
            fit = sw.pairing_fit(spec, cl.phi, cl.lambda0)
            assert fit.lambda0 == cl.lambda0
            if cl.c is None:
                assert fit.case == spectral.CASE_CONSTANT
                with pytest.raises(ValueError, match="singleton"):
                    sw.paired_vectors(spec, cl.phi, cl.lambda0, 1e-4)
                for entry in (lambda: sw.paired_mix_angle(spec, 10 ** 4, 1, cl.lambda0, 0.01),
                              lambda: sw.tolerance_sweep(spec, 10 ** 4, 1, cl.lambda0, [0.01])):
                    with pytest.raises(sw.SpecError, match="constant-family"):
                        entry()
                continue
            assert fit.case == spectral.CASE_PAIRED
            lam_plus = sw.paired_vectors(spec, cl.phi, cl.lambda0, 1e-6)[0]
            assert abs(abs(lam_plus - cl.lambda0) / (cl.c * 1e-3) - 1.0) < 1e-2   # c*sqrt(eps)
            assert 0.0 < sw.paired_mix_angle(spec, 10 ** 4, 1, cl.lambda0, 0.01) <= 1.0
            assert len(sw.tolerance_sweep(spec, 10 ** 4, 1, cl.lambda0, [0.0, 0.01])) == 2
        assert len(sw.spectral_report(spec)["pairing_fits"]) == sum(cl.c is not None
                                                                     for cl in classes)

    @pytest.mark.parametrize("lam", [-1.0 + 0j, (1 + 2j * math.sqrt(2)) / 3])
    def test_one_lambda0_rule_in_every_entry_point(self, bolo_spec, lam):
        # a lambda0 within LOOKUP_TOL of a group is that group in all seven entry points;
        # one 1e-5 away is no group in any of them
        rec = sw.classify_right(bolo_spec, lam)
        phi, N = sw.detuned_phase(rec.lambda0, 0.01), 10 ** 4
        entries = [
            lambda x: sw.classify_right(bolo_spec, x),
            lambda x: sw.plan_search(bolo_spec, N, lambda0=x).r0,
            lambda x: sw.tolerance_sweep(bolo_spec, N, 1, x, [0.0, 0.01]),
            lambda x: sw.locate_double_root(bolo_spec, phi, x),
            lambda x: sw.paired_mix_angle(bolo_spec, N, 1, x, 0.01),
            lambda x: sw.pairing_fit(bolo_spec, rec.phi, x),
            lambda x: sw.paired_vectors(bolo_spec, rec.phi, x, 1e-4),
        ]
        near, far = rec.lambda0 * cmath.exp(1e-7j), rec.lambda0 * cmath.exp(1e-5j)
        assert sw.classify_right(bolo_spec, near) is rec
        for entry in entries:
            a, b = entry(rec.lambda0), entry(near)
            if isinstance(a, tuple):            # paired_vectors' arrays
                assert all(np.array_equal(x, y) for x, y in zip(a, b))
            else:
                assert b is a or b == a         # the record and r0 are the same objects
            with pytest.raises(sw.SpecError, match="not an eigenvalue"):
                entry(far)

    def test_entry_released_with_spec(self):
        a, b = sw.load_spec("grover"), sw.load_spec("grover")
        sw.plan_search(a, 100)
        sw.plan_search(b, 100)
        assert set(a._derived) == set(b._derived) == {"classes", "auto"}
        assert a._derived["auto"] is not b._derived["auto"]     # one record per loaded spec
        ref = weakref.ref(a)
        del a
        gc.collect()
        assert ref() is None
        assert set(b._derived) == {"classes", "auto"}


class TestRunSearch:
    def test_bolo_success(self, bolo_spec):
        plan = sw.plan_search(bolo_spec, 10 ** 6)
        res = sw.run_search(plan, bolo_spec)
        assert abs(res.p_marked - 0.75) < 0.01
        assert res.overlap_r0 > 0.99
        total = res.p_marked + res.p_null + res.p_unmarked
        assert abs(total - 1.0) < 1e-10

    @pytest.mark.parametrize("N,floor", [(100, 1 - 5 / 10), (10 ** 4, 1 - 5 / 100)])
    def test_grover_success(self, grover_spec, N, floor):
        plan = sw.plan_search(grover_spec, N)
        res = sw.run_search(plan, grover_spec)
        assert res.p_marked >= floor
        assert res.p_null < 1e-20      # nothing to leak into: no interior states

    @pytest.mark.parametrize("seed", range(3))
    def test_masses_from_one_pass(self, seed):
        # at most 6 interior states, which numpy sums in order as Python does
        spec = random_spec(np.random.default_rng(seed), max_arms=3)
        plan = sw.plan_search(spec, 10 ** 5, M=2)
        res = sw.run_search(plan, spec)
        a = res.final_state.amplitudes
        p = np.abs(a) ** 2
        masses = (res.p_marked, res.p_null, res.p_unmarked, res.overlap_r0)
        assert all(type(v) is float for v in masses)
        assert masses == (p[2] + p[3], p[4:].sum(), p[0] + p[1], abs(np.vdot(plan.r0, a)) ** 2)

    def test_zero_steps_returns_initial_mass(self, grover_spec):
        plan = sw.plan_search(grover_spec, 100)
        zero = sw.SearchPlan(lambda0=plan.lambda0, phi=plan.phi, branch=plan.branch,
                             c=plan.c, N=plan.N, M=plan.M, m=0, initial=plan.initial,
                             predicted_success=plan.predicted_success, r0=plan.r0)
        res = sw.run_search(zero, grover_spec)
        assert abs(res.p_marked - plan.M / plan.N) < 1e-12

    def test_grover_rotation_closed_form(self, grover_spec):
        """p_marked(m) follows sin^2(m*theta) with sin(theta) = 2 sqrt(eps-eps^2)."""
        N = 256
        eps = 1.0 / N
        theta = math.asin(2.0 * math.sqrt(eps - eps * eps))
        plan = sw.plan_search(grover_spec, N)
        U = sw.build_collapsed(grover_spec, sw.hub_coefficients(N), plan.phi)
        st = plan.initial
        for m in range(1, 42):
            st = sw.apply(U, st)
            if m % 2 == 0:
                # even steps mix the two rotations (actives at both +1 and -1)
                continue
            p = abs(st.amplitudes[2]) ** 2 + abs(st.amplitudes[3]) ** 2
            assert abs(p - math.sin(0.5 * m * theta) ** 2) < 1e-12


def _public_composition(plan, spec):
    """run_search's walk, composed from the public graph functions."""
    U = sw.build_collapsed(spec, sw.hub_coefficients(plan.N, M=plan.M), plan.phi)
    return sw.evolve(U, plan.initial, plan.m).amplitudes


@pytest.fixture
def power_dtypes(monkeypatch) -> list:
    """The dtype of the operator each graph._power call squares."""
    dtypes = []
    real = graph._power

    def spy(matrix, *args):
        dtypes.append(matrix.dtype)
        return real(matrix, *args)
    monkeypatch.setattr(graph, "_power", spy)
    return dtypes


class TestStepTemplate:
    """run_search through graph._walk against the public composition."""

    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_complex_walks_are_bitwise_the_public_composition(self, arms, power_dtypes):
        spec = random_spec(np.random.default_rng(arms), arms=arms)
        for N in (10 ** k for k in range(2, 13)):
            for M in (1, 3):
                plan = sw.plan_search(spec, N, M=M)
                res = sw.run_search(plan, spec)
                assert np.array_equal(res.final_state.amplitudes, _public_composition(plan, spec))
        assert set(power_dtypes) == {np.dtype(complex)}

    @pytest.mark.parametrize("name", ["grover", "bolo"])
    def test_real_walks_square_in_float64(self, name, power_dtypes):
        spec = sw.load_spec(name)
        for cl in sw.right_classifications(spec):
            if cl.c is None:
                continue
            # lambda0 = +-1 matches at phi = 0; bolo's (1 +- 2 sqrt(2) i)/3 does not
            want = np.dtype(np.float64 if cl.lambda0.imag == 0 else complex)
            for N in (10 ** k for k in range(2, 13)):
                for M in (1, 3):
                    plan = sw.plan_search(spec, N, M=M, lambda0=cl.lambda0)
                    res = sw.run_search(plan, spec)
                    a = res.final_state.amplitudes
                    assert a.dtype == complex and power_dtypes[-1] == want
                    assert np.max(np.abs(a - _public_composition(plan, spec))) <= 2e-15
        assert np.dtype(np.float64) in power_dtypes

    def test_the_walk_depends_on_the_plan_fields_only(self, power_dtypes):
        spec = sw.load_spec("bolo")
        plan = sw.plan_search(spec, 10 ** 6, M=3)
        hand_built = sw.SearchPlan(**{f.name: getattr(plan, f.name)
                                      for f in dataclasses.fields(sw.SearchPlan)})
        runs = [sw.run_search(plan, spec), sw.run_search(hand_built, spec),
                sw.run_search(dataclasses.replace(plan), spec),
                sw.run_search(plan, sw.load_spec("bolo"))]
        for res in runs[1:]:
            assert np.array_equal(res.final_state.amplitudes, runs[0].final_state.amplitudes)
        # a real spec at phi = 0 from a real start: each is a real walk
        assert power_dtypes == [np.dtype(np.float64)] * 4
        assert plan.branch == -1         # so the branch +1 start is another one
        moved = dataclasses.replace(plan, initial=sw.initial_state(spec, 10 ** 6, 3, +1, 0.0))
        detuned = dataclasses.replace(plan, phi=0.4)
        turned = dataclasses.replace(plan, initial=sw.initial_state(spec, 10 ** 6, 3, +1, 0.4))
        for p, want in ((moved, np.float64), (detuned, complex), (turned, complex)):
            a = sw.run_search(p, spec).final_state.amplitudes
            assert a.dtype == complex and power_dtypes[-1] == np.dtype(want)
            if want is complex:
                assert np.array_equal(a, _public_composition(p, spec))
            else:
                assert np.max(np.abs(a - _public_composition(p, spec))) <= 2e-15

    def test_checks_kept(self, grover_spec, bolo_spec):
        plan = sw.plan_search(grover_spec, 100)
        with pytest.raises(sw.SpecError, match="basis mismatch"):
            sw.run_search(plan, bolo_spec)
        with pytest.raises(sw.SpecError, match="phase phi"):
            sw.run_search(dataclasses.replace(plan, phi=math.nan), grover_spec)
        with pytest.raises(ValueError, match="nonnegative"):
            sw.run_search(dataclasses.replace(plan, m=-1), grover_spec)
        with pytest.raises(sw.SpecError, match="1 <= M < N"):
            sw.run_search(dataclasses.replace(plan, M=100), grover_spec)

    def test_start_and_real_columns_are_read_only(self, bolo_spec):
        plan = sw.plan_search(bolo_spec, 1000)
        sw.run_search(plan, bolo_spec)
        columns = bolo_spec._real_columns
        assert columns.dtype == np.float64
        assert np.array_equal(columns, bolo_spec.vertex_columns)
        for array in (columns, plan.initial.amplitudes):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        # a complex-entry spec has no float64 copy
        assert random_spec(np.random.default_rng(1), arms=1)._real_columns is None


class TestNonUnitarityGuard:
    """m * ||U^H U - I||_F >= 1 is refused before any squaring."""

    def test_bolo_refused_past_the_envelope(self, bolo_spec):
        for k in range(22, 301):
            with pytest.raises(sw.NumericsError):
                sw.run_search(sw.plan_search(bolo_spec, 10 ** k), bolo_spec)

    def test_grover_runs_to_the_largest_star(self, grover_spec):
        # grover's entries are exact, so its residual is 0
        for k in range(12, 301):
            res = sw.run_search(sw.plan_search(grover_spec, 10 ** k), grover_spec)
            assert abs(res.p_marked - 1.0) <= 1e-6, k

    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_seeded_specs_succeed_or_refuse(self, arms):
        # a RuntimeWarning (overflow in the powers) is an error under pytest
        for seed in range(3):
            spec = random_spec(np.random.default_rng(seed), arms=arms)
            refused = 0
            for k in range(2, 301):
                for M in (1, 3):
                    try:
                        res = sw.run_search(sw.plan_search(spec, 10 ** k, M=M), spec)
                    except sw.NumericsError:
                        refused += 1
                    else:
                        assert 0.0 <= res.p_marked <= 1.0 + 1e-6
            assert refused > 0


class TestEffectiveTwoLevelBlock:
    def test_block_form_of_walk_on_active_pair(self, bolo_spec):
        """On span{l0, r0} the walk acts as lambda0 * rotation by c*sqrt(eps):
        diagonal elements lambda0*cos(c sqrt(eps)) + O(eps), off-diagonal
        product -lambda0^2 sin^2(c sqrt(eps)) + O(eps^{3/2})."""
        lam0 = -1.0 + 0j
        c = math.sqrt(3.0 / 4.0)
        phi, branch = sw.matched_phi(lam0)
        dim = bolo_spec.dim_collapsed
        cl = sw.classify_right(bolo_spec, lam0)
        r0 = embed_right(cl.active_vector, dim)
        l0 = embed_left(sw.left_active(phi, branch), dim)
        errs = []
        grid = [1e-6, 1e-5, 1e-4]
        for eps in grid:
            N = int(round(1.0 / eps))
            U = sw.build_collapsed(bolo_spec, sw.hub_coefficients(N), phi).matrix
            s = c * math.sqrt(eps)
            dl = np.vdot(l0, U @ l0) - lam0 * math.cos(s)
            dr = np.vdot(r0, U @ r0) - lam0 * math.cos(s)
            off = np.vdot(r0, U @ l0) * np.vdot(l0, U @ r0) \
                - (-(lam0 ** 2) * math.sin(s) ** 2)
            errs.append(max(abs(dl), abs(dr), abs(off)))
        slopes = np.diff(np.log(errs)) / np.diff(np.log(grid))
        assert np.all(slopes > 0.9)       # corrections vanish at least like eps


class TestSampleMeasurement:
    def test_deterministic(self, bolo_spec):
        plan = sw.plan_search(bolo_spec, 10 ** 4)
        res = sw.run_search(plan, bolo_spec)
        a = sw.sample_measurement(res, seed=42, shots=1000)
        b = sw.sample_measurement(res, seed=42, shots=1000)
        assert a == b
        assert sum(a.values()) == 1000

    def test_stream_is_default_rng(self, bolo_spec):
        res = sw.run_search(sw.plan_search(bolo_spec, 10 ** 4), bolo_spec)
        probs = [res.p_marked, res.p_unmarked, res.p_null]
        for seed in range(51):
            want = np.random.default_rng(seed).multinomial(1000, [p / sum(probs) for p in probs])
            counts = sw.sample_measurement(res, seed=seed, shots=1000)
            assert list(counts.values()) == want.tolist()
            assert all(type(v) is int for v in counts.values())

    def test_frequencies_match_probabilities(self, bolo_spec):
        plan = sw.plan_search(bolo_spec, 10 ** 4)
        res = sw.run_search(plan, bolo_spec)
        shots = 200_000
        counts = sw.sample_measurement(res, seed=7, shots=shots)
        # 5-sigma binomial band
        sd = math.sqrt(res.p_marked * (1 - res.p_marked) / shots)
        assert abs(counts["marked"] / shots - res.p_marked) < 5 * sd

    def test_certain_outcome(self):
        res = sw.SearchResult(final_state=None, p_marked=1.0, p_null=0.0,
                              p_unmarked=0.0, overlap_r0=1.0)
        counts = sw.sample_measurement(res, seed=0, shots=50)
        assert counts == {"marked": 50, "unmarked": 0, "null": 0}

    def test_rejects_zero_shots(self):
        res = sw.SearchResult(final_state=None, p_marked=1.0, p_null=0.0,
                              p_unmarked=0.0, overlap_r0=1.0)
        with pytest.raises(ValueError):
            sw.sample_measurement(res, seed=0, shots=0)

    def test_shots_up_to_int64_max(self, bolo_spec):
        res = sw.run_search(sw.plan_search(bolo_spec, 10 ** 4), bolo_spec)
        assert sum(sw.sample_measurement(res, seed=3, shots=2 ** 63 - 1).values()) == 2 ** 63 - 1
        for shots in (2 ** 63, 10 ** 20):
            with pytest.raises(sw.SpecError, match=r"shots <= 2\*\*63 - 1"):
                sw.sample_measurement(res, seed=3, shots=shots)

    @pytest.mark.parametrize("p", [(0.0, 0.0, 0.0), (math.nan, 0.5, 0.5)])
    def test_rejects_no_positive_total(self, p):
        res = sw.SearchResult(final_state=None, p_marked=p[0], p_null=p[1],
                              p_unmarked=p[2], overlap_r0=1.0)
        with pytest.raises(sw.SpecError, match="cannot sample"):
            sw.sample_measurement(res, seed=0, shots=10)
