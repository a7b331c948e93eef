"""Graph core: hub coefficients, operator builders, lift/restrict, evolution."""
import cmath
import copy
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starwalk as sw
from starwalk import graph
from starwalk.graph import collapsed_coefficients

from conftest import random_collapsed_state, random_spec


def dense(walk: sw.FullWalk) -> np.ndarray:
    """A full walk's dense operator, built by stepping each basis vector (small N only)."""
    return np.column_stack([walk.step(e) for e in np.eye(len(walk.basis), dtype=complex)])


# ---------------------------------------------------------------------------
# hub_coefficients
# ---------------------------------------------------------------------------

def _phase_hub(N, M, x, y):
    """A reference unitary degree-N hub with phases (x, y), as a HubModel.

    With e = 1/N, eps = M/N, k = 2cos(x-y)e^{iy} and s = sqrt(1 - 4sin^2(x-y)(e - e^2)):
    r = (1-2e)e^{ix}/s, t = -k e/s, R_L = r + (N-M-1)t, R_R = r + (M-1)t and
    T = t sqrt(M(N-M)).  (pi, 0) is the diffusive hub of ``hub_coefficients``; the
    other phases check that ``build_collapsed`` and the full walk, which take any
    unitary hub, still agree away from it.
    """
    e, eps = 1.0 / N, M / N
    k = 2.0 * math.cos(x - y) * cmath.exp(1j * y)
    s = cmath.sqrt(1.0 - 4.0 * math.sin(x - y) ** 2 * (e - e * e))
    a = (1.0 - 2.0 * e) * cmath.exp(1j * x)
    w = cmath.sqrt(eps - eps * eps)
    return sw.HubModel(a / s, -k * e / s, (a - k * (1.0 - eps - e)) / s,
                       (a - k * (eps - e)) / s, -k * w / s)


class TestHubCoefficients:
    def test_standard_large_n(self):
        hub = sw.hub_coefficients(10 ** 6)
        assert hub.r == pytest.approx(-1 + 2e-6, abs=1e-15)
        assert hub.t == pytest.approx(2e-6, abs=1e-15)

    def test_degree_two_is_a_swap(self):
        hub = sw.hub_coefficients(2)
        assert abs(hub.r) < 1e-15
        assert hub.t == pytest.approx(1.0, abs=1e-15)

    def test_generalized_satisfies_unitarity(self):
        # oracle: substitute the reference hub's r, t into the two unitarity
        # conditions of the degree-N hub
        N = 100
        hub = _phase_hub(N, 1, math.pi / 2, 0.0)
        assert abs(abs(hub.r) ** 2 + (N - 1) * abs(hub.t) ** 2 - 1) < 1e-12
        assert abs(2 * (hub.r.conjugate() * hub.t).real
                   + (N - 2) * abs(hub.t) ** 2) < 1e-12

    @pytest.mark.parametrize("x", [0.4, math.pi / 2, 2.0, math.pi, 5.0])
    @pytest.mark.parametrize("y", [-0.9, 0.0, 0.7])
    def test_identity_grid(self, x, y):
        # the reference hub's collapsed block is unitary wherever the tests use it
        hub = _phase_hub(50, 1, x, y)
        assert abs(hub.T ** 2 - hub.R_R * hub.R_L - cmath.exp(2j * y)) < 1e-12
        assert abs(abs(hub.R_R) ** 2 + abs(hub.T) ** 2 - 1) < 1e-12
        assert abs(abs(hub.R_L) ** 2 + abs(hub.T) ** 2 - 1) < 1e-12

    def test_copies_shift_reflections(self):
        hub = sw.hub_coefficients(10, M=3)
        assert hub.R_R == pytest.approx(-1 + 2 * 0.3)
        assert hub.R_L == pytest.approx(1 - 2 * 0.3)
        assert hub.T == pytest.approx(2 * math.sqrt(0.3 - 0.09))

    @pytest.mark.parametrize("N,M", [(N, M) for N in (2, 10, 1000, 10 ** 12)
                                     for M in (1, 2, 3) if M < N])
    def test_eps_family_is_the_hub_at_every_m(self, N, M):
        # the spectral layer's eps is the search's: collapsed_coefficients(M/N)
        # is hub_coefficients(N, M)'s collapsed part at every M, not only M = 1
        hub = sw.hub_coefficients(N, M)
        assert collapsed_coefficients(M / N) == (hub.R_L, hub.R_R, hub.T)

    @pytest.mark.parametrize("x,y", [(math.pi, 0.0)])
    @pytest.mark.parametrize("N", [2, 10, 1000, 10 ** 12])
    def test_eps_family_is_the_single_copy_hub(self, N, x, y):
        # at the diffusive phases the reference hub is the library's at M = 1,
        # both per edge and in the eps family eps = 1/N
        ref = _phase_hub(N, 1, x, y)
        hub = sw.hub_coefficients(N, 1)
        assert max(abs(a - b) for a, b in zip((hub.r, hub.t), (ref.r, ref.t))) <= 1e-15
        got = collapsed_coefficients(1 / N)
        assert max(abs(a - b) for a, b in zip(got, (ref.R_L, ref.R_R, ref.T))) <= 1e-15

    def test_broken_hub_form_is_caught(self, bolo_spec, monkeypatch):
        form = graph._hub_form
        monkeypatch.setattr(graph, "_hub_form", lambda e, eps: (1.001 * form(e, eps)[0],)
                            + form(e, eps)[1:])        # r off: |r|^2 + (N-1)|t|^2 != 1
        with pytest.raises(sw.NumericsError, match="invariants violated"):
            sw.hub_coefficients(100)
        plan = sw.plan_search(bolo_spec, 100)
        with pytest.raises(sw.NumericsError, match="invariants violated"):
            sw.run_search(plan, bolo_spec)

    def test_rejects_bad_inputs(self):
        with pytest.raises(sw.SpecError):
            sw.hub_coefficients(10, M=10)
        with pytest.raises(sw.SpecError):
            sw.hub_coefficients(10, M=11)


class TestStarSizeRule:
    """One (N, M) rule, 2 <= N, 1 <= M < N, N finite as a double, everywhere."""
    CALLS = {
        "hub_coefficients": lambda spec, N, M: sw.hub_coefficients(N, M=M),
        "initial_state": lambda spec, N, M: sw.initial_state(spec, N, M, +1, 0.0),
        "plan_search": lambda spec, N, M: sw.plan_search(spec, N, M=M),
        "tuning_t": lambda spec, N, M: sw.tuning_t(0.1, 0.8, N, M=M),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("N,M", [(10, 10), (10, 0), (1, 1), (10 ** 400, 1), (10.0, 1)])
    def test_rejected(self, grover_spec, call, N, M):
        with pytest.raises(sw.SpecError):
            self.CALLS[call](grover_spec, N, M)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_largest_finite_n_accepted(self, grover_spec, call):
        self.CALLS[call](grover_spec, 10 ** 300, 3)


# ---------------------------------------------------------------------------
# build_collapsed
# ---------------------------------------------------------------------------

class TestBuildCollapsed:
    @pytest.mark.parametrize("phi", [0.0, 0.7])
    @pytest.mark.parametrize("N", [25, 400])
    def test_grover_matrix_closed_form(self, grover_spec, N, phi):
        eps = 1 / N
        hub = sw.hub_coefficients(N)
        U = sw.build_collapsed(grover_spec, hub, phi).matrix
        w = 2 * math.sqrt(eps - eps * eps)
        expected = np.array([
            [0, 1 - 2 * eps, 0, w],
            [cmath.exp(1j * phi), 0, 0, 0],
            [0, w, 0, 2 * eps - 1],
            [0, 0, -1, 0],
        ], dtype=complex)
        assert np.max(np.abs(U - expected)) < 1e-14

    def test_epsilon_zero_decouples_exactly(self, bolo_spec):
        U = sw.collapsed_matrix(bolo_spec, 0.0, 0.3)
        # off-blocks between {out,in} and the right side vanish identically
        assert np.all(U[2:, :2] == 0)
        assert np.all(U[:2, 2:] == 0)

    def test_bolo_collapsed_unitary(self, bolo_spec):
        hub = sw.hub_coefficients(10 ** 6)
        U = sw.build_collapsed(bolo_spec, hub, 0.0).matrix
        assert U.shape == (7, 7)
        assert np.linalg.norm(U.conj().T @ U - np.eye(7)) < 1e-12

    def test_real_walk_operator_is_float64(self, bolo_spec):
        # real vertex columns, e^{i phi} and hub: float64, the same entries as complex
        hub = sw.hub_coefficients(10 ** 6)
        U = sw.build_collapsed(bolo_spec, hub, 0.0)
        assert U.matrix.dtype == np.float64
        assert np.array_equal(U.matrix, sw.collapsed_matrix(bolo_spec, 1e-6, 0.0))
        turned = sw.HubModel(*(complex(h) for h in dataclasses.astuple(hub)))
        complex_entry = random_spec(np.random.default_rng(1), arms=1)
        for spec, h, phi in ((bolo_spec, hub, 0.4), (bolo_spec, turned, 0.0),
                             (complex_entry, hub, 0.0)):
            assert sw.build_collapsed(spec, h, phi).matrix.dtype == complex
        # a complex start walks the complex cast of the operator; a real one squares in float64
        cast = sw.UnitaryOperator(U.matrix.astype(complex), U.basis, U.residual)
        s = random_collapsed_state(np.random.default_rng(5), bolo_spec)
        assert np.array_equal(sw.evolve(U, s, 999).amplitudes, sw.evolve(cast, s, 999).amplitudes)
        real = sw.StateVector(s.amplitudes.real.astype(complex), s.basis)
        out = sw.evolve(U, real, 999).amplitudes
        assert out.dtype == complex and not out.imag.any()
        assert np.max(np.abs(out - sw.evolve(cast, real, 999).amplitudes)) <= 2e-15

    def test_basis_ordering_contract(self, bolo_spec):
        assert graph.RESERVED_LABELS == ("out", "in", "0->1", "1->0")
        assert bolo_spec.basis == sw.EdgeBasis(bolo_spec.interior)
        assert len(bolo_spec.basis) == 4 + len(bolo_spec.interior)

    def test_rejects_non_unitary_wiring(self):
        # a 2x2 non-unitary matrix fails at spec validation already
        with pytest.raises(sw.SpecError):
            sw.SubgraphSpec(
                (sw.Vertex("1", ("0->1",), ("1->0",), np.array([[0.5]])),),
                "1", ())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("phase", ["phi"])         # the one phase argument
    def test_non_finite_phase_rejected(self, bolo_spec, phase, bad):
        with pytest.raises(sw.SpecError, match=f"phase {phase} must be finite"):
            sw.collapsed_matrix(bolo_spec, 1e-3, **{phase: bad})

    def test_nan_operator_rejected(self, grover_spec):
        with pytest.raises(sw.SpecError, match="not unitary"):
            sw.UnitaryOperator(np.full((4, 4), math.nan), grover_spec.basis)

    def test_non_finite_reflector_phase_rejected(self, bolo_spec):
        # a NaN phase would pass the unitarity check (NaN compares false)
        with pytest.raises(sw.SpecError, match="phase phi must be finite"):
            sw.build_collapsed(bolo_spec, sw.hub_coefficients(100), math.nan)

    def test_vertex_columns_cached_with_hub_slots_empty(self):
        spec = sw.load_spec("bolo")             # not the shared fixture: a write is tried
        base = spec.vertex_columns
        assert base is spec.vertex_columns
        assert not base[:, [0, 1, 3]].any()     # |out>, |in>, |1,0> belong to the hub
        U = sw.collapsed_matrix(spec, 1e-3, 0.4)
        assert np.array_equal(U[:, [2]], base[:, [2]])
        assert np.array_equal(U[:, 4:], base[:, 4:])
        with pytest.raises(ValueError):
            base[4, 4] = 1.0


# ---------------------------------------------------------------------------
# build_full
# ---------------------------------------------------------------------------

def literal_full_matrix(spec, N, M, phi):
    """Reference full-walk matrix, written out edge by edge and port by port.

    Positions follow the documented basis: 0->j at j-1, j->0 at N+j-1, and
    interior state i of copy k at 2N+(k-1)n+i.
    """
    n = spec.n_interior
    pos = {f"0->{j}": j - 1 for j in range(1, N + 1)}
    pos.update({f"{j}->0": N + j - 1 for j in range(1, N + 1)})
    for k in range(1, M + 1):
        pos.update({f"{lab}#{k}": 2 * N + (k - 1) * n + i
                    for i, lab in enumerate(spec.interior)})
    hub = sw.hub_coefficients(N, M=M)
    U = np.zeros((len(pos), len(pos)), dtype=complex)
    for j in range(1, N + 1):           # hub: |j,0> -> r|0,j> + t sum_{k != j} |0,k>
        for k in range(1, N + 1):
            U[pos[f"0->{k}"], pos[f"{j}->0"]] = hub.r if k == j else hub.t
    for j in range(M + 1, N + 1):       # unmarked edges reflect with phase phi
        U[pos[f"{j}->0"], pos[f"0->{j}"]] = cmath.exp(1j * phi)
    for k in range(1, M + 1):           # copy k of G hangs on edge k
        name = {"0->1": f"0->{k}", "1->0": f"{k}->0"}
        name.update({lab: f"{lab}#{k}" for lab in spec.interior})
        for v in spec.vertices:
            for jj, lab_in in enumerate(v.ports_in):
                for ii, lab_out in enumerate(v.ports_out):
                    U[pos[name[lab_out]], pos[name[lab_in]]] += v.matrix[ii, jj]
    return U


class TestStructuredUnitarity:
    """build_collapsed's residual: vertex part per spec, hub part in closed form."""

    @staticmethod
    def _specs():
        return ([sw.load_spec("grover"), sw.load_spec("bolo")]
                + [random_spec(np.random.default_rng(seed), max_arms=5) for seed in range(4)])

    @pytest.mark.parametrize("x, y", [(math.pi, 0.0), (2.5, 0.3), (1.0, 2.0)])
    def test_equals_dense_residual(self, x, y):
        for spec in self._specs():
            for N, M in ((2, 1), (7, 3), (10 ** 6, 1), (10 ** 12, 5)):
                hub = _phase_hub(N, M, x, y)
                for phi in (0.0, 0.7, -2.9):
                    U = sw.build_collapsed(spec, hub, phi)
                    assert abs(U.residual - graph._unitarity_residual(U.matrix)) <= 1e-15

    @pytest.mark.parametrize("bad", [
        lambda h: dataclasses.replace(h, R_L=h.R_L * 1.01),
        lambda h: dataclasses.replace(h, T=complex(math.nan, 0.0)),
        lambda h: dataclasses.replace(h, R_R=math.inf),
    ], ids=["R_L-scaled", "T-nan", "R_R-inf"])
    def test_non_unitary_hub_rejected(self, bolo_spec, bad):
        hub = bad(sw.hub_coefficients(1000, M=2))
        with pytest.raises(sw.SpecError, match="not unitary"):
            sw.build_collapsed(bolo_spec, hub, 0.4)

    def test_no_dense_product(self, monkeypatch):
        specs = self._specs()

        def dense(m):
            raise AssertionError("dense U^H U formed")
        monkeypatch.setattr(graph, "_unitarity_residual", dense)
        for spec in specs:
            U = sw.build_collapsed(spec, sw.hub_coefficients(10 ** 9, M=3), 1.1)
            assert U.residual < 1e-14
        with pytest.raises(AssertionError, match="dense"):     # the patch is live
            sw.UnitaryOperator(U.matrix, U.basis)

    def test_one_basis_per_spec(self, bolo_spec):
        plan = sw.plan_search(bolo_spec, 10 ** 4)
        U = sw.build_collapsed(bolo_spec, sw.hub_coefficients(10 ** 4), plan.phi)
        assert U.basis is plan.initial.basis is bolo_spec.basis
        assert sw.evolve(U, plan.initial, 3).basis is U.basis


class TestBuildFull:
    def test_grover_n3_hand_check(self, grover_spec):
        # oracle: write out the six basis images by hand for N=3, with 0->j at
        # j-1 and j->0 at 3+j-1
        U = sw.build_full(grover_spec, 3, phi=0.0)
        assert U.basis == sw.EdgeBasis((), 3, 1) and len(U.basis) == 6
        r, t = -1 / 3, 2 / 3
        expected = np.zeros((6, 6), dtype=complex)
        for j, col in ((1, 3), (2, 4), (3, 5)):
            for k, row in ((1, 0), (2, 1), (3, 2)):
                expected[row, col] = r if k == j else t
        expected[3, 0] = -1            # marked vertex reflects with phase pi
        expected[4, 1] = 1             # unmarked reflect with phase 0
        expected[5, 2] = 1
        assert np.max(np.abs(dense(U) - expected)) < 1e-15

    def test_degree_two_bounce(self, grover_spec):
        U = dense(sw.build_full(grover_spec, 2, phi=0.0))
        # hub swaps the two edges: |1,0> (at 2) -> |0,2> (at 1), |2,0> (at 3) -> |0,1> (at 0)
        assert U[1, 2] == pytest.approx(1.0)
        assert U[0, 3] == pytest.approx(1.0)

    def test_bolo_n16_unitary(self, bolo_spec):
        U = dense(sw.build_full(bolo_spec, 16, phi=0.0))
        n = U.shape[0]
        assert n == 35  # 2*16 + 3 interior
        assert np.linalg.norm(U.conj().T @ U - np.eye(n)) < 1e-12

    @given(seed=st.integers(0, 10 ** 6), N=st.integers(2, 12), data=st.data(),
           phi=st.floats(0.0, 2 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_step_matches_literal_walk(self, seed, N, data, phi):
        M = data.draw(st.integers(1, N - 1), label="M")
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        ref = literal_full_matrix(spec, N, M, phi)
        walk = sw.build_full(spec, N, M=M, phi=phi)
        D = ref.shape[0]
        assert len(walk.basis) == D
        x = rng.normal(size=D) + 1j * rng.normal(size=D)
        assert np.max(np.abs(walk.step(x) - ref @ x)) < 1e-13
        assert np.max(np.abs(dense(walk) - ref)) < 1e-15

    def test_positions_are_arithmetic(self, bolo_spec):
        # 0->j at j-1, j->0 at N+j-1, interior state i of copy k at
        # 2N+(k-1)n+i, and every lifted state restricts back exactly
        N, M, n = 5, 2, bolo_spec.n_interior
        basis = sw.build_full(bolo_spec, N, M=M).basis
        assert basis == sw.EdgeBasis(bolo_spec.interior, N, M) and len(basis) == 2 * N + M * n

        def lift(pos, values):
            a = np.zeros(bolo_spec.dim_collapsed, dtype=complex)
            a[pos] = values
            lifted = sw.lift_collapsed_state(sw.StateVector(a, bolo_spec.basis), N, M)
            assert lifted.basis == basis
            back, leak = sw.restrict_full_state(lifted)
            assert leak < 1e-12
            assert np.max(np.abs(back.amplitudes - a)) < 1e-12
            return lifted.amplitudes

        wL, wR = 1 / math.sqrt(N - M), 1 / math.sqrt(M)
        x = lift(1, 1.0)                                        # |in>
        assert np.array_equal(np.flatnonzero(x), np.arange(N + M, 2 * N))
        assert np.all(x[N + M:2 * N] == wL)
        x = lift(2, 1.0)                                        # |0,1>
        assert np.array_equal(np.flatnonzero(x), np.arange(M))
        assert np.all(x[:M] == wR)
        x = lift(slice(4, None), np.arange(1.0, n + 1))         # interior
        assert np.array_equal(np.flatnonzero(x), np.arange(2 * N, 2 * N + M * n))
        for k in range(1, M + 1):
            start = 2 * N + (k - 1) * n
            assert np.all(x[start:start + n] == np.arange(1.0, n + 1) * wR)

    def test_million_edge_basis_needs_no_labels(self, bolo_spec):
        N, n = 10 ** 6, bolo_spec.n_interior
        b = sw.EdgeBasis(bolo_spec.interior, N, 1)
        assert len(b) == 2 * N + n
        assert b == sw.build_full(bolo_spec, N).basis
        assert b != sw.EdgeBasis(bolo_spec.interior, N, 2)
        # interior state b (index 1) of the single copy sits at 2N+1
        i = bolo_spec.interior.index("b")
        a = np.zeros(bolo_spec.dim_collapsed, dtype=complex)
        a[4 + i] = 1.0
        lifted = sw.lift_collapsed_state(sw.StateVector(a, bolo_spec.basis), N, 1)
        assert np.array_equal(np.flatnonzero(lifted.amplitudes), [2 * N + 1])


# ---------------------------------------------------------------------------
# lift / restrict
# ---------------------------------------------------------------------------

class TestLiftRestrict:
    def test_in_state_lifts_to_uniform_sum(self, grover_spec):
        N = 10
        amp = np.zeros(4, dtype=complex)
        amp[1] = 1.0  # |in>
        lifted = sw.lift_collapsed_state(sw.StateVector(amp, grover_spec.basis), N, 1)
        # j->0 sits at N+j-1: 1->0 at N, the unmarked edges after it
        assert lifted.amplitudes[N + 1:2 * N] == pytest.approx(np.full(N - 1, 1 / math.sqrt(N - 1)))
        assert lifted.amplitudes[N] == 0
        assert not lifted.amplitudes[:N].any()

    def test_marked_edge_state_unchanged(self, grover_spec):
        amp = np.zeros(4, dtype=complex)
        amp[2] = 1.0  # |0,1>
        lifted = sw.lift_collapsed_state(sw.StateVector(amp, grover_spec.basis), 10, 1)
        assert lifted.amplitudes[0] == pytest.approx(1.0)      # 0->1
        assert not lifted.amplitudes[1:].any()

    def test_roundtrip_identity(self, bolo_spec):
        rng = np.random.default_rng(0)
        s = random_collapsed_state(rng, bolo_spec)
        lifted = sw.lift_collapsed_state(s, 12, 2)
        back, leak = sw.restrict_full_state(lifted)
        assert leak < 1e-12
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-12

    def test_roundtrip_without_interior_infers_copies(self, grover_spec):
        # grover has no interior states, so M can only come from the basis
        rng = np.random.default_rng(7)
        s = random_collapsed_state(rng, grover_spec)
        back, leak = sw.restrict_full_state(sw.lift_collapsed_state(s, 12, 3))
        assert leak < 1e-12
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-12

    def test_inner_products_preserved(self, bolo_spec):
        rng = np.random.default_rng(1)
        s1 = random_collapsed_state(rng, bolo_spec)
        s2 = random_collapsed_state(rng, bolo_spec)
        l1 = sw.lift_collapsed_state(s1, 9, 1)
        l2 = sw.lift_collapsed_state(s2, 9, 1)
        assert np.vdot(l1.amplitudes, l2.amplitudes) == pytest.approx(
            np.vdot(s1.amplitudes, s2.amplitudes), abs=1e-12)

    def test_50_step_equivalence(self, bolo_spec):
        N, M = 8, 1
        hub = sw.hub_coefficients(N, M=M)
        Uc = sw.build_collapsed(bolo_spec, hub, 0.0)
        Uf = sw.build_full(bolo_spec, N, M=M, phi=0.0)
        rng = np.random.default_rng(2)
        sc = random_collapsed_state(rng, bolo_spec)
        sf = sw.lift_collapsed_state(sc, N, M)
        sc50 = sw.evolve(Uc, sc, 50)
        sf50 = sf
        for _ in range(50):
            sf50 = sw.apply(Uf, sf50)
        back, leak = sw.restrict_full_state(sf50)
        assert leak < 1e-10
        assert np.max(np.abs(back.amplitudes - sc50.amplitudes)) < 1e-10

    def test_asymmetric_state_reports_leakage(self, grover_spec):
        N = 5
        basis = sw.EdgeBasis(grover_spec.interior, N, 1)
        amp = np.zeros(len(basis), dtype=complex)
        amp[N + 1] = 1.0  # 2->0, one unmarked edge only: not symmetric
        restricted, leak = sw.restrict_full_state(sw.StateVector(amp, basis))
        # symmetric component is 1/sqrt(N-1) of |in>; the rest leaks
        assert abs(restricted.amplitudes[1]) == pytest.approx(1 / math.sqrt(N - 1))
        assert leak == pytest.approx(math.sqrt(1 - 1 / (N - 1)), abs=1e-12)


# ---------------------------------------------------------------------------
# apply / evolve
# ---------------------------------------------------------------------------

class TestEvolution:
    def test_zero_steps_is_identity(self, grover_spec):
        hub = sw.hub_coefficients(100)
        U = sw.build_collapsed(grover_spec, hub, 0.0)
        rng = np.random.default_rng(3)
        s = random_collapsed_state(rng, grover_spec)
        out = sw.evolve(U, s, 0)
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_basis_mismatch_rejected(self, grover_spec, bolo_spec):
        hub = sw.hub_coefficients(100)
        U = sw.build_collapsed(grover_spec, hub, 0.0)
        rng = np.random.default_rng(4)
        s = random_collapsed_state(rng, bolo_spec)
        with pytest.raises(sw.SpecError):
            sw.apply(U, s)

    def test_grover_rotation_amplitudes(self, grover_spec):
        # starting from the left active vector the walk rotates into the marked
        # edge: amplitudes follow (cos, cos, sin, -sin)(m sqrt(eps))/sqrt(2)
        # up to O(sqrt(eps))  [expanding the eigenvector sum
        #  (-i e^{i m th} + i e^{-i m th})/2 = sin(m th), etc.]
        N = 10 ** 4
        eps = 1 / N
        hub = sw.hub_coefficients(N)
        U = sw.build_collapsed(grover_spec, hub, 0.0)
        l0 = np.zeros(4, dtype=complex)
        l0[:2] = sw.left_active(0.0, +1)
        s = sw.StateVector(l0, grover_spec.basis)
        for m in (10, 50, 120):
            out = sw.evolve(U, s, m).amplitudes
            th = m * math.sqrt(eps)
            expected = np.array([math.cos(th), math.cos(th),
                                 math.sin(th), -math.sin(th)]) / math.sqrt(2)
            assert np.max(np.abs(out - expected)) < 5 * math.sqrt(eps)
            mags = np.array([math.cos(th), math.cos(th),
                             math.sin(th), math.sin(th)]) / math.sqrt(2)
            assert np.max(np.abs(np.abs(out) - np.abs(mags))) < 5 * math.sqrt(eps)

    def test_bolo_bound_vector_is_epsilon_independent(self, bolo_spec):
        v = np.zeros(7, dtype=complex)
        assert bolo_spec.interior == ("A->1", "b", "1->A")    # at 4, 5, 6
        v[4:] = np.array([1, -1, 1]) / math.sqrt(3)
        s = sw.StateVector(v, bolo_spec.basis)
        for N in (10, 1000):
            hub = sw.hub_coefficients(N)  # eps = 1/N, including eps=1e-3
            U = sw.build_collapsed(bolo_spec, hub, 0.0)
            out = sw.evolve(U, s, 7)
            assert np.max(np.abs(out.amplitudes - (-1) ** 7 * v)) < 1e-12

    def test_dense_power_matches_stepping(self, bolo_spec):
        hub = sw.hub_coefficients(1000)
        U = sw.build_collapsed(bolo_spec, hub, 0.4)
        s = random_collapsed_state(np.random.default_rng(6), bolo_spec)
        stepped = s
        for _ in range(300):
            stepped = sw.apply(U, stepped)
        assert np.max(np.abs(sw.evolve(U, s, 300).amplitudes - stepped.amplitudes)) < 1e-12

    @staticmethod
    def _walk(name):
        """A collapsed operator at N = 1000, phi = 0.4 and a random unit state."""
        spec = (random_spec(np.random.default_rng(11)) if name == "random"
                else sw.load_spec(name))
        U = sw.build_collapsed(spec, sw.hub_coefficients(1000), 0.4)
        return U, random_collapsed_state(np.random.default_rng(12), spec)

    @pytest.mark.parametrize("name", ["grover", "bolo", "random"])
    def test_squaring_matches_literal_stepping(self, name):
        U, s = self._walk(name)
        x = s.amplitudes
        for m in range(301):
            assert np.max(np.abs(sw.evolve(U, s, m).amplitudes - x)) < 1e-12, m
            x = U.matrix @ x

    @pytest.mark.parametrize("name", ["grover", "bolo", "random"])
    def test_squaring_matches_full_matrix_power(self, name):
        U, s = self._walk(name)
        steps = sorted({0, 1, 2, 3} | {2 ** k + d for k in range(2, 22) for d in (-1, 0, 1)})
        for m in steps:
            reference = np.linalg.matrix_power(U.matrix, m) @ s.amplitudes
            assert np.max(np.abs(sw.evolve(U, s, m).amplitudes - reference)) < 1e-12, m

    @pytest.mark.parametrize("name", ["grover", "bolo", "random"])
    def test_squaring_is_bitwise_the_matmul_product(self, name):
        U, s = self._walk(name)
        for m in (1, 5, 1000, 2 ** 20 + 7):
            powers, reference = [U.matrix], s.amplitudes
            while 1 << len(powers) <= m:
                powers.append(powers[-1] @ powers[-1])
            for j in reversed(range(len(powers))):
                if m >> j & 1:
                    reference = powers[j] @ reference
            assert np.array_equal(sw.evolve(U, s, m).amplitudes, reference), m

    def test_precision_envelope(self, bolo_spec):
        # past N ~ 1e21 the m-step phases exhaust double precision; at 1e30
        # p_marked would come out near 0.59 instead of 0.75
        with pytest.raises(sw.NumericsError, match="norm drifted"):
            sw.run_search(sw.plan_search(bolo_spec, 10 ** 30), bolo_spec)
        res = sw.run_search(sw.plan_search(bolo_spec, 10 ** 12), bolo_spec)
        assert abs(res.p_marked - 0.75) < 1e-6

    def test_refuses_m_times_residual_of_one(self, bolo_spec):
        U = sw.build_collapsed(bolo_spec, sw.hub_coefficients(1000), 0.4)
        s = random_collapsed_state(np.random.default_rng(7), bolo_spec)
        m = math.ceil(1.0 / U.residual)
        with pytest.raises(sw.NumericsError, match="unitarity residual"):
            sw.evolve(U, s, m)
        # the check comes before any squaring: these powers would overflow,
        # and the RuntimeWarning is an error under pytest
        huge = np.full((2, 2), 1e200)
        with pytest.raises(sw.NumericsError, match="not below 1"):
            graph._power(huge, np.ones(2), 10, 0.1)

    def test_norm_conservation_long_run(self, bolo_spec):
        hub = sw.hub_coefficients(997)
        U = sw.build_collapsed(bolo_spec, hub, 0.4)
        rng = np.random.default_rng(5)
        s = random_collapsed_state(rng, bolo_spec)
        out = sw.evolve(U, s, 10 ** 4)
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-8


# ---------------------------------------------------------------------------
# Properties over random specs
# ---------------------------------------------------------------------------

class TestRandomSpecProperties:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_unitarity_of_both_builders(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        N = int(rng.integers(3, 20))
        M = int(rng.integers(1, N))
        phi = float(rng.uniform(0, 2 * np.pi))
        hub = sw.hub_coefficients(N, M=M)
        d = spec.dim_collapsed
        Uc = sw.build_collapsed(spec, hub, phi).matrix
        assert np.linalg.norm(Uc.conj().T @ Uc - np.eye(d)) < 1e-10
        Uf = dense(sw.build_full(spec, N, M=M, phi=phi))
        n = Uf.shape[0]
        assert np.linalg.norm(Uf.conj().T @ Uf - np.eye(n)) < 1e-10

    @pytest.mark.parametrize("M,N,phases", [
        pytest.param(M, N, None, id=f"{M}-{N}")
        for M, N in ((1, 4), (1, 8), (2, 4), (2, 8), (3, 8), (2, 12))
    ] + [
        pytest.param(M, N, (x, y), id=f"{M}-{N}-x{x}-y{y}")
        for M, N in ((3, 8), (2, 12)) for x, y in ((2.0, 0.3), (1.0, 2.0))
    ])
    def test_collapse_correctness(self, M, N, phases):
        # the library's diffusive hub, and reference hubs at M > 1: both pictures
        # take whatever unitary hub they are given
        rng = np.random.default_rng(100 * N + M)
        spec = random_spec(rng)
        phi = 0.9
        hub = sw.hub_coefficients(N, M) if phases is None else _phase_hub(N, M, *phases)
        Uc = sw.build_collapsed(spec, hub, phi)
        Uf = dataclasses.replace(sw.build_full(spec, N, M=M, phi=phi), hub=hub)
        sc = random_collapsed_state(rng, spec)
        sf = sw.lift_collapsed_state(sc, N, M)
        for _ in range(200):
            sc = sw.apply(Uc, sc)
            sf = sw.apply(Uf, sf)
            restricted, leak = sw.restrict_full_state(sf)
            assert leak < 1e-10
            assert np.linalg.norm(restricted.amplitudes - sc.amplitudes) < 1e-10


# ---------------------------------------------------------------------------
# Spec JSON handling
# ---------------------------------------------------------------------------

BAD_JSON_VALUES = [10 ** 400, -10 ** 400, math.nan, math.inf, 1e308, "x", "ab", None, True,
                   7, [], [1.0], [[1, 2]], [[[1, 2]]], {"re": 1, "im": 0}]


def _json_paths(node, path=()):
    """The path (keys and indices) of every node of a JSON tree, root first."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _mutated(tree, path, kind, value):
    """A copy of ``tree`` with the node at ``path`` dropped, wrapped in a list or replaced."""
    if not path:
        return value
    tree = copy.deepcopy(tree)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "wrap":
        parent[path[-1]] = [parent[path[-1]]]
    else:
        parent[path[-1]] = value
    return tree


class TestSpecSerialization:
    def test_roundtrip(self, bolo_spec, tmp_path):
        path = tmp_path / "bolo_copy.json"
        path.write_text(json.dumps(bolo_spec.to_dict()))
        again = sw.load_spec(str(path))
        assert again.interior == bolo_spec.interior
        for v1, v2 in zip(bolo_spec.vertices, again.vertices):
            assert np.array_equal(v1.matrix, v2.matrix)

    def test_bundled_names_resolve(self):
        assert sw.load_spec("grover.json").n_interior == 0
        assert sw.load_spec("bolo").n_interior == 3

    def test_missing_file_is_spec_error(self):
        with pytest.raises(sw.SpecError):
            sw.load_spec("/nonexistent/path.json")

    def test_dangling_interior_rejected(self):
        with pytest.raises(sw.SpecError):
            sw.SubgraphSpec(
                (sw.Vertex("1", ("0->1",), ("1->0",), np.array([[-1.0]])),),
                "1", ("ghost",))

    @pytest.mark.parametrize("reserved", ["out", "in", "0->1", "1->0"])
    def test_reserved_interior_label_rejected(self, bolo_spec, reserved):
        text = json.dumps(bolo_spec.to_dict()).replace('"b"', json.dumps(reserved))
        with pytest.raises(sw.SpecError, match=f"interior label '{reserved}' is reserved"):
            sw.SubgraphSpec.from_dict(json.loads(text))

    def test_vertex_matrix_is_a_read_only_copy(self):
        given = np.array([[-1.0]])
        v = sw.Vertex("1", ("0->1",), ("1->0",), given)
        assert v.matrix.dtype == complex
        with pytest.raises(ValueError):
            v.matrix[0, 0] = 1.0
        given[0, 0] = 1.0                       # the caller's array stays theirs
        assert v.matrix[0, 0] == -1.0

    def test_loaded_vertex_matrices_are_read_only(self):
        for v in sw.load_spec("bolo").vertices:     # not the shared fixture
            with pytest.raises(ValueError):
                v.matrix[0, 0] = 0.0

    def test_nan_matrix_rejected(self):
        with pytest.raises(sw.SpecError, match="not unitary"):
            sw.SubgraphSpec(
                (sw.Vertex("1", ("0->1",), ("1->0",), np.array([[math.nan]])),),
                "1", ())

    @pytest.mark.parametrize("entry", ["a", [1, 0, 0], 10 ** 400, [1e308, 0], math.inf])
    def test_malformed_matrix_entry_rejected(self, entry):
        data = {"vertices": [{"id": "1", "ports_in": ["0->1"], "ports_out": ["1->0"],
                              "matrix": [[entry]]}],
                "attachment": "1", "interior": []}
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # rejected before any overflow
            with pytest.raises(sw.SpecError, match="malformed"):
                sw.SubgraphSpec.from_dict(data)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_description_loads_or_is_spec_error(self, data):
        tree = sw.load_spec(data.draw(st.sampled_from(["grover", "bolo"]))).to_dict()
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_json_paths(tree))))
            kind = data.draw(st.sampled_from(["drop", "wrap", "replace"]))
            tree = _mutated(tree, path, kind, data.draw(st.sampled_from(BAD_JSON_VALUES)))
        try:
            spec = sw.SubgraphSpec.from_dict(tree)
        except sw.SpecError:
            return
        assert isinstance(spec, sw.SubgraphSpec)

    def test_doubly_consumed_state_rejected(self):
        with pytest.raises(sw.SpecError):
            sw.SubgraphSpec(
                (
                    sw.Vertex("1", ("0->1", "a",), ("1->0", "a"),
                              np.eye(2, dtype=complex)),
                    sw.Vertex("2", ("a",), ("a",), np.array([[1.0]])),
                ),
                "1", ("a",))


def _vertex(vid, ports_in, ports_out):
    return {"id": vid, "ports_in": ports_in, "ports_out": ports_out,
            "matrix": np.eye(len(ports_in)).tolist()}


# Spec descriptions that break one wiring rule each, with the message that names it.
BAD_WIRING = {
    "duplicate_vertex_ids": (
        [_vertex("1", ["0->1"], ["1->0"]), _vertex("1", ["a"], ["a"])], ["a"],
        r"duplicate vertex ids: \['1', '1'\]"),
    "duplicate_interior_labels": (
        [_vertex("1", ["0->1", "a"], ["1->0", "a"])], ["a", "a"],
        "duplicate interior labels"),
    "state_produced_twice": (
        [_vertex("1", ["0->1"], ["a"]), _vertex("2", ["a"], ["a"])], ["a"],
        "state 'a' produced by both 1 and 2"),
    "marked_out_consumed_elsewhere": (
        [_vertex("1", ["a"], ["1->0"]), _vertex("2", ["0->1"], ["a"])], ["a"],
        r"\|0,1> must be consumed by the attachment vertex"),
    "marked_in_produced_elsewhere": (
        [_vertex("1", ["0->1"], ["a"]), _vertex("2", ["a"], ["1->0"])], ["a"],
        r"\|1,0> must be produced by the attachment vertex"),
}


def bad_wiring(name: str) -> tuple[dict, str]:
    """(description, message pattern) of one BAD_WIRING case, attached at vertex "1"."""
    vertices, interior, message = BAD_WIRING[name]
    return {"vertices": vertices, "attachment": "1", "interior": interior}, message


class TestInputChecks:
    """Each rejection names what is wrong, with the documented error type."""

    @pytest.mark.parametrize("name", sorted(BAD_WIRING))
    def test_bad_wiring_rejected(self, name):
        data, message = bad_wiring(name)
        with pytest.raises(sw.SpecError, match=message):
            sw.SubgraphSpec.from_dict(data)

    def test_malformed_vertex_matrix(self):
        with pytest.raises(sw.SpecError, match="vertex 1: malformed matrix"):
            sw.Vertex("1", ("0->1",), ("1->0",), [[1.0, [2.0, 3.0]]])

    def test_spec_file_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(sw.SpecError, match="is not valid JSON"):
            sw.load_spec(str(path))

    def test_lift_needs_a_collapsed_state(self, grover_spec):
        full = sw.lift_collapsed_state(sw.initial_state(grover_spec, 8, 1, 1, 0.0), 8)
        with pytest.raises(sw.SpecError, match="expected a collapsed-basis state"):
            sw.lift_collapsed_state(full, 8)

    def test_restrict_needs_a_full_state(self, grover_spec):
        with pytest.raises(sw.SpecError, match="expected a full-basis state"):
            sw.restrict_full_state(sw.initial_state(grover_spec, 8, 1, 1, 0.0))

    def test_evolve_basis_mismatch(self, grover_spec, bolo_spec):
        U = sw.build_collapsed(grover_spec, sw.hub_coefficients(100), 0.0)
        with pytest.raises(sw.SpecError, match="operator/state basis mismatch"):
            sw.evolve(U, sw.initial_state(bolo_spec, 100, 1, 1, 0.0), 3)

    def test_evolve_negative_steps(self, grover_spec):
        # a count that is not a nonnegative integer is bad input, not a numerical diagnostic
        U = sw.build_collapsed(grover_spec, sw.hub_coefficients(100), 0.0)
        for m in (-1, np.int64(-1), 2.5, 10.0, math.nan, "3"):
            with pytest.raises(ValueError, match="step count must be a nonnegative integer"):
                sw.evolve(U, sw.initial_state(grover_spec, 100, 1, 1, 0.0), m)

    def test_evolve_refuses_the_full_walk(self, grover_spec):
        # the full walk steps one state at a time through apply; evolve powers a collapsed operator
        Uf = sw.build_full(grover_spec, 8)
        state = sw.lift_collapsed_state(sw.initial_state(grover_spec, 8, 1, 1, 0.0), 8)
        with pytest.raises(sw.SpecError, match="step a full walk with apply"):
            sw.evolve(Uf, state, 1)
