import cmath
import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

import starwalk as sw
from starwalk import spectral
from starwalk.spectral import (
    CASE_CONSTANT,
    CASE_DRIFT,
    CASE_PAIRED,
    DEFAULT_EPS_GRID,
    embed_right,
    spectral_report,
)

from conftest import haar_unitary, random_spec

RNG = np.random.default_rng(20260823)


def _decoupled_spec() -> sw.SubgraphSpec:
    """Attachment with two arms, one of which never talks to the hub.

    The hub input is routed to arm a0 and back; arm a1 forms a closed 2-cycle
    with reflector phase e^{i}, giving a purely bound eigenvalue pair at
    +-e^{i/2}.
    """
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    verts = (
        sw.Vertex("1", ("0->1", "a0->1", "a1->1"), ("1->0", "1->a0", "1->a1"), swap),
        sw.Vertex("a0", ("1->a0",), ("a0->1",), np.array([[1.0]], dtype=complex)),
        sw.Vertex("a1", ("1->a1",), ("a1->1",),
                  np.array([[cmath.exp(1.0j)]], dtype=complex)),
    )
    interior = ("a0->1", "a1->1", "1->a0", "1->a1")
    return sw.SubgraphSpec(verts, "1", interior)


# ---------------------------------------------------------------------------
# Eigendecomposition
# ---------------------------------------------------------------------------

class TestEigendecompose:
    def test_residual_on_random_unitaries(self):
        for n in (2, 5, 9):
            U = haar_unitary(RNG, n)
            vals, vecs = sw.eigendecompose(U)
            R = U @ vecs - vecs * vals
            assert np.max(np.abs(R)) < 1e-9
            assert np.allclose(np.abs(vals), 1.0, atol=1e-10)

    def test_gauge_fixing(self):
        _, vecs = sw.eigendecompose(haar_unitary(RNG, 6))
        for k in range(6):
            v = vecs[:, k]
            i = int(np.argmax(np.abs(v)))
            assert abs(v[i].imag) < 1e-12
            assert v[i].real > 0
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_degenerate_spectrum_gives_orthonormal_basis(self):
        # fourfold-degenerate unitary: the eigenbasis must still be orthonormal
        Q = haar_unitary(RNG, 5)
        U = Q @ np.diag([1, 1, 1, 1, -1]).astype(complex) @ Q.conj().T
        _, vecs = sw.eigendecompose(U)
        G = vecs.conj().T @ vecs
        assert np.max(np.abs(G - np.eye(5))) < 1e-12

    def test_non_normal_input_raises(self):
        # a Jordan block has no eigenbasis: any orthonormal basis fails the residual
        with pytest.raises(sw.NumericsError, match="residual"):
            sw.eigendecompose(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))

    @pytest.mark.parametrize("A", [
        np.ones((2, 3), dtype=complex),
        np.zeros((0, 0), dtype=complex),
        np.ones(4, dtype=complex),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, np.inf]]),
        np.array([[1.0, 0.0], [0.0, complex(0.0, -np.inf)]]),
        "operator",
    ], ids=["non-square", "empty", "one-dimensional", "nan", "inf", "imag-inf", "operator"])
    def test_malformed_input_is_spec_error(self, A, bolo_spec):
        if isinstance(A, str):      # the operator record, not its matrix
            A = sw.build_collapsed(bolo_spec, sw.hub_coefficients(100), 0.0)
        with pytest.raises(sw.SpecError) as info:
            sw.eigendecompose(A)
        assert len(str(info.value).splitlines()) == 1

    @staticmethod
    def _check_basis(U, vals, Z, tol=1e-12):
        n = len(U)
        assert np.max(np.abs(Z.conj().T @ Z - np.eye(n))) < tol
        assert np.max(np.linalg.norm(U @ Z - Z * vals, axis=0)) < tol

    def test_evenly_spread_spectrum(self):
        # n = 400 equally spaced eigenvalues: the largest gap is the smallest
        # possible one, 2pi/n, so I + B is as close to singular as it gets
        n = 400
        lams = np.exp(2j * np.pi * (np.arange(n) + 0.3) / n)
        Q = haar_unitary(RNG, n)
        U = (Q * lams) @ Q.conj().T
        vals, vecs = sw.eigendecompose(U)
        self._check_basis(U, vals, vecs)
        assert np.max(np.min(np.abs(vals[:, None] - lams), axis=1)) < 1e-12
        assert len(sw.group_eigenvalues(vals)) == n

    def test_clusters_at_plus_minus_one_with_close_neighbours(self):
        # degenerate clusters at +-1 with simple eigenvalues 1e-6 away from each
        near = cmath.exp(1e-6j)
        spectrum = {1.0: 4, -1.0: 3, near: 1, -near: 1, 1j: 2}
        lams = np.array([lam for lam, k in spectrum.items() for _ in range(k)], dtype=complex)
        Q = haar_unitary(RNG, len(lams))
        U = (Q * lams) @ Q.conj().T
        vals, vecs = sw.eigendecompose(U)
        self._check_basis(U, vals, vecs)
        groups = sw.group_eigenvalues(vals)
        assert len(groups) == len(spectrum)
        for lambda0, members in groups:
            lam = min(spectrum, key=lambda z: abs(z - lambda0))
            assert len(members) == spectrum[lam]
            assert abs(lambda0 - lam) < 1e-12
            V = vecs[:, list(members)]
            Q_g = Q[:, np.abs(lams - lam) < 1e-12]
            assert np.max(np.abs(V @ V.conj().T - Q_g @ Q_g.conj().T)) < 1e-9

    @pytest.mark.parametrize("kind", ["haar", "degenerate"])
    def test_matches_schur(self, kind):
        # the complex Schur form of a unitary is diagonal: its diagonal and the
        # spans of its vectors per eigenvalue group are the reference
        import scipy.linalg
        n = 40
        Q = haar_unitary(RNG, n)
        if kind == "haar":
            U = Q
        else:
            lams = RNG.choice([1.0, -1.0, 1j, cmath.exp(0.3j)], size=n)
            U = (Q * lams) @ Q.conj().T
        vals, vecs = sw.eigendecompose(U)
        T, Z = scipy.linalg.schur(U, output="complex")
        ref_vals = np.diag(T).copy()
        assert np.max(np.min(np.abs(vals[:, None] - ref_vals), axis=1)) < 1e-12
        groups, ref_groups = sw.group_eigenvalues(vals), sw.group_eigenvalues(ref_vals)
        assert [len(m) for _, m in groups] == [len(m) for _, m in ref_groups]
        for (lambda0, members), (ref_lambda0, ref_members) in zip(groups, ref_groups):
            assert abs(lambda0 - ref_lambda0) < 1e-12
            V = vecs[:, list(members)]
            W = Z[:, list(ref_members)]
            assert np.max(np.abs(V @ V.conj().T - W @ W.conj().T)) < 1e-10

    def test_operator_matrix(self, bolo_spec):
        U = sw.build_collapsed(bolo_spec, sw.hub_coefficients(100), 0.0)
        vals, _ = sw.eigendecompose(U.matrix)
        assert len(vals) == bolo_spec.dim_collapsed


class TestGroupEigenvalues:
    def test_bolo_collapsed_groups(self, bolo_spec):
        U0 = sw.collapsed_matrix(bolo_spec, 0.0, 0.0)
        groups = sw.group_eigenvalues(sw.eigendecompose(U0)[0])
        # eps=0, phi=0: left contributes +-1, right {-1,-1,1,(1+-2sqrt2 i)/3}
        by_val = {complex(round(lam.real, 6), round(lam.imag, 6)): len(members)
                  for lam, members in groups}
        assert by_val[complex(1, 0)] == 2
        assert by_val[complex(-1, 0)] == 3
        assert len(groups) == 4

    def test_multiplicity_sums_to_dimension(self, grover_spec, bolo_spec):
        for spec in (grover_spec, bolo_spec):
            U0 = sw.collapsed_matrix(spec, 0.0, 0.3)
            groups = sw.group_eigenvalues(sw.eigendecompose(U0)[0])
            assert sum(len(members) for _, members in groups) == spec.dim_collapsed

    def test_wraparound_cluster_at_minus_pi(self):
        # one family straddling the angle cut at +-pi
        vals = np.array([cmath.exp(1j * (math.pi - 1e-9)),
                         cmath.exp(1j * (-math.pi + 1e-9)),
                         1.0 + 0j])
        groups = sw.group_eigenvalues(vals)
        assert sorted(len(members) for _, members in groups) == [1, 2]

    def test_ambiguous_clustering_raises(self):
        # two clusters separated by 1.5*tol: too far to merge, too close to trust
        vals = np.array([1.0 + 0j, cmath.exp(1.5e-7j)])
        with pytest.raises(sw.NumericsError, match="ambiguous"):
            sw.group_eigenvalues(vals)

    def test_ambiguous_pair_across_the_seam_raises(self):
        # two clusters 1.4*tol apart on either side of the angle cut at +-pi
        vals = np.array([cmath.exp(1j * (math.pi - 0.7e-7)), 1.0 + 0j, 1j,
                         cmath.exp(1j * (-math.pi + 0.7e-7))])
        with pytest.raises(sw.NumericsError, match="ambiguous"):
            sw.group_eigenvalues(vals)

    def test_returned_groups_are_at_least_twice_the_tolerance_apart(self):
        # pairs planted 1.2..2.8 tol apart at random angles (a quarter across the seam)
        # among random eigenvalues: no call returns two representatives closer than 2 tol
        rng = np.random.default_rng(7)
        tol = spectral.CLUSTER_TOL
        outcomes = set()
        for trial in range(2000):
            gap = rng.uniform(1.2, 2.8) * tol
            start = math.pi - gap / 2 if trial % 4 == 0 else rng.uniform(-math.pi, math.pi)
            angles = np.concatenate(([start, start + gap], rng.uniform(-math.pi, math.pi, 4)))
            try:
                groups = sw.group_eigenvalues(np.exp(1j * angles))
            except sw.NumericsError:
                outcomes.add("raised")
                continue
            reps = np.array([lam for lam, _ in groups])
            chords = np.abs(reps[:, None] - reps[None, :]) + np.eye(len(reps)) * 4
            assert chords.min() >= 2 * tol
            outcomes.add("returned")
        assert outcomes == {"raised", "returned"}

    def test_round_off_of_plus_minus_one_is_snapped(self, bolo_spec):
        # +-1 with round-off parts of either sign: lambda0 has exact +0.0 parts
        vals = np.array([complex(1.0, -3e-17), complex(1.0 - 1e-16, 2e-17),
                         complex(-1.0, -5e-17), complex(-1.0, 4e-17), 1j * (1 + 1e-16)])
        groups = sw.group_eigenvalues(vals)
        assert [lam for lam, _ in groups] == [1.0, 1j, -1.0]
        assert all(math.copysign(1.0, lam.imag) == 1.0 for lam, _ in groups)
        for cl in sw.right_classifications(bolo_spec):
            if abs(abs(cl.lambda0.real) - 1.0) < 1e-9:
                assert cl.lambda0.imag == 0.0 and math.copysign(1.0, cl.lambda0.imag) == 1.0


# ---------------------------------------------------------------------------
# Right block and classification
# ---------------------------------------------------------------------------

class TestRightBlock:
    def test_bolo_eigenvalues(self, bolo_spec):
        A = sw.right_block(bolo_spec)
        assert spectral_report(bolo_spec)["right_basis"][:2] == ["0->1", "1->0"]
        vals = np.sort_complex(np.linalg.eigvals(A))
        expected = np.sort_complex(np.array(
            [-1, -1, 1, (1 + 2j * math.sqrt(2)) / 3, (1 - 2j * math.sqrt(2)) / 3]))
        assert np.max(np.abs(vals - expected)) < 1e-9

    def test_grover_eigenvalues(self, grover_spec):
        A = sw.right_block(grover_spec)
        vals = sorted(np.linalg.eigvals(A), key=lambda z: z.real)
        assert abs(vals[0] + 1) < 1e-12 and abs(vals[1] - 1) < 1e-12

    def test_block_is_unitary(self, bolo_spec):
        A = sw.right_block(bolo_spec)
        assert np.max(np.abs(A.conj().T @ A - np.eye(A.shape[0]))) < 1e-12


class TestClassifyRight:
    def test_bolo_c_table(self, bolo_spec):
        expected = {
            (-1.0, 0.0): math.sqrt(3.0 / 4.0),
            (1.0, 0.0): math.sqrt(1.0 / 2.0),
            (1.0 / 3.0, 2.0 * math.sqrt(2) / 3.0): math.sqrt(3.0 / 8.0),
            (1.0 / 3.0, -2.0 * math.sqrt(2) / 3.0): math.sqrt(3.0 / 8.0),
        }
        for (re, im), c_want in expected.items():
            cl = sw.classify_right(bolo_spec, complex(re, im))
            assert cl.c is not None
            assert abs(cl.c - c_want) < 1e-9

    def test_bolo_bound_vector_at_minus_one(self, bolo_spec):
        cl = sw.classify_right(bolo_spec, -1.0 + 0j)
        assert cl.n_bound == 1
        b = cl.bound_basis[:, 0]
        # bound vectors carry no amplitude on the hub-adjacent states
        assert abs(b[0]) < 1e-10 and abs(b[1]) < 1e-10
        A = sw.right_block(bolo_spec)
        assert np.linalg.norm(A @ b - (-1.0) * b) < 1e-9

    def test_simple_eigenvalues_have_no_bound_part(self, bolo_spec):
        cl = sw.classify_right(bolo_spec, 1.0 + 0j)
        assert cl.n_bound == 0
        assert abs(np.linalg.norm(cl.active_vector) - 1.0) < 1e-12

    def test_bound_only_eigenvalue(self):
        spec = _decoupled_spec()
        cl = sw.classify_right(spec, cmath.exp(0.5j))
        assert cl.active_vector is None and cl.c is None
        assert cl.n_bound == 1

    def test_rejects_non_eigenvalue(self, bolo_spec):
        with pytest.raises(ValueError, match="not an eigenvalue"):
            sw.classify_right(bolo_spec, 0.5 + 0.5j)
        with pytest.raises(ValueError, match="not an eigenvalue"):
            sw.classify_right(bolo_spec, complex(math.nan, 0.0))

    def test_active_vector_is_eigenvector(self, bolo_spec):
        A = sw.right_block(bolo_spec)
        for cl in sw.right_classifications(bolo_spec):
            if cl.active_vector is None:
                continue
            r = cl.active_vector
            assert np.linalg.norm(A @ r - cl.lambda0 * r) < 1e-9
            assert abs(cl.c - math.sqrt(2.0) * abs(r[1])) < 1e-12

    def test_record_carries_the_search_target(self, bolo_spec):
        for cl in sw.right_classifications(bolo_spec):
            assert (cl.phi, cl.branch) == sw.matched_phi(cl.lambda0)
            if cl.c is None:
                assert cl.r0 is cl.predicted_success is None
                continue
            assert np.array_equal(cl.r0, embed_right(cl.active_vector, bolo_spec.dim_collapsed))
            assert abs(cl.predicted_success - abs(cl.active_vector[0]) ** 2 - cl.c ** 2 / 2) < 1e-15
            plan = sw.plan_search(bolo_spec, 10 ** 6, M=3, lambda0=cl.lambda0)
            start = sw.initial_state(bolo_spec, 10 ** 6, 3, cl.branch, cl.phi)
            assert plan.initial.tobytes() == start.tobytes()

    def test_contact_rank_above_one_raises(self):
        # two orthonormal vectors both touching |0,1>, |1,0>: two active vectors
        with pytest.raises(sw.NumericsError, match="rank 2"):
            spectral._classify_group(np.eye(3, dtype=complex), (1.0 + 0j, (0, 1, 2)))


class TestClassificationMemo:
    """The right-block classification is computed once per (spec, x) and kept on the spec."""

    def test_one_decomposition_across_entry_points(self, decompositions):
        spec = sw.load_spec("bolo")
        for N in (10 ** 3, 10 ** 6, 10 ** 9):
            sw.plan_search(spec, N)
            sw.plan_search(spec, N, M=2, lambda0=1.0)
        sw.classify_right(spec, -1.0)
        sw.tolerance_sweep(spec, 10 ** 4, 1, -1.0, [0.0], locate_eps0=False)
        assert len(decompositions) == 1

    def test_fresh_list_each_call(self, bolo_spec):
        first = sw.right_classifications(bolo_spec)
        first.clear()
        again = sw.right_classifications(bolo_spec)
        assert len(again) == 4
        assert again is not sw.right_classifications(bolo_spec)

    def test_cached_arrays_are_read_only(self):
        for cl in sw.right_classifications(sw.load_spec("bolo")):   # not the shared fixture
            with pytest.raises(ValueError):
                cl.bound_basis[0, ...] = 0.0
            if cl.active_vector is not None:
                with pytest.raises(ValueError):
                    cl.active_vector[0] = 0.0

    def test_entry_per_loaded_spec_released_with_it(self, decompositions):
        a, b = sw.load_spec("grover"), sw.load_spec("grover")
        for _ in range(2):
            sw.right_classifications(a)
            sw.right_classifications(b)
        assert len(decompositions) == 2             # each load classifies once
        assert "classes" in a._derived and "classes" in b._derived
        ref = weakref.ref(a)
        del a
        gc.collect()
        assert ref() is None
        assert "classes" in b._derived

    def test_failure_is_not_cached(self, monkeypatch):
        spec = sw.load_spec("bolo")

        def failing(U, *args, **kwargs):
            raise sw.NumericsError("synthetic")
        monkeypatch.setattr(spectral, "eigendecompose", failing)
        with pytest.raises(sw.NumericsError):
            sw.right_classifications(spec)
        monkeypatch.undo()
        assert spec._derived == {}
        assert len(sw.right_classifications(spec)) == 4


class TestSumRule:
    def test_fixtures(self, grover_spec, bolo_spec):
        for spec in (grover_spec, bolo_spec):
            cls = sw.right_classifications(spec)
            total = sum(cl.c ** 2 for cl in cls if cl.c is not None)
            assert abs(total - 2.0) < 1e-9

    def test_random_specs(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            spec = random_spec(rng)
            cls = sw.right_classifications(spec)
            actives = [cl for cl in cls if cl.c is not None]
            total = sum(cl.c ** 2 for cl in actives)
            assert abs(total - 2.0) < 1e-9
            assert max(cl.c for cl in actives) >= math.sqrt(2.0 / len(actives)) - 1e-12


class TestBestTarget:
    def test_bolo(self, bolo_spec):
        best, d = sw.best_target(sw.right_classifications(bolo_spec))
        assert best is sw.classify_right(bolo_spec, -1.0)   # the family's own record
        assert abs(best.lambda0 - (-1.0)) < 1e-9
        assert abs(best.c - math.sqrt(3.0 / 4.0)) < 1e-9
        assert d == 4

    def test_grover(self, grover_spec):
        best, d = sw.best_target(sw.right_classifications(grover_spec))
        assert abs(best.c - 1.0) < 1e-12
        assert d == 2

    def test_inconsistent_sum_raises(self, bolo_spec):
        cls = sw.right_classifications(bolo_spec)
        broken = [cls[0]] + list(cls[2:])    # drop one active: sum c^2 != 2
        broken = [cl for cl in broken if cl.c is not None]
        with pytest.raises(sw.NumericsError, match="sum of c"):
            sw.best_target(broken)

    def test_no_actives_raises(self):
        with pytest.raises(ValueError, match="no active"):
            sw.best_target([])

    def test_max_c_below_guarantee_raises(self, grover_spec):
        # two families with c^2 = 1 - 4.5e-10: the sum rule holds to 9e-10, max c < 1
        c = math.sqrt(1.0 - 4.5e-10)
        low = [dataclasses.replace(cl, c=c) for cl in sw.right_classifications(grover_spec)]
        assert len(low) == 2
        with pytest.raises(sw.NumericsError, match="below guaranteed"):
            sw.best_target(low)


# ---------------------------------------------------------------------------
# Left side, U1 and matched phase
# ---------------------------------------------------------------------------

class TestLeftSide:
    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi, 5.9])
    @pytest.mark.parametrize("branch", [+1, -1])
    def test_left_active_is_eigenvector(self, phi, branch):
        # eps=0 left block: |out> -> e^{i phi}|in>, |in> -> |out>
        L = np.array([[0.0, 1.0], [cmath.exp(1j * phi), 0.0]], dtype=complex)
        v = sw.left_active(phi, branch)
        lam = branch * cmath.exp(0.5j * phi)
        assert np.linalg.norm(L @ v - lam * v) < 1e-12
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_left_active_rejects_bad_branch(self, bolo_spec):
        # the left vector and the search start take the branch by one rule
        for call in (lambda: sw.left_active(0.0, 0),
                     lambda: sw.initial_state(bolo_spec, 100, 1, 5, 0.0)):
            with pytest.raises(sw.SpecError, match="branch must be"):
                call()

    @pytest.mark.parametrize("lam", [1.0 + 0j, -1.0 + 0j, 1j,
                                     cmath.exp(0.3j), cmath.exp(-2.5j)])
    def test_matched_phi_roundtrip(self, lam):
        phi, branch = sw.matched_phi(lam)
        assert 0.0 <= phi < 2.0 * math.pi
        assert abs(branch * cmath.exp(0.5j * phi) - lam) < 1e-12

    @pytest.mark.parametrize("lam", [1.0, -1.0])
    def test_matched_phi_ignores_roundoff(self, lam):
        # the sign of a round-off imaginary part must not move phi by 2pi
        above = sw.matched_phi(lam + 1e-17j)
        assert above == sw.matched_phi(lam - 1e-17j)
        assert above[0] == 0.0

    def test_matched_phi_lands_in_collapsed_spectrum(self, bolo_spec):
        lam = -1.0 + 0j
        phi, _ = sw.matched_phi(lam)
        vals = np.linalg.eigvals(sw.collapsed_matrix(bolo_spec, 0.0, phi))
        assert np.min(np.abs(vals - lam)) < 1e-10


# ---------------------------------------------------------------------------
# Affine characteristic polynomial
# ---------------------------------------------------------------------------

def char_poly_value(spec, z: complex, eps, phi: float) -> complex:
    """C(z, eps) = det(U(eps) - z I) on the collapsed graph, densely."""
    A = sw.collapsed_matrix(spec, eps, phi)
    return complex(np.linalg.det(A - z * np.eye(A.shape[0])))


def affine_residual(spec, phi: float, z_samples, eps_samples) -> float:
    """Max deviation of C(z, eps) from a straight line in eps.

    The line is fixed by the first two eps samples; the residual is the worst
    prediction error over the remaining samples and all z.  Near machine zero
    when the characteristic polynomial is affine in eps.
    """
    eps_samples = list(eps_samples)
    if len(eps_samples) < 3:
        raise ValueError("need at least 3 epsilon samples")
    e1, e2 = eps_samples[0], eps_samples[1]
    worst = 0.0
    for z in z_samples:
        c1 = char_poly_value(spec, z, e1, phi)
        c2 = char_poly_value(spec, z, e2, phi)
        slope = (c2 - c1) / (e2 - e1)
        for e3 in eps_samples[2:]:
            pred = c1 + (e3 - e1) * slope
            worst = max(worst, abs(char_poly_value(spec, z, e3, phi) - pred))
    return worst


class TestAffineCharPoly:
    @pytest.mark.parametrize("phi", [0.0, 1.1])
    def test_fixtures(self, grover_spec, bolo_spec, phi):
        rng = np.random.default_rng(3)
        zs = np.exp(2j * math.pi * rng.uniform(size=8))
        eps = [0.01, 0.05 + 0.02j, 0.09, -0.03 + 0.04j, 0.07j]
        for spec in (grover_spec, bolo_spec):
            assert affine_residual(spec, phi, zs, eps) < 1e-10

    def test_needs_three_samples(self, grover_spec):
        with pytest.raises(ValueError):
            affine_residual(grover_spec, 0.0, [1.0], [0.01, 0.02])


# ---------------------------------------------------------------------------
# Secular function
# ---------------------------------------------------------------------------

class TestSecularFunction:
    def test_matches_determinant_ratio(self, grover_spec, bolo_spec):
        """D(z, eps) = 1 + 2 eps s(-i log z) = det(U(eps) - z)/det(U(0) - z), U(0) and
        U(eps) assembled densely."""
        rng = np.random.default_rng(12)
        specs = [grover_spec, bolo_spec] + [random_spec(rng) for _ in range(3)]
        for spec in specs:
            phi = float(rng.uniform(0, 2 * math.pi))
            sec = sw.secular_function(spec, phi)
            zs = np.exp(2j * math.pi * rng.uniform(size=5)) * rng.uniform(0.5, 1.5, 5)
            I = np.eye(spec.dim_collapsed)
            U0 = sw.collapsed_matrix(spec, 0.0, phi)
            for eps in (1e-3, 0.3, -0.2 + 0.1j):
                U = sw.collapsed_matrix(spec, eps, phi)
                for z in zs:
                    ref = np.linalg.det(U - z * I) / np.linalg.det(U0 - z * I)
                    got = 1.0 + 2.0 * eps * sec.s(-1j * np.log(z))[0]
                    assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_standard_changes_do_not_cancel(self, grover_spec):
        sec = sw.secular_function(grover_spec, 0.0)
        for eps in (1e-12, 1e-17, 1e-20):
            a, b, T2 = sec.changes(eps)
            assert a == -2 * eps and b == 2 * eps and T2 == 4 * (eps - eps * eps)

    def test_roots_are_the_hub_coupled_eigenvalues(self, bolo_spec):
        phi, _ = sw.matched_phi(-1.0 + 0j)
        sec = sw.secular_function(bolo_spec, phi)
        for eps in (1e-6, 1e-3, 0.3):
            roots = sec.z(sec.roots([eps])[0])
            dense = np.linalg.eigvals(sw.collapsed_matrix(bolo_spec, eps, phi))
            bound = [cl.lambda0 for cl in sw.right_classifications(bolo_spec)
                     for _ in range(cl.n_bound)]
            every = np.concatenate((roots, bound))
            dist = np.abs(every[:, None] - dense[None, :])
            assert sorted(np.argmin(dist, axis=1)) == list(range(len(dense)))
            assert np.max(np.min(dist, axis=1)) < 1e-12


    @pytest.mark.parametrize("name, lam0, eps", [("bolo", -1.0, 1e-100),
                                                 ("grover", 1.0, 1e-300)])
    def test_tiny_eps_roots_do_not_overflow(self, name, lam0, eps):
        # Newton asks sides for g and g' only; g'' = u*du would overflow here
        spec = sw.load_spec(name)
        cl = sw.classify_right(spec, lam0)
        sec, _, moving = spectral._family(spec, cl, 0.0)
        theta = sec.roots([eps])[0]
        split = cl.c * math.sqrt(eps)
        assert np.all(np.isfinite(theta))
        assert np.allclose(np.sort(theta[moving].real), [-split, split], rtol=1e-14, atol=0)

    def test_newton_non_convergence_raises(self, bolo_spec, monkeypatch):
        monkeypatch.setattr(spectral, "NEWTON_MAX", 0)
        sec = sw.secular_function(bolo_spec, 0.0)
        with pytest.raises(sw.NumericsError, match="did not converge"):
            sec.roots([1e-6])

    def test_poles_are_the_record_keys(self, grover_spec, bolo_spec):
        specs = [grover_spec, bolo_spec] + [random_spec(np.random.default_rng(s))
                                            for s in range(1, 6)]
        for spec in specs:
            sec = sw.secular_function(spec, 0.0)
            keys = [cl.lambda0 for cl in sw.right_classifications(spec) if cl.c is not None]
            assert sec.poles[2:].tolist() == keys

    def test_right_side_is_built_once_per_spec(self, grover_spec, bolo_spec):
        for spec in (grover_spec, bolo_spec, random_spec(np.random.default_rng(4))):
            a, b = sw.secular_function(spec, 0.0), sw.secular_function(spec, 1.3)
            assert a.residues is b.residues and a.contacts is b.contacts
            assert np.array_equal(a.poles[2:], b.poles[2:]) and a.poles[0] != b.poles[0]
            for arr in (a.residues, a.contacts):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 1.0

    def test_family_pole_comes_first(self, grover_spec, bolo_spec):
        R_L0 = spectral.collapsed_coefficients(0.0)[0]
        specs = [grover_spec, bolo_spec] + [random_spec(np.random.default_rng(s), arms=3)
                                            for s in (1, 2)]
        for spec in specs:
            for cl in sw.right_classifications(spec):
                for delta in (0.0, 0.3):
                    sec = spectral._family(spec, cl, delta)[0]
                    assert sec.poles[0] == cl.lambda0 * cmath.exp(1j * delta) * cmath.sqrt(R_L0)

    @pytest.mark.parametrize("eps", [0.0, -1e-4, math.nan, math.inf, 1.0, 2.0])
    def test_eps_outside_unit_interval_is_refused(self, bolo_spec, eps):
        with pytest.raises(sw.SpecError, match="eps must lie in"):
            sw.secular_function(bolo_spec, 0.0).roots([1e-6, eps])
        with pytest.raises(sw.SpecError, match="eps must lie in"):
            sw.paired_vectors(bolo_spec, 0.0, -1.0 + 0j, eps)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generic_lambda0_roots_at_tiny_eps(self, seed):
        # roots meeting at a snapped shared center 1e-15 apart: the direct solve
        # agrees with a continuation down from eps = 1e-20
        spec = random_spec(np.random.default_rng(seed), arms=3)
        best, _ = sw.best_target(sw.right_classifications(spec))
        sec = sw.secular_function(spec, best.phi)
        path = np.geomspace(1e-20, 1e-30, 41)
        tracked = track(sec, path, np.sqrt(path), [sec.roots([path[0]])[0]])[-1]
        theta = sec.roots([path[-1]])[0]
        assert np.max(np.abs(theta - tracked) / np.abs(tracked)) < 1e-14

    @pytest.mark.parametrize("spec_name", ["grover", "bolo", 1, 2, 3])
    def test_direct_solve_matches_continuation(self, spec_name):
        # every root, by pole, against a continuation from the small-eps seeds
        spec = (sw.load_spec(spec_name) if isinstance(spec_name, str)
                else random_spec(np.random.default_rng(spec_name), arms=3))
        path = np.geomspace(1e-16, 1e-4, 73)          # through 1e-10 and 1e-6
        for cl in sw.right_classifications(spec):
            for phi in (cl.phi, cl.phi + 2e-3):
                sec = sw.secular_function(spec, phi)
                tracked = track(sec, path, np.sqrt(path))[[36, 60, 72]]
                direct = sec.roots(path[[36, 60, 72]])
                assert np.max(np.abs(sec.z(direct) - sec.z(tracked))) < 1e-15

    def test_root_the_seeds_cannot_place_is_refused(self):
        # at eps = 1e-3 this family's pair has left the two-pole law's basin, whether every
        # root, one of the pair or the pair is asked for
        spec = random_spec(np.random.default_rng(3), arms=4)
        cl = sw.right_classifications(spec)[0]
        sec, k, moving = spectral._family(spec, cl, 0.0)
        for subset in (slice(None), [k], moving):
            with pytest.raises(sw.NumericsError, match="ambiguous"):
                sec.roots([1e-3], subset)

    @pytest.mark.parametrize("spec_name, arms", [("grover", 0), ("bolo", 0), (1, 3), (2, 3),
                                                 (3, 3), (19, 19)],
                             ids=["grover", "bolo", "1", "2", "3", "19-arms19"])
    def test_subset_solve_matches_all_roots(self, spec_name, arms):
        # a family's roots solved without the others stop when they converge: the same
        # eigenvalues to 4 ulp (theta, an offset from its pole, moves by up to 17 ulp of
        # itself); 19 arms crowd 40 right poles on the circle
        spec = (sw.load_spec(spec_name) if isinstance(spec_name, str)
                else random_spec(np.random.default_rng(spec_name), arms=arms))
        for cl in sw.right_classifications(spec):
            sec, k, moving = spectral._family(spec, cl, 1e-3)
            every = sec.roots(DEFAULT_EPS_GRID)
            for subset in ([k], moving, moving[::-1]) if k is not None else ():
                alone = sec.roots(DEFAULT_EPS_GRID, subset)
                diff = sec.z(alone, subset) - sec.z(every[:, subset], subset)
                assert np.max(np.abs(diff)) <= 4 * np.spacing(1.0)

    @pytest.mark.parametrize("spec_name, arms", [("bolo", 0), (1, 3), (19, 19)],
                             ids=["bolo", "1", "19-arms19"])
    def test_every_eps_is_solved_as_if_alone(self, spec_name, arms):
        # the eps of one call share a Newton solve, and a row stops when it converges:
        # bitwise the roots of one call per eps
        spec = (sw.load_spec(spec_name) if isinstance(spec_name, str)
                else random_spec(np.random.default_rng(spec_name), arms=arms))
        best, _ = sw.best_target(sw.right_classifications(spec))
        for phi in (best.phi, 0.3):
            sec = sw.secular_function(spec, phi)
            alone = [sec.roots([e])[0] for e in DEFAULT_EPS_GRID]
            assert np.array_equal(sec.roots(DEFAULT_EPS_GRID), alone)

    def test_pairing_fit_seeds_only_its_pair(self, monkeypatch):
        # a paired family's fit seeds its two co-centred roots at each eps, not every root,
        # and no field keeps a (root x pole) array
        spec = random_spec(np.random.default_rng(19), arms=19)
        seeded, seeds = [], sw.SecularFunction._seeds

        def spy(*args):
            out = seeds(*args)
            seeded.extend(len(row) for row in out)      # one row per eps
            return out

        monkeypatch.setattr(sw.SecularFunction, "_seeds", spy)
        fits = 0
        for cl in sw.right_classifications(spec):
            seeded.clear()
            if sw.pairing_fit(spec, cl.phi, cl.lambda0).case == CASE_PAIRED:
                assert seeded == [2] * len(DEFAULT_EPS_GRID)
                fits += 1
        assert fits == 40                       # every family of this spec pairs
        sec = sw.secular_function(spec, 0.0)
        assert all(np.shape(getattr(sec, f.name)) != (len(sec.centers), len(sec.poles))
                   for f in dataclasses.fields(sec))

    @pytest.mark.parametrize("name", ["grover", "bolo"])
    def test_failed_solve_is_a_diagnostic_not_a_warning(self, name):
        spec = sw.load_spec(name)
        for cl in sw.right_classifications(spec):
            with pytest.raises(sw.NumericsError, match="secular root"):
                sw.secular_function(spec, cl.phi).roots([0.6])
            # next to an eps that solves, the message names the one that failed
            with pytest.raises(sw.NumericsError, match="secular root.* at eps=6.000e-01"):
                sw.secular_function(spec, cl.phi).roots([1e-6, 0.6])


def track(sec, eps_path, t_path, known=None) -> np.ndarray:
    """theta of every root along eps_path from the ``known`` first points (by default the seeds
    at the first eps), by Newton from a linear predictor in t: the continuation the direct
    solve is checked against."""
    every = np.arange(len(sec.poles))
    alpha = sec.offsets(every)
    out = [sec._seeds(eps_path[:1], alpha, every)[0]] if known is None else list(known)
    for k in range(len(out), len(eps_path)):
        guess = out[-1] if k == 1 else out[-1] + (out[-1] - out[-2]) * (
            (t_path[k] - t_path[k - 1]) / (t_path[k - 1] - t_path[k - 2]))
        out.append(sec._solve(eps_path[k:k + 1], guess[None], alpha, every)[0])
    return np.array(out)


def dense_monodromy(spec, phi, rho=1e-4, steps=240):
    """Reference: dense eigenvalues along eps = rho e^{it}, matched to the nearest."""
    vals = start = np.linalg.eigvals(sw.collapsed_matrix(spec, rho, phi))
    for k in range(1, steps + 1):
        new = np.linalg.eigvals(sw.collapsed_matrix(spec, rho * cmath.exp(2j * math.pi * k / steps),
                                                    phi))
        match = np.argmin(np.abs(vals[:, None] - new[None, :]), axis=1)
        assert len(set(match)) == len(vals)
        vals = new[match]
    perm = np.argmin(np.abs(vals[:, None] - start[None, :]), axis=1)
    assert len(set(perm)) == len(perm)
    seen, lengths = set(), []
    for i in range(len(perm)):
        n = 0
        while i not in seen:
            seen.add(i)
            i, n = int(perm[i]), n + 1
        lengths += [n] if n else []
    return sorted(lengths)


# ---------------------------------------------------------------------------
# Monodromy
# ---------------------------------------------------------------------------

class TestMonodromy:
    @pytest.mark.parametrize("spec_name, phi", [("grover", 0.0), ("grover", 0.2),
                                                ("bolo", 0.0), ("bolo", 0.2)])
    def test_matches_dense_reference(self, spec_name, phi):
        spec = sw.load_spec(spec_name)
        rep = sw.monodromy(spec, phi)
        assert sorted(rep.cycle_lengths) == dense_monodromy(spec, phi)
        assert sorted(rep.permutation) == list(range(spec.dim_collapsed))

    def test_grover_matched(self, grover_spec):
        rep = sw.monodromy(grover_spec, 0.0)
        assert sorted(rep.cycle_lengths) == [2, 2]

    def test_grover_detuned_is_identity(self, grover_spec):
        rep = sw.monodromy(grover_spec, math.pi / 3.0)
        assert rep.permutation == tuple(range(4))

    def test_bolo_matched(self, bolo_spec):
        phi, _ = sw.matched_phi(-1.0 + 0j)
        rep = sw.monodromy(bolo_spec, phi)
        assert sorted(rep.cycle_lengths) == [1, 1, 1, 2, 2]

    def test_bolo_detuned_is_identity(self, bolo_spec):
        phi, _ = sw.matched_phi(-1.0 + 0j)
        rep = sw.monodromy(bolo_spec, phi + 0.2)
        assert rep.permutation == tuple(range(7))

    @pytest.mark.parametrize("spec_name", ["grover", "bolo", 1, 2, 3])
    def test_matches_dense_reference_near_the_loop(self, spec_name, monkeypatch):
        # one family matched or detuned so that its branch point |eps0| ~ (delta/2c)^2
        # sits at 0.3..3 rho: swapped inside the loop, in place outside; the branch
        # points alone decide, with no secular root solved
        def no_roots(self, *args, **kwargs):
            raise AssertionError("monodromy solved a secular root")
        monkeypatch.setattr(spectral.SecularFunction, "roots", no_roots)
        spec = (sw.load_spec(spec_name) if isinstance(spec_name, str)
                else random_spec(np.random.default_rng(spec_name), arms=3))
        best, _ = sw.best_target(sw.right_classifications(spec))
        lam, c = best.lambda0, best.c
        for ratio in (0.0, 0.3, 0.7, 1.5, 3.0):
            delta = 2.0 * c * math.sqrt(ratio * 1e-4)
            assert abs(sw.locate_double_root(spec, lam, delta)) / 1e-4 == pytest.approx(ratio, rel=0.05)
            phi = sw.detuned_phase(lam, delta)
            rep = sw.monodromy(spec, phi)
            assert sorted(rep.cycle_lengths) == dense_monodromy(spec, phi)
            assert sorted(rep.permutation) == list(range(spec.dim_collapsed))

    def test_branch_point_on_the_loop_is_refused(self, grover_spec):
        # delta = 2c sqrt(rho) puts eps0 = -(delta/2c)^2 within 0.02% of rho
        assert abs(sw.locate_double_root(grover_spec, 1.0, 0.02)) / 1e-4 - 1.0 < 1e-3
        with pytest.raises(sw.NumericsError, match="within 1% of the loop radius"):
            sw.monodromy(grover_spec, sw.detuned_phase(1.0, 0.02))

    def test_root_claimed_twice_is_refused(self):
        # right poles e^{+-i eta/2}, eta = 1e-3, and a left pole 5e-3 past the upper one:
        # both the right pair's and the upper left/right pair's branch points are enclosed
        eta = 1e-3
        mu = np.diag([cmath.exp(1j * eta), cmath.exp(-1j * eta), -1.0])
        v = np.sqrt([0.25, 0.25, 0.5]) - np.eye(3)[0]
        V = np.eye(3) - 2.0 * np.outer(v, v) / (v @ v)      # its first column: the weights
        verts = (sw.Vertex("1", ("0->1", "a0->1", "a1->1"), ("1->0", "1->a0", "1->a1"),
                           np.diag([-1.0, 1.0, 1.0]) @ V @ mu @ V.T),
                 sw.Vertex("a0", ("1->a0",), ("a0->1",), np.eye(1, dtype=complex)),
                 sw.Vertex("a1", ("1->a1",), ("a1->1",), np.eye(1, dtype=complex)))
        spec = sw.SubgraphSpec(verts, "1", ("a0->1", "a1->1", "1->a0", "1->a1"))
        with pytest.raises(sw.NumericsError, match="meets two roots inside the loop"):
            sw.monodromy(spec, 2.0 * (0.5 * eta + 5e-3))

    def test_critical_point_off_its_arc_is_refused(self, bolo_spec, monkeypatch):
        # a left pole between right poles e^{+-i eta/2}: on its arc to the lower one there is
        # no real critical point, and Newton from the midpoint crosses the left pole
        eta = 1e-2
        phi = 0.2 * eta
        half = cmath.exp(0.5j * phi)
        poles = np.array([half, -half, cmath.exp(0.5j * eta), cmath.exp(-0.5j * eta), -1.0])
        residues = np.zeros((5, 2), dtype=complex)
        residues[:2, 0] = 0.5
        residues[2:, 1] = -0.25, -0.25, -0.5
        sec = sw.SecularFunction(poles=poles, residues=residues, centers=poles,
                                 contacts=np.zeros((3, 3), dtype=complex))
        monkeypatch.setattr(spectral, "secular_function", lambda spec, phi: sec)
        with pytest.raises(sw.NumericsError, match="poles 3 and 0 left their arc"):
            sw.monodromy(bolo_spec, phi)

    def test_random_specs_cycles_at_most_two(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            spec = random_spec(rng)
            best, _ = sw.best_target(sw.right_classifications(spec))
            phi = best.phi
            rep = sw.monodromy(spec, phi)
            assert set(rep.cycle_lengths) <= {1, 2}


# ---------------------------------------------------------------------------
# Pairing fit and paired vectors
# ---------------------------------------------------------------------------

class TestPairingFit:
    def test_grover_paired(self, grover_spec):
        for lam in (1.0 + 0j, -1.0 + 0j):
            fit = sw.pairing_fit(grover_spec, 0.0, lam)
            assert fit.case == CASE_PAIRED
            assert abs(fit.c_fit - 1.0) < 1e-3
            assert fit.residual_slope >= 0.9
            assert not fit.balanced

    def test_bolo_paired(self, bolo_spec):
        phi, _ = sw.matched_phi(-1.0 + 0j)
        fit = sw.pairing_fit(bolo_spec, phi, -1.0 + 0j)
        assert fit.case == CASE_PAIRED
        assert abs(fit.c_fit - math.sqrt(3.0 / 4.0)) < 1e-3
        assert fit.residual_slope >= 0.9

    def test_unmatched_family_drifts(self, bolo_spec):
        # left is parked at +-1; the complex right eigenvalue has no partner
        phi, _ = sw.matched_phi(-1.0 + 0j)
        fit = sw.pairing_fit(bolo_spec, phi, (1 + 2j * math.sqrt(2)) / 3)
        assert fit.case == CASE_DRIFT

    def test_bound_family_is_constant(self):
        spec = _decoupled_spec()
        fit = sw.pairing_fit(spec, 0.0, cmath.exp(0.5j))
        assert fit.case == CASE_CONSTANT

    def test_balanced_case_flagged(self, grover_spec):
        # phi = pi puts lambda0^2 + e^{i phi} = 0 at lambda0 = 1: no net flow
        fit = sw.pairing_fit(grover_spec, math.pi, 1.0 + 0j)
        assert fit.balanced
        assert fit.case != CASE_PAIRED

    def test_rejects_non_eigenvalue(self, grover_spec):
        with pytest.raises(ValueError):
            sw.pairing_fit(grover_spec, 0.0, 0.3 + 0.1j)

    def test_left_pole_only_lambda0_is_refused(self, grover_spec):
        # lambda0 names a right-block group; a left pole with no group there names none
        for lam in (cmath.exp(0.5j), -cmath.exp(0.5j)):         # the left poles at phi = 1
            with pytest.raises(sw.SpecError, match="not an eigenvalue"):
                sw.pairing_fit(grover_spec, 1.0, lam)
            with pytest.raises(sw.SpecError, match="not an eigenvalue"):
                sw.paired_vectors(grover_spec, 1.0, lam, 1e-4)

    def test_weakly_coupled_families_on_default_grid(self):
        # seed 9 has families fitted 7.4e-3 off on a grid reaching eps = 1e-2
        spec = random_spec(np.random.default_rng(9), arms=12)
        paired = 0
        for cl in sw.right_classifications(spec):
            if cl.c is None:
                continue
            phi, _ = sw.matched_phi(cl.lambda0)
            fit = sw.pairing_fit(spec, phi, cl.lambda0)
            if fit.case == CASE_PAIRED:
                paired += 1
                assert abs(fit.c_fit - cl.c) < 1e-6, cl.lambda0
                assert fit.residual_slope >= 0.9
        assert paired == 26


class TestPairedVectors:
    def test_bolo_pair(self, bolo_spec):
        eps = 1e-4
        phi, _ = sw.matched_phi(-1.0 + 0j)
        lp, vp, lm, vm = sw.paired_vectors(bolo_spec, phi, -1.0 + 0j, eps)
        c = math.sqrt(3.0 / 4.0)
        assert abs(lp - (-1.0) * cmath.exp(1j * c * math.sqrt(eps))) < 5 * eps
        assert abs(lm - (-1.0) * cmath.exp(-1j * c * math.sqrt(eps))) < 5 * eps
        U = sw.collapsed_matrix(bolo_spec, eps, phi)
        assert np.linalg.norm(U @ vp - lp * vp) < 1e-9
        assert np.linalg.norm(U @ vm - lm * vm) < 1e-9

    def test_even_split_on_left(self, bolo_spec):
        eps = 1e-6
        phi, _ = sw.matched_phi(-1.0 + 0j)
        _, vp, _, vm = sw.paired_vectors(bolo_spec, phi, -1.0 + 0j, eps)
        for v in (vp, vm):
            assert abs(abs(v[0]) ** 2 + abs(v[1]) ** 2 - 0.5) < 0.02

    def test_singleton_family_raises(self, bolo_spec):
        phi, _ = sw.matched_phi(-1.0 + 0j)
        with pytest.raises(ValueError, match="singleton"):
            sw.paired_vectors(bolo_spec, phi, (1 + 2j * math.sqrt(2)) / 3, 1e-4)

    def test_no_eigendecomposition_once_classified(self, bolo_spec, decompositions):
        phi, _ = sw.matched_phi(-1.0 + 0j)
        sw.right_classifications(bolo_spec)
        decompositions.clear()
        sw.paired_vectors(bolo_spec, phi, -1.0 + 0j, 1e-4)
        assert decompositions == []

    def test_match_dense_eigenvectors(self):
        """Every paired family, with a left pole put on its lambda0: the secular
        vectors are eigenvectors of the dense U(eps), equal to its own with no phase
        alignment, since |v[out]| = |v[in]| ties are broken by the gauge, not rounding."""
        rng = np.random.default_rng(5)
        specs = [sw.load_spec("grover"), sw.load_spec("bolo")] + [random_spec(rng) for _ in range(3)]
        checked = 0
        for spec in specs:
            for cl in sw.right_classifications(spec):
                if cl.c is None:
                    continue
                phi = cmath.phase(cl.lambda0 ** 2) % (2.0 * math.pi)
                for eps in (1e-12, 1e-8, 1e-4, 1e-2):
                    lp, vp, lm, vm = sw.paired_vectors(spec, phi, cl.lambda0, eps)
                    U = sw.collapsed_matrix(spec, eps, phi)
                    vals, vecs = sw.eigendecompose(U)
                    for lam, v in ((lp, vp), (lm, vm)):
                        assert np.linalg.norm(U @ v - lam * v) <= 1e-13
                        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
                        w = vecs[:, np.argmin(np.abs(vals - lam))]
                        assert 1.0 - abs(np.vdot(w, v)) <= 1e-12
                        assert np.linalg.norm(v - w) <= 1e-8        # the same gauge
                        checked += 1
        assert checked == 2 * 4 * 26        # 26 active families


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

class TestSpectralReport:
    def test_bolo_report(self, bolo_spec):
        rep = spectral_report(bolo_spec)
        assert abs(complex(*rep["best"]["lambda0"]) - (-1.0)) < 1e-9
        assert abs(rep["best"]["c"] - math.sqrt(3.0 / 4.0)) < 1e-9
        assert rep["best"]["d"] == 4
        assert len(rep["c_table"]) == 4
        # round-off imaginary parts of lambda0 = +-1 print as 0
        assert {"1,0", "-1,0"} <= set(rep["c_table"])
        assert sorted(g["multiplicity"] for g in rep["groups"]) == [1, 1, 1, 2]
        assert sorted(rep["monodromy"]["cycle_lengths"]) == [1, 1, 1, 2, 2]
        cases = {f["case"] for f in rep["pairing_fits"]}
        assert CASE_PAIRED in cases
