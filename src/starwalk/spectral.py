"""
Spectral analysis of the collapsed walk operator.
=================================================

* eigendecomposition of a unitary from the Hermitian eigenbasis of its Cayley
  transform, with a fixed phase gauge;
* clustering of unit-circle eigenvalues into lambda0 families;
* classification of right-block eigenspaces into bound (hub-blind) and active
  (hub-contacting) parts with the coupling constant c and the family's search
  target, one record per family kept on the loaded spec;
* the secular function det(U(eps) - z)/det(U(0) - z) of the cached (lambda0, c) table,
  whose roots give the pairing lambda0*exp(+-ic*sqrt(eps)) and whose critical points the
  monodromy of a loop of eps around 0; the best search eigenvalue.
"""
from __future__ import annotations

import cmath
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .graph import (
    RESERVED_LABELS,
    NumericsError,
    SpecError,
    SubgraphSpec,
    check_phases,
    collapsed_coefficients,
    collapsed_matrix,
)

logger = logging.getLogger(__name__)

CLUSTER_TOL = 1e-7       # eigenvalue clustering tolerance
RANK_TOL = 1e-8          # singular-value threshold for the bound-subspace rank
RESIDUAL_TOL = 1e-9
LOOKUP_TOL = 1e-6        # max distance of a requested lambda0 from its group
ROUNDOFF = 1e-12         # parts of a unit-modulus lambda0 below this are round-off


# ---------------------------------------------------------------------------
# Eigendecomposition
# ---------------------------------------------------------------------------

GAUGE_TIE = 1e-9         # moduli this close (relative) to a column's largest tie for its gauge


def _gauge(vecs: np.ndarray) -> np.ndarray:
    """Normalise each column and turn its largest-magnitude component real positive: the
    first of those within GAUGE_TIE, not a rounding pick (paired vectors' |out>, |in>)."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        v = out[:, k]
        v /= np.linalg.norm(v)
        mod = np.abs(v)
        i = int(np.argmax(mod >= (1.0 - GAUGE_TIE) * mod.max()))
        ph = v[i] / mod[i]
        out[:, k] = v * ph.conjugate()
    return out


def eigendecompose(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a unitary matrix, the vectors orthonormal, phase-gauged
    columns (``_gauge``), as numpy's solvers return them.

    The input must be unitary.  It is turned by e^{-i beta} so that the centre
    of its largest gap between eigenvalue angles sits at -1; the Cayley
    transform H = i (I + B)^{-1} (I - B) of B = e^{-i beta} U is then Hermitian
    with the eigenvectors of U, and ``eigh`` gives an orthonormal eigenbasis,
    degenerate clusters included.  The eigenvalues are the Rayleigh quotients
    of U in that basis.  Non-square, empty or non-finite input (an operator record too)
    raises SpecError; a residual above ``RESIDUAL_TOL`` means the input is not unitary.
    """
    A = np.asarray(U)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise SpecError(f"eigendecompose needs a non-empty square matrix, got shape {A.shape}")
    A = A.astype(complex, copy=False)
    if not np.all(np.isfinite(A)):
        raise SpecError("eigendecompose got a matrix with NaN or infinite entries")
    angles = np.sort(np.angle(np.linalg.eigvals(A)))
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    k = int(np.argmax(gaps))
    B = A * np.exp(-1j * (angles[k] + 0.5 * gaps[k] - np.pi))
    eye = np.eye(len(A))
    H = 1j * np.linalg.solve(eye + B, eye - B)
    _, Z = np.linalg.eigh(0.5 * (H + H.conj().T))
    vals = np.einsum("ij,ij->j", Z.conj(), A @ Z)
    res = float(np.max(np.linalg.norm(A @ Z - Z * vals, axis=0)))
    if res > RESIDUAL_TOL:
        cond = np.linalg.cond(A)
        raise NumericsError(
            f"eigendecomposition residual {res:.2e} exceeds {RESIDUAL_TOL:.1e} "
            f"(matrix condition number {cond:.2e})")
    return vals, _gauge(Z)


# ---------------------------------------------------------------------------
# Eigenvalue grouping
# ---------------------------------------------------------------------------

def _snap(z: complex) -> complex:
    """z with its round-off-level real and imaginary parts set to +0."""
    z = complex(z)
    return complex(0.0 if abs(z.real) < ROUNDOFF else z.real,
                   0.0 if abs(z.imag) < ROUNDOFF else z.imag)


def group_eigenvalues(vals: np.ndarray) -> list[tuple[complex, tuple[int, ...]]]:
    """Cluster eigenvalues into lambda0 families by single-linkage on the circle: a
    ``(lambda0, members)`` pair per family, its sorted member indices, by angle of lambda0.

    Two clusters whose representatives lie within 2*CLUSTER_TOL are reported as
    ambiguous rather than silently merged.  A representative's round-off-level
    parts are set to +0, so +-1 carry no sign of the eigensolver's rounding.
    """
    n = len(vals)
    order = np.argsort(np.angle(vals))
    # chain clusters over sorted angles, then check the wrap-around seam
    clusters: list[list[int]] = [[int(order[0])]]
    for k in range(1, n):
        i = int(order[k])
        if abs(vals[i] - vals[clusters[-1][-1]]) <= CLUSTER_TOL:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if len(clusters) > 1 and abs(vals[clusters[0][0]] - vals[clusters[-1][-1]]) <= CLUSTER_TOL:
        clusters[0] = clusters.pop() + clusters[0]

    groups = []
    for members in clusters:
        mean = np.mean(vals[members])
        rep = complex(mean / abs(mean)) if abs(mean) > 0 else complex(vals[members[0]])
        groups.append((_snap(rep), tuple(sorted(members))))
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            gap = abs(groups[a][0] - groups[b][0])
            if gap < 2 * CLUSTER_TOL:
                raise NumericsError(
                    f"ambiguous eigenvalue clustering: groups at {groups[a][0]:.9f} "
                    f"and {groups[b][0]:.9f} are {gap:.2e} apart (< 2*CLUSTER_TOL)")
    return sorted(groups, key=lambda g: round(float(np.angle(g[0])), 12))


# ---------------------------------------------------------------------------
# Right block and bound/active classification
# ---------------------------------------------------------------------------

def right_block(spec: SubgraphSpec) -> np.ndarray:
    """The eps=0 operator restricted to the right side.

    Basis order [|0,1>, |1,0>, interior...], the report's ``right_basis``.  At eps=0 the
    hub does not couple the two sides and returns |1,0> to |0,1> with amplitude R_R(0) = -1.
    """
    return collapsed_matrix(spec, 0.0, 0.0)[2:, 2:]


@dataclass(frozen=True, eq=False)
class RightClassification:
    """One eigenvalue family of the right block: its bound/active split and, for an
    active family, the N- and M-independent part of a search on it (read-only arrays).

    ``phi, branch = matched_phi(lambda0)``; an active family also carries its active
    vector embedded in the collapsed basis (``r0``) and the predicted success
    |<0,1|r0>|^2 + |<1,0|r0>|^2, None otherwise.
    """
    lambda0: complex
    bound_basis: np.ndarray            # (dim_right, n_bound), orthonormal columns
    active_vector: np.ndarray | None   # the hub-contacting unit vector, if any
    c: float | None                    # coupling constant, present iff active
    phi: float
    branch: int
    r0: np.ndarray | None = None
    predicted_success: float | None = None

    @property
    def n_bound(self) -> int:
        return self.bound_basis.shape[1]


def _nearest(values, lambda0: complex) -> int:
    """Index of the right-block eigenvalue in ``values`` closest to ``lambda0``."""
    dists = np.abs(np.asarray(values, dtype=complex) - lambda0)
    k = int(np.argmin(dists))
    if not dists[k] <= LOOKUP_TOL:              # a NaN request matches nothing
        raise SpecError(f"{lambda0} is not an eigenvalue of the right block "
                        f"(closest group at distance {dists[k]:.2e})")
    return k


def _classify_group(vecs: np.ndarray,
                    group: tuple[complex, tuple[int, ...]]) -> RightClassification:
    """Split one eigenspace of the right block, the ``vecs`` columns of a ``(lambda0,
    members)`` group, into bound and active parts.

    Bound vectors have (numerically) zero amplitude on the hub-adjacent states
    |0,1> and |1,0>; the rank of the hub-contact map is decided by its singular
    values against ``RANK_TOL``.  A contact rank above 1 would contradict the
    one-active-vector-per-side structure and raises a diagnostic.
    """
    lambda0, members = group
    basis = vecs[:, list(members)]              # orthonormal columns
    contact = basis[:2, :]                      # amplitudes on |0,1>, |1,0>
    _, svals, vh = np.linalg.svd(contact)
    rank = int(np.sum(svals > RANK_TOL))
    if rank > 1:
        raise NumericsError(
            f"eigenspace at lambda0={lambda0:.6f} touches the hub with rank "
            f"{rank} (singular values {svals}); expected at most one active vector")
    phi, branch = matched_phi(lambda0)
    if rank == 0:
        basis.flags.writeable = False
        return RightClassification(lambda0=lambda0, bound_basis=basis, active_vector=None,
                                   c=None, phi=phi, branch=branch)
    active = _gauge((basis @ vh[0].conj())[:, None])[:, 0]
    bound = basis @ vh[1:].conj().T
    c = math.sqrt(2.0) * abs(active[1])         # sqrt(2)*|<1,0|r0>|
    r0 = embed_right(active, 2 + len(active))      # after the left pair (|out>, |in>)
    active.flags.writeable = bound.flags.writeable = r0.flags.writeable = False
    return RightClassification(
        lambda0=lambda0, bound_basis=bound, active_vector=active, c=float(c), phi=phi,
        branch=branch, r0=r0, predicted_success=float(abs(r0[2]) ** 2 + abs(r0[3]) ** 2))


def _classes(spec: SubgraphSpec) -> tuple[RightClassification, ...]:
    """Every group's classification, by angle of lambda0, from one decomposition of the
    right block, kept on the spec as ``"classes"`` in its ``_derived``; a failed
    classification (SpecError, NumericsError) is not kept."""
    cached = spec._derived.get("classes")
    if cached is None:
        vals, vecs = eigendecompose(right_block(spec))
        cached = tuple(_classify_group(vecs, g) for g in group_eigenvalues(vals))
        spec._derived["classes"] = cached
    return cached


def right_classifications(spec: SubgraphSpec) -> list[RightClassification]:
    """Classification of every eigenvalue group of the right block, kept on the spec:
    it does not depend on N or M."""
    return list(_classes(spec))


def classify_right(spec: SubgraphSpec, lambda0: complex) -> RightClassification:
    """The classification of the right-block eigenspace nearest to ``lambda0``, within
    ``LOOKUP_TOL`` (a group's exact eigenvalue is at distance 0).  Every entry point
    that takes a lambda0 resolves it here."""
    classes = _classes(spec)
    return classes[_nearest([cl.lambda0 for cl in classes], lambda0)]


# ---------------------------------------------------------------------------
# Left side and coupling
# ---------------------------------------------------------------------------

def left_active(phi: float, branch: int) -> np.ndarray:
    """Eigenvector (|out> + branch*e^{i phi/2}|in>)/sqrt(2) of the left block.

    Returned over the two-state (out, in) basis; its eigenvalue is
    branch*e^{i phi/2}.  phi and branch follow ``check_phases``.
    """
    check_phases(phi, branch)
    return np.array([1.0 / math.sqrt(2.0), branch * cmath.exp(0.5j * phi) / math.sqrt(2.0)])


def embed_left(vec2: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros(dim, dtype=complex)
    out[0:2] = vec2
    return out


def embed_right(vec: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros(dim, dtype=complex)
    out[2:2 + len(vec)] = vec
    return out


def matched_phi(lambda0: complex) -> tuple[float, int]:
    """Reflector phase and left branch that put a left eigenvalue exactly at lambda0.

    Returns (phi, branch) with branch*e^{i phi/2} = lambda0 and phi in [0, 2pi);
    round-off-level parts of lambda0 are dropped first, so lambda0 = 1 +- 1e-17i
    both give phi = 0.
    """
    phi = (2.0 * cmath.phase(_snap(lambda0))) % (2.0 * math.pi)
    lam = cmath.exp(0.5j * phi)
    branch = +1 if abs(lam - lambda0) < abs(-lam - lambda0) else -1
    return phi, branch


# ---------------------------------------------------------------------------
# Secular function of the eps-dependence
# ---------------------------------------------------------------------------

NEWTON_MAX = 50          # Newton iterations per solve before giving up
NEWTON_TOL = 1e-7        # |F| over its terms below which one more Newton step gives ~1e-14


def _offset(mu, center):
    """angle(mu/center), exactly 0 for mu == center (unlike a fused multiply-add)."""
    return np.arctan2(mu.imag * center.real - mu.real * center.imag,
                      mu.real * center.real + mu.imag * center.imag)


@dataclass(frozen=True, eq=False)
class SecularFunction:
    """D(z, eps) = det(U(eps) - z) / det(U(0) - z) from the eps = 0 poles.

    U(eps) - U(0) is a rank-2 update on the columns |in> and |1,0>, so
    D = 1 + a g_L + b g_R + (a b - T^2) g_L g_R, with (a, b, T) the changes of
    (R_L, R_R, T) from eps = 0, g_L = sum over p = +-sqrt(e^{i phi} R_L0) of
    p/(2 R_L0 (p - z)) and g_R = conj(R_R0) sum over active right eigenvalues of
    (c^2/2) lambda/(lambda - z); (a, b, T^2) = (-2eps, 2eps, 4(eps - eps^2)) gives
    D = 1 + 2 eps s with s = g_R - g_L - 2 g_L g_R.  At z = center*e^{i theta} a
    pole center*e^{i alpha} enters as (1 - i cot((alpha - theta)/2))/2, so a root by
    its pole keeps full relative precision; ' is d/dtheta.  Root k leaves pole k;
    the roots solve the pole-free (1/g_L + a)(1/g_R + b) = T^2: the eigenvalues of
    U(eps) but the bound.  A solve takes the requested roots and their co-centred partners.
    """
    poles: np.ndarray        # the two left poles, then the active right eigenvalues
    residues: np.ndarray     # (pole, side): g_L, g_R = sum of residue * mu/(mu - z)
    centers: np.ndarray      # per root, the pole it leaves
    contacts: np.ndarray     # (active, dim_right): r_j conj(r_j[0]) per active right vector

    @staticmethod
    def changes(eps):
        """(a, b, T^2) = (-2eps, 2eps, 4(eps - eps^2)): T enters squared, so no branch of
        sqrt(eps - eps^2) is chosen, and a, b keep full relative precision however small
        eps is.  ``eps`` may be an array."""
        e = np.asarray(eps, dtype=complex)
        return -2.0 * e, 2.0 * e, 4.0 * (e - e * e)

    def offsets(self, roots) -> np.ndarray:
        """(root, pole) offsets of every pole from the center of each of ``roots``."""
        return _offset(self.poles, self.centers[roots, None])

    def sides(self, theta, alpha, order: int = 0):
        """([g_L, g_L', ...], [g_R, g_R', ...]) with ``alpha`` = _offset(poles, center)."""
        u = 1.0 / np.tan(0.5 * (alpha - np.asarray(theta, dtype=complex)[..., None]))
        g = [0.5 * self.residues.sum(axis=0) - 0.5j * (u @ self.residues)]
        if order:
            du = 0.5 * (1.0 + u * u)                    # cot' = (1 + cot^2)/2
            g.append(-0.5j * (du @ self.residues))
            if order > 1:
                g.append(-0.5j * ((u * du) @ self.residues))
        return [gk[..., 0] for gk in g], [gk[..., 1] for gk in g]

    def s(self, theta, center=1.0):
        """(s, s', s'') of D = 1 + 2 eps s."""
        (L, dL, d2L), (R, dR, d2R) = self.sides(theta, _offset(self.poles, center), order=2)
        return (R - L - 2.0 * L * R, dR - dL - 2.0 * (dL * R + L * dR),
                d2R - d2L - 2.0 * (d2L * R + 2.0 * dL * dR + L * d2R))

    def z(self, theta, roots=slice(None)) -> np.ndarray:
        return self.centers[roots] * np.exp(1j * np.asarray(theta))

    def vectors(self, eps, theta, roots) -> np.ndarray:
        """Unit eigenvectors of U(eps) at the roots ``theta`` of ``roots`` (columns gauged
        like eigendecompose's): v = (U(0) - z)^{-1} (q_1|out> + q_2|0,1>), q = (T g_R,
        -(1 + a g_L)), has v[out] = q_1 sum_+-p 1/(2(p - z)), v[in] = q_1 g_L, right side
        q_2 sum_j r_j conj(r_j[0])/(lambda_j - z); each 1/(mu - z) in ``sides``' offset form."""
        alpha = self.offsets(roots)
        (gL,), (gR,) = self.sides(theta, alpha)
        inv = (1.0 - 1j / np.tan(0.5 * (alpha - theta[:, None]))) / (2.0 * self.poles)
        T = collapsed_coefficients(eps)[2]
        q1, q2 = T * gR, -(1.0 + self.changes(eps)[0] * gL)
        return _gauge(np.column_stack((0.5 * q1 * (inv[:, 0] + inv[:, 1]), q1 * gL,
                                       q2[:, None] * (inv[:, 2:] @ self.contacts))).T)

    def _seeds(self, eps, alpha, roots) -> np.ndarray:
        """Small-eps ``roots``, a row per eps, from two poles each, the root's own and the
        nearest of the other side (the sum rule leaves at least one right pole), at offsets
        (aL, aR) in ``alpha`` = offsets(roots).  By their leading terms -iA/(alpha - theta)
        and T^2 - ab = 4 eps, the roots solve (theta - aL)(theta - aR) + i theta (a A_L +
        b A_R) = -4 eps A_L A_R + i (a A_L aR + b A_R aL).  The root leaving the later pole
        takes the larger solution, a left one within CLUSTER_TOL of its partner the + one;
        the smaller is C/big."""
        eps = eps[:, None]
        a, b, T2 = self.changes(eps)
        row = np.arange(len(roots))
        left, pole_left = roots < 2, np.arange(len(self.poles)) < 2
        other = np.argmin(np.where(left[:, None] == pole_left, np.inf, np.abs(alpha)), axis=1)
        l, r = np.where(left, roots, other), np.where(left, other, roots)
        aL, aR = alpha[row, l], alpha[row, r]
        AL, AR = self.residues[l, 0], self.residues[r, 1]
        B = aL + aR - 1j * (a * AL + b * AR)
        C = aL * aR + 4.0 * eps * AL * AR - 1j * (a * AL * aR + b * AR * aL)
        root = np.sqrt((aL - aR - 1j * (a * AL - b * AR)) ** 2 - 4.0 * T2 * AL * AR)
        up = (B.conjugate() * root).real >= 0           # big is the + solution
        big = 0.5 * (B + np.where(up, root, -root))
        small = C / big
        return np.where(np.where(np.abs(aL - aR) <= CLUSTER_TOL, left == up,
                                 ((aL > aR) == left) == (big.real >= small.real)), big, small)

    def _solve(self, eps, seeds, alpha, roots) -> np.ndarray:
        """Newton on ``roots`` from their ``seeds``, a row per eps, each row until it
        converges; a non-finite iterate raises, as does a correction of half the gap to the
        nearest co-solved seed or pole other than the root's own (those within CLUSTER_TOL of
        its center): it may have reached another root."""
        a, b, T2 = self.changes(eps[:, None])
        theta, todo = seeds.copy(), np.arange(len(eps))
        with np.errstate(all="ignore"):     # a non-finite iterate raises instead
            for _ in range(NEWTON_MAX):
                (L, dL), (R, dR) = self.sides(theta[todo], alpha, order=1)
                qL, qR = 1.0 / L + a[todo], 1.0 / R + b[todo]
                F = qL * qR - T2[todo]
                theta[todo] += F / (dL / (L * L) * qR + qL * dR / (R * R))
                finite = np.isfinite(theta[todo]).all(axis=1)
                if not finite.all():
                    raise NumericsError(f"secular root Newton diverged at "
                                        f"eps={eps[todo[~finite][0]]:.3e}")
                done = np.abs(F) <= NEWTON_TOL * (np.abs(qL * qR) + np.abs(T2[todo]))
                todo = todo[~done.all(axis=1)]
                if not len(todo):
                    break
            else:
                raise NumericsError(f"secular roots did not converge at eps={eps[todo[0]]:.3e}")
        z = self.z(seeds, roots)
        own = np.hstack((np.eye(len(roots), dtype=bool), np.abs(alpha) <= CLUSTER_TOL))
        near = np.concatenate((z, np.broadcast_to(self.poles, (len(z), len(self.poles)))), axis=1)
        gap = np.where(own, np.inf, np.abs(z[:, :, None] - near[:, None, :])).min(axis=2)
        fix = np.abs(self.z(theta, roots) - z)
        failed = np.flatnonzero((fix >= 0.5 * gap).any(axis=1))
        if len(failed):
            e = failed[0]
            raise NumericsError(f"secular root ambiguous at eps={eps[e]:.3e}: Newton "
                                f"correction {fix[e].max():.2e}, root gap {gap[e].min():.2e}")
        return theta

    def roots(self, eps_values, roots=slice(None)) -> np.ndarray:
        """theta of ``roots`` at each eps in (0, 1), the range of M/N: one Newton solve over
        every eps with their co-centred partners from ``_seeds``; a seed off its basin
        (eps >~ 1e-3) raises."""
        eps_values = np.asarray(eps_values, dtype=float)
        if not np.all((eps_values > 0) & (eps_values < 1)):
            raise SpecError(f"eps must lie in (0, 1), got {eps_values}")
        roots = np.arange(len(self.poles))[roots]
        solved = np.flatnonzero((self.centers[:, None] == self.centers[roots]).any(axis=1))
        alpha = self.offsets(solved)
        theta = self._solve(eps_values, self._seeds(eps_values, alpha, solved), alpha, solved)
        return theta[:, np.searchsorted(solved, roots)]

    def branch_point(self, k: int, l: int) -> tuple[complex, complex]:
        """(theta*, eps0): Newton on s' = 0 from between right pole k and pole l (theta an offset
        from k; halfway, or for a right l where its two-pole law -iA_k/(0 - theta) - iA_l/(delta -
        theta) has s' = 0) to z*, where two roots meet at eps0 = -1/(2 s(z*)).  Coincident poles
        give (0, 0); a non-finite iterate or eps0 (overflow at huge N) raises NumericsError."""
        center, delta = self.centers[k], self.offsets(k)[l]
        if delta == 0.0:
            return 0j, 0j
        theta = complex(0.5 * delta)
        if l >= 2:                          # w^2 = A_k/A_l > 0
            w = math.sqrt(self.residues[k, 1].real / self.residues[l, 1].real)
            theta = delta * (w * w - 1j * w) / (1.0 + w * w)
        with np.errstate(all="ignore"):     # overflow shows as a non-finite value below
            for _ in range(NEWTON_MAX):
                _, ds, d2s = self.s(theta, center)
                step = complex(ds / d2s)
                theta -= step
                if not abs(step) > 1e-14 * abs(theta):      # converged, or not finite
                    break
            eps0 = complex(-0.5 / self.s(theta, center)[0])
        if abs(step) <= 1e-14 * abs(theta) and cmath.isfinite(eps0):
            return theta, eps0
        raise NumericsError(f"double-root Newton did not converge (step {abs(step):.2e})")


def secular_function(spec: SubgraphSpec, phi: float) -> SecularFunction:
    """The secular function at reflector phase phi; its eps is M/N, as in the search."""
    check_phases(phi)
    return _secular_function(spec, cmath.exp(0.5j * phi))


def _secular_function(spec: SubgraphSpec, half: complex) -> SecularFunction:
    """``secular_function`` at the phase whose e^{i phi/2} is ``half``: the left poles
    +-half*sqrt(R_L0), then the spec's right side, which does not depend on phi: the active
    eigenvalues, the residues and the contacts, read-only and kept on the spec as "right"."""
    R_L0, R_R0, _ = collapsed_coefficients(0.0)
    if "right" not in spec._derived:
        active = [cl for cl in right_classifications(spec) if cl.c is not None]
        V, c = np.array([cl.active_vector for cl in active]), np.array([cl.c for cl in active])
        right = np.array([cl.lambda0 for cl in active], dtype=complex)
        residues = np.zeros((2 + len(active), 2), dtype=complex)
        residues[:2, 0] = 0.5 / R_L0
        residues[2:, 1] = R_R0.conjugate() * (c * c / 2.0)
        contacts = V * V[:, :1].conj()
        right.flags.writeable = residues.flags.writeable = contacts.flags.writeable = False
        spec._derived["right"] = right, residues, contacts
    right, residues, contacts = spec._derived["right"]
    p = half * cmath.sqrt(R_L0)
    gap = np.abs(np.array([[p], [-p]]) - right)
    centers = np.where(gap.min(axis=1) <= CLUSTER_TOL, right[np.argmin(gap, axis=1)], [p, -p])
    return SecularFunction(poles=np.concatenate(([p, -p], right)), residues=residues,
                           centers=np.concatenate((centers, right)), contacts=contacts)


def _family(spec: SubgraphSpec, cl: RightClassification, delta: float):
    """(sec, k, roots): the secular function with its first left pole at lambda0*e^{i delta}
    (lambda0 itself at delta = 0, so the pair meets at eps = 0 exactly), the index k of the
    right pole of ``cl``'s family and the roots centred on it; a bound-only family has none
    of either.  A phi enters as delta = (phi - cl.phi)/2."""
    if not math.isfinite(delta):
        raise SpecError(f"detuning delta = (phi - phi0)/2 must be finite, got {delta!r}")
    sec = _secular_function(spec, cl.lambda0 * cmath.exp(1j * delta))
    k = None if cl.c is None else 2 + int(np.argmax(sec.poles[2:] == cl.lambda0))
    return sec, k, np.arange(0) if k is None else np.flatnonzero(sec.centers == sec.poles[k])


# ---------------------------------------------------------------------------
# Monodromy of a loop of eps around 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyReport:
    """The loop radius and the permutation of U(eps)'s eigenvalue branches after one loop of
    eps around 0: branch i ends where branch permutation[i] began, the secular roots in
    pole order (two left, then the active right), then the bound eigenvalues."""
    rho: float
    permutation: tuple[int, ...]

    @property
    def cycle_lengths(self) -> tuple[int, ...]:
        """Each cycle's length, by its smallest branch: the loop only swaps pairs."""
        return tuple(1 if j == i else 2 for i, j in enumerate(self.permutation) if j >= i)


def monodromy(spec: SubgraphSpec, phi: float) -> MonodromyReport:
    """The permutation of U(eps)'s eigenvalues after the loop eps = rho e^{it}, rho = 1e-4, from
    the square-root branch points it encloses (``branch_point``; Kato ch. II), one per two
    neighbouring poles near eps = 0.  A left/right pair's, at |eps0| ~ (delta/2c)^2, swaps its
    roots iff |eps0| < rho; two right poles', at ~|delta/((A_k + A_l)(1 - 2g_L))|, is one of a
    conjugate pair (s is real on the circle), so theirs stay.  Pairs estimated within 16 rho are
    located; an eps0 within 1% of rho, a z* off the pair's arc or a root in two enclosed pairs
    raises NumericsError.  The bound eigenvalues, listed last, stay.  No root of U(eps) is
    solved: the branches are numbered by their poles."""
    rho = 1e-4
    sec = secular_function(spec, phi)
    perm, claimed = list(range(len(sec.poles))), set()
    order = np.argsort(np.angle(sec.poles)).tolist()
    for k, l in zip(order, order[1:] + order[:1]):
        k, l = max(k, l), min(k, l)                     # k is a right pole, or both are left
        if k < 2:
            continue
        alpha, A = sec.offsets(k), sec.residues
        delta = alpha[l]
        if l >= 2:
            (gL,), _ = sec.sides(0.5 * delta, alpha)
        if (delta * delta > 256.0 * rho * abs(A[l, 0] * A[k, 1]) if l < 2 else
                abs(delta) > 16.0 * rho * abs((A[k, 1] + A[l, 1]) * (1.0 - 2.0 * gL))):
            continue                                    # leading-order |eps0| beyond 16 rho
        theta, eps0 = sec.branch_point(k, l)
        if not min(0.0, delta) <= theta.real <= max(0.0, delta):
            raise NumericsError(f"monodromy: the critical point of poles {k} and {l} left their "
                                f"arc (offset {theta.real:.3e}, poles {delta:.3e} apart)")
        if abs(abs(eps0) - rho) < 0.01 * rho:
            raise NumericsError(f"monodromy undecided: branch point |eps0| = {abs(eps0):.6e} "
                                f"is within 1% of the loop radius {rho:g}")
        if abs(eps0) < rho:
            if claimed & {k, l}:
                raise NumericsError(f"monodromy undecided: a root of poles {k} and {l} "
                                    "meets two roots inside the loop")
            claimed |= {k, l}
            if l < 2:
                perm[k], perm[l] = l, k
    n_bound = sum(cl.n_bound for cl in right_classifications(spec))
    return MonodromyReport(rho=rho, permutation=tuple(perm) + tuple(
        range(len(perm), len(perm) + n_bound)))


# ---------------------------------------------------------------------------
# Pairing fit
# ---------------------------------------------------------------------------

CASE_CONSTANT = "constant"        # case i: the whole family stays put
CASE_DRIFT = "single-drift"       # case ii: one branch drifts at O(eps)
CASE_PAIRED = "paired"            # case iii: lambda0 e^{+-ic sqrt(eps)} pair
# Small eps: the secular roots are exact there and c*sqrt(eps) dominates the
# split, also for a weakly coupled family next to a close neighbour, whose
# higher orders take over at larger eps and bias the fitted c.
DEFAULT_EPS_GRID = tuple(np.logspace(-10, -6, 9))


@dataclass(frozen=True)
class PairingFit:
    """Numerical fit of the eps-dependence of one lambda0 family."""
    lambda0: complex
    case: str
    c_fit: float | None
    residual_slope: float | None
    balanced: bool = False          # lambda0^2 + e^{i phi} = 0: no net hub flow


def pairing_fit(spec: SubgraphSpec, phi: float, lambda0: complex) -> PairingFit:
    """Fit the lambda0 family of U(eps) to one of the three structure cases.

    lambda0 names its right-block group (``classify_right``).  The case is the
    number of secular roots centred on the group's right pole: none (bound only,
    or a balanced hub, whose pole cancels), one, or two (a left and a right pole
    together).  A pair's phase split on ``DEFAULT_EPS_GRID`` is fit to 2c*sqrt(eps)
    (+ higher orders); the log-log slope of the remainder
    |lambda+- - lambda0 e^{+-ic sqrt(eps)}| is >= 0.9 for a genuine O(eps) remainder.
    """
    cl = classify_right(spec, lambda0)
    sec, _, moving = _family(spec, cl, 0.5 * (phi - cl.phi))
    balanced = abs(cl.lambda0 ** 2 + cmath.exp(1j * phi)) < 1e-9
    if balanced:
        logger.warning("lambda0^2 + e^{i phi} = 0 at lambda0=%s: no net probability "
                       "flow across the hub; pairing is not claimed", cl.lambda0)
        moving = moving[:0]
    if len(moving) < 2:
        return PairingFit(lambda0=cl.lambda0, case=CASE_DRIFT if len(moving) else CASE_CONSTANT,
                          c_fit=None, residual_slope=None, balanced=balanced)

    # case iii: phase split of the two roots against sqrt(eps)
    minus, plus = np.sort(sec.roots(DEFAULT_EPS_GRID, moving).real, axis=1).T
    root = np.sqrt(np.array(DEFAULT_EPS_GRID))
    design = np.stack([root, root ** 2, root ** 3], axis=1)
    coef, *_ = np.linalg.lstsq(design, plus - minus, rcond=None)
    c_fit = float(coef[0] / 2.0)
    # |lambda0 e^{i a} - lambda0 e^{i b}| = 2|sin((a - b)/2)|
    residuals = 2.0 * np.abs(np.sin(0.5 * np.stack([plus - c_fit * root, minus + c_fit * root])))
    residuals = np.maximum(residuals.max(axis=0), 1e-16)
    residual_slope = float(np.polyfit(np.log(DEFAULT_EPS_GRID), np.log(residuals), 1)[0])
    return PairingFit(lambda0=cl.lambda0, case=CASE_PAIRED, c_fit=c_fit,
                      residual_slope=residual_slope, balanced=balanced)


def paired_vectors(spec: SubgraphSpec, phi: float, lambda0: complex, eps: float):
    """The two paired eigenvalues/vectors of U(eps) split off lambda0.

    The eigenvalues are the two secular roots leaving lambda0, the vectors their
    kernel vectors (``SecularFunction.vectors``), with no matrix of U(eps).
    Returns (lam_plus, v_plus, lam_minus, v_minus) ordered by the sign of the
    phase offset from lambda0.
    """
    cl = classify_right(spec, lambda0)
    sec, _, moving = _family(spec, cl, 0.5 * (phi - cl.phi))
    if len(moving) < 2:
        raise ValueError(f"lambda0={cl.lambda0} is a singleton family: nothing pairs")
    theta = sec.roots([eps], moving)[0]
    order = np.argsort(-theta.real)
    lams, vecs = sec.z(theta, moving)[order], sec.vectors(eps, theta[order], moving[order])
    return complex(lams[0]), vecs[:, 0], complex(lams[1]), vecs[:, 1]


# ---------------------------------------------------------------------------
# Best search eigenvalue
# ---------------------------------------------------------------------------

def best_target(classifications: list[RightClassification]) -> tuple[RightClassification, int]:
    """Pick the active family with the largest coupling constant: ``(family, d)``, the
    family's own record and d, the number of active families.

    Verifies the sum rule sum_j c_j^2 = 2 to 1e-9 over all active eigenvalues (a
    violation indicates mis-classification upstream) and the guaranteed bound
    max c >= sqrt(2/d) with d the number of active vectors.
    """
    actives = [cl for cl in classifications if cl.c is not None]
    if not actives:
        raise ValueError("no active eigenvectors: nothing couples to the hub")
    total = sum(cl.c ** 2 for cl in actives)
    if abs(total - 2.0) > 1e-9:
        raise NumericsError(
            f"sum of c^2 over active eigenvalues is {total!r}, expected 2 "
            "(tolerance 1.0e-09); classification is inconsistent")
    d = len(actives)
    best = max(actives, key=lambda cl: cl.c)
    if best.c < math.sqrt(2.0 / d) - 1e-12:
        raise NumericsError(f"max c = {best.c} below guaranteed sqrt(2/d) = "
                            f"{math.sqrt(2.0 / d)}")
    return best, d


# ---------------------------------------------------------------------------
# Report assembly (used by the CLI)
# ---------------------------------------------------------------------------

def spectral_report(spec: SubgraphSpec, phi: float | None = None) -> dict:
    """Full spectral report: groups, classifications, c table, pairing, monodromy."""
    classifications = right_classifications(spec)
    best, d = best_target(classifications)
    phi_used = best.phi if phi is None else phi
    fits = [pairing_fit(spec, cl.phi if phi is None else phi, cl.lambda0)
            for cl in classifications if cl.c is not None]
    mono = monodromy(spec, phi_used)
    return {
        "right_basis": list(RESERVED_LABELS[2:] + spec.interior),
        "groups": [
            {"lambda0": _c2j(cl.lambda0),
             "multiplicity": cl.n_bound + (cl.active_vector is not None)}
            for cl in classifications
        ],
        "classifications": [
            {"lambda0": _c2j(cl.lambda0), "n_bound": cl.n_bound,
             "active": cl.active_vector is not None, "c": cl.c}
            for cl in classifications
        ],
        "c_table": {  # keyed by "re,im" of lambda0
            "{0.real:.12g},{0.imag:.12g}".format(cl.lambda0): cl.c
            for cl in classifications if cl.c is not None
        },
        "pairing_fits": [dict(asdict(f), lambda0=_c2j(f.lambda0)) for f in fits],
        "monodromy": {"phi": phi_used, "rho": mono.rho, "permutation": list(mono.permutation),
                      "cycle_lengths": list(mono.cycle_lengths)},
        "best": {"lambda0": _c2j(best.lambda0), "c": best.c, "d": d,
                 "phi": phi_used, "branch": best.branch},
    }


def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]
