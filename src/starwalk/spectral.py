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
  whose roots give the pairing lambda0*exp(+-ic*sqrt(eps)) and the monodromy of a loop
  of eps around 0; the best search eigenvalue.
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

@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues and unit-norm, phase-gauged eigenvectors (columns)."""
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def eigendecompose(U) -> EigenSystem:
    """Eigenvalues and an orthonormal eigenbasis of a unitary matrix.

    The input must be unitary.  It is turned by e^{-i beta} so that the centre
    of its largest gap between eigenvalue angles sits at -1; the Cayley
    transform H = i (I + B)^{-1} (I - B) of B = e^{-i beta} U is then Hermitian
    with the eigenvectors of U, and ``eigh`` gives an orthonormal eigenbasis,
    degenerate clusters included.  The eigenvalues are the Rayleigh quotients
    of U in that basis.  Non-square, empty or non-finite input raises SpecError;
    a residual above ``RESIDUAL_TOL`` means the input is not unitary.
    """
    A = np.asarray(getattr(U, "matrix", U), dtype=complex)   # an operator or a bare matrix
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise SpecError(f"eigendecompose needs a non-empty square matrix, got shape {A.shape}")
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
    return EigenSystem(eigenvalues=vals, eigenvectors=_gauge(Z))


# ---------------------------------------------------------------------------
# Eigenvalue grouping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenvalueGroup:
    """A lambda0 family: representative value, multiplicity, member indices."""
    lambda0: complex
    multiplicity: int
    members: tuple[int, ...]


def _snap(z: complex) -> complex:
    """z with its round-off-level real and imaginary parts set to +0."""
    z = complex(z)
    return complex(0.0 if abs(z.real) < ROUNDOFF else z.real,
                   0.0 if abs(z.imag) < ROUNDOFF else z.imag)


def group_eigenvalues(sys: EigenSystem) -> list[EigenvalueGroup]:
    """Cluster eigenvalues into lambda0 families by single-linkage on the circle.

    Two clusters whose representatives lie within 2*CLUSTER_TOL are reported as
    ambiguous rather than silently merged.  A representative's round-off-level
    parts are set to +0, so +-1 carry no sign of the eigensolver's rounding.
    """
    vals = sys.eigenvalues
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
        groups.append(EigenvalueGroup(lambda0=_snap(rep), multiplicity=len(members),
                                      members=tuple(sorted(members))))
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            gap = abs(groups[a].lambda0 - groups[b].lambda0)
            if gap < 2 * CLUSTER_TOL:
                raise NumericsError(
                    f"ambiguous eigenvalue clustering: groups at {groups[a].lambda0:.9f} "
                    f"and {groups[b].lambda0:.9f} are {gap:.2e} apart (< 2*CLUSTER_TOL)")
    return sorted(groups, key=lambda g: round(float(np.angle(g.lambda0)), 12))


# ---------------------------------------------------------------------------
# Right block and bound/active classification
# ---------------------------------------------------------------------------

def right_block(spec: SubgraphSpec) -> tuple[np.ndarray, tuple[str, ...]]:
    """The eps=0 operator restricted to the right side.

    Basis order [|0,1>, |1,0>, interior...].  At eps=0 the hub does not couple
    the two sides and returns |1,0> to |0,1> with amplitude R_R(0) = -1.
    """
    return collapsed_matrix(spec, 0.0, 0.0)[2:, 2:], RESERVED_LABELS[2:] + spec.interior


@dataclass(frozen=True, eq=False)
class RightClassification:
    """One eigenvalue family of the right block: its bound/active split and, for an
    active family, the N- and M-independent part of a search on it (read-only arrays).

    ``phi, branch = matched_phi(lambda0)``; an active family also carries its active
    vector embedded in the collapsed basis (``r0``), the predicted success
    |<0,1|r0>|^2 + |<1,0|r0>|^2 and the start's |in> factor ``alpha``, None otherwise.
    """
    lambda0: complex
    bound_basis: np.ndarray            # (dim_right, n_bound), orthonormal columns
    active_vector: np.ndarray | None   # the hub-contacting unit vector, if any
    c: float | None                    # coupling constant, present iff active
    phi: float
    branch: int
    r0: np.ndarray | None = None
    predicted_success: float | None = None
    alpha: complex | None = None

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


def _classify_group(sys: EigenSystem, g: EigenvalueGroup) -> RightClassification:
    """Split one eigenspace of the right block into bound and active parts.

    Bound vectors have (numerically) zero amplitude on the hub-adjacent states
    |0,1> and |1,0>; the rank of the hub-contact map is decided by its singular
    values against ``RANK_TOL``.  A contact rank above 1 would contradict the
    one-active-vector-per-side structure and raises a diagnostic.
    """
    basis = sys.eigenvectors[:, list(g.members)]   # orthonormal columns
    contact = basis[:2, :]                      # amplitudes on |0,1>, |1,0>
    _, svals, vh = np.linalg.svd(contact)
    rank = int(np.sum(svals > RANK_TOL))
    if rank > 1:
        raise NumericsError(
            f"eigenspace at lambda0={g.lambda0:.6f} touches the hub with rank "
            f"{rank} (singular values {svals}); expected at most one active vector")
    phi, branch = matched_phi(g.lambda0)
    if rank == 0:
        basis.flags.writeable = False
        return RightClassification(lambda0=g.lambda0, bound_basis=basis, active_vector=None,
                                   c=None, phi=phi, branch=branch)
    active = _gauge((basis @ vh[0].conj())[:, None])[:, 0]
    bound = basis @ vh[1:].conj().T
    c = math.sqrt(2.0) * abs(active[1])         # sqrt(2)*|<1,0|r0>|
    r0 = embed_right(active, 2 + len(active))      # after the left pair (|out>, |in>)
    active.flags.writeable = bound.flags.writeable = r0.flags.writeable = False
    return RightClassification(
        lambda0=g.lambda0, bound_basis=bound, active_vector=active, c=float(c), phi=phi,
        branch=branch, r0=r0, predicted_success=float(abs(r0[2]) ** 2 + abs(r0[3]) ** 2),
        alpha=_alpha(branch, phi))


def _classes(spec: SubgraphSpec) -> dict[complex, RightClassification]:
    """Every group's classification by its lambda0, from one decomposition of the right
    block, kept on the spec as ``"classes"`` in its ``_derived``; a failed
    classification (SpecError, NumericsError) is not kept."""
    cached = spec._derived.get("classes")
    if cached is None:
        sys = eigendecompose(right_block(spec)[0])
        classes = (_classify_group(sys, g) for g in group_eigenvalues(sys))
        cached = spec._derived["classes"] = {cl.lambda0: cl for cl in classes}
    return cached


def right_classifications(spec: SubgraphSpec) -> list[RightClassification]:
    """Classification of every eigenvalue group of the right block, kept on the spec:
    it does not depend on N or M."""
    return list(_classes(spec).values())


def classify_right(spec: SubgraphSpec, lambda0: complex) -> RightClassification:
    """The classification of the right-block eigenspace nearest to ``lambda0``: a
    group's exact eigenvalue is found by its key, any other by distance.  Every entry
    point that takes a lambda0 resolves it here."""
    classes = _classes(spec)
    cl = classes.get(complex(lambda0))
    if cl is None:
        keys = list(classes)
        cl = classes[keys[_nearest(keys, lambda0)]]
    return cl


# ---------------------------------------------------------------------------
# Left side and coupling
# ---------------------------------------------------------------------------

def left_active(phi: float, branch: int) -> np.ndarray:
    """Eigenvector (|out> + branch*e^{i phi/2}|in>)/sqrt(2) of the left block.

    Returned over the two-state (out, in) basis; its eigenvalue is
    branch*e^{i phi/2}.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    return np.array([1.0, branch * cmath.exp(0.5j * phi)], dtype=complex) / math.sqrt(2.0)


def _alpha(branch: int, phi: float) -> complex:
    return branch * cmath.exp(0.5j * phi) / math.sqrt(2.0)


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
RAMP_STEPS = 16          # continuation steps, uniform in sqrt(eps), up to the largest eps


def _offset(mu, center):
    """angle(mu/center), exactly 0 for mu == center (unlike a fused multiply-add)."""
    return np.arctan2(mu.imag * center.real - mu.real * center.imag,
                      mu.real * center.real + mu.imag * center.imag)


def _merged(a, b) -> np.ndarray:
    """Sorted distinct values of a and b: np.union1d without its numpy.ma import."""
    v = np.sort(np.concatenate((np.ravel(a), np.ravel(b))))
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


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
    U(eps) but the bound.
    """
    poles: np.ndarray        # the two left poles, then the active right eigenvalues
    residues: np.ndarray     # (pole, side): g_L, g_R = sum of residue * mu/(mu - z)
    centers: np.ndarray      # per root, the pole it leaves
    alpha: np.ndarray        # (root, pole): _offset(pole, center of root)
    fixed: np.ndarray        # bound eigenvalues, with multiplicity
    keys: tuple              # the classification key (lambda0) of each right pole
    contacts: np.ndarray     # (active, dim_right): r_j conj(r_j[0]) per active right vector

    @staticmethod
    def changes(eps):
        """(a, b, T^2) = (-2eps, 2eps, 4(eps - eps^2)): T enters squared, so no branch of
        sqrt(eps - eps^2) is chosen, and a, b keep full relative precision however small
        eps is."""
        e = complex(eps)
        return -2.0 * e, 2.0 * e, 4.0 * (e - e * e)

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
        (gL,), (gR,) = self.sides(theta, self.alpha[roots])
        inv = (1.0 - 1j / np.tan(0.5 * (self.alpha[roots] - theta[:, None]))) / (2.0 * self.poles)
        T = collapsed_coefficients(eps)[2]
        q1, q2 = T * gR, -(1.0 + self.changes(eps)[0] * gL)
        return _gauge(np.column_stack((0.5 * q1 * (inv[:, 0] + inv[:, 1]), q1 * gL,
                                       q2[:, None] * (inv[:, 2:] @ self.contacts))).T)

    def _seeds(self, eps, roots) -> np.ndarray:
        """Small-eps roots: a left and a right pole that meet split as theta^2 =
        (a b - T^2) A_L A_R (A: residues); a lone pole's root moves O(eps)."""
        a, b, T2 = self.changes(eps)
        AL, AR = ((np.abs(self.alpha[roots]) <= CLUSTER_TOL) @ self.residues).T
        sign = np.where(np.arange(len(self.poles))[roots] < 2, 1.0, -1.0)
        return np.where(AL * AR != 0, sign * np.sqrt((a * b - T2) * AL * AR), 1j * eps)

    def _solve(self, eps, guess, old, roots) -> np.ndarray:
        """Newton from ``guess``; a correction of half the gap between the roots
        at ``old`` may have reached a neighbour's root, and raises."""
        a, b, T2 = self.changes(eps)
        theta, alpha = guess, self.alpha[roots]
        for _ in range(NEWTON_MAX):
            (L, dL), (R, dR) = self.sides(theta, alpha, order=1)
            qL, qR = 1.0 / L + a, 1.0 / R + b
            F = qL * qR - T2
            theta = theta + F / (dL / (L * L) * qR + qL * dR / (R * R))
            if np.all(np.abs(F) <= NEWTON_TOL * (np.abs(qL * qR) + abs(T2))):
                break
        else:
            raise NumericsError(f"secular roots did not converge at eps={eps:.3e}")
        z_old = self.z(old, roots)
        gap = np.abs(z_old[:, None] - z_old) + np.diag(np.full(len(z_old), np.inf))
        fix = np.abs(self.z(theta, roots) - self.z(guess, roots))
        if np.any(fix >= 0.5 * gap.min(axis=1)):
            raise NumericsError(f"secular root continuation ambiguous at eps={eps:.3e}: "
                                f"correction {fix.max():.2e}, root gap {gap.min():.2e}")
        return theta

    def track(self, eps_path, t_path, known, roots=slice(None)) -> np.ndarray:
        """theta along eps_path from the ``known`` first points (linear predictor in t)."""
        out = list(known)
        for k in range(len(out), len(eps_path)):
            guess = out[-1] if k == 1 else out[-1] + (out[-1] - out[-2]) * (
                (t_path[k] - t_path[k - 1]) / (t_path[k - 1] - t_path[k - 2]))
            out.append(self._solve(eps_path[k], guess, out[-1], roots))
        return np.array(out)

    def roots(self, eps_values, roots=slice(None)) -> np.ndarray:
        """theta at real eps_values > 0, continued from 0 in sqrt(eps): doubling steps
        from where poles apart still act alone, then RAMP_STEPS equal ones."""
        eps_values = np.asarray(eps_values, dtype=float)
        step = math.sqrt(eps_values.max()) / RAMP_STEPS
        apart = np.abs(self.centers[:, None] - self.centers)
        first = min(step, 0.1 * apart[apart > 0].min(initial=step))
        ramp = _merged(np.geomspace(first, step, 2 + int(math.log2(step / first))),
                       step * np.arange(1, RAMP_STEPS + 1))
        path = _merged(eps_values, ramp ** 2)
        seeds = self._seeds(path[0], roots)
        known = [np.zeros_like(seeds), self._solve(path[0], seeds, seeds, roots)]
        path = np.concatenate(([0.0], path))
        return self.track(path, np.sqrt(path), known, roots)[np.searchsorted(path, eps_values)]


def secular_function(spec: SubgraphSpec, phi: float) -> SecularFunction:
    """The secular function at reflector phase phi; its eps is M/N, as in the search."""
    check_phases(phi)
    R_L0, R_R0, _ = collapsed_coefficients(0.0)
    p = cmath.exp(0.5j * phi) * cmath.sqrt(R_L0)
    classes = right_classifications(spec)
    active = [cl for cl in classes if cl.c is not None]
    right = np.array([cl.lambda0 for cl in active], dtype=complex)
    poles = np.concatenate(([p, -p], right / np.abs(right)))
    residues = np.zeros((len(poles), 2), dtype=complex)
    residues[:2, 0] = 0.5 / R_L0
    residues[2:, 1] = R_R0.conjugate() * np.array([cl.c ** 2 / 2.0 for cl in active])
    gap = np.abs(poles[:2, None] - poles[2:])
    centers = np.where(gap.min(axis=1) <= CLUSTER_TOL, poles[2 + np.argmin(gap, axis=1)], poles[:2])
    centers = np.concatenate((centers, poles[2:]))
    return SecularFunction(
        poles=poles, residues=residues, centers=centers, alpha=_offset(poles, centers[:, None]),
        fixed=np.array([cl.lambda0 for cl in classes for _ in range(cl.n_bound)], dtype=complex),
        keys=tuple(cl.lambda0 for cl in active),
        contacts=np.array([cl.active_vector * cl.active_vector[0].conjugate() for cl in active]))


def _family(spec: SubgraphSpec, phi: float, cl: RightClassification):
    """(sec, k, roots): the secular function at phi, the index k of the right pole of
    ``cl``'s family and the roots centred on it; a bound-only family has none of either."""
    sec = secular_function(spec, phi)
    k = None if cl.c is None else 2 + sec.keys.index(cl.lambda0)
    return sec, k, np.arange(0) if k is None else np.flatnonzero(sec.centers == sec.poles[k])


# ---------------------------------------------------------------------------
# Monodromy of a loop of eps around 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyReport:
    """Permutation of the eigenvalue branches after one loop of eps around 0."""
    rho: float
    start_eigenvalues: np.ndarray
    permutation: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]

    @property
    def cycle_lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cycles)


def _cycles_of(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    seen = [False] * len(perm)
    cycles = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def monodromy(spec: SubgraphSpec, phi: float) -> MonodromyReport:
    """Follow every eigenvalue of U(eps) along eps = rho*e^{i t}, t: 0 -> 2pi, rho = 1e-4.

    The secular roots are continued over 240 equal steps (a collision raises
    NumericsError); the bound eigenvalues, listed last, are fixed points.
    """
    rho, steps = 1e-4, 240
    sec = secular_function(spec, phi)
    t = 2.0 * math.pi * np.arange(steps + 1) / steps
    theta = sec.roots([rho])[0]
    start, end = sec.z(theta), sec.z(sec.track(rho * np.exp(1j * t), t, [theta])[-1])
    # end[i] is the continuation of start[i]; find which start value it became
    cols = np.argmin(np.abs(end[:, None] - start), axis=1)
    if len(set(cols)) < len(cols):
        raise NumericsError("monodromy loop did not close: two branches end on one value")
    perm = tuple(int(c) for c in cols) + tuple(range(len(start), len(start) + len(sec.fixed)))
    return MonodromyReport(rho=rho, start_eigenvalues=np.concatenate((start, sec.fixed)),
                           permutation=perm, cycles=_cycles_of(perm))


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
    sec, _, moving = _family(spec, phi, cl)
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
    sec, _, moving = _family(spec, phi, cl)
    if len(moving) < 2:
        raise ValueError(f"lambda0={cl.lambda0} is a singleton family: nothing pairs")
    theta = sec.roots([eps], moving)[0]
    order = np.argsort(-theta.real)
    lams, vecs = sec.z(theta, moving)[order], sec.vectors(eps, theta[order], moving[order])
    return complex(lams[0]), vecs[:, 0], complex(lams[1]), vecs[:, 1]


# ---------------------------------------------------------------------------
# Best search eigenvalue
# ---------------------------------------------------------------------------

def best_target(classifications: list[RightClassification]) -> tuple[complex, float, int]:
    """Pick the active eigenvalue with the largest coupling constant.

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
    return best.lambda0, best.c, d


# ---------------------------------------------------------------------------
# Report assembly (used by the CLI)
# ---------------------------------------------------------------------------

def spectral_report(spec: SubgraphSpec, phi: float | None = None) -> dict:
    """Full spectral report: groups, classifications, c table, pairing, monodromy."""
    classifications = right_classifications(spec)
    lam_best, c_best, d = best_target(classifications)
    best = classify_right(spec, lam_best)
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
            {
                "lambda0": _c2j(cl.lambda0),
                "n_bound": cl.n_bound,
                "active": cl.active_vector is not None,
                "c": cl.c,
            }
            for cl in classifications
        ],
        "c_table": {  # keyed by "re,im" of lambda0
            "{0.real:.12g},{0.imag:.12g}".format(cl.lambda0): cl.c
            for cl in classifications if cl.c is not None
        },
        "pairing_fits": [dict(asdict(f), lambda0=_c2j(f.lambda0)) for f in fits],
        "monodromy": {
            "phi": phi_used,
            "rho": mono.rho,
            "permutation": list(mono.permutation),
            "cycle_lengths": list(mono.cycle_lengths),
        },
        "best": {"lambda0": _c2j(lam_best), "c": c_best, "d": d,
                 "phi": phi_used, "branch": best.branch},
    }


def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]
