"""
Spectral analysis of the collapsed walk operator.
=================================================

* eigendecomposition from one complex Schur form, with a fixed phase gauge;
* clustering of unit-circle eigenvalues into lambda0 families;
* classification of right-block eigenspaces into bound (hub-blind) and active
  (hub-contacting) parts with the coupling constant c, computed once per
  loaded spec;
* numerical checks of the structure theory: affine characteristic polynomial,
  eigenvalue pairing lambda0*exp(+-ic*sqrt(eps)), monodromy of a loop of eps
  around 0, and selection of the best search eigenvalue.
"""
from __future__ import annotations

import cmath
import logging
import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graph import (
    NumericsError,
    SpecError,
    SubgraphSpec,
    collapsed_basis,
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


def _gauge(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        v = out[:, k]
        v /= np.linalg.norm(v)
        i = int(np.argmax(np.abs(v)))
        ph = v[i] / abs(v[i])
        out[:, k] = v * ph.conjugate()
    return out


def eigendecompose(U, residual_tol: float = RESIDUAL_TOL) -> EigenSystem:
    """Eigenvalues and an orthonormal eigenbasis from one complex Schur form.

    For a normal (here: unitary) matrix the triangular factor is diagonal, so
    the Schur vectors are an orthonormal eigenbasis, degenerate clusters
    included.  A residual above ``residual_tol`` means the input is not normal.
    """
    A = np.asarray(getattr(U, "matrix", U), dtype=complex)   # an operator or a bare matrix
    T, Z = scipy.linalg.schur(A, output="complex")
    vals = np.diag(T).copy()
    res = _max_residual(A, vals, Z)
    if res > residual_tol:
        cond = np.linalg.cond(A)
        raise NumericsError(
            f"eigendecomposition residual {res:.2e} exceeds {residual_tol:.1e} "
            f"(matrix condition number {cond:.2e})")
    return EigenSystem(eigenvalues=vals, eigenvectors=_gauge(Z))


def _max_residual(A: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> float:
    R = A @ vecs - vecs * vals[np.newaxis, :]
    return float(np.max(np.linalg.norm(R, axis=0)))


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


def group_eigenvalues(sys: EigenSystem, tol: float = CLUSTER_TOL) -> list[EigenvalueGroup]:
    """Cluster eigenvalues into lambda0 families by single-linkage on the circle.

    Two clusters whose representatives end up closer than 2*tol are reported as
    ambiguous rather than silently merged.
    """
    vals = sys.eigenvalues
    n = len(vals)
    order = np.argsort(np.angle(vals))
    # chain clusters over sorted angles, then check the wrap-around seam
    clusters: list[list[int]] = [[int(order[0])]]
    for k in range(1, n):
        i = int(order[k])
        if abs(vals[i] - vals[clusters[-1][-1]]) <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if len(clusters) > 1 and abs(vals[clusters[0][0]] - vals[clusters[-1][-1]]) <= tol:
        clusters[0] = clusters.pop() + clusters[0]

    groups = []
    for members in clusters:
        mean = np.mean(vals[members])
        rep = complex(mean / abs(mean)) if abs(mean) > 0 else complex(vals[members[0]])
        groups.append(EigenvalueGroup(lambda0=rep, multiplicity=len(members),
                                      members=tuple(sorted(members))))
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            gap = abs(groups[a].lambda0 - groups[b].lambda0)
            if gap < 2 * tol:
                raise NumericsError(
                    f"ambiguous eigenvalue clustering: groups at {groups[a].lambda0:.9f} "
                    f"and {groups[b].lambda0:.9f} are {gap:.2e} apart (< 2*tol)")
    # -1 sorts last whatever the sign of its round-off imaginary part
    return sorted(groups, key=lambda g: round(float(np.angle(_snap(g.lambda0))), 12))


# ---------------------------------------------------------------------------
# Right block and bound/active classification
# ---------------------------------------------------------------------------

def right_block(spec: SubgraphSpec, x: float = math.pi) -> tuple[np.ndarray, tuple[str, ...]]:
    """The eps=0 operator restricted to the right side.

    Basis order [|0,1>, |1,0>, interior...].  At eps=0 the hub does not couple
    the two sides and returns |1,0> to |0,1> with amplitude R_R(0) (-1 for the
    standard hub, e^{ix} otherwise).
    """
    return collapsed_matrix(spec, 0.0, 0.0, x=x)[2:, 2:], collapsed_basis(spec).labels[2:]


@dataclass(frozen=True, eq=False)
class RightClassification:
    """Bound/active split of one right-block eigenspace (read-only arrays)."""
    lambda0: complex
    bound_basis: np.ndarray            # (dim_right, n_bound), orthonormal columns
    active_vector: np.ndarray | None   # the hub-contacting unit vector, if any
    c: float | None                    # coupling constant, present iff active

    @property
    def n_bound(self) -> int:
        return self.bound_basis.shape[1]


def _nearest(items, lambda0: complex, where: str):
    """The item (group or classification) whose lambda0 is closest to ``lambda0``."""
    dists = [abs(it.lambda0 - lambda0) for it in items]
    k = int(np.argmin(dists))
    if not dists[k] <= LOOKUP_TOL:              # a NaN request matches nothing
        raise SpecError(f"{lambda0} is not an eigenvalue of {where} "
                        f"(closest group at distance {dists[k]:.2e})")
    return items[k]


def _classify_group(sys: EigenSystem, g: EigenvalueGroup) -> RightClassification:
    """Split one eigenspace of the right block into bound and active parts.

    Bound vectors have (numerically) zero amplitude on the hub-adjacent states
    |0,1> and |1,0>; the rank of the hub-contact map is decided by its singular
    values against ``RANK_TOL``.  A contact rank above 1 would contradict the
    one-active-vector-per-side structure and raises a diagnostic.
    """
    basis = sys.eigenvectors[:, list(g.members)]   # orthonormal (Schur vectors)
    contact = basis[:2, :]                      # amplitudes on |0,1>, |1,0>
    _, svals, vh = np.linalg.svd(contact)
    rank = int(np.sum(svals > RANK_TOL))
    if rank > 1:
        raise NumericsError(
            f"eigenspace at lambda0={g.lambda0:.6f} touches the hub with rank "
            f"{rank} (singular values {svals}); expected at most one active vector")
    if rank == 0:
        basis.flags.writeable = False
        return RightClassification(lambda0=g.lambda0, bound_basis=basis,
                                   active_vector=None, c=None)
    active = basis @ vh[0].conj()
    active /= np.linalg.norm(active)
    i = int(np.argmax(np.abs(active)))
    active = active * (active[i].conjugate() / abs(active[i]))
    bound = basis @ vh[1:].conj().T
    c = math.sqrt(2.0) * abs(active[1])         # sqrt(2)*|<1,0|r0>|
    active.flags.writeable = bound.flags.writeable = False
    return RightClassification(lambda0=g.lambda0, bound_basis=bound,
                               active_vector=active, c=float(c))


def _classify(spec: SubgraphSpec, x: float) -> tuple[RightClassification, ...]:
    """Decompose the right block once and classify every eigenvalue group."""
    A, _ = right_block(spec, x=x)
    sys = eigendecompose(A)
    return tuple(_classify_group(sys, g) for g in group_eigenvalues(sys))


# Classifications per loaded spec, then per hub phase x.  A spec is immutable,
# so an entry never goes stale; it goes away with its spec.  Keyed on the spec
# object (weakly), never on id(spec): ids are reused after garbage collection.
_CLASSIFIED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def right_classifications(spec: SubgraphSpec, x: float = math.pi) -> list[RightClassification]:
    """Classification of every eigenvalue group of the right block.

    Computed on the first call for a given ``(spec, x)`` and served from a memo
    afterwards, since it does not depend on N or M; a failed classification
    (SpecError, NumericsError) is not kept.
    """
    cached = _CLASSIFIED.get(spec, {}).get(x)
    if cached is None:
        cached = _classify(spec, x)
        _CLASSIFIED.setdefault(spec, {})[x] = cached
    return list(cached)


def classify_right(spec: SubgraphSpec, lambda0: complex,
                   x: float = math.pi) -> RightClassification:
    """The classification of the right-block eigenspace nearest to ``lambda0``."""
    return _nearest(right_classifications(spec, x=x), lambda0, "the right block")


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


def embed_left(vec2: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros(dim, dtype=complex)
    out[0:2] = vec2
    return out


def embed_right(vec: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros(dim, dtype=complex)
    out[2:2 + len(vec)] = vec
    return out


def u1_matrix(spec: SubgraphSpec, phi: float = 0.0,
              x: float = math.pi, y: float = 0.0) -> np.ndarray:
    """The sqrt(eps)-order coefficient of U(eps) on the collapsed basis.

    For the standard hub this is 2(|0,1><in| + |out><1,0|); the generalized
    family rescales the coefficient to -2cos(x-y)e^{iy}.
    """
    del phi  # the phase-phi reflection enters at order eps^0 only
    d = spec.dim_collapsed
    g = -2.0 * math.cos(x - y) * cmath.exp(1j * y)
    U1 = np.zeros((d, d), dtype=complex)
    U1[2, 1] = g   # |0,1><in|
    U1[0, 3] = g   # |out><1,0|
    return U1


def coupling_c(l0: np.ndarray, r0: np.ndarray, U1: np.ndarray) -> float:
    """Coupling constant c = |<l0|U1|r0>| (vectors on the collapsed basis)."""
    return float(abs(np.vdot(l0, U1 @ r0)))


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
# Affine characteristic polynomial
# ---------------------------------------------------------------------------

def char_poly_value(spec: SubgraphSpec, z: complex, eps, phi: float) -> complex:
    """C(z, eps) = det(U(eps) - z I) on the collapsed graph."""
    A = collapsed_matrix(spec, eps, phi)
    return complex(np.linalg.det(A - z * np.eye(A.shape[0])))


def affine_residual(spec: SubgraphSpec, phi: float, z_samples, eps_samples) -> float:
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


def monodromy(spec: SubgraphSpec, phi: float, rho: float = 1e-4,
              steps: int = 240) -> MonodromyReport:
    """Track all eigenvalues along eps = rho*e^{i theta}, theta: 0 -> 2pi.

    sqrt(eps - eps^2) is continued analytically along the loop (branch chosen
    by continuity, not principal value); eigenvalues are matched step-to-step
    by minimal |delta lambda| assignment.
    """
    # imported here: scipy.optimize adds ~0.2 s to import, and only this uses it
    from scipy.optimize import linear_sum_assignment

    if steps < 180:
        raise ValueError("need steps >= 180 for reliable continuation")
    w = cmath.sqrt(rho - rho * rho)
    vals = np.linalg.eigvals(collapsed_matrix(spec, rho, phi, trans_sqrt=w))
    start = vals.copy()
    jump_limit = 0.5 * math.sqrt(rho)
    for k in range(1, steps + 1):
        theta = 2.0 * math.pi * k / steps
        eps = rho * cmath.exp(1j * theta)
        w_candidates = cmath.sqrt(eps - eps * eps)
        w = w_candidates if abs(w_candidates - w) <= abs(-w_candidates - w) else -w_candidates
        new = np.linalg.eigvals(collapsed_matrix(spec, eps, phi, trans_sqrt=w))
        cost = np.abs(vals[:, None] - new[None, :])
        rows, cols = linear_sum_assignment(cost)
        step_cost = float(cost[rows, cols].max())
        if step_cost > jump_limit:
            raise NumericsError(
                f"monodromy tracking ambiguous at theta={theta:.4f} "
                f"(matched step {step_cost:.2e} > {jump_limit:.2e}); "
                f"increase steps or shrink rho")
        vals = new[cols]
    # vals[i] is the continuation of start[i]; find which start value it became
    cost = np.abs(vals[:, None] - start[None, :])
    rows, cols = linear_sum_assignment(cost)
    final_cost = float(cost[rows, cols].max())
    if final_cost > jump_limit:
        raise NumericsError(f"monodromy loop did not close (residual {final_cost:.2e})")
    perm = tuple(int(c) for c in cols)
    return MonodromyReport(rho=rho, start_eigenvalues=start, permutation=perm,
                           cycles=_cycles_of(perm))


# ---------------------------------------------------------------------------
# Pairing fit
# ---------------------------------------------------------------------------

CASE_CONSTANT = "constant"        # case i: the whole family stays put
CASE_DRIFT = "single-drift"       # case ii: one branch drifts at O(eps)
CASE_PAIRED = "paired"            # case iii: lambda0 e^{+-ic sqrt(eps)} pair


@dataclass(frozen=True)
class PairingFit:
    """Numerical fit of the eps-dependence of one lambda0 family."""
    lambda0: complex
    case: str
    c_fit: float | None
    residual_slope: float | None
    epsilon_grid: tuple[float, ...]
    balanced: bool = False          # lambda0^2 + e^{i phi} = 0: no net hub flow


def default_eps_grid() -> tuple[float, ...]:
    return tuple(np.logspace(-6, -2, 9))


def _family(spec: SubgraphSpec, phi: float, lambda0: complex,
            x: float, y: float) -> EigenvalueGroup:
    """The eigenvalue group of U(0) nearest to ``lambda0``."""
    U0 = collapsed_matrix(spec, 0.0, phi, x=x, y=y)
    return _nearest(group_eigenvalues(eigendecompose(U0)), lambda0, "U(0)")


def pairing_fit(spec: SubgraphSpec, phi: float, lambda0: complex,
                eps_grid=None, x: float = math.pi, y: float = 0.0) -> PairingFit:
    """Fit the lambda0 family of U(eps) to one of the three structure cases.

    Case iii fits the phase split between the two moving branches to
    2c*sqrt(eps) (+ higher orders) and reports the log-log slope of the
    remainder |lambda+- - lambda0 e^{+-ic sqrt(eps)}|, which is >= 0.9 for a
    genuine O(eps) remainder.
    """
    grid = tuple(sorted(eps_grid)) if eps_grid is not None else default_eps_grid()
    g = _family(spec, phi, lambda0, x, y)
    lam0 = g.lambda0
    s = g.multiplicity

    R_L0, _, _ = collapsed_coefficients(0.0, x=x, y=y)
    balanced = abs(lam0 * lam0 + cmath.exp(1j * phi) * R_L0) < 1e-9
    if balanced:
        logger.warning("lambda0^2 + e^{i phi} = 0 at lambda0=%s: no net probability "
                       "flow across the hub; pairing is not claimed", lam0)

    fam_dev = []        # per eps: deviations |lambda - lambda0| of the family, sorted desc
    fam_vals = []
    for e in grid:
        vals = np.linalg.eigvals(collapsed_matrix(spec, e, phi, x=x, y=y))
        idx = np.argsort(np.abs(vals - lam0))[:s]
        fam = vals[idx]
        dev = np.abs(fam - lam0)
        order = np.argsort(-dev)
        fam_dev.append(dev[order])
        fam_vals.append(fam[order])

    max_dev = np.array([d[0] for d in fam_dev])
    if float(max_dev.max()) < 1e-10:
        return PairingFit(lambda0=lam0, case=CASE_CONSTANT, c_fit=None,
                          residual_slope=None, epsilon_grid=grid, balanced=balanced)

    slope = float(np.polyfit(np.log(grid), np.log(np.maximum(max_dev, 1e-300)), 1)[0])
    if slope > 0.75 or balanced or s < 2:
        return PairingFit(lambda0=lam0, case=CASE_DRIFT, c_fit=None,
                          residual_slope=None, epsilon_grid=grid, balanced=balanced)

    # case iii: phase split of the two movers against sqrt(eps)
    splits = []
    for e, fam in zip(grid, fam_vals):
        a1 = cmath.phase(fam[0] / lam0)
        a2 = cmath.phase(fam[1] / lam0)
        splits.append(abs(a1 - a2))
    splits = np.array(splits)
    root = np.sqrt(np.array(grid))
    design = np.stack([root, root ** 2, root ** 3], axis=1)
    coef, *_ = np.linalg.lstsq(design, splits, rcond=None)
    c_fit = float(coef[0] / 2.0)

    residuals = []
    for e, fam in zip(grid, fam_vals):
        if cmath.phase(complex(fam[0]) / lam0) >= 0:
            plus, minus = complex(fam[0]), complex(fam[1])
        else:
            plus, minus = complex(fam[1]), complex(fam[0])
        r = max(abs(plus - lam0 * cmath.exp(1j * c_fit * math.sqrt(e))),
                abs(minus - lam0 * cmath.exp(-1j * c_fit * math.sqrt(e))))
        residuals.append(max(r, 1e-16))
    residual_slope = float(np.polyfit(np.log(grid), np.log(residuals), 1)[0])
    return PairingFit(lambda0=lam0, case=CASE_PAIRED, c_fit=c_fit,
                      residual_slope=residual_slope, epsilon_grid=grid,
                      balanced=balanced)


def paired_vectors(spec: SubgraphSpec, phi: float, lambda0: complex, eps: float,
                   x: float = math.pi, y: float = 0.0):
    """The two paired eigenvalues/vectors of U(eps) split off lambda0.

    Within the lambda0 family (size = multiplicity at eps=0, which may also
    contain bound members pinned at lambda0) the pair is the two members with
    the largest deviation.  Returns (lam_plus, v_plus, lam_minus, v_minus)
    ordered by the sign of the phase offset from lambda0.
    """
    g = _family(spec, phi, lambda0, x, y)
    if g.multiplicity < 2:
        raise ValueError(f"lambda0={g.lambda0} is a singleton family: nothing pairs")
    sys = eigendecompose(collapsed_matrix(spec, eps, phi, x=x, y=y))
    fam = np.argsort(np.abs(sys.eigenvalues - g.lambda0))[:g.multiplicity]
    fam = sorted(fam, key=lambda i: -abs(sys.eigenvalues[i] - g.lambda0))[:2]
    i1, i2 = int(fam[0]), int(fam[1])
    if cmath.phase(complex(sys.eigenvalues[i1]) / g.lambda0) < \
            cmath.phase(complex(sys.eigenvalues[i2]) / g.lambda0):
        i1, i2 = i2, i1
    return (complex(sys.eigenvalues[i1]), sys.eigenvectors[:, i1],
            complex(sys.eigenvalues[i2]), sys.eigenvectors[:, i2])


# ---------------------------------------------------------------------------
# Best search eigenvalue
# ---------------------------------------------------------------------------

def best_target(classifications: list[RightClassification],
                tol: float = 1e-9) -> tuple[complex, float, int]:
    """Pick the active eigenvalue with the largest coupling constant.

    Verifies the sum rule sum_j c_j^2 = 2 over all active eigenvalues (a
    violation indicates mis-classification upstream) and the guaranteed bound
    max c >= sqrt(2/d) with d the number of active vectors.
    """
    actives = [cl for cl in classifications if cl.c is not None]
    if not actives:
        raise ValueError("no active eigenvectors: nothing couples to the hub")
    total = sum(cl.c ** 2 for cl in actives)
    if abs(total - 2.0) > tol:
        raise NumericsError(
            f"sum of c^2 over active eigenvalues is {total!r}, expected 2 "
            f"(tolerance {tol:.1e}); classification is inconsistent")
    d = len(actives)
    best = max(actives, key=lambda cl: cl.c)
    if best.c < math.sqrt(2.0 / d) - 1e-12:
        raise NumericsError(f"max c = {best.c} below guaranteed sqrt(2/d) = "
                            f"{math.sqrt(2.0 / d)}")
    return best.lambda0, best.c, d


# ---------------------------------------------------------------------------
# Report assembly (used by the CLI)
# ---------------------------------------------------------------------------

def spectral_report(spec: SubgraphSpec, phi: float | None = None,
                    rho: float = 1e-4, eps_grid=None) -> dict:
    """Full spectral report: groups, classifications, c table, pairing, monodromy."""
    classifications = right_classifications(spec)
    lam_best, c_best, d = best_target(classifications)
    phi_used, branch = (matched_phi(lam_best) if phi is None
                        else (phi, matched_phi(lam_best)[1]))
    fits = []
    for cl in classifications:
        if cl.c is None:
            continue
        p = matched_phi(cl.lambda0)[0] if phi is None else phi
        fits.append(pairing_fit(spec, p, cl.lambda0, eps_grid=eps_grid))
    mono = monodromy(spec, phi_used, rho=rho)
    return {
        "right_basis": list(collapsed_basis(spec).labels[2:]),
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
            "{0.real:.12g},{0.imag:.12g}".format(_snap(cl.lambda0)): cl.c
            for cl in classifications if cl.c is not None
        },
        "pairing_fits": [
            {
                "lambda0": _c2j(f.lambda0),
                "case": f.case,
                "c_fit": f.c_fit,
                "residual_slope": f.residual_slope,
                "balanced": f.balanced,
            }
            for f in fits
        ],
        "monodromy": {
            "phi": phi_used,
            "rho": mono.rho,
            "permutation": list(mono.permutation),
            "cycle_lengths": list(mono.cycle_lengths),
        },
        "best": {"lambda0": _c2j(lam_best), "c": c_best, "d": d,
                 "phi": phi_used, "branch": branch},
    }


def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]
