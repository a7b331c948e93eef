"""
Detuning-tolerance analysis.
============================

When the reflector phase misses the value that aligns a left eigenvalue with
the chosen right eigenvalue lambda0, the pair is detuned by a phase gap delta
(e^{i delta} = lambda_l * conj(lambda_r)).  This module quantifies the damage:

* the characteristic polynomial's double root drifts off eps=0 to a complex
  eps0 ~ -(delta/2c)^2, located here by gap minimization plus Newton;
* the dimensionless tuning parameter t = delta^2/(4 c^2 eps) controls the peak
  success probability: (1/(1+t))*sin^2((pi/2)*sqrt(1+t)) on the naive schedule
  and 1/(1+t) on the compensated schedule;
* the naive schedule stays above 50% success exactly while t <= 1/2, i.e.
  delta < c*sqrt(2/N).
"""
from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import (
    NumericsError,
    StateVector,
    SubgraphSpec,
    build_collapsed,
    check_star,
    collapsed_matrix,
    evolve,
    hub_coefficients,
)
from .spectral import (
    classify_right,
    eigendecompose,
    embed_left,
    embed_right,
    left_active,
    matched_phi,
)

logger = logging.getLogger(__name__)

SMALL_ANGLE_GUARD = math.pi / 4


@dataclass(frozen=True)
class ToleranceProfile:
    """One row of a detuning sweep."""
    N: int
    M: int
    delta: float
    t: float
    epsilon0: complex
    m_naive: int
    m_compensated: int
    P_measured_naive: float
    P_measured_comp: float
    P_predicted_naive: float
    P_predicted_comp: float
    extrapolated: bool      # |delta| beyond the small-angle regime


def detuned_phase(lambda0: complex, delta: float) -> float:
    """Reflector phase that puts the left eigenvalue at lambda0*e^{i delta}."""
    if abs(delta) >= SMALL_ANGLE_GUARD:
        logger.warning("detuning |delta|=%.3f is outside the small-angle regime "
                       "(predictions are extrapolated)", abs(delta))
    phi0, _ = matched_phi(lambda0)
    return phi0 + 2.0 * delta


def tuning_t(delta: float, c: float, N: int, M: int = 1) -> float:
    """Dimensionless tuning parameter t = delta^2 / (4 c^2 eps), eps = M/N."""
    check_star(N, M)
    eps = M / N
    return float(delta * delta / (4.0 * c * c * eps))


def predicted_success_naive(t: float) -> float:
    """Peak success on the naive schedule m = floor(pi/(2c sqrt(eps)))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(math.sin(0.5 * math.pi * math.sqrt(1.0 + t)) ** 2 / (1.0 + t))


def predicted_success_compensated(t: float) -> float:
    """Peak success on the compensated schedule m = floor(pi/(2c sqrt((1+t) eps)))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(1.0 / (1.0 + t))


# ---------------------------------------------------------------------------
# Double-root drift
# ---------------------------------------------------------------------------

HUB_WEIGHT_FLOOR = 0.05     # eigenvectors below this hub-state mass are bound


def _closest_pair_sq(vals: np.ndarray) -> tuple[complex, float]:
    """(difference^2, |difference|) of the closest eigenvalue pair.

    Pairs are (i, j) with i < j; on a tie the first in row-major order wins.
    """
    n = len(vals)
    diff = vals[:, None] - vals[None, :]
    # hypot equals the scalar abs() bit for bit; np.abs of a complex array may not
    dist = np.hypot(diff.real, diff.imag)
    dist.flat[::n + 1] = np.inf                # no pair of a value with itself
    # dist is symmetric, so its first row-major minimum lies above the diagonal
    i, j = divmod(int(np.argmin(dist)), n)
    return complex(diff[i, j] ** 2), float(dist[i, j])


def _hub_coupled_eigenvalues(spec: SubgraphSpec, eps: complex, phi: float) -> np.ndarray:
    """Eigenvalues whose eigenvectors carry mass on the four hub-adjacent states.

    Bound eigenvectors live entirely inside the attached structure and stay
    pinned for every eps; they would otherwise always present a fake zero gap
    against the eps=0 degeneracy they belong to.
    """
    vals, vecs = np.linalg.eig(collapsed_matrix(spec, eps, phi))
    weight = np.sum(np.abs(vecs[:4, :]) ** 2, axis=0) / \
        np.sum(np.abs(vecs) ** 2, axis=0)
    keep = weight > HUB_WEIGHT_FLOOR
    if int(np.sum(keep)) < 2:
        return vals
    return vals[keep]


def locate_double_root(spec: SubgraphSpec, phi: float,
                       search_radius: float = 0.1, grid: int = 25) -> complex:
    """Complex eps where the characteristic polynomial has a double root.

    Only hub-coupled eigenvalue branches are tracked (bound branches are
    constant in eps and never merge with anything they were not already
    degenerate with).  Strategy: seed with the minimal gap on a grid over the
    complex disk, then Newton-iterate on the *squared* difference of the merging
    pair — an analytic function of eps with a simple zero at eps0 — so the
    final location is sharp even though the gap itself has a square-root cusp.
    """
    def gap(eps: complex) -> float:
        return _closest_pair_sq(_hub_coupled_eigenvalues(spec, eps, phi))[1]

    def F(eps: complex) -> complex:
        return _closest_pair_sq(_hub_coupled_eigenvalues(spec, eps, phi))[0]

    xs = np.linspace(-search_radius, search_radius, grid)
    best_eps, best_gap = 0.0 + 0.0j, gap(0.0 + 0.0j)
    for re in xs:
        for im in xs:
            e = complex(re, im)
            g = gap(e)
            if g < best_gap:
                best_gap, best_eps = g, e

    eps = best_eps
    if gap(eps) < 1e-12:
        return complex(eps)
    h0 = max(abs(eps), search_radius / grid) * 1e-4
    for _ in range(100):
        f = F(eps)
        if abs(f) < 1e-24:
            break
        h = max(h0, abs(eps) * 1e-7)
        df = (F(eps + h) - F(eps - h)) / (2.0 * h)
        if df == 0:
            raise NumericsError("double-root Newton stalled (zero derivative)")
        step = f / df
        eps = eps - step
        if abs(step) < 1e-15:
            break
    if abs(eps) > search_radius * 1.5:
        raise NumericsError(
            f"no double root inside |eps| < {search_radius}: pairing structurally "
            f"absent at phi={phi}")
    if gap(eps) > 1e-6:
        raise NumericsError(f"double-root search did not converge "
                            f"(gap {gap(eps):.2e} at eps={eps})")
    return complex(eps)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def tolerance_sweep(spec: SubgraphSpec, N: int, M: int, lambda0: complex,
                    delta_grid, locate_eps0: bool = True) -> list[ToleranceProfile]:
    """Measured vs predicted success across a grid of detunings.

    Success here is |<r0|U^m|l0>|^2 — the quantity the tuning theory bounds —
    recorded on both the naive and the compensated schedule.
    """
    cl = classify_right(spec, lambda0)
    if cl.c is None:
        raise ValueError(f"lambda0={lambda0} has no active right eigenvector")
    c = cl.c
    lam0 = cl.lambda0
    eps = M / N
    dim = spec.dim_collapsed
    r0 = embed_right(cl.active_vector, dim)
    _, branch = matched_phi(lam0)

    profiles = []
    for delta in delta_grid:
        delta = float(delta)
        phi = detuned_phase(lam0, delta)
        extrapolated = abs(delta) >= SMALL_ANGLE_GUARD
        t = tuning_t(delta, c, N, M)
        m_naive = math.floor(math.pi / (2.0 * c * math.sqrt(eps)))
        m_comp = math.floor(math.pi / (2.0 * c * math.sqrt((1.0 + t) * eps)))
        U = build_collapsed(spec, hub_coefficients(N, M=M), phi)
        l0 = StateVector(embed_left(left_active(phi, branch), dim), U.basis)
        psi_comp = evolve(U, l0, m_comp)             # t >= 0, so m_comp <= m_naive
        psi_naive = evolve(U, psi_comp, m_naive - m_comp)
        eps0 = locate_double_root(spec, phi) if locate_eps0 else complex("nan")
        profiles.append(ToleranceProfile(
            N=int(N), M=int(M), delta=delta, t=t, epsilon0=eps0,
            m_naive=m_naive, m_compensated=m_comp,
            P_measured_naive=float(abs(np.vdot(r0, psi_naive.amplitudes)) ** 2),
            P_measured_comp=float(abs(np.vdot(r0, psi_comp.amplitudes)) ** 2),
            P_predicted_naive=predicted_success_naive(t),
            P_predicted_comp=predicted_success_compensated(t),
            extrapolated=extrapolated,
        ))
    return profiles


def paired_mix_angle(spec: SubgraphSpec, N: int, M: int, lambda0: complex,
                     delta: float) -> float:
    """Measured sin^2(2*omega) from the detuned paired eigenvectors.

    omega is the mixing angle of the near-lambda0 eigenvectors between the left
    and right active directions; the tuning theory predicts
    sin^2(2*omega) = 1/(1+t).
    """
    cl = classify_right(spec, lambda0)
    if cl.c is None:
        raise ValueError("lambda0 has no active right eigenvector")
    lam0 = cl.lambda0
    phi = detuned_phase(lam0, delta)
    _, branch = matched_phi(lam0)
    dim = spec.dim_collapsed
    r0 = embed_right(cl.active_vector, dim)
    l0 = embed_left(left_active(phi, branch), dim)
    U = build_collapsed(spec, hub_coefficients(N, M=M), phi)
    sys = eigendecompose(U)
    center = lam0 * cmath.exp(0.5j * delta)
    # skip bound eigenvectors that may sit right at lam0 inside the family
    idx = np.argsort(np.abs(sys.eigenvalues - center))[:2 + cl.n_bound]
    best = None
    for i in idx:
        v = sys.eigenvectors[:, int(i)]
        a = abs(np.vdot(l0, v)) ** 2
        b = abs(np.vdot(r0, v)) ** 2
        if best is None or a + b > best[0] + best[1]:
            best = (a, b)
    a, b = best
    if a + b < 1e-12:
        raise NumericsError("paired eigenvector has no weight on the active pair")
    return float(4.0 * a * b / (a + b) ** 2)
