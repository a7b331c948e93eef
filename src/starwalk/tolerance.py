"""
Detuning-tolerance analysis.
============================

When the reflector phase misses the value that aligns a left eigenvalue with
the chosen right eigenvalue lambda0, the pair is detuned by a phase gap delta
(e^{i delta} = lambda_l * conj(lambda_r)).  This module quantifies the damage:

* the characteristic polynomial's double root drifts off eps=0 to a complex
  eps0 ~ -(delta/2c)^2, a critical point of the secular function found by Newton;
* the dimensionless tuning parameter t = delta^2/(4 c^2 eps) controls the peak
  success probability: (1/(1+t))*sin^2((pi/2)*sqrt(1+t)) on the naive schedule
  and 1/(1+t) on the compensated schedule;
* the naive schedule stays above 50% success exactly while t <= 1/2, i.e.
  delta < c*sqrt(2M/N).
"""
from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import NumericsError, SpecError, SubgraphSpec, _walk, check_star
from .search import _search_target
from .spectral import NEWTON_MAX, _family, embed_left, left_active, matched_phi

logger = logging.getLogger(__name__)

SMALL_ANGLE_GUARD = math.pi / 4
PHASE_UNRESOLVED = 2.0 ** 52        # floats this large are 1 rad or more apart


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
        logger.warning("detuning |delta|=%.3g is outside the small-angle regime "
                       "(predictions are extrapolated)", abs(delta))
    phi0, _ = matched_phi(lambda0)
    return phi0 + 2.0 * delta


def tuning_t(delta: float, c: float, N: int, M: int = 1) -> float:
    """Dimensionless tuning parameter t = delta^2 / (4 c^2 eps), eps = M/N."""
    check_star(N, M)
    eps = M / N
    return float(delta * delta / (4.0 * c * c * eps))


def predicted_success_naive(t: float) -> float:
    """Peak success on the naive schedule m = floor(pi/(2c sqrt(eps))); 0 at t = inf."""
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    if t == math.inf:           # sin(inf) has no value; the limit is 0
        return 0.0
    return float(math.sin(0.5 * math.pi * math.sqrt(1.0 + t)) ** 2 / (1.0 + t))


def predicted_success_compensated(t: float) -> float:
    """Peak success on the compensated schedule m = floor(pi/(2c sqrt((1+t) eps)))."""
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    return float(1.0 / (1.0 + t))


# ---------------------------------------------------------------------------
# Double-root drift
# ---------------------------------------------------------------------------

def locate_double_root(spec: SubgraphSpec, phi: float, lambda0: complex) -> complex:
    """Complex eps at which the two branches of the lambda0 family merge.

    The root of D = 1 + 2 eps s(z) in eps is -1/(2 s(z)), so a double root is a
    critical point s'(z*) = 0, eps0 = -1/(2 s(z*)).  Newton on s' at
    z = lambda0*e^{i theta} starts at theta = delta/2, between lambda0 and the left
    pole lambda0*e^{i delta} on the search target's branch; delta = 0 gives 0.  A
    constant family raises SpecError.  A non-finite iterate (the secular sums
    overflow at huge N) raises NumericsError.
    """
    target = _search_target(spec, lambda0)
    sec, k, _ = _family(spec, phi, target)
    # the left poles are e^{i phi/2} (branch +1, poles[0]) and -e^{i phi/2} (poles[1])
    center, delta = sec.centers[k], sec.alpha[k, (1 - target.branch) // 2]
    if delta == 0.0:
        return 0j
    theta = complex(0.5 * delta)
    with np.errstate(all="ignore"):     # overflow shows as a non-finite value below
        for _ in range(NEWTON_MAX):
            _, ds, d2s = sec.s(theta, center)
            step = complex(ds / d2s)
            theta -= step
            if not cmath.isfinite(theta):
                break
            if abs(step) <= 1e-14 * abs(theta):
                eps0 = complex(-0.5 / sec.s(theta, center)[0])
                if cmath.isfinite(eps0):
                    return eps0
                break
    raise NumericsError(f"double-root Newton did not converge (step {abs(step):.2e}, phi={phi})")


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def tolerance_sweep(spec: SubgraphSpec, N: int, M: int, lambda0: complex,
                    delta_grid, locate_eps0: bool = True) -> list[ToleranceProfile]:
    """Measured vs predicted success across a grid of detunings.

    Success here is |<r0|U^m|l0>|^2 — the quantity the tuning theory bounds —
    recorded on both the naive and the compensated schedule.  (lambda0, c,
    branch, r0) come from the search target; the walk is ``graph._walk``.  A
    detuning is a phase: it is reduced mod 2pi to [-pi, pi] and reported so,
    but from ``PHASE_UNRESOLVED`` up, where a float names no phase, kept.
    """
    target = _search_target(spec, lambda0)
    lam0, c, r0 = target.lambda0, target.c, target.r0
    check_star(N, M)
    eps = M / N

    deltas = [float(delta) for delta in delta_grid]
    if not all(math.isfinite(delta) for delta in deltas):
        raise SpecError(f"detunings must be finite, got {deltas}")
    profiles = []
    for delta in deltas:
        if abs(delta) < PHASE_UNRESOLVED:       # exact, and a no-op inside [-pi, pi]
            delta = math.remainder(delta, 2.0 * math.pi)
        phi = detuned_phase(lam0, delta)
        extrapolated = abs(delta) >= SMALL_ANGLE_GUARD
        t = tuning_t(delta, c, N, M)
        m_naive = math.floor(math.pi / (2.0 * c * math.sqrt(eps)))
        m_comp = math.floor(math.pi / (2.0 * c * math.sqrt((1.0 + t) * eps)))
        l0 = embed_left(left_active(phi, target.branch), spec.dim_collapsed)
        psi_comp = _walk(spec, N, M, phi, l0, m_comp)     # t >= 0, so m_comp <= m_naive
        psi_naive = _walk(spec, N, M, phi, psi_comp, m_naive - m_comp)
        eps0 = locate_double_root(spec, phi, lam0) if locate_eps0 else complex("nan")
        profiles.append(ToleranceProfile(
            N=int(N), M=int(M), delta=delta, t=t, epsilon0=eps0,
            m_naive=m_naive, m_compensated=m_comp,
            P_measured_naive=float(abs(np.vdot(r0, psi_naive)) ** 2),
            P_measured_comp=float(abs(np.vdot(r0, psi_comp)) ** 2),
            P_predicted_naive=predicted_success_naive(t),
            P_predicted_comp=predicted_success_compensated(t),
            extrapolated=extrapolated,
        ))
    return profiles


def paired_mix_angle(spec: SubgraphSpec, N: int, M: int, lambda0: complex,
                     delta: float) -> float:
    """Measured sin^2(2*omega) from the detuned paired eigenvectors.

    omega is the mixing angle between l0 and r0 of the eigenvector on the root
    leaving lambda0 (``SecularFunction.vectors``); the tuning theory predicts
    sin^2(2*omega) = 1/(1+t), with l0 on the search target's (matched) branch.
    """
    check_star(N, M)
    target = _search_target(spec, lambda0)
    phi = detuned_phase(target.lambda0, delta)
    sec, k, _ = _family(spec, phi, target)
    v = sec.vectors(M / N, sec.roots([M / N], [k])[0], [k])[:, 0]
    left = abs(np.vdot(left_active(phi, target.branch), v[:2])) ** 2
    right = abs(np.vdot(target.active_vector, v[2:])) ** 2
    return float(4.0 * left * right / (left + right) ** 2)
