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
  delta < c*sqrt(2/N).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import (
    NumericsError,
    SpecError,
    StateVector,
    SubgraphSpec,
    build_collapsed,
    check_star,
    evolve,
    hub_coefficients,
)
from .spectral import (
    NEWTON_MAX,
    classify_right,
    embed_left,
    embed_right,
    left_active,
    matched_phi,
    secular_function,
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

def locate_double_root(spec: SubgraphSpec, phi: float, lambda0: complex) -> complex:
    """Complex eps at which the two branches of the lambda0 family merge.

    The root of D = 1 + 2 eps s(z) in eps is -1/(2 s(z)), so a double root is a
    critical point s'(z*) = 0, eps0 = -1/(2 s(z*)).  Newton on s' at
    z = lambda0*e^{i theta} starts at theta = delta/2, between lambda0 and the
    nearest left pole lambda0*e^{i delta}, which picks the family; delta = 0 gives 0.
    """
    cl = classify_right(spec, lambda0)
    if cl.c is None:
        raise ValueError(f"lambda0={lambda0} has no active right eigenvector")
    sec = secular_function(spec, phi)
    k = 2 + int(np.argmin(np.abs(sec.poles[2:] - cl.lambda0)))     # the root of lambda0
    center, delta = sec.centers[k], min(sec.alpha[k, :2], key=abs)
    if delta == 0.0:
        return 0j
    theta = complex(0.5 * delta)
    for _ in range(NEWTON_MAX):
        _, ds, d2s = sec.s(theta, center)
        step = complex(ds / d2s)
        theta -= step
        if abs(step) <= 1e-14 * abs(theta):
            return complex(-0.5 / sec.s(theta, center)[0])
    raise NumericsError(f"double-root Newton did not converge (step {abs(step):.2e}, phi={phi})")


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
    hub = hub_coefficients(N, M=M)

    deltas = [float(delta) for delta in delta_grid]
    if not all(math.isfinite(delta) for delta in deltas):
        raise SpecError(f"detunings must be finite, got {deltas}")
    profiles = []
    for delta in deltas:
        phi = detuned_phase(lam0, delta)
        extrapolated = abs(delta) >= SMALL_ANGLE_GUARD
        t = tuning_t(delta, c, N, M)
        m_naive = math.floor(math.pi / (2.0 * c * math.sqrt(eps)))
        m_comp = math.floor(math.pi / (2.0 * c * math.sqrt((1.0 + t) * eps)))
        U = build_collapsed(spec, hub, phi)
        l0 = StateVector(embed_left(left_active(phi, branch), dim), U.basis)
        psi_comp = evolve(U, l0, m_comp)             # t >= 0, so m_comp <= m_naive
        psi_naive = evolve(U, psi_comp, m_naive - m_comp)
        eps0 = locate_double_root(spec, phi, lam0) if locate_eps0 else complex("nan")
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

    omega is the mixing angle of the eigenvector v on the root z leaving lambda0
    between l0 and r0; the tuning theory predicts sin^2(2*omega) = 1/(1+t).
    v = (U(0) - z)^{-1} (q_1|out> + q_2|0,1>) with q = (T g_R, -(1 + a g_L)), so
    <l0|v> = q_1/(sqrt(2)(p - z)) (p: the left pole by lambda0) and
    <r0|v> = conj(<0,1|r0>) q_2/(lambda0 - z), where |<0,1|r0>|^2 = c^2/2.
    """
    check_star(N, M)
    cl = classify_right(spec, lambda0)
    if cl.c is None:
        raise ValueError("lambda0 has no active right eigenvector")
    sec = secular_function(spec, detuned_phase(cl.lambda0, delta))
    k = 2 + int(np.argmin(np.abs(sec.poles[2:] - cl.lambda0)))     # the root of lambda0
    p = sec.poles[int(np.argmin(np.abs(sec.alpha[k, :2])))]
    theta = sec.roots([M / N], [k])[0]
    (gL,), (gR,) = sec.sides(theta, sec.alpha[[k]])
    a, _, T2 = sec.changes(M / N)
    z = complex(sec.z(theta, [k])[0])
    left = abs(T2 * gR[0] ** 2) / (2.0 * abs(p - z) ** 2)
    right = abs(1.0 + a * gL[0]) ** 2 * cl.c ** 2 / (2.0 * abs(cl.lambda0 - z) ** 2)
    return float(4.0 * left * right / (left + right) ** 2)
