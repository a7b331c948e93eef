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

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import SpecError, SubgraphSpec, check_star
from .search import _schedule, _search_target, plan_search, run_search
from .spectral import _family, embed_left, left_active, matched_phi

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


def detuned_phase(lambda0: complex, delta: float) -> float:
    """Reflector phase that puts the left eigenvalue at lambda0*e^{i delta}; a detuning
    whose phase phi0 + 2*delta is not finite raises SpecError."""
    phi0, _ = matched_phi(lambda0)
    phi = phi0 + 2.0 * delta
    if not math.isfinite(phi):
        raise SpecError(f"detuning {delta!r} has no finite detuned phase: "
                        f"phi0 + 2*delta is {phi!r}")
    if abs(delta) >= SMALL_ANGLE_GUARD:
        logger.warning("detuning |delta|=%.3g is outside the small-angle regime "
                       "(predictions are extrapolated)", abs(delta))
    return phi


def tuning_t(delta: float, c: float, N: int, M: int = 1) -> float:
    """Dimensionless tuning parameter t = delta^2 / (4 c^2 eps), eps = M/N, for a coupling
    constant c that is finite and positive."""
    check_star(N, M)
    if not (math.isfinite(c) and c > 0):
        raise SpecError(f"coupling constant c must be finite and positive, got {c!r}")
    eps = M / N
    return float(delta * delta / (4.0 * c * c * eps))


def predicted_success_naive(t: float) -> float:
    """Peak success on the naive schedule, the search's m; 0 at t = inf."""
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    if t == math.inf:           # sin(inf) has no value; the limit is 0
        return 0.0
    return float(math.sin(0.5 * math.pi * math.sqrt(1.0 + t)) ** 2 / (1.0 + t))


def predicted_success_compensated(t: float) -> float:
    """Peak success on the compensated schedule, the search's m with c*sqrt(1+t) for c."""
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    return float(1.0 / (1.0 + t))


# ---------------------------------------------------------------------------
# Double-root drift
# ---------------------------------------------------------------------------

def locate_double_root(spec: SubgraphSpec, lambda0: complex, delta: float) -> complex:
    """Complex eps at which the two branches of the lambda0 family merge: the critical point
    of the secular function between lambda0 and the left pole lambda0*e^{i delta}, the first
    (``SecularFunction.branch_point``); delta = 0 gives 0.  A constant family raises
    SpecError, a failed Newton NumericsError."""
    sec, k, _ = _family(spec, _search_target(spec, lambda0), delta)
    return sec.branch_point(k, 0)[1]


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def tolerance_sweep(spec: SubgraphSpec, N: int, M: int, lambda0: complex,
                    delta_grid, locate_eps0: bool = True) -> list[ToleranceProfile]:
    """Measured vs predicted success across a grid of detunings.

    Success here is |<r0|U^m|l0>|^2 — the quantity the tuning theory bounds —
    recorded on both the naive and the compensated schedule.  Each row is the
    planned search (``plan_search``) run at the detuned phase from |l0>: the
    compensated schedule, m with c*sqrt(1+t) in place of c, then the rest of
    the naive one, the plan's m, each through ``run_search``.  A detuning is a
    phase: it is reduced mod 2pi to [-pi, pi] and reported so, but from
    ``PHASE_UNRESOLVED`` up, where a float names no phase, kept.
    """
    plan = plan_search(spec, N, M, lambda0)

    deltas = [float(delta) for delta in delta_grid]
    if not all(math.isfinite(delta) for delta in deltas):
        raise SpecError(f"detunings must be finite, got {deltas}")
    profiles = []
    for delta in deltas:
        if abs(delta) < PHASE_UNRESOLVED:       # exact, and a no-op inside [-pi, pi]
            delta = math.remainder(delta, 2.0 * math.pi)
        phi = detuned_phase(plan.lambda0, delta)
        t = tuning_t(delta, plan.c, N, M)
        m_comp = _schedule(N, M, plan.c * math.sqrt(1.0 + t))
        l0 = embed_left(left_active(phi, plan.branch), spec.dim_collapsed)
        detuned = replace(plan, phi=phi, initial=l0, m=m_comp)    # t >= 0, so m_comp <= plan.m
        comp = run_search(detuned, spec)
        naive = run_search(replace(detuned, initial=comp.final_state, m=plan.m - m_comp), spec)
        eps0 = locate_double_root(spec, plan.lambda0, delta) if locate_eps0 else complex("nan")
        profiles.append(ToleranceProfile(
            N=int(N), M=int(M), delta=delta, t=t, epsilon0=eps0,
            m_naive=plan.m, m_compensated=m_comp,
            P_measured_naive=naive.overlap_r0, P_measured_comp=comp.overlap_r0,
            P_predicted_naive=predicted_success_naive(t),
            P_predicted_comp=predicted_success_compensated(t),
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
    l0 = left_active(detuned_phase(target.lambda0, delta), target.branch)
    sec, k, _ = _family(spec, target, delta)
    v = sec.vectors(M / N, sec.roots([M / N], [k])[0], [k])[:, 0]
    left = abs(np.vdot(l0, v[:2])) ** 2
    right = abs(np.vdot(target.active_vector, v[2:])) ** 2
    return float(4.0 * left * right / (left + right) ** 2)
