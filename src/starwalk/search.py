"""
Search planning and execution on the collapsed star graph.
==========================================================

Pick an active right eigenvalue lambda0 (by maximal coupling c when "auto"),
dial the unmarked-edge reflection phase so a left eigenvalue sits exactly at
lambda0, prepare the accessible uniform superposition, iterate the walk for
m = floor(pi*sqrt(N/M)/(2c)) steps, and read out the mass on the marked edge.

The search target, everything of a search that does not depend on N or M
(lambda0, c, phi, branch, the active vector r0 and the predicted success), is
the family's ``RightClassification``, kept on the spec.  ``run_search`` is the
one way to evolve a state: ``hub_coefficients`` -> ``build_collapsed`` ->
``evolve``; the detuning analysis runs its rows through it too.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .graph import (SpecError, StateVector, SubgraphSpec, build_collapsed, check_star, evolve,
                    hub_coefficients)
from .spectral import RightClassification, best_target, classify_right, right_classifications

SHOTS_MAX = 2 ** 63 - 1         # the multinomial sampler counts in int64


@dataclass(frozen=True, eq=False)
class SearchPlan:
    """Everything needed to run one search and predict its outcome."""
    lambda0: complex
    phi: float
    branch: int
    c: float
    N: int
    M: int
    m: int
    initial: StateVector
    predicted_success: float
    r0: np.ndarray          # active right vector, embedded in the collapsed basis


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Mass distribution after the planned number of steps, of the unit final state."""
    final_state: StateVector
    p_marked: float         # mass on |0,1>, |1,0>
    p_null: float           # mass inside G
    p_unmarked: float       # mass on |out>, |in>
    overlap_r0: float       # |<r0|psi>|^2
    norm_drift: float       # ||psi||^2 - 1 of the final state as walked


def initial_state(spec: SubgraphSpec, N: int, M: int, branch: int, phi: float) -> StateVector:
    """Exact collapsed form of the accessible uniform superposition.

    (1/sqrt(N)) * sum_j (beta|0,j> + alpha|j,0>) with beta = 1/sqrt(2) and
    alpha = branch*e^{i phi/2}/sqrt(2); equals the left active vector up to
    O(sqrt(M/N)).  The amplitudes are read-only, so a real walk's start stays real.
    """
    check_star(N, M)
    alpha = branch * cmath.exp(0.5j * phi) / math.sqrt(2.0)
    beta = 1.0 / math.sqrt(2.0)
    wL = math.sqrt((N - M) / N)
    wR = math.sqrt(M / N)
    amp = np.zeros(spec.dim_collapsed, dtype=complex)
    amp[:4] = beta * wL, alpha * wL, beta * wR, alpha * wR
    amp.flags.writeable = False
    return StateVector(amp, spec.basis)


def _search_target(spec: SubgraphSpec, lambda0) -> RightClassification:
    """The active family of ``lambda0``: "auto" (best_target's pick, kept on the spec
    as "auto", so its checks run once) or the group nearest to a given eigenvalue."""
    if isinstance(lambda0, str) and lambda0 == "auto":
        target = spec._derived.get("auto")
        if target is None:
            lam, _, _ = best_target(right_classifications(spec))
            target = spec._derived["auto"] = classify_right(spec, lam)
        return target
    target = classify_right(spec, lambda0)
    if target.c is None:
        raise SpecError(f"lambda0={target.lambda0} has no active right eigenvector "
                        f"(constant-family case); it cannot drive a search")
    return target


def _schedule(N: int, M: int, c: float) -> int:
    """The search's step count floor(pi*sqrt(N/M)/(2c)) at coupling c."""
    return math.floor(math.pi * math.sqrt(N / M) / (2.0 * c))


def plan_search(spec: SubgraphSpec, N: int, M: int = 1, lambda0="auto") -> SearchPlan:
    """Build a SearchPlan for the given star size, choosing lambda0 if "auto"; its
    start is ``initial_state``."""
    check_star(N, M)
    t = _search_target(spec, lambda0)
    return SearchPlan(lambda0=t.lambda0, phi=t.phi, branch=t.branch, c=t.c,
                      N=int(N), M=int(M), m=_schedule(N, M, t.c),
                      initial=initial_state(spec, N, M, t.branch, t.phi),
                      predicted_success=t.predicted_success, r0=t.r0)


def run_search(plan: SearchPlan, spec: SubgraphSpec) -> SearchResult:
    """Evolve the planned initial state m steps and report the mass split.

    The walk is ``evolve`` on ``build_collapsed`` at the plan's (N, M, phi), with
    their checks.  It depends on the plan's fields only: a real walk (a real spec
    at phi = 0 from a real start, such as grover and bolo at lambda0 = +-1)
    squares in float64.  Masses and overlap are of the final state over its norm,
    the masses' sum as read, so p_marked <= 1; the rounding shows in ``norm_drift``.
    """
    U = build_collapsed(spec, hub_coefficients(plan.N, plan.M), plan.phi)
    final = evolve(U, plan.initial, plan.m)
    a = final.amplitudes
    p = (np.abs(a) ** 2).tolist()
    marked, null, unmarked = p[2] + p[3], sum(p[4:], 0.0), p[0] + p[1]
    norm = marked + null + unmarked
    return SearchResult(final_state=final, p_marked=marked / norm, p_null=null / norm,
                        p_unmarked=unmarked / norm, norm_drift=norm - 1.0,
                        overlap_r0=abs(complex(np.vdot(plan.r0, a))) ** 2 / norm)


def sample_measurement(result: SearchResult, seed: int, shots: int) -> dict[str, int]:
    """Multinomial measurement of (marked, unmarked, null); seed-deterministic."""
    if not (1 <= shots <= SHOTS_MAX and seed >= 0):
        raise SpecError(f"need 1 <= shots <= 2**63 - 1 and seed >= 0, "
                        f"got shots={shots}, seed={seed}")
    probs = [max(p, 0.0) for p in (result.p_marked, result.p_unmarked, result.p_null)]
    total = probs[0] + probs[1] + probs[2]
    if not total > 0.0:         # all zero or NaN: nothing to normalise
        raise SpecError(f"cannot sample (p_marked, p_unmarked, p_null) = {tuple(probs)}")
    # the stream of default_rng(seed), without its argument dispatch
    rng = np.random.Generator(np.random.PCG64(seed))
    marked, unmarked, null = rng.multinomial(shots, [p / total for p in probs]).tolist()
    return {"marked": marked, "unmarked": unmarked, "null": null}
