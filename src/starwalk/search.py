"""
Search planning and execution on the collapsed star graph.
==========================================================

Pick an active right eigenvalue lambda0 (by maximal coupling c when "auto"),
dial the unmarked-edge reflection phase so a left eigenvalue sits exactly at
lambda0, prepare the accessible uniform superposition, iterate the walk for
m = floor(pi*sqrt(N/M)/(2c)) steps, and read out the mass on the marked edge.

The search target, everything of a search that does not depend on N or M
(lambda0, c, phi, branch, the active vector r0, the predicted success and the
start's |in> factor), is computed once per loaded spec and eigenvalue group
and kept on the spec; the detuning sweep reads it too.  The walk itself is
``graph._walk``, the one propagation of the collapsed operator.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .graph import SpecError, StateVector, SubgraphSpec, _walk, check_star
from .spectral import (
    RightClassification,
    best_target,
    classify_right,
    embed_right,
    matched_phi,
    right_classifications,
)


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
    """Mass distribution after the planned number of steps."""
    final_state: StateVector
    p_marked: float         # mass on |0,1>, |1,0>
    p_null: float           # mass inside G
    p_unmarked: float       # mass on |out>, |in>
    overlap_r0: float       # |<r0|psi>|^2


def initial_state(spec: SubgraphSpec, N: int, M: int, branch: int, phi: float) -> StateVector:
    """Exact collapsed form of the accessible uniform superposition.

    (1/sqrt(N)) * sum_j (beta|0,j> + alpha|j,0>) with beta = 1/sqrt(2) and
    alpha = branch*e^{i phi/2}/sqrt(2); equals the left active vector up to
    O(sqrt(M/N)).
    """
    check_star(N, M)
    return StateVector(_start(spec.dim_collapsed, N, M, _alpha(branch, phi)), spec.basis)


def _alpha(branch: int, phi: float) -> complex:
    return branch * cmath.exp(0.5j * phi) / math.sqrt(2.0)


def _start(dim: int, N: int, M: int, alpha: complex) -> np.ndarray:
    """``initial_state``'s amplitudes, for a star already checked."""
    beta = 1.0 / math.sqrt(2.0)
    wL = math.sqrt((N - M) / N)
    wR = math.sqrt(M / N)
    amp = np.zeros(dim, dtype=complex)
    amp[:4] = beta * wL, alpha * wL, beta * wR, alpha * wR
    return amp


@dataclass(frozen=True, eq=False)
class _Target:
    """The N- and M-independent part of a search: one active eigenvalue group's
    plan data."""
    lambda0: complex
    c: float
    phi: float
    branch: int
    r0: np.ndarray              # read-only
    predicted_success: float
    alpha: complex              # the start's |in> factor


def _group_target(spec: SubgraphSpec, chosen: RightClassification) -> _Target:
    key = ("target", chosen.lambda0)
    target = spec._derived.get(key)
    if target is None:
        if chosen.c is None:
            raise SpecError(
                f"lambda0={chosen.lambda0} has no active right eigenvector "
                f"(constant-family case); it cannot drive a search")
        phi, branch = matched_phi(chosen.lambda0)
        r0 = embed_right(chosen.active_vector, spec.dim_collapsed)
        r0.flags.writeable = False
        target = spec._derived[key] = _Target(
            lambda0=chosen.lambda0, c=chosen.c, phi=phi, branch=branch, r0=r0,
            predicted_success=float(abs(r0[2]) ** 2 + abs(r0[3]) ** 2),
            alpha=_alpha(branch, phi))
    return target


def _search_target(spec: SubgraphSpec, lambda0) -> _Target:
    """The target of ``lambda0`` ("auto" or a group's eigenvalue), computed once.

    Kept on the spec per eigenvalue group, as ``("target", group lambda0)``, and
    as "auto", whose best_target checks run once; a failed lookup stores none.
    A group's exact lambda0 is found by its key; any other request goes through
    ``classify_right``.
    """
    if isinstance(lambda0, str) and lambda0 == "auto":
        target = spec._derived.get("auto")
        if target is None:
            lam, _, _ = best_target(right_classifications(spec))
            target = spec._derived["auto"] = _search_target(spec, lam)
        return target
    lambda0 = complex(lambda0)
    target = spec._derived.get(("target", lambda0))
    return target or _group_target(spec, classify_right(spec, lambda0))


def plan_search(spec: SubgraphSpec, N: int, M: int = 1, lambda0="auto") -> SearchPlan:
    """Build a SearchPlan for the given star size, choosing lambda0 if "auto".

    The initial amplitudes are read-only, so a real walk's start stays real.
    """
    check_star(N, M)
    t = _search_target(spec, lambda0)
    m = math.floor(math.pi * math.sqrt(N / M) / (2.0 * t.c))
    amp = _start(spec.dim_collapsed, N, M, t.alpha)
    amp.flags.writeable = False
    return SearchPlan(lambda0=t.lambda0, phi=t.phi, branch=t.branch, c=t.c,
                      N=int(N), M=int(M), m=m, initial=StateVector(amp, spec.basis),
                      predicted_success=t.predicted_success, r0=t.r0)


def run_search(plan: SearchPlan, spec: SubgraphSpec) -> SearchResult:
    """Evolve the planned initial state m steps and report the mass split.

    The walk is ``graph._walk`` at the plan's (N, M, phi), with its checks.  It
    depends on the plan's fields only: a real walk (a real spec at phi = 0 from
    a real start, such as grover and bolo at lambda0 = +-1) squares in float64.
    """
    start = plan.initial
    if start.basis is not spec.basis and start.basis != spec.basis:
        raise SpecError("operator/state basis mismatch")
    a = _walk(spec, plan.N, plan.M, plan.phi, start.amplitudes, plan.m)
    p = (np.abs(a) ** 2).tolist()
    return SearchResult(final_state=StateVector(a, start.basis), p_marked=p[2] + p[3],
                        p_null=sum(p[4:], 0.0), p_unmarked=p[0] + p[1],
                        overlap_r0=abs(complex(np.vdot(plan.r0, a))) ** 2)


def sample_measurement(result: SearchResult, seed: int, shots: int) -> dict[str, int]:
    """Multinomial measurement of (marked, unmarked, null); seed-deterministic."""
    if shots < 1 or seed < 0:
        raise SpecError(f"need shots >= 1 and seed >= 0, got shots={shots}, seed={seed}")
    probs = [max(p, 0.0) for p in (result.p_marked, result.p_unmarked, result.p_null)]
    total = probs[0] + probs[1] + probs[2]
    if not total > 0.0:         # all zero or NaN: nothing to normalise
        raise SpecError(f"cannot sample (p_marked, p_unmarked, p_null) = {tuple(probs)}")
    # the stream of default_rng(seed), without its argument dispatch
    rng = np.random.Generator(np.random.PCG64(seed))
    marked, unmarked, null = rng.multinomial(shots, [p / total for p in probs]).tolist()
    return {"marked": marked, "unmarked": unmarked, "null": null}
