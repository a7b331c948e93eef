"""
Search planning and execution on the collapsed star graph.
==========================================================

Pick an active right eigenvalue lambda0 (by maximal coupling c when "auto"),
dial the unmarked-edge reflection phase so a left eigenvalue sits exactly at
lambda0, prepare the accessible uniform superposition, iterate the walk for
m = floor(pi*sqrt(N/M)/(2c)) steps, and read out the mass on the marked edge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (
    SpecError,
    StateVector,
    SubgraphSpec,
    build_collapsed,
    check_star,
    collapsed_basis,
    evolve,
    hub_coefficients,
)
from .spectral import (
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
    alpha = branch * np.exp(0.5j * phi) / math.sqrt(2.0)
    beta = 1.0 / math.sqrt(2.0)
    wL = math.sqrt((N - M) / N)
    wR = math.sqrt(M / N)
    amp = np.zeros(spec.dim_collapsed, dtype=complex)
    amp[0] = beta * wL
    amp[1] = alpha * wL
    amp[2] = beta * wR
    amp[3] = alpha * wR
    return StateVector(amplitudes=amp, basis=collapsed_basis(spec))


def plan_search(spec: SubgraphSpec, N: int, M: int = 1, lambda0="auto") -> SearchPlan:
    """Build a SearchPlan for the given star size, choosing lambda0 if "auto"."""
    check_star(N, M)
    if isinstance(lambda0, str) and lambda0 == "auto":
        classifications = right_classifications(spec)
        lam, c, _ = best_target(classifications)
        chosen = next(cl for cl in classifications if cl.lambda0 == lam)
    else:
        chosen = classify_right(spec, complex(lambda0))
        if chosen.c is None:
            raise SpecError(
                f"lambda0={chosen.lambda0} has no active right eigenvector "
                f"(constant-family case); it cannot drive a search")
        lam, c = chosen.lambda0, chosen.c
    phi, branch = matched_phi(lam)
    m = math.floor(math.pi * math.sqrt(N / M) / (2.0 * c))
    init = initial_state(spec, N, M, branch, phi)
    r0 = embed_right(chosen.active_vector, spec.dim_collapsed)
    predicted = float(abs(r0[2]) ** 2 + abs(r0[3]) ** 2)
    return SearchPlan(lambda0=lam, phi=phi, branch=branch, c=float(c),
                      N=int(N), M=int(M), m=m, initial=init,
                      predicted_success=predicted, r0=r0)


def run_search(plan: SearchPlan, spec: SubgraphSpec) -> SearchResult:
    """Evolve the planned initial state m steps and report the mass split."""
    hub = hub_coefficients(plan.N, M=plan.M)
    U = build_collapsed(spec, hub, plan.phi)
    final = evolve(U, plan.initial, plan.m)
    a = final.amplitudes
    p_unmarked = float(abs(a[0]) ** 2 + abs(a[1]) ** 2)
    p_marked = float(abs(a[2]) ** 2 + abs(a[3]) ** 2)
    p_null = float(np.sum(np.abs(a[4:]) ** 2))
    overlap = float(abs(np.vdot(plan.r0, a)) ** 2)
    return SearchResult(final_state=final, p_marked=p_marked, p_null=p_null,
                        p_unmarked=p_unmarked, overlap_r0=overlap)


def sample_measurement(result: SearchResult, seed: int, shots: int) -> dict[str, int]:
    """Multinomial measurement of (marked, unmarked, null); seed-deterministic."""
    if shots < 1 or seed < 0:
        raise SpecError(f"need shots >= 1 and seed >= 0, got shots={shots}, seed={seed}")
    probs = np.array([result.p_marked, result.p_unmarked, result.p_null], dtype=float)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return {"marked": int(counts[0]), "unmarked": int(counts[1]), "null": int(counts[2])}
