"""Independent reference computations for the benchmark's correctness checks.

Everything here is built from a spec's JSON and the model's definition with
numpy/scipy alone; nothing is imported from ``starwalk``.  Collapsed basis:
``[out, in, 0->1, 1->0, interior...]``; right block: ``[0->1, 1->0,
interior...]``.  Standard diffusive hub only (r = -1 + 2/N, t = 2/N).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

FAMILY_TOL = 1e-6


def vertex_matrix(rows) -> np.ndarray:
    return np.array([[complex(e) if isinstance(e, (int, float)) else complex(e[0], e[1])
                      for e in row] for row in rows], dtype=complex)


def _fill_vertices(spec: dict, A: np.ndarray, index: dict) -> None:
    for v in spec["vertices"]:
        m = vertex_matrix(v["matrix"])
        for j, lab_in in enumerate(v["ports_in"]):
            for i, lab_out in enumerate(v["ports_out"]):
                A[index[lab_out], index[lab_in]] += m[i, j]


def right_block(spec: dict) -> np.ndarray:
    """U(eps=0) on the right side: the hub sends |1,0> back to |0,1> with -1."""
    labels = ["0->1", "1->0"] + list(spec["interior"])
    index = {lab: i for i, lab in enumerate(labels)}
    A = np.zeros((len(labels), len(labels)), dtype=complex)
    A[0, 1] = -1.0
    _fill_vertices(spec, A, index)
    return A


def collapsed(spec: dict, N: int, M: int, phi: float) -> np.ndarray:
    """Collapsed one-step operator of the N-edge star with M marked copies.

    Collapsed hub: R_L = 1 - 2M/N, R_R = -1 + 2M/N, T = 2 sqrt(M(N-M))/N.
    """
    labels = ["out", "in", "0->1", "1->0"] + list(spec["interior"])
    index = {lab: i for i, lab in enumerate(labels)}
    U = np.zeros((len(labels), len(labels)), dtype=complex)
    T = 2.0 * math.sqrt(M * (N - M)) / N
    U[1, 0] = np.exp(1j * phi)
    U[0, 1] = 1.0 - 2.0 * M / N
    U[2, 1] = T
    U[2, 3] = -1.0 + 2.0 * M / N
    U[0, 3] = T
    _fill_vertices(spec, U, index)
    return U


@dataclass(frozen=True)
class Family:
    """One eigenvalue family of a unitary: value, multiplicity, c^2, hub mass."""
    lam: complex
    multiplicity: int
    c2: float          # 2 <1,0|P|1,0>
    hub_mass: float    # <0,1|P|0,1> + <1,0|P|1,0>: mass of the active vector there


def families(A: np.ndarray, tol: float = FAMILY_TOL) -> list[Family]:
    """Families of the right block from a complex Schur decomposition.

    For a normal matrix the Schur factor Z holds an orthonormal eigenbasis, so
    the spectral projector of a family is Z_f Z_f^H.
    """
    T, Z = scipy.linalg.schur(A, output="complex")
    vals = np.diag(T)
    left = list(range(len(vals)))
    out = []
    while left:
        i = left[0]
        members = [j for j in left if abs(vals[j] - vals[i]) < tol]
        left = [j for j in left if j not in members]
        Zf = Z[:, members]
        P = Zf @ Zf.conj().T
        lam = complex(np.mean(vals[members]))
        out.append(Family(lam=lam / abs(lam), multiplicity=len(members),
                          c2=float(2.0 * P[1, 1].real),
                          hub_mass=float((P[0, 0] + P[1, 1]).real)))
    return out


def best_family(fams: list[Family]) -> Family:
    return max(fams, key=lambda f: f.c2)


def spectral_gap(fams: list[Family], lam: complex) -> float:
    """Distance from lam to the nearest other eigenvalue of U(0).

    U(0) carries the right block plus the left pair +-lam (phase matched to
    lam), so -lam counts as a neighbour too.
    """
    others = [f.lam for f in fams if abs(f.lam - lam) > FAMILY_TOL] + [-lam]
    return min(abs(v - lam) for v in others)


def search_m(N: int, M: int, c: float) -> int:
    return math.floor(math.pi * math.sqrt(N / M) / (2.0 * c))


def initial_state(dim: int, N: int, M: int, phi: float, branch: int) -> np.ndarray:
    """Collapsed uniform superposition sum_j (|0,j> + branch e^{i phi/2}|j,0>)/sqrt(2N)."""
    alpha = branch * np.exp(0.5j * phi) / math.sqrt(2.0)
    beta = 1.0 / math.sqrt(2.0)
    wL, wR = math.sqrt((N - M) / N), math.sqrt(M / N)
    psi = np.zeros(dim, dtype=complex)
    psi[:4] = [beta * wL, alpha * wL, beta * wR, alpha * wR]
    return psi


def propagate(U: np.ndarray, psi: np.ndarray, m: int) -> np.ndarray:
    """U^m psi through the eigenbasis, V diag(lambda^m) V^-1 psi.

    Eigenvalues of a unitary are put back on the circle, so the power is a
    pure phase exp(i m theta) and no magnitude error grows with m.
    """
    vals, V = np.linalg.eig(U)
    theta = np.angle(vals)
    coef = np.linalg.solve(V, psi)
    return V @ (np.exp(1j * m * theta) * coef)


def masses(psi: np.ndarray) -> tuple[float, float, float]:
    """(marked, unmarked, null) masses of a collapsed state."""
    a = np.abs(psi) ** 2
    return float(a[2] + a[3]), float(a[0] + a[1]), float(a[4:].sum())


def success_k(gap: float) -> float:
    """Constant K of the bound |P_measured - P_predicted| <= K sqrt(M/N).

    First-order perturbation in sqrt(eps) mixes the active pair with the rest
    of U(0)'s spectrum by at most ||U1|| sqrt(eps) / gap = 2 sqrt(eps) / gap in
    amplitude, which moves a probability by at most twice that; the uniform
    start differs from the left active vector by sqrt(eps) on the right side,
    moving it by at most 2 sqrt(eps) more.  K doubles the sum for the
    second-order remainder.
    """
    return 2.0 * (2.0 + 4.0 / gap)


def grover_double_root(delta: float) -> float:
    """Exact double root of the grover walk detuned by delta."""
    return 0.5 - 1.0 / (2.0 * math.cos(delta))


def drift_law(delta: float, c: float) -> float:
    return -(delta / (2.0 * c)) ** 2
