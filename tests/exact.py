"""mpmath references for the collapsed walk and a family's double root (test tooling).

The exact walk is the reference for ``run_search`` and ``tolerance_sweep``: the program's
collapsed walk squared in mpmath at 40 + 2*log10(N) digits.  Its hub (R_L, R_R, T) is
exact in (N, M), its start is exact, and e^{i phi} is taken of the program's float phi.
The spec's entries are taken as the rationals they round (denominator at most 1000,
within 1e-15), so the reference is the walk of grover's and bolo's intended 2/3 and
-1/3, not of the JSON's 0.6666666666666666; a spec whose entries are not such
rationals is refused.

The double root's reference works at 60 digits.  The secular function
s = g_R - g_L - 2 g_L g_R of ``starwalk.spectral.SecularFunction`` is rebuilt from the
same pole data, every float taken as exact: the right poles are the
classification keys with residues conj(R_R0) c^2/2, the left poles +-p, p =
lambda0 * e^{i delta} * sqrt(R_L0), with residues 1/(2 R_L0), where g = sum of residue *
mu/(mu - z).  The critical point z* = lambda0 e^{i theta*} is the root of ds/dtheta
bracketed by two points around the program's theta*, and eps0 = -1/(2 s(z*)).
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from mpmath import mp

import starwalk as sw
from starwalk.graph import collapsed_coefficients

DIGITS = 60
BRACKET = 1e-6           # relative half-width of the start bracket around theta*
DENOMINATOR = 1000       # the largest denominator a spec entry is read as


def search(spec: sw.SubgraphSpec, plan: sw.SearchPlan) -> float:
    """p_marked of ``plan`` walked exactly: its m steps at its (N, M, phi) from the exact
    uniform start on its branch."""
    N, M = plan.N, plan.M
    with mp.workdps(_digits(N)):
        x = _power(_operator(spec, N, M, plan.phi),
                   _start(spec, plan.branch, plan.phi, mp.sqrt(mp.mpf(N - M) / N),
                          mp.sqrt(mp.mpf(M) / N)), plan.m)
        return float(abs(x[2]) ** 2 + abs(x[3]) ** 2)


def tolerance_row(spec: sw.SubgraphSpec, plan: sw.SearchPlan,
                  row) -> tuple[float, float]:
    """(P_measured_naive, P_measured_comp) of a ``tolerance_sweep`` row on ``plan``'s
    family and star, walked exactly: |l0> at the row's detuned phase, m_compensated
    steps, then on to m_naive; each read against the plan's float r0 taken as exact."""
    phi = sw.detuned_phase(plan.lambda0, row.delta)
    with mp.workdps(_digits(plan.N)):
        U = _operator(spec, plan.N, plan.M, phi)
        comp = _power(U, _start(spec, plan.branch, phi, 1, 0), row.m_compensated)
        naive = _power(U, comp, row.m_naive - row.m_compensated)
        return _overlap(plan.r0, naive), _overlap(plan.r0, comp)


def _digits(N: int) -> int:
    return 40 + 2 * math.ceil(math.log10(N))


def _rational(x: float):
    q = Fraction(x).limit_denominator(DENOMINATOR)
    if not abs(q - Fraction(x)) <= 1e-15:
        raise ArithmeticError(f"spec entry {x!r} is no rational of denominator <= {DENOMINATOR}")
    return mp.mpf(q.numerator) / q.denominator


def _operator(spec: sw.SubgraphSpec, N: int, M: int, phi: float):
    """The collapsed one-step matrix, laid out as ``graph._assemble``'s."""
    columns = spec.vertex_columns
    U = mp.matrix(*columns.shape)
    for i, j in zip(*np.nonzero(columns)):
        U[i, j] = mp.mpc(_rational(columns[i, j].real), _rational(columns[i, j].imag))
    eps = mp.mpf(M) / N
    T = 2 * mp.sqrt(eps - eps * eps)
    U[1, 0] = mp.expj(phi)
    U[0, 1], U[2, 1] = 1 - 2 * eps, T
    U[2, 3], U[0, 3] = -1 + 2 * eps, T
    return U


def _start(spec: sw.SubgraphSpec, branch: int, phi: float, wL, wR):
    """(|out> + alpha|in>) wL + (|0,1> + alpha|1,0>) wR over sqrt(2), alpha = branch e^{i phi/2}."""
    alpha = branch * mp.expj(mp.mpf(phi) / 2)
    x = mp.matrix(spec.dim_collapsed, 1)
    x[0], x[1], x[2], x[3] = (v / mp.sqrt(2) for v in (wL, alpha * wL, wR, alpha * wR))
    return x


def _power(U, x, m: int):
    """U^m x by squaring, multiplying the state at each set bit of m."""
    while m:
        if m & 1:
            x = U * x
        m >>= 1
        if m:
            U = U * U
    return x


def _overlap(r0: np.ndarray, x) -> float:
    return float(abs(mp.fsum(mp.conj(mp.mpc(v)) * x[i] for i, v in enumerate(r0))) ** 2)


def double_root(spec: sw.SubgraphSpec, cl: sw.RightClassification, delta: float,
                theta: complex) -> complex:
    """eps0 of the critical point of s between ``cl``'s right pole and its first left
    pole lambda0*e^{i delta}, found next to the program's offset ``theta`` (from lambda0)."""
    with mp.workdps(DIGITS):
        R_L0, R_R0, _ = (mp.mpc(x) for x in collapsed_coefficients(0.0))
        lam0 = mp.mpc(cl.lambda0)
        p = lam0 * mp.expj(mp.mpf(delta)) * mp.sqrt(R_L0)
        left = [(p, 1 / (2 * R_L0)), (-p, 1 / (2 * R_L0))]
        right = [(mp.mpc(r.lambda0), mp.conj(R_R0) * mp.mpf(r.c) ** 2 / 2)
                 for r in sw.right_classifications(spec) if r.c is not None]

        def g(poles, z, order):
            # sum residue * mu/(mu - z) (order 0) or its d/dz (order 1)
            return mp.fsum(res * mu / (mu - z) ** (order + 1) for mu, res in poles)

        def s(z):
            L, R = g(left, z, 0), g(right, z, 0)
            return R - L - 2 * L * R

        def ds_dtheta(t):
            z = lam0 * mp.expj(t)
            L, R, dL, dR = g(left, z, 0), g(right, z, 0), g(left, z, 1), g(right, z, 1)
            return 1j * z * (dR - dL - 2 * (dL * R + L * dR))

        t0 = mp.mpc(theta)
        t = mp.findroot(ds_dtheta, (t0 * (1 - BRACKET), t0 * (1 + BRACKET)), solver="secant")
        if not abs(t - t0) <= 1e-3 * abs(t0):
            raise ArithmeticError(f"reference critical point {complex(t)} is not the "
                                  f"program's {theta}")
        return complex(-1 / (2 * s(lam0 * mp.expj(t))))
