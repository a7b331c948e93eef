"""60-digit reference for a family's double root (test tooling; needs mpmath).

The secular function s = g_R - g_L - 2 g_L g_R of ``starwalk.spectral.SecularFunction``
is rebuilt from the same pole data, every float taken as exact: the right poles are the
classification keys with residues conj(R_R0) c^2/2, the left poles +-p, p = branch *
lambda0 * e^{i delta} * sqrt(R_L0), with residues 1/(2 R_L0), where g = sum of residue *
mu/(mu - z).  The critical point z* = lambda0 e^{i theta*} is the root of ds/dtheta
bracketed by two points around the program's theta*, and eps0 = -1/(2 s(z*)).
"""
from __future__ import annotations

from mpmath import mp

import starwalk as sw
from starwalk.graph import collapsed_coefficients

DIGITS = 60
BRACKET = 1e-6           # relative half-width of the start bracket around theta*


def double_root(spec: sw.SubgraphSpec, cl: sw.RightClassification, delta: float,
                theta: complex) -> complex:
    """eps0 of the critical point of s between ``cl``'s right pole and its branch's left
    pole lambda0*e^{i delta}, found next to the program's offset ``theta`` (from lambda0)."""
    with mp.workdps(DIGITS):
        R_L0, R_R0, _ = (mp.mpc(x) for x in collapsed_coefficients(0.0))
        lam0 = mp.mpc(cl.lambda0)
        p = cl.branch * lam0 * mp.expj(mp.mpf(delta)) * mp.sqrt(R_L0)
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
