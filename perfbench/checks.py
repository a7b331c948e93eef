"""Correctness checks on the program's outputs.

Each check compares plain values (from library results or from the CLI's CSV
and JSON files) with ``reference`` computations or with properties the method
must have.  A failed check raises ``CheckFailed``.  Tolerances:

* ``C_TOL``: c from the program vs 2<1,0|P|1,0> from the benchmark's Schur
  projector; both are exact up to rounding (they agree to ~2e-15 at d=40).
* ``MASS_TOL``: the three masses of a unitary evolution sum to 1; the
  program's matrix_power path drifts by ~1e-10 at N=1e12.
* ``PROPAGATION_TOL``: p_marked vs the benchmark's eigenbasis propagation;
  both carry ~m * 1e-16 phase error, m <= 2e6 here.
* ``FIT_TOL``: the pairing fit's c_fit vs c, on the bundled fixtures.
* ``DRIFT_REL``: double root vs the drift law -(delta/2c)^2; the next order
  is O(delta/gap) relative, below 1e-2 here.  The root of another eigenvalue
  family is off by |c^2/c_other^2 - 1|, 50% on bolo.
* ``GROVER_REL``: grover's double root vs its closed form.
* ``CSV_SLACK``: added to a tolerance for values read back from the CLI's
  CSV, whose floats carry 12 significant digits.
"""
from __future__ import annotations

import cmath
import math

import reference

C_TOL = 1e-9
MASS_TOL = 1e-8
PROPAGATION_TOL = 1e-7
FIT_TOL = 1e-3
DRIFT_REL = 0.05
GROVER_REL = 1e-6
CSV_SLACK = 1e-10
SIGMAS = 7.0

SQ2 = math.sqrt(2.0)
# Closed-form coupling constants of the bundled fixtures: lambda0 -> c.
CLOSED_FORMS = {
    "grover": {-1 + 0j: 1.0, 1 + 0j: 1.0},
    "bolo": {-1 + 0j: math.sqrt(3.0) / 2.0, 1 + 0j: 1.0 / SQ2,
             complex(1.0, 2.0 * SQ2) / 3.0: math.sqrt(6.0) / 4.0,
             complex(1.0, -2.0 * SQ2) / 3.0: math.sqrt(6.0) / 4.0},
}
BOLO_BOUND_AT_MINUS_ONE = 1


class CheckFailed(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _family_at(fams, lam: complex, what: str):
    f = min(fams, key=lambda f: abs(f.lam - lam))
    expect(abs(f.lam - lam) < 1e-6, f"{what}: {lam} is not a right-block eigenvalue")
    return f


def _z(pair) -> complex:
    return complex(pair[0], pair[1])


def check_report(report: dict, spec: dict, name: str) -> None:
    """A spectral report against the benchmark's own Schur projectors."""
    fams = reference.families(reference.right_block(spec))
    actives = []
    for cl in report["classifications"]:
        lam = _z(cl["lambda0"])
        f = _family_at(fams, lam, "classification")
        if cl["c"] is None:
            expect(f.c2 < C_TOL, f"{lam}: reported bound only, but c^2 = {f.c2}")
            continue
        expect(abs(cl["c"] ** 2 - f.c2) <= C_TOL,
               f"{lam}: c^2 = {cl['c'] ** 2} vs 2<1,0|P|1,0> = {f.c2}")
        actives.append((lam, cl["c"]))
    expect(len(report["classifications"]) == len(fams),
           f"{len(report['classifications'])} families reported, {len(fams)} found")
    total = sum(c * c for _, c in actives)
    expect(abs(total - 2.0) <= C_TOL, f"sum c^2 = {total}")
    cmax = max(c for _, c in actives)
    expect(cmax >= math.sqrt(2.0 / len(actives)) - 1e-12, f"max c = {cmax} < sqrt(2/d)")
    best = report["best"]
    expect(abs(best["c"] - cmax) <= C_TOL and best["d"] == len(actives),
           f"best {best} is not the largest c of {len(actives)} actives")
    for fit in report["pairing_fits"]:
        # Only the fixtures: on seeded specs a weakly coupled family next to a
        # close neighbour is fitted off by up to 3e-3 (see README), on some
        # seeds only.
        if fit["case"] != "paired" or name not in CLOSED_FORMS:
            continue
        lam = _z(fit["lambda0"])
        c = min(actives, key=lambda a: abs(a[0] - lam))[1]
        expect(abs(fit["c_fit"] - c) <= FIT_TOL, f"{lam}: c_fit {fit['c_fit']} vs c {c}")
    cycles = report["monodromy"]["cycle_lengths"]
    expect(set(cycles) <= {1, 2}, f"monodromy cycle lengths {cycles}")
    expect(sum(cycles) == 4 + len(spec["interior"]),
           f"monodromy cycles cover {sum(cycles)} branches")
    if name in CLOSED_FORMS:
        want = CLOSED_FORMS[name]
        expect(len(actives) == len(want), f"{name}: {len(actives)} active families")
        for lam, c in actives:
            key = min(want, key=lambda k: abs(k - lam))
            expect(abs(key - lam) < 1e-9 and abs(want[key] - c) < C_TOL,
                   f"{name}: lambda0 {lam}, c {c} vs closed form {key}, {want[key]}")
        if name == "bolo":
            bound = [cl["n_bound"] for cl in report["classifications"]
                     if abs(_z(cl["lambda0"]) + 1) < 1e-9]
            expect(bound == [BOLO_BOUND_AT_MINUS_ONE], f"bolo: bound at -1 is {bound}")


def check_search(spec: dict, N: int, M: int, lam: complex, phi: float, c: float, m: int,
                 p_marked: float, p_null: float, p_unmarked: float,
                 slack: float = 0.0, predicted: float | None = None) -> None:
    """One search point: step count, mass balance, propagation, success bound."""
    fams = reference.families(reference.right_block(spec))
    best = reference.best_family(fams)
    c_own = math.sqrt(best.c2)
    f = _family_at(fams, lam, "search target")
    expect(abs(f.c2 - best.c2) <= C_TOL, f"target {lam} has c^2 {f.c2} < best {best.c2}")
    expect(abs(c - c_own) <= C_TOL + slack, f"c = {c} vs {c_own}")
    m_own = reference.search_m(N, M, c_own)
    expect(m == m_own, f"N={N} M={M}: m = {m}, floor(pi sqrt(N/M)/2c) = {m_own}")
    half = cmath.exp(0.5j * phi)
    branch = 1 if abs(half - lam) < abs(half + lam) else -1
    expect(abs(branch * half - lam) < 1e-6 + slack, f"phi = {phi} does not match {lam}")
    total = p_marked + p_null + p_unmarked
    expect(abs(total - 1.0) <= MASS_TOL + slack, f"masses sum to {total}")
    U = reference.collapsed(spec, N, M, phi)
    psi = reference.propagate(U, reference.initial_state(U.shape[0], N, M, phi, branch), m_own)
    p_own = reference.masses(psi)[0]
    expect(abs(p_marked - p_own) <= PROPAGATION_TOL + slack,
           f"N={N} M={M}: p_marked {p_marked} vs eigenbasis propagation {p_own}")
    if predicted is not None:
        expect(abs(predicted - f.hub_mass) <= C_TOL,
               f"predicted_success {predicted} vs active hub mass {f.hub_mass}")
    bound = reference.success_k(reference.spectral_gap(fams, f.lam)) * math.sqrt(M / N)
    expect(abs(p_marked - f.hub_mass) <= bound,
           f"N={N} M={M}: p_marked {p_marked} vs predicted {f.hub_mass} (bound {bound:.3g})")


def check_counts(counts: dict, shots: int, p_marked: float, p_null: float,
                 p_unmarked: float) -> None:
    expect(sum(counts.values()) == shots, f"counts {counts} do not sum to {shots}")
    for key, p in (("marked", p_marked), ("null", p_null), ("unmarked", p_unmarked)):
        p = min(max(p, 0.0), 1.0)
        spread = SIGMAS * math.sqrt(shots * p * (1.0 - p)) + 1.0
        expect(abs(counts[key] - shots * p) <= spread,
               f"{key}: {counts[key]} of {shots} at p = {p}")


def auto_deltas(c: float, N: int) -> list[float]:
    """The CLI's default detuning grid {0, 0.5, 1, 1.5} c sqrt(2/N)."""
    unit = c * math.sqrt(2.0 / N)
    return [0.0, 0.5 * unit, 1.0 * unit, 1.5 * unit]


def check_tolerance(spec: dict, name: str, N: int, M: int, delta: float, t: float,
                    eps0: complex, P_naive: float, P_comp: float,
                    P_naive_pred: float, P_comp_pred: float, slack: float = 0.0) -> None:
    """One detuning: double-root location and success against the tuning theory."""
    fams = reference.families(reference.right_block(spec))
    best = reference.best_family(fams)
    c = math.sqrt(best.c2)
    t_own = delta * delta / (4.0 * c * c * M / N)
    expect(abs(t - t_own) <= 1e-9 * max(1.0, t_own) + slack, f"t = {t} vs {t_own}")
    pn = math.sin(0.5 * math.pi * math.sqrt(1.0 + t_own)) ** 2 / (1.0 + t_own)
    pc = 1.0 / (1.0 + t_own)
    expect(abs(P_naive_pred - pn) <= 1e-9 + slack and abs(P_comp_pred - pc) <= 1e-9 + slack,
           f"predictions ({P_naive_pred}, {P_comp_pred}) vs ({pn}, {pc})")
    if delta == 0.0:
        expect(abs(eps0) <= 1e-15, f"delta = 0: double root at {eps0}, not 0")
    else:
        law = reference.drift_law(delta, c)
        expect(abs(eps0 - law) <= DRIFT_REL * abs(law),
               f"delta = {delta:.3g}: double root {eps0} vs drift law {law:.6g}")
        if name == "grover":
            exact = reference.grover_double_root(delta)
            expect(abs(eps0 - exact) <= GROVER_REL * abs(exact),
                   f"grover: double root {eps0} vs closed form {exact}")
    bound = reference.success_k(reference.spectral_gap(fams, best.lam)) * math.sqrt(M / N)
    expect(abs(P_naive - pn) <= bound and abs(P_comp - pc) <= bound,
           f"N={N} delta={delta:.3g}: measured ({P_naive}, {P_comp}) vs "
           f"predicted ({pn}, {pc}), bound {bound:.3g}")
