"""
Edge-state graph model for quantum walks on a star graph with a marked subgraph.
===============================================================================

Basis states live on directed edges.  The star has a degree-N "diffusive" hub;
one (or M identical) of its edges carries an attached subgraph G described by a
``SubgraphSpec``; the remaining edges end in phase-phi reflectors.

Two operator builders are provided:

* ``build_full``      — the literal N-edge walk (oracle), applied matrix-free
                        with full-graph states addressed by index arithmetic;
* ``build_collapsed`` — the symmetry-collapsed walk on the fixed basis
                        ``[|out>, |in>, |0,1>, |1,0>, G-interior...]``.

``lift_collapsed_state`` / ``restrict_full_state`` map between the two pictures.
"""
from __future__ import annotations

import cmath
import json
import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

# Fixed labels of the four hub-facing collapsed states.
OUT = "out"
IN = "in"
MARKED_OUT = "0->1"   # hub -> attachment vertex
MARKED_IN = "1->0"    # attachment vertex -> hub
RESERVED_LABELS = (OUT, IN, MARKED_OUT, MARKED_IN)

VERTEX_UNITARITY_TOL = 1e-12
OPERATOR_UNITARITY_TOL = 1e-10
FULL_SIZE_GUARD = 5000      # states; only the dense full matrix is guarded
# Relative norm change over one evolve call beyond which the propagated
# phases are no longer trustworthy (double precision runs out near N ~ 1e21).
NORM_DRIFT_TOL = 1e-6


class SpecError(ValueError):
    """A subgraph/hub description violates the wiring or unitarity contract."""


class NumericsError(RuntimeError):
    """A numerical diagnostic fired (ambiguous, ill-conditioned or inconsistent)."""


# ---------------------------------------------------------------------------
# Subgraph description
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Vertex:
    """One subgraph vertex: ordered in/out ports and the local scattering matrix.

    ``matrix[i, j]`` is the amplitude sent from incoming state ``ports_in[j]``
    to outgoing state ``ports_out[i]``.
    """
    id: str
    ports_in: tuple[str, ...]
    ports_out: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        try:
            m = np.array(self.matrix, dtype=complex)    # a private copy, frozen below
        except (TypeError, ValueError) as exc:
            raise SpecError(f"vertex {self.id}: malformed matrix: {exc}") from exc
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class SubgraphSpec:
    """Declarative description of the marked subgraph G.

    The attachment vertex consumes |0,1> and produces |1,0>; every other
    directed edge-state inside G appears in ``interior`` and has exactly one
    producer and one consumer (a label may be produced and consumed by the
    same vertex, which encodes arms that return in a single step).

    A spec is immutable (vertex matrices are read-only), so data derived from
    it, such as ``vertex_columns`` and the spectral classification, is
    computed once per spec and kept.
    """
    vertices: tuple[Vertex, ...]
    attachment: str
    interior: tuple[str, ...]

    def __post_init__(self):
        self.validate()

    # -- validation ---------------------------------------------------------
    def validate(self) -> None:
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise SpecError(f"duplicate vertex ids: {ids}")
        if self.attachment not in ids:
            raise SpecError(f"attachment vertex {self.attachment!r} not defined")
        if len(set(self.interior)) != len(self.interior):
            raise SpecError("duplicate interior labels")
        for lab in self.interior:
            if lab in RESERVED_LABELS:
                raise SpecError(f"interior label {lab!r} is reserved for a hub-facing state")

        consumed: dict[str, str] = {}
        produced: dict[str, str] = {}
        for v in self.vertices:
            m = v.matrix
            if m.shape != (len(v.ports_out), len(v.ports_in)) or m.shape[0] != m.shape[1]:
                raise SpecError(f"vertex {v.id}: matrix shape {m.shape} does not match ports")
            # unitary entries have modulus <= 1: reject a NaN, infinite or huge
            # one (by its larger part) before the product below overflows on it
            if not np.all(np.maximum(abs(m.real), abs(m.imag)) <= 1.0 + VERTEX_UNITARITY_TOL):
                raise SpecError(f"vertex {v.id}: scattering matrix not unitary "
                                f"(malformed entry: not finite or modulus above 1)")
            res = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))
            if not res <= VERTEX_UNITARITY_TOL:
                raise SpecError(f"vertex {v.id}: scattering matrix not unitary (residual {res:.2e})")
            for lab in v.ports_in:
                if lab in consumed:
                    raise SpecError(f"state {lab!r} consumed by both {consumed[lab]} and {v.id}")
                consumed[lab] = v.id
            for lab in v.ports_out:
                if lab in produced:
                    raise SpecError(f"state {lab!r} produced by both {produced[lab]} and {v.id}")
                produced[lab] = v.id

        want_in = set(self.interior) | {MARKED_OUT}
        want_out = set(self.interior) | {MARKED_IN}
        if set(consumed) != want_in:
            raise SpecError(f"consumed labels {sorted(consumed)} != expected {sorted(want_in)}")
        if set(produced) != want_out:
            raise SpecError(f"produced labels {sorted(produced)} != expected {sorted(want_out)}")
        if consumed[MARKED_OUT] != self.attachment:
            raise SpecError("|0,1> must be consumed by the attachment vertex")
        if produced[MARKED_IN] != self.attachment:
            raise SpecError("|1,0> must be produced by the attachment vertex")

    # -- convenience --------------------------------------------------------
    @property
    def n_interior(self) -> int:
        return len(self.interior)

    @property
    def dim_collapsed(self) -> int:
        return 4 + self.n_interior

    @property
    def dim_right(self) -> int:
        return 2 + self.n_interior

    @cached_property
    def vertex_columns(self) -> np.ndarray:
        """The collapsed one-step matrix with the hub slots at zero (read-only).

        Vertex columns (``interior`` and |0,1>) never share a column with the
        hub's (|out>, |in>, |1,0>), so an assembly copies this matrix and writes
        the five hub entries.
        """
        index = {lab: i for i, lab in enumerate(RESERVED_LABELS + self.interior)}
        base = np.zeros((self.dim_collapsed, self.dim_collapsed), dtype=complex)
        for v in self.vertices:
            rows = [index[lab] for lab in v.ports_out]
            cols = [index[lab] for lab in v.ports_in]
            base[np.ix_(rows, cols)] += v.matrix
        base.flags.writeable = False
        return base

    # -- (de)serialization --------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "SubgraphSpec":
        try:
            vertices = tuple(
                Vertex(
                    id=str(v["id"]),
                    ports_in=tuple(v["ports_in"]),
                    ports_out=tuple(v["ports_out"]),
                    matrix=_matrix_from_json(v["matrix"]),
                )
                for v in data["vertices"]
            )
            return cls(
                vertices=vertices,
                attachment=str(data["attachment"]),
                interior=tuple(data["interior"]),
            )
        except (KeyError, TypeError) as exc:
            raise SpecError(f"malformed subgraph description: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "vertices": [
                {
                    "id": v.id,
                    "ports_in": list(v.ports_in),
                    "ports_out": list(v.ports_out),
                    "matrix": _matrix_to_json(v.matrix),
                }
                for v in self.vertices
            ],
            "attachment": self.attachment,
            "interior": list(self.interior),
        }


def _matrix_from_json(rows) -> np.ndarray:
    out = []
    try:
        for row in rows:
            r = []
            for entry in row:
                if isinstance(entry, (int, float)):
                    r.append(complex(entry))
                else:
                    re, im = entry
                    r.append(complex(re, im))
            out.append(r)
        return np.array(out, dtype=complex)
    except (ValueError, OverflowError) as exc:
        raise SpecError(f"malformed matrix entry: {exc}") from exc


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def load_spec(name_or_path: str) -> SubgraphSpec:
    """Load a subgraph description from a JSON file or a bundled name.

    ``"grover"`` and ``"bolo"`` (with or without ``.json``) resolve to the
    bundled fixtures; anything else is treated as a filesystem path.
    """
    base = str(name_or_path)
    short = base[:-5] if base.endswith(".json") else base
    if short in ("grover", "bolo") and "/" not in base:
        text = resources.files("starwalk.specs").joinpath(short + ".json").read_text()
    else:
        try:
            with open(base) as fh:
                text = fh.read()
        except OSError as exc:
            raise SpecError(f"cannot read spec file {base!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {base!r} is not valid JSON: {exc}") from exc
    return SubgraphSpec.from_dict(data)


# ---------------------------------------------------------------------------
# Hub coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HubModel:
    """Reflection/transmission data of the degree-N hub, raw and collapsed.

    ``r``/``t`` act per edge; ``R_L``/``R_R``/``T`` act between the collapsed
    unmarked (Left) and marked (Right) channels.
    """
    r: complex
    t: complex
    R_L: complex
    R_R: complex
    T: complex


def _hub_form(e, eps, x: float, y: float) -> tuple[complex, ...]:
    """(r, t, R_L, R_R, T) at per-edge weight e = 1/N and marked fraction eps = M/N.

    With k = 2cos(x-y)e^{iy} and s = sqrt(1 - 4sin^2(x-y)(e - e^2)), r = (1-2e)e^{ix}/s
    and t = -k e/s; R_R = r + (M-1)t, R_L = r + (N-M-1)t and T = t sqrt(M(N-M)) are
    written in e and eps (either may be complex).  The standard hub (x, y) = (pi, 0)
    takes its exact form r = -1+2e, t = 2e, R_L = 1-2eps, R_R = -1+2eps.
    """
    e, eps = complex(e), complex(eps)
    w = cmath.sqrt(eps - eps * eps)
    if (abs(math.sin(x - math.pi)) < 1e-15 and abs(math.sin(y)) < 1e-15
            and math.cos(x) < 0 and math.cos(y) > 0):
        return -1.0 + 2.0 * e, 2.0 * e, 1.0 - 2.0 * eps, -1.0 + 2.0 * eps, 2.0 * w
    k = 2.0 * math.cos(x - y) * cmath.exp(1j * y)
    s = cmath.sqrt(1.0 - 4.0 * math.sin(x - y) ** 2 * (e - e * e))
    a = (1.0 - 2.0 * e) * cmath.exp(1j * x)
    return a / s, -k * e / s, (a - k * (1.0 - eps - e)) / s, (a - k * (eps - e)) / s, -k * w / s


def check_star(N: int, M: int = 1) -> None:
    """The one star-size rule: integers 2 <= N, 1 <= M < N, N finite as a double."""
    if not (isinstance(N, (int, np.integer)) and 2 <= N <= sys.float_info.max):
        raise SpecError(f"N must be an integer in [2, {sys.float_info.max:.6g}], got {N!r}")
    if not (isinstance(M, (int, np.integer)) and 1 <= M < N):
        raise SpecError(f"need 1 <= M < N, got M={M!r}, N={N!r}")


def check_phases(**phases: float) -> None:
    """The one phase rule: hub (x, y) and reflector (phi) phases are finite reals."""
    for name, value in phases.items():
        if not math.isfinite(value):
            raise SpecError(f"phase {name} must be finite, got {value!r}")


def hub_coefficients(N: int, M: int = 1, x: float = math.pi, y: float = 0.0) -> HubModel:
    """Hub coefficients for N edges, M marked copies, solution-family phases (x, y).

    ``x=pi, y=0`` selects the standard diffusive hub r = -1 + 2/N, t = 2/N;
    other phases pick the generalized one-parameter-family solution, defined
    only when cos(x-y) < 1.
    """
    check_star(N, M)
    check_phases(x=x, y=y)
    if math.cos(x - y) >= 1.0 - 1e-15:
        raise SpecError(f"hub family undefined: cos(x-y) must be < 1 (x={x}, y={y})")
    hub = HubModel(*_hub_form(1.0 / N, M / N, x, y))
    _check_hub_invariants(hub, N, y)
    return hub


def _check_hub_invariants(hub: HubModel, N: int, y: float, tol: float = 1e-12) -> None:
    r, t = hub.r, hub.t
    c1 = abs(abs(r) ** 2 + (N - 1) * abs(t) ** 2 - 1.0)
    c2 = abs(2.0 * (r.conjugate() * t).real + (N - 2) * abs(t) ** 2)
    c3 = abs(abs(hub.R_R) ** 2 + abs(hub.T) ** 2 - 1.0)
    c4 = abs(abs(hub.R_L) ** 2 + abs(hub.T) ** 2 - 1.0)
    c5 = abs(hub.T ** 2 - hub.R_R * hub.R_L - cmath.exp(2j * y))
    worst = max(c1, c2, c3, c4, c5)
    if not worst <= tol:
        raise NumericsError(f"hub coefficient invariants violated (worst residual {worst:.2e})")


# ---------------------------------------------------------------------------
# Bases, operators, states
# ---------------------------------------------------------------------------

_HUB_LABEL = re.compile(r"0->([1-9][0-9]*)|([1-9][0-9]*)->0")


@dataclass(frozen=True)
class EdgeBasis:
    """Ordered edge states of the collapsed (``N == 0``) or the full picture.

    Collapsed: ``[|out>, |in>, |0,1>, |1,0>, interior...]``.  Full (N edges, M
    copies of G, n interior states): ``0->j`` at ``j-1``, ``j->0`` at ``N+j-1``,
    interior state ``i`` of copy ``k`` (``"<label>#k"``) at ``2N+(k-1)n+i``.
    """
    interior: tuple[str, ...]
    N: int = 0
    M: int = 0

    @property
    def kind(self) -> str:
        return "full" if self.N else "collapsed"

    def __len__(self) -> int:
        n = len(self.interior)
        return 2 * self.N + self.M * n if self.N else 4 + n

    @property
    def labels(self) -> tuple[str, ...]:
        if not self.N:
            return RESERVED_LABELS + self.interior
        hub = range(1, self.N + 1)
        return (tuple(f"0->{j}" for j in hub) + tuple(f"{j}->0" for j in hub)
                + tuple(f"{lab}#{k}" for k in range(1, self.M + 1) for lab in self.interior))

    def index(self, label: str) -> int:
        """Position of ``label``; KeyError if it names no state of this basis."""
        N, hub = self.N, _HUB_LABEL.fullmatch(label)
        lab, _, k = label.rpartition("#")
        if not N and label in self.labels:
            return self.labels.index(label)
        if N and hub and int(hub[1] or hub[2]) <= N:
            return int(hub[1] or hub[2]) - 1 + (N if hub[2] else 0)
        if N and lab in self.interior and k.isdecimal() and 1 <= int(k) <= self.M:
            return 2 * N + (int(k) - 1) * len(self.interior) + self.interior.index(lab)
        raise KeyError(label)


def collapsed_basis(spec: SubgraphSpec) -> EdgeBasis:
    return EdgeBasis(spec.interior)


def full_basis(spec: SubgraphSpec, N: int, M: int) -> EdgeBasis:
    check_star(N, M)
    return EdgeBasis(spec.interior, int(N), int(M))


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Dense one-step operator bound to an ordered edge basis."""
    matrix: np.ndarray
    basis: EdgeBasis

    def __post_init__(self):
        m = self.matrix
        res = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))
        if not res <= OPERATOR_UNITARITY_TOL:      # NaN entries fail here too
            raise SpecError(f"constructed operator not unitary (residual {res:.2e})")

    def step(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes aligned with an EdgeBasis."""
    amplitudes: np.ndarray
    basis: EdgeBasis

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[self.basis.index(label)])


# ---------------------------------------------------------------------------
# Collapsed operator
# ---------------------------------------------------------------------------

def collapsed_coefficients(eps, x: float = math.pi, y: float = 0.0):
    """(R_L, R_R, T) of the collapsed hub as analytic functions of epsilon.

    The hub's closed form at e = eps: the M = 1 family eps = 1/N, used by
    ``collapsed_matrix``, ``right_block``, ``secular_function``, ``pairing_fit``,
    ``paired_vectors`` and ``monodromy``.  For the generalized hub at M > 1 the
    collapsed coefficients depend on N and M separately (``hub_coefficients``).
    ``eps`` may be complex.  T takes the principal branch of sqrt(eps - eps^2):
    negating T flips the sign of the right side, so the spectrum sees T^2 only.
    """
    return _hub_form(eps, eps, x, y)[2:]


def _assemble_collapsed(spec: SubgraphSpec, R_L, R_R, T, phi: float) -> np.ndarray:
    out, in_, marked_out, marked_in = range(4)      # positions of RESERVED_LABELS
    U = spec.vertex_columns.copy()
    U[in_, out] = cmath.exp(1j * phi)
    U[out, in_] = R_L
    U[marked_out, in_] = T
    U[marked_out, marked_in] = R_R
    U[out, marked_in] = T
    return U


def collapsed_matrix(spec: SubgraphSpec, eps, phi: float,
                     x: float = math.pi, y: float = 0.0) -> np.ndarray:
    """Collapsed one-step matrix at (possibly complex) epsilon.

    Returns a bare ndarray: for complex or negative epsilon the matrix is not
    unitary and intentionally skips the UnitaryOperator contract.
    """
    check_phases(phi=phi, x=x, y=y)
    R_L, R_R, T = collapsed_coefficients(eps, x=x, y=y)
    return _assemble_collapsed(spec, R_L, R_R, T, phi)


def build_collapsed(spec: SubgraphSpec, hub: HubModel, phi: float) -> UnitaryOperator:
    """Symmetry-collapsed time-step operator for the given spec and hub."""
    check_phases(phi=phi)
    U = _assemble_collapsed(spec, hub.R_L, hub.R_R, hub.T, phi)
    return UnitaryOperator(matrix=U, basis=collapsed_basis(spec))


# ---------------------------------------------------------------------------
# Full operator (oracle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FullWalk:
    """The literal N-edge walk with M disjoint copies of G, applied matrix-free.

    One step maps amplitudes ``x`` (shape ``(D,)`` or ``(D, k)``) to ``y``:
    the hub sends ``y[0:N] = t*sum(x_in) + (r-t)*x_in`` with ``x_in = x[N:2N]``;
    each unmarked edge j > M reflects, ``y[N+j-1] = e^{i phi} x[j-1]``; copy k
    of G applies ``port_block`` to ``[x[k-1], interior_k]`` and writes
    ``[y[N+k-1], interior_k]``.
    """
    basis: EdgeBasis
    hub: HubModel
    phi: float
    port_block: np.ndarray      # (1+n)x(1+n): [0->1, interior] -> [1->0, interior]

    def step(self, x: np.ndarray) -> np.ndarray:
        N, M, n = self.basis.N, self.basis.M, len(self.basis.interior)
        r, t = self.hub.r, self.hub.t
        X = x.reshape(len(self.basis), -1)      # one column per state
        k = X.shape[1]
        y = np.empty(X.shape, dtype=complex)
        x_in = X[N:2 * N]
        y[:N] = t * x_in.sum(axis=0) + (r - t) * x_in
        y[N + M:2 * N] = cmath.exp(1j * self.phi) * X[M:N]
        slab = np.concatenate((X[:M, None], X[2 * N:].reshape(M, n, k)), axis=1)
        out = self.port_block @ slab
        y[N:N + M] = out[:, 0]
        y[2 * N:] = out[:, 1:].reshape(M * n, k)
        return y.reshape(x.shape)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense operator, built by stepping the identity (small N only)."""
        D = len(self.basis)
        if D > FULL_SIZE_GUARD:
            raise SpecError(f"full graph would need {D} states (guard {FULL_SIZE_GUARD})")
        dense = self.step(np.eye(D, dtype=complex))
        # wrapping it checks unitarity
        return UnitaryOperator(dense, self.basis).matrix


def build_full(spec: SubgraphSpec, N: int, M: int = 1, phi: float = 0.0,
               x: float = math.pi, y: float = 0.0) -> FullWalk:
    """Literal N-edge walk operator with M disjoint copies of G (oracle)."""
    hub = hub_coefficients(N, M=M, x=x, y=y)
    # rows [1->0, interior], columns [0->1, interior] of the collapsed base
    interior = list(range(4, spec.dim_collapsed))
    block = spec.vertex_columns[np.ix_([3] + interior, [2] + interior)]
    return FullWalk(basis=full_basis(spec, N, M), hub=hub, phi=float(phi), port_block=block)


# ---------------------------------------------------------------------------
# Lift / restrict between pictures
# ---------------------------------------------------------------------------

def lift_collapsed_state(state: StateVector, N: int, M: int = 1) -> StateVector:
    """Embed a collapsed state into the full basis (inverse of restriction)."""
    if state.basis.kind != "collapsed":
        raise SpecError("expected a collapsed-basis state")
    check_star(N, M)
    basis = EdgeBasis(state.basis.interior, int(N), int(M))
    a = state.amplitudes
    wL, wR = 1.0 / math.sqrt(N - M), 1.0 / math.sqrt(M)
    full = np.empty(len(basis), dtype=complex)
    full[:M] = a[2] * wR                # |0,1>
    full[M:N] = a[0] * wL               # |out>
    full[N:N + M] = a[3] * wR           # |1,0>
    full[N + M:2 * N] = a[1] * wL       # |in>
    full[2 * N:] = np.tile(a[4:] * wR, M)
    return StateVector(amplitudes=full, basis=basis)


def restrict_full_state(state: StateVector) -> tuple[StateVector, float]:
    """Project a full state onto the symmetric (collapsed) subspace.

    Returns the collapsed state and the leakage norm of the discarded
    asymmetric component (0 for symmetric states).  N, M and the interior
    come from the state's basis.
    """
    b = state.basis
    if b.kind != "full":
        raise SpecError("expected a full-basis state")
    N, M, n, a = b.N, b.M, len(b.interior), state.amplitudes
    wL, wR = 1.0 / math.sqrt(N - M), 1.0 / math.sqrt(M)
    hub = [wL * a[M:N].sum(), wL * a[N + M:2 * N].sum(), wR * a[:M].sum(), wR * a[N:N + M].sum()]
    coll = StateVector(np.concatenate((hub, wR * a[2 * N:].reshape(M, n).sum(axis=0))),
                       EdgeBasis(b.interior))
    # leakage = norm of the component outside the symmetric subspace, computed
    # by re-embedding the projection (a norm-difference would cancel badly)
    leakage = float(np.linalg.norm(a - lift_collapsed_state(coll, N, M).amplitudes))
    return coll, leakage


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

def apply(U: UnitaryOperator | FullWalk, s: StateVector) -> StateVector:
    """One time step."""
    if U.basis != s.basis:
        raise SpecError("operator/state basis mismatch")
    return StateVector(amplitudes=U.step(s.amplitudes), basis=s.basis)


def evolve(U: UnitaryOperator | FullWalk, s: StateVector, m: int) -> StateVector:
    """m time steps (m >= 0).

    A dense operator is raised to the m-th power; the matrix-free full walk
    steps m times.  Raises NumericsError when the norm drifts by more than
    NORM_DRIFT_TOL (relative): the result would be silently wrong.
    """
    if U.basis != s.basis:
        raise SpecError("operator/state basis mismatch")
    if m < 0:
        raise ValueError("step count must be nonnegative")
    amp = s.amplitudes
    if isinstance(U, FullWalk):
        for _ in range(m):
            amp = U.step(amp)
    else:
        amp = np.linalg.matrix_power(U.matrix, m) @ amp
    n0 = np.linalg.norm(s.amplitudes)
    drift = abs(np.linalg.norm(amp) - n0) / n0 if n0 else 0.0
    if not drift <= NORM_DRIFT_TOL:
        raise NumericsError(f"norm drifted by {drift:.2e} (relative) over {m} steps, past "
                            f"{NORM_DRIFT_TOL:g}: this many steps exhaust double precision")
    return StateVector(amplitudes=amp, basis=s.basis)
