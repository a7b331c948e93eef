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

States are complex arrays: a collapsed one of length ``spec.dim_collapsed``, a
full one of length ``2N + M*n``.  ``lift_collapsed_state`` / ``restrict_full_state``
map between the two pictures.
"""
from __future__ import annotations

import cmath
import json
import math
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
# Relative norm change over one evolve call beyond which the propagated
# phases are no longer trustworthy (double precision runs out near N ~ 1e21).
NORM_DRIFT_TOL = 1e-6


class SpecError(ValueError):
    """A subgraph/hub description violates the wiring or unitarity contract."""


class NumericsError(RuntimeError):
    """A numerical diagnostic fired (ambiguous, ill-conditioned or inconsistent)."""


def _unitarity_residual(m: np.ndarray) -> float:
    """Frobenius norm of m^H m - I (NaN when m has a NaN entry)."""
    g = m.conj().T @ m
    g.ravel()[::len(g) + 1] -= 1        # the diagonal, through a flat view of g
    return math.sqrt(np.vdot(g, g).real)


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
    it lives on it and goes away with it: ``vertex_columns`` and the vertex part
    of the collapsed operator's unitarity residual, and in the
    private dict ``_derived`` the spectral classification, one record per eigenvalue
    family, the "auto" search target and the secular right side.  A consumer stores
    an entry only once it is computed, so a failed computation leaves nothing behind.
    """
    vertices: tuple[Vertex, ...]
    attachment: str
    interior: tuple[str, ...]

    def __post_init__(self):
        self.validate()
        object.__setattr__(self, "_derived", {})

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
        gram_sq = 0.0
        for v in self.vertices:
            m = v.matrix
            if m.shape != (len(v.ports_out), len(v.ports_in)) or m.shape[0] != m.shape[1]:
                raise SpecError(f"vertex {v.id}: matrix shape {m.shape} does not match ports")
            # unitary entries have modulus <= 1: reject a NaN, infinite or huge
            # one (by its larger part) before the product below overflows on it
            if not np.all(np.maximum(abs(m.real), abs(m.imag)) <= 1.0 + VERTEX_UNITARITY_TOL):
                raise SpecError(f"vertex {v.id}: scattering matrix not unitary "
                                f"(malformed entry: not finite or modulus above 1)")
            res = _unitarity_residual(m)
            if not res <= VERTEX_UNITARITY_TOL:
                raise SpecError(f"vertex {v.id}: scattering matrix not unitary (residual {res:.2e})")
            gram_sq += res * res
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
        # Each state has one producer, so the vertex columns of a collapsed
        # operator split into per-vertex blocks on disjoint rows: their part of
        # ||U^H U - I||_F^2 is the sum of the vertices' own.
        object.__setattr__(self, "_vertex_residual_sq", gram_sq)

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
        """The collapsed one-step matrix with the hub slots at zero (read-only):
        float64 when every vertex matrix is real, complex otherwise.

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
        if not base.imag.any():
            base = base.real.copy()
        base.flags.writeable = False
        return base

    # -- (de)serialization --------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "SubgraphSpec":
        try:
            vertices = tuple(
                Vertex(
                    id=_name(v["id"]),
                    ports_in=_labels(v["ports_in"]),
                    ports_out=_labels(v["ports_out"]),
                    matrix=_matrix_from_json(v["matrix"]),
                )
                for v in data["vertices"]
            )
            return cls(vertices=vertices, attachment=_name(data["attachment"]),
                       interior=_labels(data["interior"]))
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


def _name(value) -> str:
    """A vertex id or the attachment; anything but a JSON string is refused."""
    if isinstance(value, str):
        return value
    raise TypeError(f"vertex ids and the attachment must be strings, got {value!r}")


def _labels(value) -> tuple[str, ...]:
    """A JSON list of state labels as a tuple; anything but a list of strings is refused."""
    if isinstance(value, list) and all(isinstance(lab, str) for lab in value):
        return tuple(value)
    raise TypeError(f"state labels must be a list of strings, got {value!r}")


def _number(x):
    """x if it is a JSON number (not a boolean), else TypeError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a number or an [re, im] pair of numbers")
    return x


def _matrix_from_json(rows) -> np.ndarray:
    """Rows of entries, each a number or an [re, im] pair of numbers."""
    try:
        return np.array([[complex(*map(_number, e)) if isinstance(e, list) and len(e) == 2
                          else complex(_number(e)) for e in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
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
        raw = resources.files("starwalk.specs").joinpath(short + ".json").read_bytes()
    else:
        try:
            with open(base, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise SpecError(f"cannot read spec file {_echo(base)}: {exc.strerror}") from exc
    try:
        data = json.loads(raw)
    # bad bytes, bad JSON or an integer past 4300 digits, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise SpecError(f"spec file {_echo(base)} is not valid JSON: {exc}") from exc
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


def _hub_form(e, eps) -> tuple[complex, ...]:
    """(r, t, R_L, R_R, T) of the diffusive hub at per-edge weight e = 1/N and marked
    fraction eps = M/N (either may be complex): r = -1 + 2e, t = 2e, R_L = 1 - 2eps,
    R_R = -1 + 2eps and T = t sqrt(M(N-M)) = 2 sqrt(eps - eps^2).  Real arguments with
    eps - eps^2 >= 0 give floats, any other complex numbers.
    """
    d = eps - eps * eps
    if not (isinstance(d, float) and d >= 0.0):
        e, eps, d = complex(e), complex(eps), complex(d)
    T = 2.0 * (math.sqrt(d) if isinstance(d, float) else cmath.sqrt(d))
    return -1.0 + 2.0 * e, 2.0 * e, 1.0 - 2.0 * eps, -1.0 + 2.0 * eps, T


ECHO_MAX = 30           # longest integer or text an error message repeats in full


def _echo(value) -> str:
    """repr(value) for an error message; an integer or a string longer than ECHO_MAX
    is named by its digit or character count, so the message stays one short line."""
    if isinstance(value, str) and len(value) > ECHO_MAX:
        return f"a text of {len(value)} characters"
    if isinstance(value, (int, np.integer)) and abs(int(value)) >= 10 ** ECHO_MAX:
        v = abs(int(value))
        # counted without str(), which refuses integers of more than 4300 digits
        digits = int((v.bit_length() - 1) * math.log10(2))
        while v >= 10 ** digits:
            digits += 1
        return f"an integer of {digits} digits"
    return repr(value)


def check_star(N: int, M: int = 1) -> None:
    """The one star-size rule: integers 2 <= N, 1 <= M < N, N finite as a double."""
    if not (isinstance(N, (int, np.integer)) and 2 <= N <= sys.float_info.max):
        raise SpecError(f"N must be an integer in [2, {sys.float_info.max:.6g}], "
                        f"got {_echo(N)}")
    if not (isinstance(M, (int, np.integer)) and 1 <= M < N):
        raise SpecError(f"need 1 <= M < N, got M={_echo(M)}, N={_echo(N)}")


def check_phases(phi: float, branch: int = +1) -> None:
    """The one phase and branch rule: the reflector phase phi is a finite real and the
    left branch, the sign of branch*e^{i phi/2}, is +1 or -1."""
    if not math.isfinite(phi):
        raise SpecError(f"phase phi must be finite, got {phi!r}")
    if branch not in (+1, -1):
        raise SpecError(f"branch must be +1 or -1, got {branch!r}")


def hub_coefficients(N: int, M: int = 1) -> HubModel:
    """The diffusive hub's coefficients for N edges and M marked copies:
    r = -1 + 2/N, t = 2/N, and the collapsed ones at eps = M/N, checked against the
    hub's five unitarity identities to 1e-12."""
    check_star(N, M)
    r, t, R_L, R_R, T = _hub_form(1.0 / N, M / N)
    worst = max(abs(abs(r) ** 2 + (N - 1) * abs(t) ** 2 - 1.0),
                abs(2.0 * (r.conjugate() * t).real + (N - 2) * abs(t) ** 2),
                abs(abs(R_R) ** 2 + abs(T) ** 2 - 1.0),
                abs(abs(R_L) ** 2 + abs(T) ** 2 - 1.0),
                abs(T ** 2 - R_R * R_L - 1.0))
    if not worst <= 1e-12:
        raise NumericsError(f"hub coefficient invariants violated (worst residual {worst:.2e})")
    return HubModel(r, t, R_L, R_R, T)


# ---------------------------------------------------------------------------
# Operators and states
# ---------------------------------------------------------------------------

def _state(x, dim: int, picture: str) -> np.ndarray:
    """x as an array, refused unless it is one state of length dim."""
    x = np.asarray(x)
    if x.shape != (dim,):
        raise SpecError(f"expected a {picture} state of length {dim}, "
                        f"got an array of shape {x.shape}")
    return x


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Dense one-step operator on the collapsed basis, powered by ``evolve``.

    ``residual`` is ||U^H U - I||_F, which its builder, ``build_collapsed``, knows
    in closed form from the matrix's structure.
    """
    matrix: np.ndarray
    residual: float

    def __post_init__(self):
        if not self.residual <= OPERATOR_UNITARITY_TOL:      # a NaN residual fails here too
            raise SpecError(f"constructed operator not unitary (residual {self.residual:.2e})")


# ---------------------------------------------------------------------------
# Collapsed operator
# ---------------------------------------------------------------------------

def collapsed_coefficients(eps):
    """(R_L, R_R, T) of the collapsed hub as analytic functions of eps = M/N.

    They depend on N and M through eps alone, so ``collapsed_coefficients(M/N)``
    is ``hub_coefficients(N, M)``'s at every M: the eps of ``collapsed_matrix``,
    ``right_block``, ``secular_function``, ``pairing_fit``, ``paired_vectors``
    and ``monodromy`` is the search's.  ``eps`` may be complex.  T takes the
    principal branch of sqrt(eps - eps^2): negating T flips the sign of the
    right side, so the spectrum sees T^2 only.
    """
    return _hub_form(eps, eps)[2:]


def _assemble(columns: np.ndarray, reflect, R_L, R_R, T) -> np.ndarray:
    """A copy of a spec's vertex columns with the five hub entries written, in
    numpy's result dtype of the columns and the entries: float64 when all are real.

    ``reflect`` = e^{i phi} is the unmarked-edge reflection |out> -> |in>;
    (R_L, R_R, T) are the collapsed hub's.
    """
    out, in_, marked_out, marked_in = range(4)      # positions of RESERVED_LABELS
    # the entries' sum has their common type: one scalar is cheaper to promote than four
    U = columns.astype(np.result_type(columns, reflect + R_L + R_R + T))
    U[in_, out] = reflect
    U[out, in_] = R_L
    U[marked_out, in_] = T
    U[marked_out, marked_in] = R_R
    U[out, marked_in] = T
    return U


def collapsed_matrix(spec: SubgraphSpec, eps, phi: float) -> np.ndarray:
    """Collapsed one-step matrix at (possibly complex) epsilon.

    Returns a bare ndarray: for complex or negative epsilon the matrix is not
    unitary and intentionally skips the UnitaryOperator contract.
    """
    check_phases(phi)
    R_L, R_R, T = collapsed_coefficients(eps)
    return _assemble(spec.vertex_columns, cmath.exp(1j * phi), R_L, R_R, T)


def _hub_residual_sq(R_L, R_R, T, reflect: complex) -> float:
    """The hub columns' part of ||U^H U - I||_F^2 for a collapsed operator.

    |out> -> |in> (``reflect``), |in> -> (|out>, |0,1>) (R_L, T) and
    |1,0> -> (|0,1>, |out>) (R_R, T) write no row a vertex column writes, so
    their Gram block is on its own: three diagonal entries and the one
    |in>/|1,0> entry conj(R_L) T + conj(T) R_R, which appears twice.
    """
    TT = T.real * T.real + T.imag * T.imag
    d_out = reflect.real * reflect.real + reflect.imag * reflect.imag - 1.0
    d_in = R_L.real * R_L.real + R_L.imag * R_L.imag + TT - 1.0
    d_marked = R_R.real * R_R.real + R_R.imag * R_R.imag + TT - 1.0
    off = R_L.conjugate() * T + T.conjugate() * R_R
    return d_out * d_out + d_in * d_in + d_marked * d_marked + 2.0 * (
        off.real * off.real + off.imag * off.imag)


def build_collapsed(spec: SubgraphSpec, hub: HubModel, phi: float) -> UnitaryOperator:
    """Symmetry-collapsed time-step operator for the given spec and hub.

    Its unitarity residual is exact from the block structure: the spec's
    vertex part (kept per spec) plus the hub part in closed form, with no
    O(d^3) product.  e^{i phi} is passed as a float when its imaginary part is
    0.0, so a real walk (float64 ``vertex_columns``, phi = 0 and float hub
    coefficients, such as grover and bolo at lambda0 = +-1) has a float64 matrix.
    """
    check_phases(phi)
    reflect = cmath.exp(1j * phi)
    if reflect.imag == 0.0:
        reflect = reflect.real
    coeffs = (hub.R_L, hub.R_R, hub.T)
    U = _assemble(spec.vertex_columns, reflect, *coeffs)
    residual = math.sqrt(spec._vertex_residual_sq + _hub_residual_sq(*coeffs, reflect))
    return UnitaryOperator(U, residual)


# ---------------------------------------------------------------------------
# Full operator (oracle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FullWalk:
    """The literal N-edge walk with M disjoint copies of G, applied matrix-free.

    A full state has ``D = 2N + M*n`` entries, n = ``len(port_block) - 1`` interior
    states per copy: ``0->j`` at ``j-1``, ``j->0`` at ``N+j-1``, interior state ``i``
    of copy ``k`` at ``2N+(k-1)n+i``.  One step maps ``x`` to ``y``: the hub sends
    ``y[0:N] = t*sum(x_in) + (r-t)*x_in`` with ``x_in = x[N:2N]``; each
    unmarked edge j > M reflects, ``y[N+j-1] = e^{i phi} x[j-1]``; copy k of G
    applies ``port_block`` to ``[x[k-1], interior_k]`` and writes
    ``[y[N+k-1], interior_k]``.  A plain record: ``apply`` steps it, one state at a time.
    """
    N: int
    M: int
    hub: HubModel
    phi: float
    port_block: np.ndarray      # (1+n)x(1+n): [0->1, interior] -> [1->0, interior]


def build_full(spec: SubgraphSpec, N: int, M: int = 1, phi: float = 0.0) -> FullWalk:
    """Literal N-edge walk operator with M disjoint copies of G (oracle)."""
    hub = hub_coefficients(N, M=M)
    check_phases(phi)
    # rows [1->0, interior], columns [0->1, interior] of the collapsed base
    interior = list(range(4, spec.dim_collapsed))
    block = spec.vertex_columns[np.ix_([3] + interior, [2] + interior)]
    return FullWalk(N=int(N), M=int(M), hub=hub, phi=float(phi), port_block=block)


# ---------------------------------------------------------------------------
# Lift / restrict between pictures
# ---------------------------------------------------------------------------

def lift_collapsed_state(spec: SubgraphSpec, x: np.ndarray, N: int, M: int = 1) -> np.ndarray:
    """Embed a collapsed state of spec into the full basis (inverse of restriction)."""
    check_star(N, M)
    a = _state(x, spec.dim_collapsed, "collapsed")
    wL, wR = 1.0 / math.sqrt(N - M), 1.0 / math.sqrt(M)
    full = np.empty(2 * N + M * spec.n_interior, dtype=complex)
    full[:M] = a[2] * wR                # |0,1>
    full[M:N] = a[0] * wL               # |out>
    full[N:N + M] = a[3] * wR           # |1,0>
    full[N + M:2 * N] = a[1] * wL       # |in>
    full[2 * N:] = np.tile(a[4:] * wR, M)
    return full


def restrict_full_state(spec: SubgraphSpec, y: np.ndarray, N: int,
                        M: int = 1) -> tuple[np.ndarray, float]:
    """Project a full state of the (spec, N, M) star onto the symmetric (collapsed) subspace.

    Returns the collapsed state and the leakage norm of the discarded
    asymmetric component (0 for symmetric states).
    """
    check_star(N, M)
    n = spec.n_interior
    a = _state(y, 2 * N + M * n, "full")
    wL, wR = 1.0 / math.sqrt(N - M), 1.0 / math.sqrt(M)
    hub = [wL * a[M:N].sum(), wL * a[N + M:2 * N].sum(), wR * a[:M].sum(), wR * a[N:N + M].sum()]
    coll = np.concatenate((hub, wR * a[2 * N:].reshape(M, n).sum(axis=0)))
    # leakage = norm of the component outside the symmetric subspace, computed
    # by re-embedding the projection (a norm-difference would cancel badly)
    leakage = float(np.linalg.norm(a - lift_collapsed_state(spec, coll, N, M)))
    return coll, leakage


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

def apply(W: FullWalk, x: np.ndarray) -> np.ndarray:
    """One time step of a full walk; a collapsed operator is powered by ``evolve``."""
    if not isinstance(W, FullWalk):
        raise SpecError(f"apply steps a FullWalk, got {type(W).__name__}; "
                        f"power a collapsed operator with evolve")
    N, M, n = W.N, W.M, len(W.port_block) - 1
    x = _state(x, 2 * N + M * n, "full")
    y = np.empty(x.shape, dtype=complex)
    x_in = x[N:2 * N]
    y[:N] = W.hub.t * x_in.sum() + (W.hub.r - W.hub.t) * x_in
    y[N + M:2 * N] = cmath.exp(1j * W.phi) * x[M:N]
    slab = np.concatenate((x[:M, None], x[2 * N:].reshape(M, n)), axis=1)
    out = (W.port_block @ slab[:, :, None])[:, :, 0]
    y[N:N + M] = out[:, 0]
    y[2 * N:] = out[:, 1:].reshape(M * n)
    return y


def evolve(U: UnitaryOperator, x: np.ndarray, m: int) -> np.ndarray:
    """m time steps (m a nonnegative integer) of a collapsed operator, by ``_power``,
    which refuses a walk too far from unitary for m steps or whose norm drifts by more
    than NORM_DRIFT_TOL (relative): the result would be silently wrong.  A float64
    operator (a real walk's) squares in float64 from a real start, whose result is cast
    to complex, and is cast to complex itself for a complex start.  A full walk steps
    one state at a time, through ``apply``."""
    if not isinstance(U, UnitaryOperator):
        raise SpecError(f"evolve powers a collapsed UnitaryOperator, got {type(U).__name__}; "
                        f"step a full walk with apply")
    x = _state(x, len(U.matrix), "collapsed")
    if not (isinstance(m, (int, np.integer)) and m >= 0):
        raise ValueError(f"step count must be a nonnegative integer, got {m!r}")
    if U.matrix.dtype == complex or x.imag.any():
        return _power(U.matrix.astype(complex, copy=False), x, m, U.residual)
    return _power(U.matrix, x.real, m, U.residual).astype(complex)


def _power(matrix: np.ndarray, x: np.ndarray, m: int, residual: float) -> np.ndarray:
    """matrix^m x by squaring on the state; ``residual`` is ||U^H U - I||_F.

    The matrix is squared floor(log2 m) times, and the state is multiplied by
    the power held at each set bit of m, top bit first: the factor order of
    the binary-powering product U^m, so rounding in the squared powers cancels
    as it does there.  m * residual >= 1 raises NumericsError before any
    squaring: past it the stored operator alone can scale amplitudes by
    e^{+-1/2} (and its powers can overflow), norm-conserving or not.  Then
    the norm-drift check.  A float64 matrix and state stay float64.
    """
    if not m * residual < 1.0:
        raise NumericsError(f"{m:.3g} steps times the operator's unitarity residual "
                            f"{residual:.2e} is {m * residual:.2e}, not below 1: the "
                            f"operator's own non-unitarity can swamp the result")
    bits = bin(m)[2:]                  # top bit first
    # ndarray.dot makes the same BLAS calls as @ with less dispatch
    powers = [matrix]                  # U^(2^j) for every bit j of m
    for _ in range(len(bits) - 1):
        p = powers[-1]
        powers.append(p.dot(p))
    amp = x
    for p, bit in zip(reversed(powers), bits):
        if bit == "1":
            amp = p.dot(amp)
    n0 = math.sqrt(np.vdot(x, x).real)
    drift = abs(math.sqrt(np.vdot(amp, amp).real) - n0) / n0 if n0 else 0.0
    if not drift <= NORM_DRIFT_TOL:
        raise NumericsError(f"norm drifted by {drift:.2e} (relative) over {m} steps, past "
                            f"{NORM_DRIFT_TOL:g}: this many steps exhaust double precision")
    return amp
