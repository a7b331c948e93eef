"""Seeded subgraph specs for the benchmark.

A rung with ``arms`` arms is an attachment vertex whose scattering matrix is
Haar-random on ``arms + 1`` ports, each arm ending in a vertex that reflects
with a random phase.  Its right block has dimension ``2 + 2*arms``.  Specs are
written as JSON files; the program only ever sees those files, loaded through
``starwalk.load_spec``.
"""
from __future__ import annotations

import json
import os

import numpy as np

import reference

# Seeded specs whose right-block eigenvalues crowd each other are redrawn:
# every eigenvalue pair must sit at least this far apart.  Near-degenerate
# spectra are a different regime (the program legitimately reports clustering
# ambiguities, and the double-root search can seed on another pair) and would
# make the failure count depend on the seed.  Arms return in two steps, so the
# right block is bipartite and its spectrum is symmetric under lambda -> -lambda:
# the opposite of every eigenvalue, the second left eigenvalue of a matched
# search included, is itself an eigenvalue with the same c.
MIN_SEPARATION = 0.2
MAX_REDRAWS = 1000


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, phases fixed."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def _entries(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def arm_spec(rng: np.random.Generator, arms: int) -> dict:
    """JSON-ready spec: Haar attachment vertex plus ``arms`` phase reflectors."""
    ins = ["0->1"] + [f"a{i}->1" for i in range(arms)]
    outs = ["1->0"] + [f"1->a{i}" for i in range(arms)]
    vertices = [{"id": "1", "ports_in": ins, "ports_out": outs,
                 "matrix": _entries(haar_unitary(rng, arms + 1))}]
    for i in range(arms):
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        vertices.append({"id": f"a{i}", "ports_in": [f"1->a{i}"],
                         "ports_out": [f"a{i}->1"],
                         "matrix": _entries(np.array([[phase]]))})
    interior = [f"a{i}->1" for i in range(arms)] + [f"1->a{i}" for i in range(arms)]
    return {"vertices": vertices, "attachment": "1", "interior": interior}


def separation(spec: dict) -> float:
    """Smallest distance between two right-block eigenvalues."""
    vals = np.linalg.eigvals(reference.right_block(spec))
    return min(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:])


def separated_spec(rng: np.random.Generator, arms: int) -> dict:
    for _ in range(MAX_REDRAWS):
        spec = arm_spec(rng, arms)
        if separation(spec) >= MIN_SEPARATION:
            return spec
    raise RuntimeError(f"no separated {arms}-arm spec in {MAX_REDRAWS} draws")


def bundled(name: str, src_dir: str) -> dict:
    """A bundled fixture, read from the source tree as plain JSON."""
    with open(os.path.join(src_dir, "starwalk", "specs", name + ".json")) as fh:
        return json.load(fh)


def write_specs(specs: list[tuple[str, dict]], out_dir: str) -> list[tuple[str, str, dict]]:
    """Write each spec to ``out_dir/<name>.json``; return (name, path, spec)."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, spec in specs:
        path = os.path.join(out_dir, name + ".json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        written.append((name, path, spec))
    return written
