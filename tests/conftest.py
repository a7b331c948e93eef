import numpy as np
import pytest

import starwalk as sw
from starwalk import spectral


@pytest.fixture(scope="session")
def grover_spec():
    return sw.load_spec("grover")


@pytest.fixture(scope="session")
def bolo_spec():
    return sw.load_spec("bolo")


@pytest.fixture
def decompositions(monkeypatch) -> list:
    """One entry per spectral.eigendecompose call made during the test."""
    calls = []
    real = spectral.eigendecompose

    def counting(U, *args, **kwargs):
        calls.append(U)
        return real(U, *args, **kwargs)
    monkeypatch.setattr(spectral, "eigendecompose", counting)
    return calls


def haar_unitary(rng, n: int) -> np.ndarray:
    """Haar-random unitary via QR with phase correction."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def random_spec(rng, max_arms: int = 3, arms: int | None = None) -> sw.SubgraphSpec:
    """Random valid subgraph: attachment vertex with a Haar-random scattering
    matrix feeding 1..max_arms phase-reflector arms (exactly ``arms`` if given)."""
    if arms is None:
        arms = int(rng.integers(1, max_arms + 1))
    ins = ("0->1",) + tuple(f"a{i}->1" for i in range(arms))
    outs = ("1->0",) + tuple(f"1->a{i}" for i in range(arms))
    verts = [sw.Vertex("1", ins, outs, haar_unitary(rng, arms + 1))]
    for i in range(arms):
        ph = np.exp(1j * rng.uniform(0, 2 * np.pi))
        verts.append(sw.Vertex(f"a{i}", (f"1->a{i}",), (f"a{i}->1",),
                               np.array([[ph]], dtype=complex)))
    interior = tuple(f"a{i}->1" for i in range(arms)) + \
        tuple(f"1->a{i}" for i in range(arms))
    return sw.SubgraphSpec(tuple(verts), "1", interior)


def random_collapsed_state(rng, spec: sw.SubgraphSpec) -> sw.StateVector:
    d = spec.dim_collapsed
    amp = rng.normal(size=d) + 1j * rng.normal(size=d)
    amp /= np.linalg.norm(amp)
    return sw.StateVector(amplitudes=amp, basis=spec.basis)
