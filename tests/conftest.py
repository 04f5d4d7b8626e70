import numpy as np
import pytest

from interferolab import DensityMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def random_density(rng):
    """Factory for random full-rank density matrices of a given dimension."""

    def make(dim: int) -> DensityMatrix:
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = g @ g.conj().T
        return DensityMatrix(mat / np.trace(mat).real)

    return make


@pytest.fixture
def random_state(rng):
    """Factory for random normalized pure states of a given dimension."""

    def make(dim: int):
        from interferolab import FockVector

        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return FockVector(amps / np.linalg.norm(amps))

    return make
