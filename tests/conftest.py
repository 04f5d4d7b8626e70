import os

# One BLAS thread, set before numpy loads OpenBLAS: with its default of one
# thread per core, a BLAS call can stall the whole process while another job
# holds a core.  A value already in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from interferolab import DensityMatrix  # noqa: E402


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
