"""Input states and measurement vectors for the round-trip protocol.

Single-mode constructors: the sine-profile optimal phase state, the
two-component M&M state (and its NO special case), and the discrete
Pegg-Barnett phase vectors used as the measurement basis.  A minimal
two-mode product space lives here as well, just big enough for the NOON
interferometry baseline with independent per-arm loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, FockVector, KrausChannel, loss_channel

NORM_TOL = 1e-12


@dataclass(frozen=True)
class MmStateSpec:
    """Parameters of the two-component state (|m> + |m_prime>)/sqrt(2)."""

    m: int
    m_prime: int

    def __post_init__(self):
        if not (self.m > self.m_prime >= 0):
            raise ValueError(f"need m > m_prime >= 0, got ({self.m}, {self.m_prime})")

    @property
    def delta(self) -> int:
        return self.m - self.m_prime

    @property
    def n_avg(self) -> float:
        return (self.m + self.m_prime) / 2.0


def optimal_phase_state(m: int) -> FockVector:
    """Sine-amplitude phase state on |0>..|m>, mean photon number m/2.

    Amplitudes are sqrt(2/(m+1)) * sin(pi*(n+1/2)/(m+1)); they are real,
    positive and symmetric under n -> m-n, which makes the state (up to a
    global phase) invariant under the index-reversal unitary.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return FockVector(_sine_amplitudes(m))


def _sine_amplitudes(m: int) -> np.ndarray:
    return math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * (np.arange(m + 1) + 0.5) / (m + 1))


def mm_state(spec: MmStateSpec) -> FockVector:
    """Equal superposition of the two Fock states |m> and |m_prime>."""
    amps = np.zeros(spec.m + 1, dtype=complex)
    amps[spec.m] = amps[spec.m_prime] = 1.0 / math.sqrt(2.0)
    return FockVector(amps)


def no_state(n: int) -> FockVector:
    """Single-mode analogue of the NOON state: (|2n> + |0>)/sqrt(2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return mm_state(MmStateSpec(2 * n, 0))


def pegg_barnett_vector(m: int, phi_value: float) -> FockVector:
    """Discrete phase state with amplitudes exp(i*n*phi_value)/sqrt(m+1).

    The m+1 vectors at phi values 2*pi*l/(m+1) are orthonormal and
    resolve the truncated space.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if not math.isfinite(phi_value):
        raise ValueError("phase must be finite")
    n = np.arange(m + 1)
    return FockVector(np.exp(1j * n * phi_value) / math.sqrt(m + 1))


@dataclass(frozen=True, eq=False)
class TwoModeFockVector:
    """Normalized pure state on a (d1 x d2) two-mode Fock product basis."""

    amps: np.ndarray  # shape (d1, d2), amps[n1, n2]

    def __init__(self, amps):
        amps = np.asarray(amps, dtype=complex)
        if amps.ndim != 2:
            raise ValueError("two-mode amplitudes must be a 2-D array")
        nrm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(nrm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |amps|^2 = {nrm2!r}")
        a = amps.copy()
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def dims(self) -> tuple:
        return self.amps.shape

    def to_density_flat(self) -> DensityMatrix:
        v = self.amps.reshape(-1)
        return DensityMatrix(np.outer(v, v.conj()), check=False)


def noon_state(n: int) -> TwoModeFockVector:
    """Two-mode entangled state (|n,0> + |0,n>)/sqrt(2) on (n+1)^2 levels."""
    if n < 1:
        raise ValueError("n must be >= 1")
    amps = np.zeros((n + 1, n + 1), dtype=complex)
    amps[n, 0] = amps[0, n] = 1.0 / math.sqrt(2.0)
    return TwoModeFockVector(amps)


def two_mode_loss_channel(eta1: float, eta2: float, dims: tuple) -> KrausChannel:
    """Independent photon loss on each arm, flattened to one Kraus channel."""
    d1, d2 = dims
    ch1 = loss_channel(eta1, d1)
    ch2 = loss_channel(eta2, d2)
    mats = [np.kron(a, b) for a in ch1.kraus for b in ch2.kraus]
    return KrausChannel(mats)


def two_mode_phase(rho: DensityMatrix, phi: float, dims: tuple) -> DensityMatrix:
    """Phase shift exp(i*phi*n1) on the first arm of a flattened two-mode state."""
    d1, d2 = dims
    if rho.dim != d1 * d2:
        raise ValueError("dimension mismatch")
    n1 = np.repeat(np.arange(d1), d2)
    ph = np.exp(1j * phi * n1)
    return DensityMatrix(rho.mat * np.outer(ph, ph.conj()), check=False)
