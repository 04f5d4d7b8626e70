"""Input states and measurement vectors for the round-trip protocol.

Single-mode constructors: the sine-profile optimal phase state, the
two-component M&M state (and its NO special case), and the discrete
Pegg-Barnett phase vectors used as the measurement basis.  A minimal
two-mode product space lives here as well, just big enough for the NOON
interferometry baseline with independent per-arm loss.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .engine import MmStateSpec, _check_phase, _check_top, _mm_amplitudes, _sine_amplitudes
from .fock import DensityMatrix, FockVector, KrausChannel, _ArrayOwner, _unit, loss_channel


def optimal_phase_state(m: int) -> FockVector:
    """Sine-amplitude phase state on |0>..|m>, mean photon number m/2.

    Amplitudes are sqrt(2/(m+1)) * sin(pi*(n+1/2)/(m+1)); they are real,
    positive and symmetric under n -> m-n, which makes the state (up to a
    global phase) invariant under the index-reversal unitary.
    """
    _check_top(m)
    return FockVector(_sine_amplitudes(m))


def mm_state(spec: MmStateSpec) -> FockVector:
    """Equal superposition of the two Fock states |m> and |m_prime>."""
    return FockVector(_mm_amplitudes(spec))


def no_state(n: int) -> FockVector:
    """Single-mode analogue of the NOON state: (|2n> + |0>)/sqrt(2)."""
    _check_top(n, "n")
    return mm_state(MmStateSpec(2 * n, 0))


def pegg_barnett_vector(m: int, phi_value: float) -> FockVector:
    """Discrete phase state with amplitudes exp(i*n*phi_value)/sqrt(m+1).

    The m+1 vectors at phi values 2*pi*l/(m+1) are orthonormal and
    resolve the truncated space.
    """
    _check_top(m, least=0)
    _check_phase(phi_value, "phi_value")
    return FockVector(np.exp(1j * np.arange(m + 1) * phi_value) / math.sqrt(m + 1))


class TwoModeFockVector(_ArrayOwner, namedtuple("TwoModeFockVector", "amps")):
    """Normalized pure state on a (d1 x d2) two-mode Fock product basis, amps[n1, n2]."""

    __slots__ = ()

    def __new__(cls, amps):
        amps = np.asarray(amps, dtype=complex)
        if amps.ndim != 2:
            raise ValueError("two-mode amplitudes must be a 2-D array")
        return super().__new__(cls, _unit(amps))

    @property
    def dims(self) -> tuple:
        return self.amps.shape

    def to_density_flat(self) -> DensityMatrix:
        v = self.amps.reshape(-1)
        return DensityMatrix(np.outer(v, v.conj()), check=False)


def noon_state(n: int) -> TwoModeFockVector:
    """Two-mode entangled state (|n,0> + |0,n>)/sqrt(2) on (n+1)^2 levels."""
    _check_top(n, "n")
    amps = np.zeros((n + 1, n + 1), dtype=complex)
    amps[n, 0] = amps[0, n] = 1.0 / math.sqrt(2.0)
    return TwoModeFockVector(amps)


def two_mode_loss_channel(eta1: float, eta2: float, dims: tuple) -> KrausChannel:
    """Independent photon loss on each arm, flattened to one Kraus channel: the
    cross-check of the NOON brute force, which applies one arm at a time."""
    d1, d2 = dims
    ch1 = loss_channel(eta1, d1)
    ch2 = loss_channel(eta2, d2)
    mats = [np.kron(a, b) for a in ch1.kraus for b in ch2.kraus]
    return KrausChannel(mats)


def two_mode_phase(rho: DensityMatrix, phi: float, dims: tuple) -> DensityMatrix:
    """Phase shift exp(i*phi*n1) on the first arm of a flattened two-mode state."""
    _check_phase(phi)
    d1, d2 = dims
    _check_top(d1, "d1")
    _check_top(d2, "d2")
    if rho.dim != d1 * d2:
        raise ValueError("dimension mismatch")
    n1 = np.repeat(np.arange(d1), d2)
    ph = np.exp(1j * phi * n1)
    return DensityMatrix(rho.mat * np.outer(ph, ph.conj()), check=False)
