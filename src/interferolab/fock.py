"""Truncated single-mode Fock-space linear algebra.

States live on the basis |0>..|D-1> of one optical mode.  The module
provides the pure-state and density-matrix containers and the operators
of the Kraus reference: the phase shift exp(i*phi*n), the photon-loss
channel in Kraus form and the Fock-index reversal, a literal d x d
matrix.  The operators act on density matrices, their array forms on
stacks of them; everything is a dense numpy array, all containers are
immutable named tuples of read-only arrays, compared by identity, and
every operation is a pure function that builds what it returns, with
nothing cached.  Every check fails on NaN, the engine's checks of each
phase, size and transmissivity too.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .engine import _Checked, _check_eta, _check_phase, _check_top, binomial_table

NORM_TOL = 1e-12
HERM_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_TOL = -1e-9
KRAUS_TOL = 1e-10


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def _unit(amps: np.ndarray) -> np.ndarray:
    """The amplitudes amps as a read-only copy, once checked finite and of unit norm."""
    if not np.all(np.isfinite(amps)):
        raise ValueError("non-finite amplitude")
    nrm2 = float(np.sum(np.abs(amps) ** 2))
    if not abs(nrm2 - 1.0) <= NORM_TOL:
        raise ValueError(f"state needs unit norm: |amps|^2 = {nrm2!r}")
    return _frozen(amps)


class _ArrayOwner(_Checked):
    """Mixin of a checked named tuple of numpy arrays, compared and hashed by identity."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class FockVector(_ArrayOwner, namedtuple("FockVector", "amps")):
    """Unit-norm pure state over the Fock basis |0>..|dim-1>."""

    __slots__ = ()

    def __new__(cls, amps):
        return super().__new__(cls, _unit(np.asarray(amps, dtype=complex).reshape(-1)))

    @property
    def dim(self) -> int:
        return self.amps.size

    def mean_photon(self) -> float:
        return float(np.arange(self.dim) @ (np.abs(self.amps) ** 2))

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amps, self.amps.conj()), check=False)


class DensityMatrix(_ArrayOwner, namedtuple("DensityMatrix", "mat")):
    """Hermitian, unit-trace, positive-semidefinite matrix on the Fock basis.

    The eigenvalue (positivity) check is the expensive part; pass
    ``check=False`` in hot loops that construct states known to be valid
    and call :meth:`validate` explicitly where it matters.
    """

    __slots__ = ()

    def __new__(cls, mat, check: bool = True):
        mat = _frozen(mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("density matrix must be square and non-empty")
        if check:
            _check_density(mat)
        return super().__new__(cls, mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def validate(self) -> None:
        _check_density(self.mat)


def _check_density(mats: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the stack mats (..., d, d) is Hermitian,
    of unit trace and positive semidefinite, naming the worst value of the failed check."""
    herm = np.max(np.abs(mats - mats.conj().swapaxes(-1, -2)))
    if not herm <= HERM_TOL:
        raise ValueError(f"not Hermitian: max |m - m^dag| = {herm:.3e}")
    tr = max(np.ravel(np.trace(mats, axis1=-2, axis2=-1)), key=lambda t: abs(t - 1.0))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"trace deviates from 1: {tr!r}")
    lo = float(np.linalg.eigvalsh(mats)[..., 0].min())
    if not lo >= EIG_TOL:
        raise ValueError(f"negative eigenvalue {lo:.3e}")


class KrausChannel(_ArrayOwner, namedtuple("KrausChannel", "kraus")):
    """Completely positive trace-preserving map; ``kraus`` stacks its matrices."""

    __slots__ = ()

    def __new__(cls, kraus):
        mats = [np.asarray(k) for k in kraus]
        if not mats:
            raise ValueError("channel needs at least one Kraus matrix")
        shape = mats[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(k.shape != shape for k in mats):
            raise ValueError("Kraus matrices must share a square shape")
        stack = _frozen(mats)
        dev = np.max(np.abs((stack.conj().swapaxes(1, 2) @ stack).sum(axis=0) - np.eye(shape[0])))
        if not dev <= KRAUS_TOL:
            raise ValueError(f"Kraus completeness violated by {dev:.3e}")
        return super().__new__(cls, stack)

    @property
    def dim(self) -> int:
        return self.kraus.shape[-1]


def permutation_unitary(dim: int) -> np.ndarray:
    """The index reversal |n> -> |dim-1-n> as a read-only dim x dim matrix."""
    _check_top(dim, "dim")
    u = np.eye(dim)[::-1].copy()
    u.setflags(write=False)
    return u


def _phased(mats: np.ndarray, phis) -> np.ndarray:
    """mats * exp(i*phi*(n - n')) for each matrix of the stack mats (..., d, d),
    phi taken from phis, which broadcasts against the stack's leading axes."""
    ph = np.exp(1j * np.asarray(phis)[..., None] * np.arange(mats.shape[-1]))
    return mats * (ph[..., :, None] * ph.conj()[..., None, :])


def apply_phase(rho: DensityMatrix, phi: float) -> DensityMatrix:
    """Phase shift exp(i*phi*n): the (n, m) element picks up exp(i*(n-m)*phi),
    so the trace is unchanged."""
    _check_phase(phi)
    return DensityMatrix(_phased(rho.mat, phi), check=False)


def loss_channel(eta: float, dim: int) -> KrausChannel:
    """Photon-loss channel with transmissivity eta on a dim-level mode.

    The i-th Kraus matrix removes i photons:
    K_i |n> = sqrt(C(n, i)) * (1-eta)^(i/2) * eta^((n-i)/2) |n-i>.
    eta = 1 yields the identity channel (the single surviving matrix).
    Each call builds a fresh channel; its matrices are read-only.
    """
    _check_eta(eta)
    _check_top(dim, "dim")
    tbl = binomial_table(dim - 1)
    n = np.arange(dim)
    mats = []
    for i in range(dim):
        k = np.zeros((dim, dim), dtype=complex)
        cols = n[i:]
        k[cols - i, cols] = np.sqrt(tbl[cols, i]) * (1.0 - eta) ** (i / 2.0) * eta ** (
            (cols - i) / 2.0
        )
        if i == 0 or np.any(k):
            mats.append(k)
    return KrausChannel(mats)


def _kraus_sum(mats: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """sum_i K_i rho K_i^dag for each matrix rho of the stack mats (..., d, d), batched."""
    return (kraus @ mats[..., None, :, :] @ kraus.conj().transpose(0, 2, 1)).sum(axis=-3)


def apply_channel(rho: DensityMatrix, ch: KrausChannel) -> DensityMatrix:
    """Kraus-sum action sum_i K_i rho K_i^dag (unchecked; validate where it matters)."""
    if rho.dim != ch.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, channel {ch.dim}")
    return DensityMatrix(_kraus_sum(rho.mat, ch.kraus), check=False)


def expectation(rho: DensityMatrix, obs: np.ndarray) -> float:
    """tr(rho * obs) for a Hermitian observable, returned as a real number."""
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != (rho.dim, rho.dim):
        raise ValueError("observable dimension mismatch")
    dev = np.max(np.abs(obs - obs.conj().T))
    if not dev <= 1e-10:
        raise ValueError(f"observable not Hermitian (deviation {dev:.3e})")
    val = complex(np.einsum("ij,ji->", rho.mat, obs))
    if not abs(val.imag) < 1e-10:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real
