"""Round-trip protocol: brute-force channel composition, the production
outputs as matrices, and the validation gate that compares the two.

One round sends the state through the sampling arm (phase phi + theta,
loss eta1), applies the index-reversal unitary, and returns it through
the reference arm (phase theta, loss eta2).  ``_kraus_round_trip`` plays
this out with explicit Kraus sums on a stack of density matrices, given the
two arms' Kraus stacks, which its callers build where they use them; its
one-matrix case, ``roundtrip_oracle``, is the ground truth here.  The
production engine, ``engine._round_trip``, returns only
the output's lag diagonals (n - n' = k) that the input occupies, as
{k: lag}, O(d) numbers each: by a loop over the lags for an input on few
lags, and for a larger one by products of 64 lags at a time with the
table squared once per row, one per loss leg.  Both read a loss table,
one d x d array of amplitudes that depends on eta alone and serves every
smaller round trip through its top-left block, so a sweep over n and the
validation gate build one per eta; the public functions build their own,
and ``optimal_state_output`` and ``mm_state_output`` assemble d x d
matrices from the lags.  Each call runs one round trip, so a phase scan
should apply each phase to one phi = 0 output.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .engine import (
    MmStateSpec,
    _Checked,
    _check_eta,
    _check_phase,
    _check_top,
    _loss_table,
    _mm_amplitudes,
    _round_trip,
    _sine_amplitudes,
    binomial_table,
)
from .fock import (
    DensityMatrix,
    FockVector,
    _check_density,
    _kraus_sum,
    _phased,
    loss_channel,
    permutation_unitary,
)


class RoundTripConfig(_Checked, namedtuple("RoundTripConfig", "phi theta eta1 eta2")):
    """One pass configuration: phases and per-arm transmissivities."""

    __slots__ = ()

    def __new__(cls, phi: float, theta: float, eta1: float, eta2: float):
        _check_phase(phi)
        _check_phase(theta, "theta")
        _check_eta(eta1)
        _check_eta(eta2)
        return super().__new__(cls, phi, theta, eta1, eta2)


def _kraus_round_trip(mats, phis, theta: float, loss1, loss2) -> np.ndarray:
    """One round trip on each matrix of the stack mats (..., d, d), unchecked, at
    phi from phis (broadcast against the leading axes): phase phi + theta, the
    Kraus stack loss1, the reversal as the d x d matrix u (u @ rho @ u.T), phase
    theta, the Kraus stack loss2."""
    out = _kraus_sum(_phased(mats, np.add(phis, theta)), loss1)
    u = permutation_unitary(mats.shape[-1])
    return _kraus_sum(_phased(u @ out @ u.T, theta), loss2)


def roundtrip_step(rho: DensityMatrix, cfg: RoundTripConfig) -> DensityMatrix:
    """One full round trip applied to a density matrix (unchecked)."""
    loss1, loss2 = (loss_channel(eta, rho.dim).kraus for eta in (cfg.eta1, cfg.eta2))
    return DensityMatrix(_kraus_round_trip(rho.mat, cfg.phi, cfg.theta, loss1, loss2), check=False)


def roundtrip_oracle(state: FockVector, cfg: RoundTripConfig) -> DensityMatrix:
    """Brute-force protocol output after one round trip, checked: no closed forms
    anywhere, the input projector is pushed through phase, loss and permutation
    operations term by term."""
    rho = roundtrip_step(state.to_density(), cfg)
    _check_density(rho.mat)
    return rho


def _output_matrix(lags, phis) -> np.ndarray:
    """The outputs at the phases phis from their lags at phi = 0, as phis.shape + (d, d),
    d = lag 0's size: the arm twist exp(-i*phi*(n - n')) puts lag k below the diagonal
    as lag * exp(-i*k*phi) and its conjugate above.  At k = 0 that factor is exactly 1,
    so each diagonal is real and each matrix exactly Hermitian."""
    phis = np.asarray(phis, dtype=float)
    d = lags[0].size
    flat = np.zeros(phis.shape + (d * d,), dtype=complex)  # each diagonal a strided slice
    for k, lag in lags.items():
        below = lag * np.exp(-1j * k * phis[..., None])
        flat[..., k * d :: d + 1] = below  # out[i + k, i]
        flat[..., k : (d - k) * d : d + 1] = below.conj()  # out[i, i + k]
    return flat.reshape(phis.shape + (d, d))


def optimal_state_output(m: int, eta: float, phi: float, check: bool = True) -> DensityMatrix:
    """Round-trip output for the optimal phase state (single round, equal
    transmissivity in both arms), assembled from the lags the sweep reads.
    Matches ``roundtrip_oracle(optimal_phase_state(m), ...)`` elementwise.
    """
    _check_top(m)
    _check_eta(eta)
    _check_phase(phi)
    return DensityMatrix(_output_matrix(_round_trip(_sine_amplitudes(m), eta), phi), check=check)


def mm_output_coefficients(spec: MmStateSpec, eta: float) -> dict:
    """Lags of the M&M round trip at phi = 0: {0: the diagonal, delta: the
    coherences of sites j and j + delta for j = 0..m_prime}.  The input occupies
    lags 0 and +-delta only, and loss and the reversal keep lags apart, so these
    two O(d) vectors are the whole output."""
    _check_eta(eta)
    return _round_trip(_mm_amplitudes(spec), eta)


def mm_state_output(spec: MmStateSpec, eta: float, phi: float, check: bool = True) -> DensityMatrix:
    """Round-trip output for the M&M state (single round, equal
    transmissivity in both arms), assembled from its lags."""
    _check_phase(phi)
    return DensityMatrix(_output_matrix(mm_output_coefficients(spec, eta), phi), check=check)


class ValidationCell(namedtuple("ValidationCell", "form m m_prime eta phi max_dev worst_element")):
    """Worst elementwise deviation for one (form, m, m_prime, eta, phi) cell,
    at the (row, column) ``worst_element``; m_prime is -1 for the sine-state form."""

    __slots__ = ()


class ValidationReport(_Checked, namedtuple("ValidationReport", "cells tolerance")):
    """Validation sweep outcome: production outputs vs the brute-force channel."""

    __slots__ = ()

    def __new__(cls, cells, tolerance: float):
        if not cells:
            raise ValueError("validation report needs at least one cell")
        return super().__new__(cls, cells, tolerance)

    @property
    def max_dev(self) -> float:
        return max(c.max_dev for c in self.cells)

    @property
    def worst(self) -> ValidationCell:
        return max(self.cells, key=lambda c: c.max_dev)

    @property
    def passed(self) -> bool:
        return self.max_dev < self.tolerance

    def to_text(self) -> str:
        lines = [
            f"{'form':<6} {'m':>3} {'m_prime':>7} {'eta':>6} {'phi':>6} "
            f"{'max_dev':>12}  worst element"
        ]
        for c in self.cells:
            mp = "" if c.m_prime < 0 else str(c.m_prime)
            lines.append(
                f"{c.form:<6} {c.m:>3} {mp:>7} {c.eta:>6.3f} {c.phi:>6.3f} "
                f"{c.max_dev:>12.3e}  {c.worst_element}"
            )
        w = self.worst
        lines.append(
            f"overall max_dev = {self.max_dev:.3e} at (form={w.form}, m={w.m}, "
            f"eta={w.eta}, phi={w.phi}); tolerance {self.tolerance:.1e}; "
            f"status {'pass' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines)

    def write_key_values(self, path) -> None:
        w = self.worst
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"max_dev={self.max_dev:.17g}\n")
            fh.write(f"argmax_m={w.m}\n")
            fh.write(f"argmax_eta={w.eta:.17g}\n")
            fh.write(f"argmax_phi={w.phi:.17g}\n")
            fh.write(f"status={'pass' if self.passed else 'fail'}\n")


_VALIDATION_TOLERANCE = 1e-10
_VALIDATION_THETA = 0.37  # arm phase of the oracle runs, which the round trip cancels
_VALIDATION_ETAS = (0.5, 0.9, 1.0)
_VALIDATION_PHIS = (0.0, 0.3, 1.2)


def validate_closed_forms(max_m: int) -> ValidationReport:
    """Compare both production outputs against the brute-force oracle on a grid:
    every (eta, phi) cell of every m <= max_m, for the sine state and a few M&M
    splittings, recording the worst elementwise deviation per cell.  Each (m, eta)
    runs one lag round trip per state, whose lags serve every phase, and one Kraus
    round trip on the stack of its states at all phases, checked at once.  Per eta,
    one loss table (from one binomial table) and one loss channel are built for
    max_m; each m reads their top-left blocks, which a smaller build would give."""
    _check_top(max_m, "max_m")
    binom = binomial_table(max_m)
    tables = {eta: _loss_table(max_m + 1, eta, binom) for eta in _VALIDATION_ETAS}
    channels = {eta: loss_channel(eta, max_m + 1).kraus for eta in _VALIDATION_ETAS}
    phis = np.array(_VALIDATION_PHIS)[:, None]  # the stack: phases down, states across
    cells = []
    for m in range(1, max_m + 1):
        specs = [MmStateSpec(m, mp) for mp in sorted({0, m // 2, m - 1})]
        forms = [("rho", -1)] + [("sigma", spec.m_prime) for spec in specs]
        for eta in _VALIDATION_ETAS:
            amps = [_sine_amplitudes(m)] + [_mm_amplitudes(spec) for spec in specs]
            kets = np.array(amps, dtype=complex)
            loss = np.ascontiguousarray(channels[eta][: m + 1, : m + 1, : m + 1])
            oracle = _kraus_round_trip(kets[:, :, None] * kets[:, None, :].conj(), phis,
                                       _VALIDATION_THETA, loss, loss)
            _check_density(oracle)
            lags = [_round_trip(a, eta, tables[eta]) for a in amps]
            closed = np.concatenate([_output_matrix(lag, phis) for lag in lags], axis=1)
            for phi, devs in zip(_VALIDATION_PHIS, np.abs(closed - oracle)):
                for (form, mp), dev in zip(forms, devs):
                    i, j = divmod(int(dev.argmax()), m + 1)
                    cells.append(ValidationCell(form, m, mp, eta, phi, float(dev[i, j]), (i, j)))
    return ValidationReport(tuple(cells), _VALIDATION_TOLERANCE)
