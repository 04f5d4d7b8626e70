"""Round-trip protocol: brute-force channel composition and the production engine.

One round sends the state through the sampling arm (phase phi + theta,
loss eta1), applies the index-reversal unitary, and returns it through
the reference arm (phase theta, loss eta2).  ``roundtrip_oracle`` plays
this out with explicit Kraus sums (on the memoised ``loss_channel``) and
is the ground truth here.  The engine, ``_round_trip``, returns only the
output's lag diagonals (n - n' = k) that the input occupies, as {k: lag}:
every lag for the sine state, 0 and delta for the M&M state, O(d)
numbers each.  The sweep reads that dict directly; ``optimal_state_output``
and ``mm_state_output`` build d x d matrices from it in one place,
``_output_matrix``.  Nothing is memoised: each call runs one round trip,
so a phase scan should build the phi = 0 output once and apply each
phase to it, as ``validate_closed_forms`` and demo 03 do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    DensityMatrix,
    FockVector,
    _check_eta,
    apply_channel,
    apply_phase,
    binomial_table,
    loss_channel,
    permutation_unitary,
)
from .states import MmStateSpec, _mm_amplitudes, _sine_amplitudes, mm_state, optimal_phase_state


@dataclass(frozen=True)
class RoundTripConfig:
    """One pass configuration: phases and per-arm transmissivities."""

    phi: float
    theta: float
    eta1: float
    eta2: float

    def __post_init__(self):
        for name in ("phi", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        _check_eta(self.eta1)
        _check_eta(self.eta2)


def roundtrip_step(rho: DensityMatrix, cfg: RoundTripConfig) -> DensityMatrix:
    """One full round trip applied to a density matrix; the reversal is the
    rho.dim x rho.dim matrix u, applied as u @ rho @ u.T."""
    d = rho.dim
    out = apply_phase(rho, cfg.phi + cfg.theta)
    out = apply_channel(out, loss_channel(cfg.eta1, d))
    u = permutation_unitary(d)
    out = DensityMatrix(u @ out.mat @ u.T, check=False)
    out = apply_phase(out, cfg.theta)
    out = apply_channel(out, loss_channel(cfg.eta2, d))
    return out


def roundtrip_oracle(state: FockVector, cfg: RoundTripConfig) -> DensityMatrix:
    """Brute-force protocol output after one round trip.

    No closed forms anywhere: the input projector is pushed through
    phase, loss and permutation operations term by term.
    """
    rho = roundtrip_step(state.to_density(), cfg)
    return DensityMatrix(rho.mat, check=True)


def _loss_amplitudes(d: int, eta: float) -> np.ndarray:
    """amp[a, c] = sqrt(C(c, a) eta^a (1-eta)^(c-a)), the amplitude of keeping
    a of c photons; raises ValueError once the binomials overflow double
    (d > 1030).  (1-eta) is raised to each loss count once and gathered."""
    n = np.arange(d)
    kept, lost = n[:, None], np.maximum(n[None, :] - n[:, None], 0)
    with np.errstate(invalid="ignore"):
        amp = np.sqrt(binomial_table(d - 1).T * eta**kept * ((1.0 - eta) ** n)[lost])
    if not np.isfinite(amp).all():
        raise ValueError(f"loss amplitudes are non-finite: binomials of {d - 1} overflow")
    return amp


def _occupied_lags(amps: np.ndarray) -> np.ndarray:
    """Lags k >= 0 on which |a><a| is non-zero: the autocorrelation of the
    amplitude support, in O(d) memory."""
    occ = (amps != 0).astype(float)
    return np.flatnonzero(np.convolve(occ, occ[::-1])[amps.size - 1 :])


def _round_trip(amps: np.ndarray, eta: float) -> dict:
    """Lag diagonals of loss(reverse(loss(|a><a|))) for real amplitudes a:
    the round-trip output at phi = 0 with transmissivity eta in both arms,
    as {k: out[i, i+k] for i < d-k} over the lags k >= 0 that |a><a| occupies.
    Each call runs one round trip; the phase of a scan is applied afterwards.

    Loss keeps lags apart: lag k of its output is W_k @ (lag k of its input)
    with W_k[i, j] = amp[i, j] amp[i+k, j+k].  The output is real and
    symmetric, so the reversal maps lag k to lag k read backwards.  Lags
    below 0 mirror lags above 0.
    """
    d = amps.size
    amp = _loss_amplitudes(d, eta)
    lags = {}
    for k in map(int, _occupied_lags(amps)):
        w = amp[: d - k, : d - k] * amp[k:, k:]
        lags[k] = w @ (w @ (amps[: d - k] * amps[k:]))[::-1]
    return lags


def _output_matrix(lags, phi: float, check: bool) -> DensityMatrix:
    """The output at phase phi from its lags at phi = 0 (d x d, d = lag 0's
    size): the arm twist exp(-i*phi*(n - n')) puts lag k below the diagonal
    as lag * exp(-i*k*phi) and its conjugate above.  At k = 0 that factor
    is exactly 1, so the diagonal is real and the matrix exactly Hermitian."""
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    d = lags[0].size
    mat = np.zeros((d, d), dtype=complex)
    flat = mat.reshape(-1)  # a view: each diagonal is a strided slice of it
    for k, lag in lags.items():
        below = lag * np.exp(-1j * k * phi)
        flat[k * d :: d + 1] = below  # out[i + k, i]
        flat[k : (d - k) * d : d + 1] = below.conj()  # out[i, i + k]
    return DensityMatrix(mat, check=check)


def optimal_state_output(m: int, eta: float, phi: float, check: bool = True) -> DensityMatrix:
    """Round-trip output for the optimal phase state (single round, equal
    transmissivity in both arms), assembled from the lags the sweep reads.
    Matches ``roundtrip_oracle(optimal_phase_state(m), ...)`` elementwise.
    Each call runs one round trip, so a phase scan should build the phi = 0
    output once and apply each phase to it, as demo 03 does.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_eta(eta)
    return _output_matrix(_round_trip(_sine_amplitudes(m), eta), phi, check)


def mm_output_coefficients(spec: MmStateSpec, eta: float) -> dict:
    """Lags of the M&M round trip at phi = 0: {0: the diagonal, delta: the
    coherences of sites j and j + delta for j = 0..m_prime}.

    The input occupies lags 0 and +-delta only, and loss and the reversal
    keep lags apart, so these two O(d) vectors are the whole output.  Each
    call runs one round trip, so a phase scan should build them once and
    apply each phase to them, as demo 03 does with the sine state.
    """
    _check_eta(eta)
    return _round_trip(_mm_amplitudes(spec), eta)


def mm_state_output(spec: MmStateSpec, eta: float, phi: float, check: bool = True) -> DensityMatrix:
    """Round-trip output for the M&M state (single round, equal
    transmissivity in both arms), assembled from its lags."""
    return _output_matrix(mm_output_coefficients(spec, eta), phi, check)


@dataclass(frozen=True)
class ValidationCell:
    """Worst elementwise deviation for one (form, m, m_prime, eta, phi) cell."""

    form: str
    m: int
    m_prime: int  # -1 for the sine-state form
    eta: float
    phi: float
    max_dev: float
    worst_element: tuple


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Validation sweep outcome: production outputs vs the brute-force channel."""

    cells: tuple
    tolerance: float

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


def _dev_cell(form, m, m_prime, eta, phi, got: DensityMatrix, want: DensityMatrix):
    diff = np.abs(got.mat - want.mat)
    flat = int(np.argmax(diff))
    coords = np.unravel_index(flat, diff.shape)
    return ValidationCell(form, m, m_prime, eta, phi, float(diff[coords]), tuple(int(x) for x in coords))


_VALIDATION_TOLERANCE = 1e-10
_VALIDATION_THETA = 0.37  # arm phase of the oracle runs, which the round trip cancels
_VALIDATION_ETAS = (0.5, 0.9, 1.0)
_VALIDATION_PHIS = (0.0, 0.3, 1.2)


def validate_closed_forms(max_m: int) -> ValidationReport:
    """Compare both production outputs against the brute-force oracle on a grid.

    For every m <= max_m, every (eta, phi) cell is checked for the sine
    state and for a few M&M splittings.  The report records the worst
    elementwise deviation per cell and the overall argmax.  Each (m, eta)
    runs one round trip per state, whose lags serve every phase.
    """
    cells = []
    for m in range(1, max_m + 1):
        specs = [MmStateSpec(m, mp) for mp in sorted({0, m // 2, m - 1})]
        for eta in _VALIDATION_ETAS:
            sine_lags = _round_trip(_sine_amplitudes(m), eta)
            mm_lags = [mm_output_coefficients(spec, eta) for spec in specs]
            for phi in _VALIDATION_PHIS:
                cfg = RoundTripConfig(phi, _VALIDATION_THETA, eta, eta)
                oracle = roundtrip_oracle(optimal_phase_state(m), cfg)
                closed = _output_matrix(sine_lags, phi, False)
                cells.append(_dev_cell("rho", m, -1, eta, phi, closed, oracle))
                for spec, lags in zip(specs, mm_lags):
                    oracle = roundtrip_oracle(mm_state(spec), cfg)
                    closed = _output_matrix(lags, phi, False)
                    cells.append(_dev_cell("sigma", m, spec.m_prime, eta, phi, closed, oracle))
    return ValidationReport(tuple(cells), _VALIDATION_TOLERANCE)
