"""Round-trip protocol: brute-force channel composition and the production outputs.

One round sends the state through the sampling arm (phase phi + theta,
loss eta1), applies the index-reversal unitary, and returns it through
the reference arm (phase theta, loss eta2).  ``roundtrip_oracle`` plays
this out with explicit Kraus sums and is the ground truth here.  The
sine-state output comes from a per-diagonal loss map and the M&M output
from a closed form; ``validate_closed_forms`` cross-checks both against
the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    DensityMatrix,
    FockVector,
    apply_channel,
    apply_phase,
    binomial_table,
    loss_channel,
    permutation_unitary,
)
from .states import MmStateSpec, _sine_amplitudes, mm_state, optimal_phase_state


def _check_eta(eta: float) -> None:
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"transmissivity must be in (0, 1], got {eta!r}")


@dataclass(frozen=True)
class RoundTripConfig:
    """One pass configuration: phases and per-arm transmissivities.

    ``m`` is the largest Fock index the permutation acts on and must be at
    least the top occupied index of the input state.
    """

    phi: float
    theta: float
    eta1: float
    eta2: float
    m: int

    def __post_init__(self):
        for name in ("phi", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        _check_eta(self.eta1)
        _check_eta(self.eta2)
        if self.m < 0:
            raise ValueError("m must be non-negative")


def roundtrip_step(rho: DensityMatrix, cfg: RoundTripConfig) -> DensityMatrix:
    """One full round trip applied to a density matrix."""
    d = cfg.m + 1
    if rho.dim != d:
        raise ValueError(f"state dimension {rho.dim} != m+1 = {d}")
    u = permutation_unitary(cfg.m, d)
    out = apply_phase(rho, cfg.phi + cfg.theta)
    out = apply_channel(out, loss_channel(cfg.eta1, d))
    out = u.apply(out)
    out = apply_phase(out, cfg.theta)
    out = apply_channel(out, loss_channel(cfg.eta2, d))
    return out


def roundtrip_oracle(state: FockVector, cfg: RoundTripConfig) -> DensityMatrix:
    """Brute-force protocol output after one round trip.

    No closed forms anywhere: the input projector is pushed through
    phase, loss and permutation operations term by term.
    """
    if state.dim != cfg.m + 1:
        raise ValueError(f"input dimension {state.dim} != m+1 = {cfg.m + 1}")
    rho = roundtrip_step(state.to_density(), cfg)
    return DensityMatrix(rho.mat, check=True)


def _loss_map(rho: np.ndarray, eta: float) -> np.ndarray:
    """Photon loss with transmissivity eta on a Hermitian d x d matrix.

    Loss commutes with phase, so lag k of the output is one matrix-vector
    product on lag k of rho: out[a, b] = sum_i amp[a, a+i] amp[b, b+i] rho[a+i, b+i]
    with amp[a, c] = sqrt(C(c, a) eta^a (1-eta)^(c-a)); lags below 0 follow by
    Hermiticity.  Equals ``apply_channel(rho, loss_channel(eta, d))``; raises
    ValueError once the binomials overflow double (d > 1030).
    """
    d = rho.shape[0]
    n = np.arange(d)
    kept, lost = n[:, None], np.maximum(n[None, :] - n[:, None], 0)
    with np.errstate(invalid="ignore"):
        amp = np.sqrt(binomial_table(d - 1).T * eta**kept * (1.0 - eta) ** lost)
    if not np.isfinite(amp).all():
        raise ValueError(f"loss amplitudes are non-finite: binomials of {d - 1} overflow")
    out = np.zeros_like(rho)
    for k in range(d):
        weights = amp[: d - k, : d - k] * amp[k:, k:]
        out[n[: d - k], n[k:]] = weights @ np.diagonal(rho, k)
    return out + np.triu(out, 1).conj().T


def optimal_state_output(m: int, eta: float, phi: float, check: bool = True) -> DensityMatrix:
    """Round-trip output for the optimal phase state.

    Equal transmissivity eta in both arms, single round: loss, index
    reversal and loss act on the real input projector, and the arm phases
    leave the twist exp(-i*phi*(n-n')).  Matches
    ``roundtrip_oracle(optimal_phase_state(m), ...)`` elementwise.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_eta(eta)
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    amps = _sine_amplitudes(m)
    rho = _loss_map(_loss_map(np.outer(amps, amps), eta)[::-1, ::-1], eta)
    twist = np.exp(-1j * phi * np.arange(m + 1))
    return DensityMatrix(rho * np.outer(twist, twist.conj()), check=check)


@dataclass(frozen=True, eq=False)
class MmOutputCoefficients:
    """Populations and coherences of the M&M round-trip output.

    ``pop_low[s]``/``pop_high[s]`` are the diagonal weights at site s fed
    by the lower (|m_prime>) and upper (|m>) input component;
    ``coherence[j]`` couples sites j and j+delta with phase delta*phi.
    """

    spec: MmStateSpec
    eta: float
    pop_low: np.ndarray
    pop_high: np.ndarray
    coherence: np.ndarray

    @property
    def delta(self) -> int:
        return self.spec.delta


def mm_output_coefficients(spec: MmStateSpec, eta: float) -> MmOutputCoefficients:
    """Coefficient lists of the closed-form M&M output state.

    The loss prefactor for first-arm loss i and net index shift i-j is
    (1-eta)^(2i-j) * eta^(m-i+j).
    """
    _check_eta(eta)
    m, mp, delta = spec.m, spec.m_prime, spec.delta
    tbl = binomial_table(m)
    one_minus = 1.0 - eta

    def pref(i: int, j: int) -> float:
        return one_minus ** (2 * i - j) * eta ** (m - i + j)

    pop_low = np.zeros(m + 1)  # site j+delta <- alpha_j, j = -delta..mp
    for j in range(-delta, mp + 1):
        acc = 0.0
        for i in range(max(0, j), mp + 1):
            acc += pref(i, j) * tbl[mp, i] * tbl[i + delta, i - j]
        pop_low[j + delta] = acc / 2.0

    pop_high = np.zeros(m + 1)  # site j <- beta_j, j = 0..m
    for j in range(m + 1):
        acc = 0.0
        for i in range(j, m + 1):
            acc += pref(i, j) * tbl[m, i] * tbl[i, j]
        pop_high[j] = acc / 2.0

    coherence = np.zeros(mp + 1)  # gamma_j between sites j and j+delta
    for j in range(mp + 1):
        acc = 0.0
        for i in range(j, mp + 1):
            acc += pref(i, j) * math.sqrt(tbl[mp, i] * tbl[m, i] * tbl[i + delta, i - j] * tbl[i, j])
        coherence[j] = acc
    return MmOutputCoefficients(spec, eta, pop_low, pop_high, coherence)


def mm_state_output(
    spec: MmStateSpec, eta: float, phi: float, check: bool = True
) -> DensityMatrix:
    """Closed-form round-trip output for the M&M state (single round,
    equal transmissivity in both arms)."""
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    co = mm_output_coefficients(spec, eta)
    m, delta = spec.m, spec.delta
    sigma = np.diag((co.pop_low + co.pop_high).astype(complex))
    off = 0.5 * co.coherence * np.exp(-1j * delta * phi)
    for j in range(spec.m_prime + 1):
        sigma[j + delta, j] += off[j]
        sigma[j, j + delta] += off[j].conjugate()
    return DensityMatrix(sigma, check=check)


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
    """Closed-form vs oracle sweep outcome."""

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


def validate_closed_forms(
    max_m: int,
    eta_grid=(0.5, 0.9, 1.0),
    phi_grid=(0.0, 0.3, 1.2),
    tolerance: float = 1e-10,
    theta: float = 0.37,
) -> ValidationReport:
    """Compare both production outputs against the brute-force oracle on a grid.

    For every m <= max_m, every (eta, phi) cell is checked for the sine
    state and for a few M&M splittings.  The report records the worst
    elementwise deviation per cell and the overall argmax.
    """
    cells = []
    for m in range(1, max_m + 1):
        for eta in eta_grid:
            for phi in phi_grid:
                cfg = RoundTripConfig(phi, theta, eta, eta, m)
                oracle = roundtrip_oracle(optimal_phase_state(m), cfg)
                closed = optimal_state_output(m, eta, phi, check=False)
                cells.append(_dev_cell("rho", m, -1, eta, phi, closed, oracle))
                for mp in sorted({0, m // 2, m - 1}):
                    spec = MmStateSpec(m, mp)
                    oracle = roundtrip_oracle(mm_state(spec), cfg)
                    closed = mm_state_output(spec, eta, phi, check=False)
                    cells.append(_dev_cell("sigma", m, mp, eta, phi, closed, oracle))
    return ValidationReport(tuple(cells), tolerance)
