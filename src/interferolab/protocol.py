"""Round-trip protocol: brute-force channel composition and the production engine.

One round sends the state through the sampling arm (phase phi + theta,
loss eta1), applies the index-reversal unitary, and returns it through
the reference arm (phase theta, loss eta2).  ``_kraus_round_trip`` plays
this out with explicit Kraus sums on a stack of density matrices, given the
two arms' Kraus stacks, which its callers build where they use them; its
one-matrix case, ``roundtrip_oracle``, is the ground truth here.  The
engine, ``_round_trip``, returns only the output's lag diagonals (n - n' = k)
that the input occupies, as {k: lag}, O(d) numbers each: by a loop over the
lags for an input on few lags, and for a larger one by products of 64 lags
at a time with the binomial loss matrix, one per loss leg.  Its binomials do
not depend on eta, so a sweep builds one table for all of its rows; the
public functions build their own, and ``optimal_state_output`` and
``mm_state_output`` assemble d x d matrices from the lags.  Each call runs
one round trip, so a phase scan should apply each phase to one phi = 0 output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    DensityMatrix,
    FockVector,
    _check_density,
    _check_eta,
    _kraus_sum,
    _phased,
    binomial_table,
    loss_channel,
    permutation_unitary,
)
from .states import MmStateSpec, _mm_amplitudes, _sine_amplitudes


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
    return DensityMatrix(roundtrip_step(state.to_density(), cfg).mat, check=True)


_BINOM_OVERFLOW = 1030  # binomials of this n and above overflow double


def _loss_amplitudes(d: int, eta: float, binom=None) -> np.ndarray:
    """amp[a, c] = sqrt(C(c, a) eta^a (1-eta)^(c-a)), the amplitude of keeping a of
    c photons, C from the top-left block of binom (a binomial_table of at least d
    rows; None builds one).  (1-eta) is raised to each loss count once."""
    if d > _BINOM_OVERFLOW:  # raised before anything d x d is built
        raise ValueError(f"loss amplitudes are non-finite: binomials of {_BINOM_OVERFLOW} overflow")
    binom = (binomial_table(d - 1) if binom is None else binom)[:d, :d]
    n = np.arange(d)
    kept, lost = n[:, None], np.maximum(n[None, :] - n[:, None], 0)
    return np.sqrt(binom.T * eta**kept * ((1.0 - eta) ** n)[lost])


def _occupied_lags(amps: np.ndarray) -> np.ndarray:
    """Lags k >= 0 on which |a><a| is non-zero: the autocorrelation of the
    amplitude support, in O(d) memory."""
    occ = (amps != 0).astype(float)
    return np.flatnonzero(np.convolve(occ, occ[::-1])[amps.size - 1 :])


_LOOP_MAX_LAGS = 64  # inputs on at most this many lags run the per-lag loop alone
_LOOP_LOW_LAGS = 2  # lags below this run the loop in every input: the trace and holevo's S
_LAG_BLOCK = 64  # lags per block, and rows of W_0 per product, of the blocked route


def _round_trip(amps: np.ndarray, eta: float, binom=None) -> dict:
    """Lag diagonals of loss(reverse(loss(|a><a|))) for real amplitudes a:
    the round-trip output at phi = 0 with transmissivity eta in both arms,
    as {k: out[i, i+k] for i < d-k} over the lags k >= 0 that |a><a| occupies,
    with loss amplitudes from ``binom`` (see ``_loss_amplitudes``).

    Loss keeps lags apart: lag k of its output is W_k @ (lag k of its input)
    with W_k[i, j] = amp[i, j] amp[i+k, j+k].  The output is real and
    symmetric, so the reversal maps lag k to lag k read backwards.  Lags
    below 0 mirror lags above 0.

    An input on at most _LOOP_MAX_LAGS lags (the M&M states, the validation
    gate, the sine state up to m = 63) runs one lag at a time, each with its
    own W_k (``_lag_round_trip``).  A larger one runs only its lags below
    _LOOP_LOW_LAGS that way, and the rest _LAG_BLOCK at a time in
    ``_blocked_round_trip``, which is faster from about 20 lags on but
    rounds differently: run on every input, it moves bits of the validation
    report, and on the lowest lags, last digits of large sweeps' CSV cells.
    """
    d = amps.size
    amp = _loss_amplitudes(d, eta, binom)
    ks = _occupied_lags(amps)
    split = ks.size if ks.size <= _LOOP_MAX_LAGS else np.searchsorted(ks, _LOOP_LOW_LAGS)
    lags = {k: _lag_round_trip(amps, amp, k) for k in map(int, ks[:split])}
    if split < ks.size:
        amp = np.square(amp, order="C")  # W_0 in one memory order: numpy's for amp flips at d = 182
        lags.update(_blocked_round_trip(amps, eta, amp, ks[split:]))
    return lags


def _lag_round_trip(amps: np.ndarray, amp: np.ndarray, k: int) -> np.ndarray:
    """Lag k of ``_round_trip`` through its own W_k[i, j] = amp[i, j] amp[i+k, j+k]."""
    d = amps.size
    w = amp[: d - k, : d - k] * amp[k:, k:]
    return w @ (w @ (amps[: d - k] * amps[k:]))[::-1]


def _blocked_round_trip(amps: np.ndarray, eta: float, w0: np.ndarray, ks: np.ndarray) -> dict:
    """The lags ks (ascending) of ``_round_trip``, _LAG_BLOCK at a time, as a
    (lags, rows) block over the rows of its lowest lag, zero past each lag's
    end: the two loss legs (``_loss_leg``) with W_0 = w0, and between them
    the reversal, which sends row i of lag k to row d-k-1-i.

    The legs scale lag k's row i by exp(g_k(i) - c_k), with g_k(n) =
    ln((n+k)! / n!) / 2 from cumulative log sums and c_k the middle of g_k's
    range, (g_k(0) + g_k(d-1-k)) / 2, so that every factor stays within
    exp(+-178) up to d = 1030.  Rows past a lag's end repeat its last factor."""
    d = amps.size
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, d)))))  # ln n!
    padded = np.concatenate((amps, np.zeros(d)))
    lags = {}
    for start in range(0, ks.size, _LAG_BLOCK):
        block = ks[start : start + _LAG_BLOCK, None]
        i = np.arange(d - block[0, 0])
        last = np.minimum(i, d - 1 - block)
        g = 0.5 * (lf[last + block] - lf[last]) - 0.25 * (lf[block] + lf[d - 1] - lf[d - 1 - block])
        scale = np.exp(g)
        x = _loss_leg(w0, eta, block, scale, amps[i] * padded[i + block])
        for row, k in zip(x, block[:, 0]):
            row[: d - k] = row[d - k - 1 :: -1]
        x = _loss_leg(w0, eta, block, scale, x)
        lags.update((k, row[: d - k]) for k, row in zip(map(int, block[:, 0]), x))
    return lags


def _loss_leg(w0: np.ndarray, eta: float, ks: np.ndarray, scale: np.ndarray, x: np.ndarray):
    """Loss eta on the block x of lag vectors (x[c] on lag ks[c], zero past
    its end), with W_0 = w0 for eta and scale[c] = exp(g_k - c_k), since

        W_k[i, j] = W_0[i, j] eta^(k/2) exp(g_k(j) - g_k(i)).

    W_0 is upper triangular (loss never adds photons), so each panel of
    _LAG_BLOCK rows multiplies only the columns from its first row on; the
    panels also keep OpenBLAS's packed copy of W_0 to one panel."""
    n = x.shape[1]
    w = w0[:n, :n]
    x = scale * x
    y = np.empty_like(x)
    for r in range(0, n, _LAG_BLOCK):
        y[:, r : r + _LAG_BLOCK] = x[:, r:] @ w[r : r + _LAG_BLOCK, r:].T
    return eta ** (ks / 2) / scale * y


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
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_eta(eta)
    return _output_matrix(_round_trip(_sine_amplitudes(m), eta), phi, check)


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


_VALIDATION_TOLERANCE = 1e-10
_VALIDATION_THETA = 0.37  # arm phase of the oracle runs, which the round trip cancels
_VALIDATION_ETAS = (0.5, 0.9, 1.0)
_VALIDATION_PHIS = (0.0, 0.3, 1.2)


def validate_closed_forms(max_m: int) -> ValidationReport:
    """Compare both production outputs against the brute-force oracle on a grid:
    every (eta, phi) cell of every m <= max_m, for the sine state and a few M&M
    splittings, recording the worst elementwise deviation per cell.  Each (m, eta)
    runs one lag round trip per state, whose lags serve every phase, and one Kraus
    round trip on the stack of its states at all phases, checked at once, with one
    loss channel built for both arms."""
    binom = binomial_table(max_m)
    phis = np.array(_VALIDATION_PHIS)[:, None]  # the stack: phases down, states across
    cells = []
    for m in range(1, max_m + 1):
        specs = [MmStateSpec(m, mp) for mp in sorted({0, m // 2, m - 1})]
        forms = [("rho", -1)] + [("sigma", spec.m_prime) for spec in specs]
        for eta in _VALIDATION_ETAS:
            amps = [_sine_amplitudes(m)] + [_mm_amplitudes(spec) for spec in specs]
            kets = np.array(amps, dtype=complex)
            loss = loss_channel(eta, m + 1).kraus
            oracle = _kraus_round_trip(kets[:, :, None] * kets[:, None, :].conj(), phis,
                                       _VALIDATION_THETA, loss, loss)
            _check_density(oracle)
            lags = [_round_trip(a, eta, binom) for a in amps]
            closed = [[_output_matrix(lag, phi, False).mat for lag in lags]
                      for phi in _VALIDATION_PHIS]
            for phi, devs in zip(_VALIDATION_PHIS, np.abs(closed - oracle)):
                for (form, mp), dev in zip(forms, devs):
                    i, j = divmod(int(dev.argmax()), m + 1)
                    cells.append(ValidationCell(form, m, mp, eta, phi, float(dev[i, j]), (i, j)))
    return ValidationReport(tuple(cells), _VALIDATION_TOLERANCE)
