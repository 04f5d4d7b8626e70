"""The round-trip engine: everything a sweep row computes, on numpy alone.

A sweep row needs the input amplitudes (the sine state, or the
two-component state of an ``MmStateSpec``), the lag-space round trip
``_round_trip`` with the loss table of its transmissivity (the loss
amplitudes and their square, built from the binomial table once per eta
and read by every row through its top-left block), and the figures read
off its lags: the Holevo dispersion, the propagated error of the
two-component observable and the shot-noise, Heisenberg and lossy-NOON
baselines.  They live here, and only here, so that a sweep loads only
this module; ``fock``, ``states``, ``protocol`` and ``estimation`` import
from it the names their own code uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest n for which binomials are taken from exact integer arithmetic;
# above this they come from log-gamma to avoid overflow.
_EXACT_BINOM_MAX = 60


def binomial_table(nmax: int) -> np.ndarray:
    """Dense table t[a, b] = C(a, b) for 0 <= a, b <= nmax (a fresh array).

    Rows up to _EXACT_BINOM_MAX are exact integers rounded once; only the
    rows above them are evaluated through log-gamma, so the top-left block
    of a table equals the smaller table bit for bit.
    """
    t = np.zeros((nmax + 1, nmax + 1))
    top = min(nmax, _EXACT_BINOM_MAX)
    for a in range(top + 1):
        t[a, : a + 1] = [math.comb(a, b) for b in range(a + 1)]
    if nmax > _EXACT_BINOM_MAX:
        lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, nmax + 1)))))
        a = np.arange(top + 1, nmax + 1)[:, None]
        b = np.arange(nmax + 1)[None, :]
        big = np.exp(lf[a] - lf[np.minimum(b, a)] - lf[np.maximum(a - b, 0)])
        big[b > a] = 0.0
        t[top + 1 :] = big
    return t


def _check_eta(eta: float) -> None:
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"transmissivity must be in (0, 1], got {eta!r}")


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


def _sine_amplitudes(m: int) -> np.ndarray:
    return math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * (np.arange(m + 1) + 0.5) / (m + 1))


def _mm_amplitudes(spec: MmStateSpec) -> np.ndarray:
    amps = np.zeros(spec.m + 1)
    amps[spec.m] = amps[spec.m_prime] = 1.0 / math.sqrt(2.0)
    return amps


_BINOM_OVERFLOW = 1030  # binomials of this n and above overflow double


def _check_rows(d: int) -> None:
    if d > _BINOM_OVERFLOW:  # raised before anything d x d is built
        raise ValueError(f"loss amplitudes are non-finite: binomials of {_BINOM_OVERFLOW} overflow")


def _loss_table(d: int, eta: float, binom=None) -> tuple:
    """The loss table of eta: the pair (amp, W_0), amp[a, c] = sqrt(C(c, a) eta^a
    (1-eta)^(c-a)), the amplitude of keeping a of c photons, and W_0 its square,
    both C order with d rows, C from the top-left block of binom (a binomial_table
    of at least d rows; None builds one).  (1-eta) is raised to each loss count
    once, and its powers are read through a Toeplitz view, so amp and W_0 are the
    only d x d arrays built.  A round trip of any size up to d reads their
    top-left blocks, which equal the smaller table's bit for bit."""
    _check_rows(d)
    binom = (binomial_table(d - 1) if binom is None else binom)[:d, :d]
    n = np.arange(d)
    amp = np.multiply(binom.T, eta ** n[:, None], order="C")
    # row a of the view is (1-eta)^(c-a) for c >= a and 0 below, where C(c, a) is 0
    lost = np.concatenate((np.zeros(d - 1), (1.0 - eta) ** n))
    amp *= np.lib.stride_tricks.sliding_window_view(lost, d)[::-1]
    np.sqrt(amp, out=amp)
    return amp, np.square(amp)


def _occupied_lags(amps: np.ndarray) -> np.ndarray:
    """Lags k >= 0 on which |a><a| is non-zero: the autocorrelation of the
    amplitude support, in O(d) memory."""
    occ = (amps != 0).astype(float)
    return np.flatnonzero(np.convolve(occ, occ[::-1])[amps.size - 1 :])


_LOOP_MAX_LAGS = 64  # inputs on at most this many lags run the per-lag loop alone
_LOOP_LOW_LAGS = 2  # lags below this run the loop in every input: the trace and holevo's S
_LAG_BLOCK = 64  # lags per block, and rows of W_0 per product, of the blocked route


def _round_trip(amps: np.ndarray, eta: float, table=None) -> dict:
    """Lag diagonals of loss(reverse(loss(|a><a|))) for real amplitudes a:
    the round-trip output at phi = 0 with transmissivity eta in both arms,
    as {k: out[i, i+k] for i < d-k} over the lags k >= 0 that |a><a| occupies,
    through ``table``, the loss table of eta (``_loss_table``) with at least
    d rows; None builds one of d rows.

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
    Both routes read W_0 from the table rather than squaring amp, and the
    loop's last bits follow the table's memory order, which is why the
    table is C order at every d.
    """
    d = amps.size
    _check_rows(d)  # a shared table stops at the limit; a larger row fails here
    if table is None:
        table = _loss_table(d, eta)
    ks = _occupied_lags(amps)
    split = ks.size if ks.size <= _LOOP_MAX_LAGS else np.searchsorted(ks, _LOOP_LOW_LAGS)
    lags = {k: _lag_round_trip(amps, table, k) for k in map(int, ks[:split])}
    if split < ks.size:
        lags.update(_blocked_round_trip(amps, eta, table[1], ks[split:]))
    return lags


def _lag_round_trip(amps: np.ndarray, table: tuple, k: int) -> np.ndarray:
    """Lag k of ``_round_trip`` through its own W_k[i, j] = amp[i, j] amp[i+k, j+k],
    read from the loss table (amp, W_0) as W_0's block at k = 0."""
    d = amps.size
    amp, w0 = table
    w = w0[:d, :d] if k == 0 else amp[: d - k, : d - k] * amp[k:d, k:d]
    return w @ (w @ (amps[: d - k] * amps[k:]))[::-1]


def _blocked_round_trip(amps: np.ndarray, eta: float, w0: np.ndarray, ks: np.ndarray) -> dict:
    """The lags ks (ascending) of ``_round_trip``, _LAG_BLOCK at a time, as a
    (lags, rows) block over the rows of its lowest lag, zero past each lag's
    end: the two loss legs (``_loss_leg``) with W_0 from w0's top-left block,
    and between them the reversal, which sends row i of lag k to row d-k-1-i.

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


def _holevo_dispersion(s: float) -> float:
    """(S^-2 - 1)^(1/2) for the coherence sum S; +inf at S = 0."""
    return math.sqrt(max(s**-2 - 1.0, 0.0)) if s else math.inf


@dataclass(frozen=True)
class MmErrorTerms:
    """Scalar ingredients of the closed-form error propagation.

    ``mean_square`` is the expected square of the hopping observable and
    ``coherence`` the amplitude of its cos(delta*phi) mean oscillation;
    neither depends on phi.
    """

    mean_square: float
    coherence: float
    delta: int

    def __post_init__(self):
        if not self.mean_square >= 0.0:  # written so that NaN fails too
            raise ValueError("mean_square must be non-negative")
        if not abs(self.coherence) <= 1.0 + 1e-12:
            raise ValueError("coherence amplitude cannot exceed 1")


def _mm_error_terms(spec: MmStateSpec, lags: dict) -> MmErrorTerms:
    """Error-propagation ingredients from the lags of the round-trip output:
    MS sums the observable's site populations, C twice the lag-delta sum."""
    populations, delta = lags[0], spec.delta
    mean_square = 0.0
    for k in range(spec.m_prime + 1):
        mean_square += populations[k] + populations[k + delta]
    return MmErrorTerms(float(mean_square), float(2.0 * lags[delta].sum()), delta)


def _propagated_error(mean_square: float, coherence: float, delta: int, phi: float) -> float:
    # variance at the working point, written as (MS - C^2) + C^2 sin^2 to
    # avoid the 1 - cos^2 cancellation that otherwise poisons eta -> 1
    sin = math.sin(delta * phi)
    slope = delta * abs(coherence * sin)
    if slope == 0.0:
        return math.inf
    var = max(mean_square - coherence**2, 0.0) + (coherence * sin) ** 2
    return math.sqrt(var) / slope


def mm_phase_error_closed(terms: MmErrorTerms, phi: float) -> float:
    """Propagated phase error sqrt(MS - cos^2 * C^2) / (delta |sin * C|) at phase phi."""
    return _propagated_error(terms.mean_square, terms.coherence, terms.delta, phi)


@dataclass(frozen=True)
class Baselines:
    """Reference phase errors at mean photon number n and transmissivity eta."""

    shot_noise: float
    heisenberg: float
    noon_error: float


def noon_phase_error(n: int, eta: float, phi: float) -> float:
    """Propagated error of the lossy two-mode NOON probe at phase phi.

    The parity-type observable has mean eta^n cos(n*phi) and unit-scaled
    square eta^n, minimized at n*phi = pi/2 where the error becomes
    1/(n * eta^(n/2)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_eta(eta)
    return _propagated_error(eta**n, eta**n, n, phi)


def baselines(n: float, eta: float) -> Baselines:
    """Shot-noise, Heisenberg and minimized lossy-NOON reference errors."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_eta(eta)
    return Baselines(
        shot_noise=1.0 / math.sqrt(n * eta),
        heisenberg=1.0 / n,
        noon_error=1.0 / (n * eta ** (n / 2.0)),
    )
