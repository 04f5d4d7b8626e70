"""The round-trip engine: every figure of a sweep row, on numpy alone.

A sweep row needs the input amplitudes (the sine state, or the
two-component state of an ``MmStateSpec``), the lag-space round trip
``_round_trip`` with the loss table of its transmissivity (the loss
amplitudes, built from the binomial table once per eta by the table
source ``_loss_tables`` and read by every row through its top-left
block), and the figures read off its lags: the sine-state RMS
curve with its minimiser and phase average (``_SineCurve``), the Holevo
dispersion, the propagated error of the two-component observable and the
shot-noise, Heisenberg and lossy-NOON baselines.  They live here, and
only here: ``sweep`` loads this module when its first row runs, and
``fock``, ``states``, ``protocol`` and ``estimation`` import from it the
names their own code uses.  No module loads ``dataclasses``: every value type
is an immutable named tuple, and one that checks its fields in ``__new__``
takes ``_Checked``, so that ``_replace`` checks them too.  Each kind of argument
has one check, here: ``_check_eta`` (transmissivity), ``_check_top`` (size or
count), ``_check_phase``.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple

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


def _check_top(m, name: str = "m", least: int = 1) -> None:
    try:
        operator.index(m)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {m!r}") from None
    if m < least:
        raise ValueError(f"{name} must be >= {least}")


def _check_phase(phi, name: str = "phi") -> None:
    if not math.isfinite(phi):
        raise ValueError(f"{name} must be finite")


class _Checked:
    """Mixin of a named tuple checked in ``__new__``: ``_make``, and so ``_replace``, runs it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class MmStateSpec(_Checked, namedtuple("MmStateSpec", "m m_prime")):
    """Parameters of the two-component state (|m> + |m_prime>)/sqrt(2)."""

    __slots__ = ()

    def __new__(cls, m: int, m_prime: int):
        _check_top(m_prime, "m_prime", least=0)
        _check_top(m)
        if not m > m_prime:
            raise ValueError(f"need m > m_prime >= 0, got ({m}, {m_prime})")
        return super().__new__(cls, m, m_prime)

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


def _loss_table(d: int, eta: float, binom=None) -> np.ndarray:
    """The loss table of eta: amp[a, c] = sqrt(C(c, a) eta^a (1-eta)^(c-a)), the
    amplitude of keeping a of c photons, C order with d rows, C from the top-left
    block of binom (a binomial_table of at least d rows; None builds one).
    (1-eta) is raised to each loss count once, and its powers are read through a
    Toeplitz view, so amp is the only d x d array built.  A round trip of any
    size up to d reads its top-left block, which equals the smaller table's bit
    for bit."""
    _check_rows(d)
    binom = (binomial_table(d - 1) if binom is None else binom)[:d, :d]
    n = np.arange(d)
    amp = np.multiply(binom.T, eta ** n[:, None], order="C")
    # row a of the view is (1-eta)^(c-a) for c >= a and 0 below, where C(c, a) is 0
    lost = np.concatenate((np.zeros(d - 1), (1.0 - eta) ** n))
    amp *= np.lib.stride_tricks.sliding_window_view(lost, d)[::-1]
    return np.sqrt(amp, out=amp)


def _loss_tables(top: int):
    """``table_for(eta)``, the loss table (amp) of eta for a sweep up to top index ``top``.
    A table's top-left block is the smaller table bit for bit, so each is built on
    first use for the largest row (capped at the binomial limit): a sweep over n
    builds one, and a sweep over eta one per row from one binomial table."""
    d = min(top + 1, _BINOM_OVERFLOW)
    binom = functools.cache(lambda: binomial_table(d - 1))
    return functools.lru_cache(maxsize=1)(lambda eta: _loss_table(d, eta, binom()))


def _occupied_lags(amps: np.ndarray) -> np.ndarray:
    """Lags k >= 0 on which |a><a| is non-zero: the autocorrelation of the
    amplitude support, in O(d) memory."""
    occ = (amps != 0).astype(float)
    return np.flatnonzero(np.convolve(occ, occ[::-1])[amps.size - 1 :])


_LOOP_MAX_LAGS = 64  # inputs on at most this many lags run the per-lag loop alone
_LOOP_LOW_LAGS = 2  # lags below this run the loop in every input: the trace and holevo's S
_LAG_BLOCK = 64  # lags per block, and rows of W_0 = amp^2 per product, of the blocked route


def _round_trip(amps: np.ndarray, eta: float, table=None) -> dict:
    """Lag diagonals of loss(reverse(loss(|a><a|))) for real amplitudes a:
    the round-trip output at phi = 0 with transmissivity eta in both arms,
    as {k: out[i, i+k] for i < d-k} over the lags k >= 0 that |a><a| occupies,
    through ``table``, the loss table amp of eta (``_loss_table``) with at
    least d rows; None builds one of d rows.

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
    The blocked route squares amp's d x d block once, for W_0 = amp^2, and
    the loop's last bits follow the table's memory order, which is why the
    table is C order at every d.
    """
    d = amps.size
    if table is None:
        table = _loss_table(d, eta)
    ks = _occupied_lags(amps)
    split = ks.size if ks.size <= _LOOP_MAX_LAGS else np.searchsorted(ks, _LOOP_LOW_LAGS)
    lags = {k: _lag_round_trip(amps, table, k) for k in map(int, ks[:split])}
    if split < ks.size:
        lags.update(_blocked_round_trip(amps, eta, np.square(table[:d, :d]), ks[split:]))
    return lags


def _lag_round_trip(amps: np.ndarray, table: np.ndarray, k: int) -> np.ndarray:
    """Lag k of ``_round_trip`` through its own W_k[i, j] = amp[i, j] amp[i+k, j+k],
    from the loss table amp; at k = 0 the product is amp^2 bit for bit."""
    d = amps.size
    w = table[: d - k, : d - k] * table[k:d, k:d]
    return w @ (w @ (amps[: d - k] * amps[k:]))[::-1]


def _blocked_round_trip(amps: np.ndarray, eta: float, w0: np.ndarray, ks: np.ndarray) -> dict:
    """The lags ks (ascending) of ``_round_trip``, _LAG_BLOCK at a time, as a
    (lags, rows) block over the rows of its lowest lag, zero past each lag's
    end: the two loss legs (``_loss_leg``) with W_0 = amp^2 as w0, which the
    caller squares from the table's d x d block once, and between them the
    reversal, which sends row i of lag k to row d-k-1-i.

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


class MmErrorTerms(_Checked, namedtuple("MmErrorTerms", "mean_square coherence delta")):
    """Scalar ingredients of the closed-form error propagation.

    ``mean_square`` is the expected square of the hopping observable and
    ``coherence`` the amplitude of its cos(delta*phi) mean oscillation;
    neither depends on phi.
    """

    __slots__ = ()

    def __new__(cls, mean_square: float, coherence: float, delta: int):
        if not mean_square >= 0.0:  # written so that NaN fails too
            raise ValueError("mean_square must be non-negative")
        if not abs(coherence) <= 1.0 + 1e-12:
            raise ValueError("coherence amplitude cannot exceed 1")
        return super().__new__(cls, mean_square, coherence, delta)


def _mm_error_terms(spec: MmStateSpec, lags: dict) -> MmErrorTerms:
    """Error-propagation ingredients from the lags of the round-trip output:
    MS sums the observable's site populations, C twice the lag-delta sum."""
    populations, delta = lags[0], spec.delta
    mean_square = 0.0
    for k in range(spec.m_prime + 1):
        mean_square += populations[k] + populations[k + delta]
    return MmErrorTerms(float(mean_square), float(2.0 * lags[delta].sum()), delta)


def _propagated_error(mean_square: float, coherence: float, delta: int, phi: float) -> float:
    _check_phase(phi)
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


class Baselines(namedtuple("Baselines", "shot_noise heisenberg noon_error")):
    """Reference phase errors at mean photon number n and transmissivity eta;
    ``noon_error`` is None unless n is within 1e-9 (a sweep's top-index
    tolerance) of an integer, since no NOON state has a fractional n."""

    __slots__ = ()


def noon_phase_error(n: int, eta: float, phi: float) -> float:
    """Propagated error of the lossy two-mode NOON probe at phase phi.

    The parity-type observable has mean eta^n cos(n*phi) and unit-scaled
    square eta^n, minimized at n*phi = pi/2 where the error becomes
    1/(n * eta^(n/2)).
    """
    _check_top(n, "n")
    _check_eta(eta)
    return _propagated_error(eta**n, eta**n, n, phi)


def baselines(n: float, eta: float) -> Baselines:
    """Shot-noise, Heisenberg and minimized lossy-NOON reference errors; the
    NOON error is inf where n eta^(n/2) underflows, as it is above every double."""
    if not 1 <= n < math.inf:  # written so that NaN fails too
        raise ValueError(f"n must be finite and >= 1, got {n!r}")
    _check_eta(eta)
    noon = None
    if abs(n - round(n)) <= 1e-9:
        factor = n * eta ** (n / 2.0)
        noon = 1.0 / factor if factor else math.inf
    return Baselines(shot_noise=1.0 / math.sqrt(n * eta), heisenberg=1.0 / n, noon_error=noon)


TWO_PI = 2.0 * math.pi

SLOPE_SAMPLES = 64  # slope samples across the half-cell that bracket the minimiser
PHASE_BLOCK_ELEMENTS = 64 * 301  # phases x lags per RMS evaluation; bounds the block's arrays


class _SineCurve:
    """The sine-state error curve, from the lag sums of the phi = 0 output.

    The output at phase phi differs from the phi=0 output only by Fock
    phases, so the whole outcome distribution is a short Fourier series
    in phi + Phi_l whose coefficients c_k are the lag-k diagonal sums of
    the phi=0 output.  Those sums are real, so the RMS is even in phi
    and, with d = m+1 outcomes, 2*pi/d-periodic: its minimisers come as
    +-phi* + 2*pi*l/d, and the half-cell [0, pi/d] holds one of them.
    The RMS and its slope are both read on that half-cell from one
    closed-form series in the c_k, so no outcome probability is formed.
    """

    def __init__(self, m: int, eta: float, table: np.ndarray):
        # summed as complex, like np.sum over a complex diagonal: a real sum pairs
        # the terms differently, and min_rms at N = 28 of the default sweep moves
        diagonals = _round_trip(_sine_amplitudes(m), eta, table).values()
        sums = [lag.sum(dtype=complex).real for lag in diagonals]
        self.d = d = m + 1
        self.lags = lags = np.arange(1, d)
        self.trace, self.lag_sums = float(sums[0]), np.array(sums[1:])

        # On the half-cell no outcome crosses distance pi, so outcome l deviates
        # by e_l - phi with e_l = 2*pi*s/d, s = -l wrapped into (-d/2, d/2].  Then
        #   rms^2 = T (<e^2> - 2 phi <e> + phi^2) + (2/d) Re sum_k c_k e^{ik phi} (B_k - 2 phi A_k)
        # with A_k, B_k = sum_l (e_l, e_l^2) e^{2 pi i k l/d}, summed in closed form
        # so that the RMS and its slope keep their accuracy where rms^2 is flattest.
        sin = np.sin(np.pi * lags / d)
        cot = np.cos(np.pi * lags / d) / sin
        sign = 1 - 2 * (lags % 2)
        if d % 2:
            first, second = 1j / sin, cot / sin
        else:
            first, second = 1.0 + 1j * cot, 1.0 / sin**2
        a_k = np.pi * sign * first
        b_k = 2.0 * np.pi**2 / d * sign * second
        # the value series' coefficients (B_k, -2 A_k) as reals: rows 2k and 2k+1
        # hold their Re and -Im, so (c_k cos(k phi), c_k sin(k phi)) against them
        # is Re(c_k e^{ik phi} (B_k, -2 A_k))
        value = np.stack([b_k, -2.0 * a_k], axis=1)
        self.value_pairs = np.stack([value.real, -value.imag], axis=1).reshape(-1, 2)
        self.slope_coeffs = np.stack([1j * lags * b_k - 2.0 * a_k, -2j * lags * a_k], axis=1)
        self.mean_offset = 0.0 if d % 2 else np.pi / d  # <e>: the outcome at +pi
        # <e^2>, from the mean of s^2: (d^2 - 1)/12 for odd d, (d^2 + 2)/12 for even d
        self.mean_square_offset = np.pi**2 * (d * d + (-1 if d % 2 else 2)) / (3 * d * d)

    def _phased(self, phis: np.ndarray) -> np.ndarray:
        """Lag sums of the output at each phase, c_k e^{ik phi}: shape phis.shape + (d-1,)."""
        return self.lag_sums * np.exp(1j * phis[..., None] * self.lags)

    def rms(self, phis) -> np.ndarray:
        """Circular RMS of the outcome estimates at each phase in phis."""
        cell = TWO_PI / self.d
        phis = np.asarray(phis, dtype=float) % cell
        phis = np.minimum(phis, cell - phis)  # folded onto the half-cell [0, pi/d]
        # Re of the series in real arithmetic: cos and sin are bit for bit the parts
        # of exp(i k phi), and each k's two products are summed next to each other,
        # as in a complex product (two separate sums move printed min_rms digits)
        angles = phis[..., None] * self.lags
        pairs = self.lag_sums[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        series = pairs.reshape(*phis.shape, -1) @ self.value_pairs
        return np.sqrt(
            self.trace * (self.mean_square_offset - 2.0 * phis * self.mean_offset + phis**2)
            + 2.0 / self.d * (series[..., 0] + phis * series[..., 1])
        )

    def rms2_slope(self, phis) -> np.ndarray:
        """phi-derivative of rms**2 at phases in [0, pi/d], one-sided at the ends."""
        phis = np.asarray(phis, dtype=float)
        series = (self._phased(phis) @ self.slope_coeffs).real
        return (
            2.0 * self.trace * (phis - self.mean_offset)
            + 2.0 / self.d * (series[:, 0] + phis * series[:, 1])
        )

    def folded_argmin(self) -> float:
        """The minimiser of the RMS folded into [0, pi/d].

        rms**2 is smooth on the open half-cell and stationary at its ends
        by symmetry, except at phi = 0 for even d: there the outcome at
        distance pi makes a kink, off which rms**2 falls with slope
        -2*pi*p(pi) (no fall when that outcome is never seen, as at
        eta = 1).  Comparing values is ill-conditioned on so flat a curve,
        so the minimiser is located from the sign of the slope.  On every
        curve examined (all m <= 40, spot checks up to m = 301) the slope
        changes sign at most once on the half-cell, so the first of
        SLOPE_SAMPLES samples where rms**2 rises brackets the minimiser,
        and bisection on the sign narrows the bracket to adjacent floats.
        A rise from phi = 0 on is the lattice point, reported as exactly 0.
        """
        d = self.d
        half = math.pi / d
        xs = half * (np.arange(SLOPE_SAMPLES) + 0.5) / SLOPE_SAMPLES
        rising = self.rms2_slope(xs) > 0.0
        if not rising.any():
            return half
        k = int(np.argmax(rising))
        if k:
            lo = float(xs[k - 1])
        else:
            # a fall off the kink counts only above the rounding bound of its sum
            scale = 2.0 * self.trace * self.mean_offset
            scale += 2.0 / d * float(np.abs(self.lag_sums * self.slope_coeffs[:, 0]).sum())
            if self.rms2_slope([0.0])[0] >= -d * np.finfo(float).eps * scale:
                return 0.0
            lo = 0.0
        hi = float(xs[k])
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if self.rms2_slope([mid])[0] > 0.0:
                hi = mid
            else:
                lo = mid
        return hi


def _folded_grid(d: int, points: int) -> tuple:
    """The distinct phases that the grid 2*pi*j/points (j < points) folds onto
    in the half-cell [0, pi/d], and how many grid points fold onto each.

    Point j sits at (2*pi/d) * r/points in its cell, r = j*d mod points, and
    folds to (2*pi/d) * f/points with f = min(r, points - r).
    """
    r = np.arange(points) * d % points
    counts = np.bincount(np.minimum(r, points - r))
    f = np.flatnonzero(counts)
    return TWO_PI / d * f / points, counts[f].astype(float)


def _optimal_fast_row(m: int, eta: float, grid_points: int, table: np.ndarray):
    """Error figures for the sine state from the lag sums of its phi = 0 output.

    The reported phase is the minimiser folded into [0, pi/(m+1)] (see
    ``_SineCurve.folded_argmin``); every minimiser is
    +-argmin_phi + 2*pi*l/(m+1).  ``min_rms`` is the RMS there, not the
    lowest scan sample, which rounding noise biases low; ``avg_rms`` is
    the mean over ``grid_points`` equally spaced phases of one period,
    summed over the distinct phases they fold onto in the half-cell, each
    weighted by the number of them that ``_folded_grid`` counts there, and
    evaluated in blocks of at most PHASE_BLOCK_ELEMENTS (phases x lags).
    """
    curve = _SineCurve(m, eta, table)
    phases, weights = _folded_grid(curve.d, grid_points)
    block = max(1, PHASE_BLOCK_ELEMENTS // curve.d)
    avg = float(np.concatenate([
        curve.rms(phases[i : i + block]) for i in range(0, phases.size, block)
    ]) @ weights) / grid_points
    phi_star = curve.folded_argmin()
    holevo = _holevo_dispersion(abs(float(curve.lag_sums[0])))
    return float(curve.rms(phi_star)), phi_star, avg, holevo


def _mm_row(spec: MmStateSpec, eta: float, table: np.ndarray):
    """Least propagated error of the two-component state, and its phase.

    The mean square MS and coherence C of the observable do not depend on
    phi, and the error sqrt(MS - C**2 + (C sin)**2) / (delta |C sin|), with
    sin = sin(delta*phi), falls as |sin| grows: it is least, sqrt(MS)/(delta |C|),
    at pi/(2*delta), the minimiser folded into [0, pi/(2*delta)] (and reported
    by convention where the curve is flat, as at eta = 1).
    """
    phi_star = math.pi / (2 * spec.delta)
    terms = _mm_error_terms(spec, _round_trip(_mm_amplitudes(spec), eta, table))
    return mm_phase_error_closed(terms, phi_star), phi_star
