"""Measurement statistics and phase-error figures.

Covers the discrete Pegg-Barnett outcome distribution and its circular
RMS, the Holevo variance of the continuous phase distribution, the
two-component hopping observable with error propagation (its sums read
off the round trip's lags, the phase given per call), the reference
phase scanner, and the lossy-NOON brute force.  The closed forms a sweep
row reads (the Holevo dispersion of a coherence sum, the two-component
error terms, the shot-noise / Heisenberg / lossy-NOON baselines) live in
``engine``.  The NOON brute force builds its observable and one loss channel
per call, and applies the channel to each arm's indices in turn.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple

import numpy as np

from .engine import (
    MmErrorTerms,
    MmStateSpec,
    _check_phase,
    _check_top,
    _holevo_dispersion,
    _mm_error_terms,
    _propagated_error,
    baselines,  # unused: bench/layers.py traces it here and bench/verify.py imports it from here
)
from .fock import DensityMatrix, _ArrayOwner, expectation, loss_channel
from .protocol import mm_output_coefficients, optimal_state_output
from .states import noon_state, two_mode_phase

PROB_SUM_TOL = 1e-10
PROB_NEG_TOL = -1e-12

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
REFINE_TOL = 1e-6  # phase tolerance of the golden-section refinement


class OutcomeDistribution(_ArrayOwner, namedtuple("OutcomeDistribution", "probs true_phi")):
    """Probabilities of the d discrete phase outcomes, d = probs.size.

    Outcome l sits at measurement phase 2*pi*l/d and estimates the
    interferometer phase as the negative of that value (mod 2*pi);
    ``true_phi`` records the phase actually imprinted on the state.
    """

    __slots__ = ()

    def __new__(cls, probs, true_phi: float):
        probs = np.asarray(probs, dtype=float).reshape(-1)
        total = float(probs.sum())
        if not abs(total - 1.0) <= PROB_SUM_TOL:  # written so that NaN fails too
            raise ValueError(f"probabilities sum to {total!r}")
        if not float(probs.min()) >= PROB_NEG_TOL:
            raise ValueError(f"negative probability {probs.min()!r}")
        _check_phase(true_phi, "true_phi")
        probs = np.clip(probs, 0.0, None)
        probs.setflags(write=False)
        return super().__new__(cls, probs, float(true_phi))

    @property
    def outcome_phases(self) -> np.ndarray:
        d = self.probs.size
        return 2.0 * np.pi * np.arange(d) / d

    @property
    def estimates(self) -> np.ndarray:
        return (-self.outcome_phases) % (2.0 * np.pi)


def povm_distribution(rho: DensityMatrix, true_phi: float = 0.0) -> OutcomeDistribution:
    """Project rho onto the rho.dim discrete phase states.

    p(l) = <Phi_l| rho |Phi_l>; the projectors resolve the truncated
    space, so the probabilities sum to one.
    """
    d = rho.dim
    n = np.arange(d)
    basis = np.exp(1j * np.outer(n, 2.0 * np.pi * n / d))  # column l = |Phi_l>
    probs = np.einsum("nl,nm,ml->l", basis.conj(), rho.mat, basis).real / d
    return OutcomeDistribution(probs, true_phi)


def optimal_outcome_distribution(m: int, eta: float, phi: float) -> OutcomeDistribution:
    """Outcome distribution of the sine-state round trip at phase phi:
    the round-trip output projected onto the discrete phase states."""
    return povm_distribution(optimal_state_output(m, eta, phi, check=False), phi)


def circular_distance(a, b):
    """Minimal distance between angles, elementwise, in [0, pi]."""
    return np.abs(np.mod(np.asarray(a) - np.asarray(b) + np.pi, 2.0 * np.pi) - np.pi)


def circular_rms(dist: OutcomeDistribution) -> float:
    """RMS spread of the outcome estimates around the true phase."""
    dev = circular_distance(dist.estimates, dist.true_phi)
    return float(math.sqrt(dist.probs @ dev**2))


def holevo_variance(rho: DensityMatrix) -> float:
    """Holevo phase dispersion (S^-2 - 1)^(1/2) of the continuous
    phase-state distribution.

    Integrating exp(i*Phi) against that distribution collapses to the
    sum of the first off-diagonal of rho, so S = |sum_n <n+1|rho|n>|.
    Returns +inf for states with no first-neighbor coherence.
    """
    return _holevo_dispersion(abs(complex(np.sum(np.diagonal(rho.mat, offset=-1)))))


def mm_observable(m: int, m_prime: int) -> np.ndarray:
    """Hopping observable pairing |m-k> with |m_prime-k| for k = 0..m_prime.

    Symmetric 0/1 matrix on the m+1 levels |0>..|m>.  When
    m - m_prime <= m_prime the two index families overlap and the dyads
    chain instead of forming disjoint two-level blocks; that regime is
    built literally but flagged.
    """
    MmStateSpec(m, m_prime)  # checks both counts and their order
    if m - m_prime <= m_prime:
        warnings.warn(
            "index families overlap (delta <= m_prime); observable chains basis states",
            stacklevel=2,
        )
    a = np.zeros((m + 1, m + 1))
    for k in range(m_prime + 1):
        a[m - k, m_prime - k] += 1.0
        a[m_prime - k, m - k] += 1.0
    return a


def mm_error_terms(spec: MmStateSpec, eta: float) -> MmErrorTerms:
    """Error-propagation ingredients of the round-trip output at eta."""
    return _mm_error_terms(spec, mm_output_coefficients(spec, eta))


def mm_phase_error(sigma: DensityMatrix, spec: MmStateSpec, phi: float) -> float:
    """Propagated phase error computed from the output matrix itself.

    <A^2> comes from an explicit expectation value; the mean follows
    coherence * cos(delta*phi), whose amplitude is read off the
    delta-th superdiagonal, giving the slope delta*coherence*sin without
    numerical differentiation.  Returns +inf at stationary points.
    """
    a = mm_observable(spec.m, spec.m_prime)
    mean_square = expectation(sigma, a @ a)
    coherence = 2.0 * abs(complex(np.sum(np.diagonal(sigma.mat, offset=spec.delta))))
    return _propagated_error(mean_square, coherence, spec.delta, phi)


def _golden_section(fn, lo: float, hi: float, xtol: float):
    span = hi - lo
    c = lo + _INV_PHI2 * span
    d = lo + _INV_PHI * span
    fc, fd = fn(c), fn(d)
    while span > xtol:
        if fc < fd:
            hi, d, fd = d, c, fc
            span = hi - lo
            c = lo + _INV_PHI2 * span
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            span = hi - lo
            d = lo + _INV_PHI * span
            fd = fn(d)
    return (c, fc) if fc < fd else (d, fd)


def phase_error_summary(error_fn, period: float, grid_points: int = 720):
    """Reference scanner: scan one period on a uniform grid, refine the best cell.

    Returns (phi_star, min_value, grid_average), leaving non-finite samples
    out of the average; raises ValueError if the function is non-finite
    everywhere.  Tests and demos check closed-form minima against it.
    """
    _check_top(grid_points, "grid_points", least=2)
    _check_phase(period, "period")
    if not period > 0.0:
        raise ValueError(f"period must be > 0, got {period!r}")
    step = period / grid_points
    xs = step * np.arange(grid_points)
    vals = np.array([float(error_fn(x)) for x in xs])
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValueError("error function is non-finite over the whole phase grid")
    k = int(np.argmin(vals))
    phi_star, best = _golden_section(error_fn, xs[k] - step, xs[k] + step, REFINE_TOL)
    if vals[k] < best:
        phi_star, best = float(xs[k]), float(vals[k])
    avg = float(vals[finite].mean())
    return float(phi_star), float(best), avg


def _noon_output(n: int, kraus: np.ndarray, phi: float) -> DensityMatrix:
    """The NOON state at phase phi after the loss Kraus stack on each arm in turn:
    as a tensor rho[a, b, a', b'] (arm 1 on a, a'; arm 2 on b, b'), it takes
    sum_i K_i rho K_i^dag on arm 1's indices, then on arm 2's."""
    d = n + 1
    rho = two_mode_phase(noon_state(n).to_density_flat(), phi, (d, d)).mat.reshape(d, d, d, d)
    rho = np.einsum("ipa,abcd,iqc->pbqd", kraus, rho, kraus.conj(), optimize=True)
    rho = np.einsum("ipb,abcd,iqd->apcq", kraus, rho, kraus.conj(), optimize=True)
    return DensityMatrix(rho.reshape(d * d, d * d), check=False)


_NOON_FD_STEP = 1e-6  # phase step of the central difference in noon_phase_error_brute


def noon_phase_error_brute(n: int, eta: float, phi: float) -> float:
    """NOON error from explicit two-mode Kraus evolution.

    The slope of the observable mean is taken by central finite
    difference, so this path is independent of the closed form.
    """
    _check_top(n, "n")
    d = n + 1
    a = np.zeros((d * d, d * d))
    hi, lo = n * d, n  # flat indices of |n,0> and |0,n>
    a[hi, lo] = a[lo, hi] = 1.0  # the observable |n,0><0,n| + |0,n><n,0|
    kraus = loss_channel(eta, d).kraus
    rho = _noon_output(n, kraus, phi)
    mean = expectation(rho, a)
    var = max(expectation(rho, a @ a) - mean**2, 0.0)
    up = expectation(_noon_output(n, kraus, phi + _NOON_FD_STEP), a)
    down = expectation(_noon_output(n, kraus, phi - _NOON_FD_STEP), a)
    slope = abs(up - down) / (2.0 * _NOON_FD_STEP)
    if slope == 0.0:
        return math.inf
    return math.sqrt(var) / slope
