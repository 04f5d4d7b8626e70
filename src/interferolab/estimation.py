"""Measurement statistics and phase-error figures.

Covers the discrete Pegg-Barnett outcome distribution and its circular
RMS, the Holevo variance of the continuous phase distribution, the
two-component hopping observable with error propagation, minimization
and averaging over the interferometer phase, and the shot-noise /
Heisenberg / lossy-NOON reference curves.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, apply_channel, expectation
from .protocol import mm_output_coefficients, optimal_state_output
from .states import (
    MmStateSpec,
    noon_state,
    two_mode_loss_channel,
    two_mode_phase,
)

PROB_SUM_TOL = 1e-10
PROB_NEG_TOL = -1e-12

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probabilities of the m+1 discrete phase outcomes.

    Outcome l sits at measurement phase 2*pi*l/(m+1) and estimates the
    interferometer phase as the negative of that value (mod 2*pi);
    ``true_phi`` records the phase actually imprinted on the state.
    """

    m: int
    probs: np.ndarray
    true_phi: float

    def __init__(self, m: int, probs, true_phi: float):
        probs = np.asarray(probs, dtype=float).reshape(-1)
        if probs.size != m + 1:
            raise ValueError(f"need {m + 1} probabilities, got {probs.size}")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}")
        if float(probs.min()) < PROB_NEG_TOL:
            raise ValueError(f"negative probability {probs.min()!r}")
        probs = np.clip(probs, 0.0, None)
        probs.setflags(write=False)
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "true_phi", float(true_phi))

    @property
    def outcome_phases(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.m + 1) / (self.m + 1)

    @property
    def estimates(self) -> np.ndarray:
        return (-self.outcome_phases) % (2.0 * np.pi)


def povm_distribution(rho: DensityMatrix, m: int, true_phi: float = 0.0) -> OutcomeDistribution:
    """Project rho onto the m+1 discrete phase states.

    p(l) = <Phi_l| rho |Phi_l>; the projectors resolve the truncated
    space, so the probabilities sum to one whenever rho is supported on
    |0>..|m>.
    """
    if rho.dim < m + 1:
        raise ValueError(f"state dimension {rho.dim} below m+1 = {m + 1}")
    block = rho.mat[: m + 1, : m + 1]
    n = np.arange(m + 1)
    basis = np.exp(1j * np.outer(n, 2.0 * np.pi * n / (m + 1)))  # column l = |Phi_l>
    probs = np.einsum("nl,nm,ml->l", basis.conj(), block, basis).real / (m + 1)
    return OutcomeDistribution(m, probs, true_phi)


def optimal_outcome_distribution(m: int, eta: float, phi: float) -> OutcomeDistribution:
    """Outcome distribution of the sine-state round trip at phase phi:
    the round-trip output projected onto the discrete phase states."""
    return povm_distribution(optimal_state_output(m, eta, phi, check=False), m, phi)


def circular_distance(a, b):
    """Minimal distance between angles, elementwise, in [0, pi]."""
    return np.abs(np.mod(np.asarray(a) - np.asarray(b) + np.pi, 2.0 * np.pi) - np.pi)


def circular_rms(dist: OutcomeDistribution) -> float:
    """RMS spread of the outcome estimates around the true phase."""
    dev = circular_distance(dist.estimates, dist.true_phi)
    return float(math.sqrt(dist.probs @ dev**2))


def circular_rms_about_mean(dist: OutcomeDistribution) -> float:
    """Diagnostic variant: RMS spread around the circular mean estimate."""
    resultant = np.sum(dist.probs * np.exp(1j * dist.estimates))
    center = float(np.angle(resultant)) if abs(resultant) > 0 else 0.0
    dev = circular_distance(dist.estimates, center)
    return float(math.sqrt(dist.probs @ dev**2))


def holevo_variance(rho: DensityMatrix) -> float:
    """Holevo phase dispersion (S^-2 - 1)^(1/2) of the continuous
    phase-state distribution.

    Integrating exp(i*Phi) against that distribution collapses to the
    sum of the first off-diagonal of rho, so S = |sum_n <n+1|rho|n>|.
    Returns +inf for states with no first-neighbor coherence.
    """
    s = abs(complex(np.sum(np.diagonal(rho.mat, offset=-1))))
    if s == 0.0:
        return math.inf
    return math.sqrt(max(s**-2 - 1.0, 0.0))


def mm_observable(m: int, m_prime: int, dim: int) -> np.ndarray:
    """Hopping observable pairing |m-k> with |m_prime-k| for k = 0..m_prime.

    Symmetric 0/1 matrix.  When m - m_prime <= m_prime the two index
    families overlap and the dyads chain instead of forming disjoint
    two-level blocks; that regime is built literally but flagged.
    """
    if m <= m_prime or m_prime < 0:
        raise ValueError("need m > m_prime >= 0")
    if dim < m + 1:
        raise ValueError(f"dimension {dim} too small for m={m}")
    if m - m_prime <= m_prime:
        warnings.warn(
            "index families overlap (delta <= m_prime); observable chains basis states",
            stacklevel=2,
        )
    a = np.zeros((dim, dim))
    for k in range(m_prime + 1):
        a[m - k, m_prime - k] += 1.0
        a[m_prime - k, m - k] += 1.0
    return a


@dataclass(frozen=True)
class MmErrorTerms:
    """Scalar ingredients of the closed-form error propagation.

    ``mean_square`` is the expected square of the hopping observable and
    ``coherence`` the amplitude of its cos(delta*phi) mean oscillation.
    """

    mean_square: float
    coherence: float
    delta: int
    phi: float

    def __post_init__(self):
        if self.mean_square < 0.0:
            raise ValueError("mean_square must be non-negative")
        if abs(self.coherence) > 1.0 + 1e-12:
            raise ValueError("coherence amplitude cannot exceed 1")


def mm_error_terms(spec: MmStateSpec, eta: float, phi: float) -> MmErrorTerms:
    """Error-propagation ingredients from the output-state coefficients."""
    co = mm_output_coefficients(spec, eta)
    mean_square = 0.0
    for k in range(spec.m_prime + 1):
        mean_square += (
            co.pop_low[k + co.delta]
            + co.pop_low[k]
            + co.pop_high[k]
            + co.pop_high[k + co.delta]
        )
    return MmErrorTerms(float(mean_square), float(co.coherence.sum()), co.delta, phi)


def _propagated_error(mean_square: float, coherence: float, delta: int, phi: float) -> float:
    # variance at the working point, written as (MS - C^2) + C^2 sin^2 to
    # avoid the 1 - cos^2 cancellation that otherwise poisons eta -> 1
    sin = math.sin(delta * phi)
    slope = delta * abs(coherence * sin)
    if slope == 0.0:
        return math.inf
    var = max(mean_square - coherence**2, 0.0) + (coherence * sin) ** 2
    return math.sqrt(var) / slope


def mm_phase_error_closed(terms: MmErrorTerms) -> float:
    """Propagated phase error sqrt(MS - cos^2 * C^2) / (delta |sin * C|)."""
    return _propagated_error(terms.mean_square, terms.coherence, terms.delta, terms.phi)


def mm_phase_error(sigma: DensityMatrix, spec: MmStateSpec, phi: float) -> float:
    """Propagated phase error computed from the output matrix itself.

    <A^2> comes from an explicit expectation value; the mean follows
    coherence * cos(delta*phi), whose amplitude is read off the
    delta-th superdiagonal, giving the slope delta*coherence*sin without
    numerical differentiation.  Returns +inf at stationary points.
    """
    a = mm_observable(spec.m, spec.m_prime, sigma.dim)
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


def phase_error_summary(error_fn, period: float, grid_points: int = 720, refine_tol: float = 1e-6):
    """Scan one period on a uniform grid, refine the best cell, average the rest.

    Returns (phi_star, min_value, grid_average, excluded) where
    ``excluded`` counts non-finite grid samples left out of the average.
    Raises ValueError if the function is non-finite everywhere.
    """
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    step = period / grid_points
    xs = step * np.arange(grid_points)
    vals = np.array([float(error_fn(x)) for x in xs])
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValueError("error function is non-finite over the whole phase grid")
    k = int(np.argmin(vals))
    phi_star, best = _golden_section(error_fn, xs[k] - step, xs[k] + step, refine_tol)
    if vals[k] < best:
        phi_star, best = float(xs[k]), float(vals[k])
    avg = float(vals[finite].mean())
    return float(phi_star), float(best), avg, int(np.count_nonzero(~finite))


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
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"transmissivity must be in (0, 1], got {eta!r}")
    surv = eta**n
    sin = math.sin(n * phi)
    slope = n * surv * abs(sin)
    if slope == 0.0:
        return math.inf
    var = surv * ((1.0 - surv) + surv * sin**2)
    return math.sqrt(var) / slope


def baselines(n: float, eta: float) -> Baselines:
    """Shot-noise, Heisenberg and minimized lossy-NOON reference errors."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"transmissivity must be in (0, 1], got {eta!r}")
    return Baselines(
        shot_noise=1.0 / math.sqrt(n * eta),
        heisenberg=1.0 / n,
        noon_error=1.0 / (n * eta ** (n / 2.0)),
    )


def noon_observable(n: int) -> np.ndarray:
    """Coherence observable |n,0><0,n| + |0,n><n,0| on the flattened basis."""
    d = n + 1
    a = np.zeros((d * d, d * d))
    hi, lo = n * d, n  # flat indices of |n,0> and |0,n>
    a[hi, lo] = a[lo, hi] = 1.0
    return a


@functools.lru_cache(maxsize=32)
def _noon_loss(n: int, eta: float):
    return two_mode_loss_channel(eta, eta, (n + 1, n + 1))


def _noon_output(n: int, eta: float, phi: float) -> DensityMatrix:
    dims = (n + 1, n + 1)
    rho = noon_state(n).to_density_flat()
    rho = two_mode_phase(rho, phi, dims)
    return apply_channel(rho, _noon_loss(n, eta))


def noon_phase_error_brute(n: int, eta: float, phi: float, fd_step: float = 1e-6) -> float:
    """NOON error from explicit two-mode Kraus evolution.

    The slope of the observable mean is taken by central finite
    difference, so this path is independent of the closed form.
    """
    a = noon_observable(n)
    rho = _noon_output(n, eta, phi)
    mean = expectation(rho, a)
    var = max(expectation(rho, a @ a) - mean**2, 0.0)
    up = expectation(_noon_output(n, eta, phi + fd_step), a)
    down = expectation(_noon_output(n, eta, phi - fd_step), a)
    slope = abs(up - down) / (2.0 * fd_step)
    if slope == 0.0:
        return math.inf
    return math.sqrt(var) / slope
