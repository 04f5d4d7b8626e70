"""Error propagation for the two-component probe.

The hopping observable couples the pair of output components separated
by delta.  Its mean oscillates as cos(delta*phi), so error propagation
gives 1/delta at eta=1 regardless of phi: a single mode state reaches
twice the sensitivity of the two-mode NOON probe with the same mean
photon number.  With loss, the best working point and its error come
from a scan over phi.
"""

import math

from interferolab import (
    MmStateSpec,
    baselines,
    mm_error_terms,
    mm_phase_error,
    mm_phase_error_closed,
    mm_state_output,
    phase_error_summary,
)

TWO_PI = 2 * math.pi

# --- noiseless factor of two ---------------------------------------------------
print("noiseless minima (min over phi of the propagated error):")
for n in (2, 5, 10):
    spec = MmStateSpec(2 * n, 0)  # pair |2N>, |0>
    terms = mm_error_terms(spec, 1.0)
    fn = lambda phi: mm_phase_error_closed(terms, phi)
    _, err, _ = phase_error_summary(fn, TWO_PI / spec.delta)
    print(f"  N={n:2d}: single-mode pair {err:.6f}  vs  NOON {1 / n:.6f}"
          f"  (ratio {err * n:.3f})")

# --- matrix route equals the closed formula -------------------------------------
spec, eta, phi = MmStateSpec(9, 3), 0.85, 0.21
sigma = mm_state_output(spec, eta, phi)
via_matrix = mm_phase_error(sigma, spec, phi)
via_terms = mm_phase_error_closed(mm_error_terms(spec, eta), phi)
print(f"\nmatrix route {via_matrix:.10f}  closed route {via_terms:.10f}"
      f"  (diff {abs(via_matrix - via_terms):.2e})")

# --- loss curves -----------------------------------------------------------------
print(f"\nminimized error vs transmissivity for M=30, M'=10 (N=20):")
spec = MmStateSpec(30, 10)
print("   eta    min error   argmin phi     NOON baseline   shot noise")
for eta in (1.0, 0.95, 0.9, 0.8, 0.7):
    terms = mm_error_terms(spec, eta)
    fn = lambda phi: mm_phase_error_closed(terms, phi)
    phi_star, err, _ = phase_error_summary(fn, TWO_PI / spec.delta)
    refs = baselines(spec.n_avg, eta)
    print(f"  {eta:4.2f}   {err:.6f}   {phi_star:10.6f}   {refs.noon_error:13.6f}"
          f"   {refs.shot_noise:10.6f}")
