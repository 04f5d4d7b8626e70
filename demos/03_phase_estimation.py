"""From output state to phase error: POVM statistics, RMS, Holevo.

The discrete phase measurement has m+1 outcomes; outcome l estimates
phi as -2*pi*l/(m+1).  Scanning the true phase shows how the minimum
and the average of the circular RMS behave, and how closely the Holevo
dispersion of the continuous distribution tracks the minimum.
"""

import math


from interferolab import (
    apply_phase,
    circular_rms,
    holevo_variance,
    optimal_outcome_distribution,
    optimal_state_output,
    phase_error_summary,
    povm_distribution,
)

m, eta = 10, 0.9

# --- one distribution in detail ----------------------------------------------
phi = 0.45
dist = optimal_outcome_distribution(m, eta, phi)
print(f"outcome distribution at phi={phi} (m={m}, eta={eta}):")
for l, (p, est) in enumerate(zip(dist.probs, dist.estimates)):
    bar = "#" * int(round(60 * p))
    print(f"  l={l:2d}  estimate={est:5.3f}  p={p:.4f} {bar}")
print(f"  sum = {dist.probs.sum():.12f}")
print(f"  circular RMS about the true phase: {circular_rms(dist):.4f} rad")

# --- error figures over the phase --------------------------------------------
rho0 = optimal_state_output(m, eta, 0.0)


def rms_at(true_phi):
    shifted = apply_phase(rho0, -true_phi)
    return circular_rms(povm_distribution(shifted, true_phi=true_phi))


phi_star, best, avg = phase_error_summary(rms_at, 2 * math.pi)
holevo = holevo_variance(rho0)
print(f"\nmin  RMS = {best:.5f} at phi = {phi_star:.4f}")
print(f"mean RMS = {avg:.5f}")
print(f"Holevo   = {holevo:.5f}  (rel. gap to min RMS: "
      f"{abs(holevo - best) / best:.3f})")

# --- scaling with the probe size ----------------------------------------------
print("\nphoton-number scaling at eta=0.9 (N = m/2):")
print("   N    min RMS    Holevo     shot 1/sqrt(N eta)   Heisenberg 1/N")
for mm in (4, 8, 16, 32, 60):
    rho0 = optimal_state_output(mm, eta, 0.0, check=False)

    def rms(true_phi, _r=rho0):
        return circular_rms(povm_distribution(apply_phase(_r, -true_phi), true_phi=true_phi))

    _, mn, _ = phase_error_summary(rms, 2 * math.pi, 360)
    n = mm / 2
    print(f"  {n:4.0f}  {mn:.5f}    {holevo_variance(rho0):.5f}    "
          f"{1 / math.sqrt(n * eta):18.5f}   {1 / n:14.5f}")
