"""Walk one probe through the round trip and check the two key facts.

First: the absolute arm phase theta cancels exactly, whatever the loss,
because the index reversal between the two passes flips every relative
Fock phase.  Second: the sine-state output from the per-diagonal loss
map and the two-component closed form reproduce the brute-force Kraus
evolution to machine precision.
"""

import numpy as np

from interferolab import (
    MmStateSpec,
    RoundTripConfig,
    mm_state,
    mm_state_output,
    optimal_phase_state,
    optimal_state_output,
    roundtrip_oracle,
    validate_closed_forms,
)

m, eta, phi = 6, 0.8, 0.55
probe = optimal_phase_state(m)

# --- theta cancellation -------------------------------------------------------
print("output dependence on the absolute arm phase theta:")
base = roundtrip_oracle(probe, RoundTripConfig(phi, 0.0, eta, eta, m))
for theta in (0.3, 1.7, np.pi):
    out = roundtrip_oracle(probe, RoundTripConfig(phi, theta, eta, eta, m))
    print(f"  theta={theta:5.3f}: max deviation from theta=0 run "
          f"= {np.max(np.abs(out.mat - base.mat)):.2e}")

# --- production outputs vs oracle ----------------------------------------------
mapped = optimal_state_output(m, eta, phi)
print(f"\nsine-state loss map vs oracle: "
      f"{np.max(np.abs(mapped.mat - base.mat)):.2e}")

spec = MmStateSpec(7, 2)
oracle = roundtrip_oracle(mm_state(spec), RoundTripConfig(phi, 0.9, eta, eta, spec.m))
closed = mm_state_output(spec, eta, phi)
print(f"two-component closed form vs oracle: "
      f"{np.max(np.abs(closed.mat - oracle.mat)):.2e}")

# --- systematic validation grid ------------------------------------------------
report = validate_closed_forms(max_m=6)
print("\nvalidation grid (m <= 6, three transmissivities, three phases):")
print(f"  cells checked: {len(report.cells)}")
w = report.worst
print(f"  worst deviation {report.max_dev:.3e} at form={w.form}, m={w.m}, "
      f"eta={w.eta}, phi={w.phi}")
print(f"  status: {'pass' if report.passed else 'FAIL'} "
      f"(tolerance {report.tolerance:.0e})")
