"""Reproduce the headline error curves as CSV files.

Runs the two standard sweeps (error vs photon number at eta=0.9, error
vs transmissivity at N=20) for the sine-state probe and the
two-component probe, emits gnuplot scripts, and double-checks the lossy
NOON baseline against a brute-force two-mode evolution.
"""

import math
import tempfile
from pathlib import Path

from interferolab import (
    SweepConfig,
    baselines,
    emit_gnu_plot_script,
    noon_phase_error_brute,
    phase_error_summary,
    run_sweep,
)

workdir = Path(tempfile.mkdtemp(prefix="interferolab_"))
print(f"writing results under {workdir}\n")

# --- NOON baseline cross-check ---------------------------------------------------
print("lossy NOON baseline, closed form vs brute-force Kraus evolution:")
for n, eta in ((2, 0.9), (4, 0.8), (6, 0.7)):
    _, brute, _ = phase_error_summary(
        lambda phi: noon_phase_error_brute(n, eta, phi), 2 * math.pi / n, grid_points=64
    )
    closed = baselines(n, eta).noon_error
    print(f"  N={n}, eta={eta}: closed {closed:.8f}  brute {brute:.8f}"
          f"  (diff {abs(closed - brute):.2e})")

# --- error vs photon number at eta = 0.9 ------------------------------------------
sine_by_n = SweepConfig(
    state_family="optimal",
    sweep_axis="n",
    fixed_eta=0.9,
    n_range=(2.0, 30.0, 1.0),
    output_path=str(workdir / "sine_vs_n.csv"),
)
summary = run_sweep(sine_by_n)
print()
for line in summary.lines():
    print(line)
emit_gnu_plot_script(summary)

pair_by_n = SweepConfig(
    state_family="mm",
    sweep_axis="n",
    fixed_eta=0.9,
    mm_m_prime=3,  # top index 2N - 3
    n_range=(4.0, 30.0, 1.0),
    output_path=str(workdir / "pair_vs_n.csv"),
)
for line in run_sweep(pair_by_n).lines():
    print(line)

# --- error vs transmissivity at N = 20 ---------------------------------------------
sine_by_eta = SweepConfig(
    state_family="optimal",
    sweep_axis="eta",
    fixed_n=20.0,
    eta_range=(0.5, 1.0, 0.025),
    output_path=str(workdir / "sine_vs_eta.csv"),
)
for line in run_sweep(sine_by_eta).lines():
    print(line)

pair_by_eta = SweepConfig(
    state_family="mm",
    sweep_axis="eta",
    fixed_n=20.0,
    mm_m_prime=10,  # N=20 with top index 30
    eta_range=(0.5, 1.0, 0.025),
    output_path=str(workdir / "pair_vs_eta.csv"),
)
for line in run_sweep(pair_by_eta).lines():
    print(line)

print(f"\nfour CSV files and a gnuplot script are now in {workdir}")
print("render with:  gnuplot sine_vs_n.gp")
