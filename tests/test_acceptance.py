"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Expected values come from independent routes only:
the brute-force channel, hand-derived two-level limits, quadrature, or
finite differences.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from interferolab import (
    DensityMatrix,
    FockVector,
    MmStateSpec,
    RoundTripConfig,
    baselines,
    loss_channel,
    apply_channel,
    mm_error_terms,
    mm_phase_error_closed,
    mm_state,
    mm_state_output,
    noon_phase_error,
    noon_phase_error_brute,
    optimal_phase_state,
    optimal_state_output,
    permutation_unitary,
    phase_error_summary,
    povm_distribution,
    roundtrip_oracle,
)
from interferolab.cli import main as cli_main

TWO_PI = 2 * math.pi
GOLDEN = Path(__file__).parent / "golden" / "optimal_vs_n_eta09_default.csv"


def closed_mm_error_fn(spec: MmStateSpec, eta: float):
    """Propagated-error curve with the phase-independent sums hoisted out."""
    terms = mm_error_terms(spec, eta)
    return lambda phi: mm_phase_error_closed(terms, phi)


def report(num, name, ok, detail=""):
    print(f"acceptance {num} [{'PASS' if ok else 'FAIL'}] {name}{detail}")
    assert ok, f"criterion {num} failed: {name}{detail}"


@pytest.fixture(scope="module")
def shot_noise_sweep(tmp_path_factory):
    """The eta=0.9, N in [4, 30] optimal-family sweep used by criteria 4-5."""
    from interferolab import SweepConfig, run_sweep

    out = tmp_path_factory.mktemp("sweep") / "eta09.csv"
    cfg = SweepConfig(
        state_family="optimal",
        sweep_axis="n",
        fixed_eta=0.9,
        n_range=(4.0, 30.0, 1.0),
        phi_grid_points=720,
        output_path=str(out),
    )
    started = time.perf_counter()
    summary = run_sweep(cfg)
    return summary, time.perf_counter() - started


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for m in range(1, 9):
        for eta in (0.5, 0.9, 1.0):
            for phi in (0.0, 0.3, 1.2):
                cfg = RoundTripConfig(phi, 0.37, eta, eta)
                oracle = roundtrip_oracle(optimal_phase_state(m), cfg)
                closed = optimal_state_output(m, eta, phi, check=False)
                worst = max(worst, float(np.max(np.abs(closed.mat - oracle.mat))))
                for mp in range(m):
                    spec = MmStateSpec(m, mp)
                    oracle = roundtrip_oracle(mm_state(spec), cfg)
                    closed = mm_state_output(spec, eta, phi, check=False)
                    worst = max(worst, float(np.max(np.abs(closed.mat - oracle.mat))))
    elapsed = time.perf_counter() - started
    report(
        1,
        "closed forms match brute-force channel",
        worst < 1e-10 and elapsed < 10.0,
        f" (max dev {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_arm_phase_cancellation():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 11))
        eta = float(rng.uniform(0.3, 1.0))
        phi = float(rng.uniform(0.0, TWO_PI))
        amps = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        state = FockVector(amps / np.linalg.norm(amps))
        outs = [
            roundtrip_oracle(state, RoundTripConfig(phi, theta, eta, eta)).mat
            for theta in (0.0, 0.7, math.pi)
        ]
        worst = max(worst, float(np.max(np.abs(outs[1] - outs[0]))))
        worst = max(worst, float(np.max(np.abs(outs[2] - outs[0]))))
    elapsed = time.perf_counter() - started
    report(
        2,
        "reference-arm phase drops out of the output",
        worst < 1e-12 and elapsed < 5.0,
        f" (max dev {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_3_noiseless_factor_of_two():
    started = time.perf_counter()
    worst_no = worst_noon = 0.0
    for n in range(1, 11):
        spec = MmStateSpec(2 * n, 0)
        _, no_min, _ = phase_error_summary(closed_mm_error_fn(spec, 1.0), TWO_PI / spec.delta)
        worst_no = max(worst_no, abs(no_min - 1.0 / (2 * n)))
        _, noon_min, _ = phase_error_summary(
            lambda phi: noon_phase_error(n, 1.0, phi), TWO_PI / n
        )
        worst_noon = max(worst_noon, abs(noon_min - 1.0 / n))
    elapsed = time.perf_counter() - started
    report(
        3,
        "single-mode pair reaches 1/(2N) vs NOON 1/N at eta=1",
        worst_no < 1e-9 and worst_noon < 1e-9 and elapsed < 1.0,
        f" (devs {worst_no:.2e}/{worst_noon:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_4_beats_shot_noise_under_loss(shot_noise_sweep):
    summary, elapsed = shot_noise_sweep
    inside = [
        row.heisenberg < row.min_rms < row.shot_noise for row in summary.rows
    ]
    runs = []
    count = 0
    for flag in inside:
        count = count + 1 if flag else 0
        runs.append(count)
    longest = max(runs)
    contiguous = sum(inside) == longest  # the qualifying set is one block
    report(
        4,
        "min RMS sits between Heisenberg and shot noise on a contiguous range",
        longest >= 3 and contiguous and elapsed < 60.0,
        f" ({sum(inside)}/{len(inside)} rows, longest block {longest}, {elapsed:.2f}s)",
    )


def test_criterion_5_holevo_tracks_min_rms(shot_noise_sweep):
    summary, _ = shot_noise_sweep
    checked = 0
    worst = 0.0
    for row in summary.rows:
        if row.min_rms < 0.3:
            checked += 1
            worst = max(worst, abs(row.holevo - row.min_rms) / row.min_rms)
    report(
        5,
        "Holevo dispersion within 15% of min RMS where RMS < 0.3",
        checked > 0 and worst < 0.15,
        f" ({checked} rows, worst rel dev {worst:.3f})",
    )


def test_criterion_6_mm_noiseless_limit():
    started = time.perf_counter()
    worst = 0.0
    for m, mp in ((30, 10), (9, 3), (2, 0)):
        spec = MmStateSpec(m, mp)
        _, got, _ = phase_error_summary(closed_mm_error_fn(spec, 1.0), TWO_PI / spec.delta)
        worst = max(worst, abs(got - 1.0 / spec.delta))
    elapsed = time.perf_counter() - started
    report(
        6,
        "noiseless propagated error reaches 1/delta",
        worst < 1e-9 and elapsed < 1.0,
        f" (max dev {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_7_channel_and_distribution_sanity():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(25):
        dim = int(rng.integers(2, 65))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = g @ g.conj().T
        rho = DensityMatrix(mat / np.trace(mat).real, check=False)
        eta = float(rng.uniform(0.05, 1.0))
        out = apply_channel(rho, loss_channel(eta, dim))
        ok &= abs(out.trace() - 1.0) < 1e-10
        ok &= float(np.linalg.eigvalsh(out.mat)[0]) > -1e-9
        dist = povm_distribution(out)
        ok &= abs(float(dist.probs.sum()) - 1.0) < 1e-10
        u = permutation_unitary(dim)
        ok &= np.array_equal(u @ u, np.eye(dim))
    elapsed = time.perf_counter() - started
    report(
        7,
        "trace/positivity/POVM-normalization/involution sanity",
        ok and elapsed < 10.0,
        f" ({elapsed:.2f}s)",
    )


def test_criterion_8_noon_lossy_baseline():
    started = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        for eta in (0.7, 0.9):
            _, brute, _ = phase_error_summary(
                lambda phi: noon_phase_error_brute(n, eta, phi),
                TWO_PI / n,
                grid_points=64,
            )
            worst = max(worst, abs(brute - baselines(n, eta).noon_error))
    elapsed = time.perf_counter() - started
    report(
        8,
        "lossy NOON closed form matches two-mode Kraus evolution",
        worst < 1e-8 and elapsed < 5.0,
        f" (max dev {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_9_determinism_and_golden_csv(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    args = ["--family", "optimal", "--axis", "n", "--eta", "0.9"]
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    matches_golden = first.read_bytes() == GOLDEN.read_bytes()
    report(
        9,
        "repeated sweeps are byte-identical and match the committed CSV",
        identical and matches_golden,
        f" (rerun identical: {identical}, golden match: {matches_golden})",
    )
