import csv
import decimal
import math
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import interferolab.engine as engine_mod
import interferolab.fock as fock_mod
import interferolab.protocol as protocol_mod
import interferolab.sweep as sweep_mod
from interferolab import (
    CSV_HEADER,
    MmErrorTerms,
    MmStateSpec,
    SweepConfig,
    UsageError,
    ValidationFailure,
    apply_phase,
    circular_rms,
    emit_gnu_plot_script,
    mm_error_terms,
    mm_phase_error,
    mm_phase_error_closed,
    mm_state_output,
    optimal_outcome_distribution,
    optimal_state_output,
    phase_error_summary,
    povm_distribution,
    run_sweep,
)
from interferolab.cli import main as cli_main
from interferolab.engine import _folded_grid, _loss_table, _mm_row, _optimal_fast_row, _SineCurve
from interferolab.fock import binomial_table
from interferolab.sweep import FAMILIES, CurvePoint, format_float

TWO_PI = 2 * math.pi


def small_cfg(tmp_path, **kw):
    base = dict(
        state_family="optimal",
        sweep_axis="n",
        fixed_eta=0.9,
        n_range=(2.0, 5.0, 1.0),
        phi_grid_points=180,
        output_path=str(tmp_path / "out.csv"),
    )
    base.update(kw)
    return SweepConfig(**base)


@pytest.mark.parametrize("value, field", [
    (SweepConfig(), "validate"),
    (CurvePoint(sweep=2.0), "external"),
    (sweep_mod.SweepSummary(csv_path="out.csv", rows=(), elapsed=0.0), "rows"),
    (MmStateSpec(4, 1), "m_prime"),
    (MmErrorTerms(0.5, 0.2, 3), "coherence"),
    (engine_mod.Baselines(1.0, 0.5, 0.6), "noon_error"),
    (protocol_mod.RoundTripConfig(0.1, 0.2, 0.9, 0.8), "eta2"),
    (protocol_mod.ValidationCell("rho", 2, -1, 0.9, 0.3, 1e-16, (0, 1)), "max_dev"),
    (protocol_mod.ValidationReport((), 1e-10), "tolerance"),
], ids=["config", "curve-point", "summary", "mm-state-spec", "mm-error-terms", "baselines",
        "round-trip-config", "validation-cell", "validation-report"])
def test_value_types_are_immutable_and_hashable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    hash(value)  # raises TypeError on a mutable value
    assert value == tuple(value)  # a named tuple, compared by value


@pytest.mark.parametrize("make, message", [
    (lambda: MmStateSpec(4, 1)._replace(m_prime=5), r"need m > m_prime >= 0, got \(4, 5\)"),
    (lambda: MmErrorTerms(0.5, 0.2, 3)._replace(mean_square=-1.0),
     "mean_square must be non-negative"),
    (lambda: MmErrorTerms(0.5, 0.2, 3)._replace(coherence=1.5),
     "coherence amplitude cannot exceed 1"),
], ids=["mm-state-spec", "mm-error-terms-mean-square", "mm-error-terms-coherence"])
def test_replace_checks_the_engine_value_types(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestConfigValidation:
    def test_rejects_unknown_family(self, tmp_path):
        with pytest.raises(UsageError, match="family"):
            small_cfg(tmp_path, state_family="squeezed").check()
        # retired: the M&M state at m_prime = 0 is state_family="mm", mm_m_prime=0
        with pytest.raises(UsageError, match="unknown family 'no'"):
            small_cfg(tmp_path, state_family="no").check()
        # retired: every family prints the shot-noise, Heisenberg and NOON columns
        with pytest.raises(UsageError, match="unknown family 'noon'"):
            small_cfg(tmp_path, state_family="noon").check()

    def test_rejects_empty_range(self, tmp_path):
        with pytest.raises(UsageError, match="max"):
            small_cfg(tmp_path, n_range=(10.0, 2.0, 1.0)).check()

    def test_rejects_nonpositive_step(self, tmp_path):
        with pytest.raises(UsageError, match="step"):
            small_cfg(tmp_path, n_range=(2.0, 5.0, 0.0)).check()

    def test_row_count_is_bounded_before_any_row_is_listed(self, tmp_path):
        rows = sweep_mod.MAX_ROWS
        small_cfg(tmp_path, n_range=(1.0, 1.0 + 0.5 * (rows - 1), 0.5)).check()
        with pytest.raises(UsageError, match=f"gives {rows + 1} rows"):
            small_cfg(tmp_path, n_range=(1.0, 1.0 + 0.5 * rows, 0.5)).check()

    def test_rejects_mm_with_small_n(self, tmp_path):
        cfg = small_cfg(tmp_path, state_family="mm", n_range=(2.0, 5.0, 1.0), mm_m_prime=3)
        with pytest.raises(UsageError, match="m_prime"):
            cfg.check()

    @settings(max_examples=200, deadline=None)
    @given(
        axis=st.sampled_from(["n", "eta"]),
        lo=st.floats(1e-3, 1e3),
        step=st.floats(1e-3, 1e2),
        rows=st.integers(0, 2000),
        slack=st.floats(-1e-9, 1e-9),
    )
    @example(axis="eta", lo=0.09, step=0.07, rows=13, slack=0.0)  # 0.09 + 13 * 0.07 > 1
    @example(axis="n", lo=2.0, step=1.0, rows=28, slack=0.0)
    def test_values_stay_in_the_range(self, axis, lo, step, rows, slack):
        # the last step may overshoot max by rounding, or fall within the row
        # count's 1e-9 slack of it; such a value is clamped to max, and no other moves
        hi = max(lo, lo + rows * step * (1.0 + slack))
        key = "n_range" if axis == "n" else "eta_range"
        values = SweepConfig(sweep_axis=axis, **{key: (lo, hi, step)}).values()
        assert values[0] == lo
        assert all(lo <= v <= hi for v in values)
        assert all(v == lo + k * step for k, v in enumerate(values) if v < hi)

    def test_rejects_bad_transmissivity(self, tmp_path):
        with pytest.raises(UsageError, match="transmissivity"):
            small_cfg(tmp_path, fixed_eta=1.2).check()

    @pytest.mark.parametrize("kw, column", [
        (dict(n_range=(1.5, 4.0, 0.5)), "min_rms"),
        (dict(state_family="mm", mm_m_prime=0, n_range=(1.5, 4.0, 0.5)), "mm_error"),
        (dict(state_family="mm", mm_m_prime=3, n_range=(3.5, 6.0, 0.5)), "mm_error"),
    ], ids=["optimal", "mm-0", "mm-3"])
    def test_noon_cell_empty_at_half_integer_n(self, kw, column, tmp_path):
        # no NOON state has a fractional photon number; the row's own columns
        # and the other two references are filled all the same
        summary = run_sweep(small_cfg(tmp_path, **kw))
        for row in summary.rows:
            assert getattr(row, column) is not None
            assert row.shot_noise is not None and row.heisenberg is not None
            assert (row.noon is None) == (row.sweep % 1 == 0.5), row.sweep

    @pytest.mark.parametrize("field, value, message", [
        ("mm_m_prime", 3.0, "m-prime must be an integer, got 3.0"),
        ("phi_grid_points", 720.0, "phi grid must be an integer, got 720.0"),
    ])
    def test_rejects_non_integer_counts(self, field, value, message, tmp_path):
        cfg = small_cfg(tmp_path, state_family="mm", n_range=(5.0, 6.0, 1.0), **{field: value})
        with pytest.raises(UsageError, match=message):
            run_sweep(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_accepts_numpy_integer_counts(self, tmp_path):
        want = run_sweep(small_cfg(tmp_path, state_family="mm", n_range=(5.0, 6.0, 1.0)))
        got = run_sweep(small_cfg(tmp_path, state_family="mm", n_range=(5.0, 6.0, 1.0),
                                  mm_m_prime=np.int64(3), phi_grid_points=np.int32(180)))
        assert got.rows == want.rows

    def test_half_integer_n_allowed_for_optimal(self, tmp_path):
        cfg = small_cfg(tmp_path, n_range=(1.5, 3.0, 0.5))
        cfg.check()
        assert cfg._top_index(1.5) == 3


class TestRowMachinery:
    # odd and even d, with g = gcd(d, grid) of 1 and above and both parities of
    # grid / g; the average runs over the grid // (2g) + 1 distinct folded phases
    # (73 at d = 5 and 720 points, 251 at d = 41 and 500 points), each weighted
    # by the points that fold onto it
    @pytest.mark.parametrize(
        "m, eta, grid",
        [(6, 0.85, 90), (41, 0.9, 97), (60, 0.7, 2), (13, 1.0, 720), (4, 0.8, 720),
         (40, 0.9, 500), (14, 0.6, 75)],
    )
    def test_fast_row_matches_public_operations(self, m, eta, grid):
        best, phi_star, avg, holevo = _optimal_fast_row(m, eta, grid, _loss_table(m + 1, eta))

        rho0 = optimal_state_output(m, eta, 0.0)

        def rms(phi):
            shifted = apply_phase(rho0, -phi)
            return circular_rms(povm_distribution(shifted, true_phi=phi))

        _, want_best, _ = phase_error_summary(rms, TWO_PI, grid)
        samples = [rms(TWO_PI * k / grid) for k in range(grid)]
        assert best == pytest.approx(want_best, abs=1e-12)
        # the reported phase is a minimiser, folded into the fundamental interval
        assert 0.0 <= phi_star <= math.pi / (m + 1)
        assert rms(phi_star) == pytest.approx(best, abs=1e-12)
        assert rms(phi_star) <= min(samples) + 1e-15
        assert avg == pytest.approx(float(np.mean(samples)), abs=1e-12)

        from interferolab import holevo_variance

        assert holevo == pytest.approx(holevo_variance(rho0), abs=1e-14)

    def test_average_does_not_depend_on_the_phase_block(self, monkeypatch):
        # blocks hold PHASE_BLOCK_ELEMENTS // d phases: the 251 phases of d = 41 at
        # 500 points fill one default block of 469, or 6 blocks of 40 and one of 11
        want = _optimal_fast_row(40, 0.9, 500, _loss_table(41, 0.9))
        monkeypatch.setattr(engine_mod, "PHASE_BLOCK_ELEMENTS", 40 * 41)
        got = _optimal_fast_row(40, 0.9, 500, _loss_table(41, 0.9))
        assert got[2] == pytest.approx(want[2], rel=1e-14)
        assert (got[0], got[1], got[3]) == (want[0], want[1], want[3])

    @pytest.mark.parametrize("d", [1, 2, 5, 7, 12, 41, 60, 301])
    def test_fold_multiplicities_are_the_brute_fold(self, d):
        # grid point j sits at r = j*d mod points in units of one cell / points and
        # folds to f = min(r, points - r); the folded f are the multiples of
        # g = gcd(d, points), g points on 0 and on points/2 and 2g on each other f
        for points in range(2, 200):
            r = np.arange(points) * d % points
            f = np.minimum(r, points - r)
            count = np.bincount(f)
            phases, weights = _folded_grid(d, points)
            g = math.gcd(d, points)
            assert weights.sum() == points
            assert np.array_equal(weights, count[::g])
            assert not count[np.arange(count.size) % g != 0].any()
            # each point, folded as rms folds it, sits at its distinct phase
            cell = TWO_PI / d
            grid = TWO_PI / points * np.arange(points) % cell
            assert np.allclose(phases[f // g], np.minimum(grid, cell - grid), rtol=0, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 400), eta=st.floats(0.05, 1.0), points=st.integers(2, 3000))
    @example(m=4, eta=0.8, points=720)  # gcd 5, 144 cells' worth of points: even
    @example(m=14, eta=0.6, points=75)  # gcd 15, odd
    @example(m=269, eta=0.8645, points=10)  # gcd 10: every point folds onto phase 0
    @example(m=41, eta=0.9, points=97)  # gcd 1, odd
    @example(m=6, eta=0.85, points=90)  # gcd 1, even
    @example(m=1, eta=1.0, points=2)  # both points fold onto phi = 0, where the RMS is 0
    def test_folded_average_is_the_grid_mean(self, m, eta, points):
        curve = _SineCurve(m, eta, _loss_table(m + 1, eta))
        phases, weights = _folded_grid(curve.d, points)
        values = curve.rms(phases)
        got = float(values @ weights) / points
        # the same values, one per grid point by the brute fold: only the weights differ
        g = math.gcd(curve.d, points)
        r = np.arange(points) * curve.d % points
        assert got == pytest.approx(values[np.minimum(r, points - r) // g].mean(), rel=1e-14)
        # the definition: the mean over the grid, each point folded by rms itself.
        # rms**2 is a difference of terms of size `size` (see _SineCurve), so two
        # evaluations an ulp of phase apart differ by up to about eps * size / rms**2
        # relative (2.8e-12 seen at m = 269, eta = 0.8645, 10 points)
        want = float(curve.rms(TWO_PI * np.arange(points) / points).mean())
        half = math.pi / curve.d
        size = curve.trace * (curve.mean_square_offset + 2 * half * curve.mean_offset + half**2)
        coeffs = np.abs(curve.value_pairs).reshape(-1, 2, 2).sum(axis=1)  # |Re| + |Im|
        size += 2 / curve.d * float(np.abs(curve.lag_sums) @ coeffs @ [1, half])
        if want == 0.0:  # a relative bound says nothing at 0
            assert got == 0.0
            return
        assert got == pytest.approx(want, rel=max(1e-14, 16 * np.finfo(float).eps * size / want**2))

    @pytest.mark.parametrize("eta", [0.5, 0.9])
    @pytest.mark.parametrize("m", [6, 41, 180, 181, 300])
    def test_lag_sums_equal_the_diagonal_sums_of_the_output_matrix(self, m, eta):
        # bit for bit: the sweep's lag sums are the complex diagonal sums of the
        # matrix that --validate checks, both through C-order loss tables at every d
        curve = _SineCurve(m, eta, _loss_table(m + 1, eta))
        mat = optimal_state_output(m, eta, 0.0, check=False).mat
        want = np.array([np.sum(np.diagonal(mat, k)) for k in range(m + 1)]).real
        got = np.array([curve.trace, *curve.lag_sums])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_phase_shifted_output_equals_direct_closed_form(self):
        # the sweep exploits that the phi dependence is a Fock phase twist
        m, eta, phi = 5, 0.7, 0.83
        direct = optimal_state_output(m, eta, phi)
        twisted = apply_phase(optimal_state_output(m, eta, 0.0), -phi)
        assert np.max(np.abs(direct.mat - twisted.mat)) < 1e-12

    def test_mm_row_matches_pointwise_error(self):
        spec, eta, grid = MmStateSpec(8, 2), 0.8, 120
        best, phi_star = _mm_row(spec, eta, _loss_table(spec.m + 1, eta))
        period = TWO_PI / spec.delta

        def err(phi):
            return mm_phase_error(mm_state_output(spec, eta, phi, check=False), spec, phi)

        _, want_best, _ = phase_error_summary(err, period, grid)
        samples = [err(period * k / grid) for k in range(grid)]
        assert best == pytest.approx(want_best, rel=1e-10)
        # the reported phase is a minimiser, folded into the fundamental interval
        assert 0.0 <= phi_star <= period / 4
        assert err(phi_star) == pytest.approx(best, rel=1e-10)
        assert err(phi_star) <= min(samples) + 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 60),
        frac=st.floats(0.0, 1.0, exclude_max=True),
        eta=st.floats(0.3, 1.0, exclude_min=True),
    )
    @example(m=17, frac=0.0, eta=1.0)  # flat curve: the scan lands an ulp lower
    @example(m=38, frac=0.33, eta=0.9999999)
    def test_mm_row_is_the_scanned_minimum_in_closed_form(self, m, frac, eta):
        # the reference scanner samples 720 phases of one period and refines
        # the best cell; the closed form at pi/(2*delta) is not above it, save
        # for the last bits where the curve is flat to rounding (eta near 1:
        # up to 2 ulps seen over m <= 60)
        spec = MmStateSpec(m, int(frac * m))
        best, phi_star = _mm_row(spec, eta, _loss_table(spec.m + 1, eta))
        assert phi_star == math.pi / (2 * spec.delta)
        terms = mm_error_terms(spec, eta)
        err = lambda phi: mm_phase_error_closed(terms, phi)
        _, scanned, _ = phase_error_summary(err, TWO_PI / spec.delta, 720)
        assert best == pytest.approx(scanned, rel=1e-12, abs=0.0)
        assert best <= scanned + 4 * math.ulp(scanned)

    def test_non_finite_mm_error_fails_the_run(self, tmp_path, monkeypatch):
        # no coherence left: the error is infinite at every phase
        monkeypatch.setattr(engine_mod, "_mm_error_terms", lambda spec, lags: MmErrorTerms(
            0.5, 0.0, spec.delta))
        with pytest.raises(ValidationFailure, match=r"sweep=5 \(top index 7\): mm_error is inf"):
            run_sweep(small_cfg(tmp_path, state_family="mm", n_range=(5.0, 6.0, 1.0)))
        assert not (tmp_path / "out.csv").exists()


def public_rms(m, eta, phi):
    """Circular RMS through the Pegg-Barnett projection, off the sweep's fast path."""
    return circular_rms(optimal_outcome_distribution(m, eta, phi))


class TestFoldedArgmin:
    """argmin_phi is one canonical minimiser, so it is a function of the configuration."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 16), eta=st.floats(0.05, 1.0), phi=st.floats(-4.0, 4.0))
    def test_rms_is_even_and_cell_periodic(self, m, eta, phi):
        here = public_rms(m, eta, phi)
        assert public_rms(m, eta, phi + TWO_PI / (m + 1)) == pytest.approx(here, rel=1e-12)
        assert public_rms(m, eta, -phi) == pytest.approx(here, rel=1e-12)
        # the fast route folds phi onto [0, pi/(m+1)] before it evaluates the series
        rms = _SineCurve(m, eta, _loss_table(m + 1, eta)).rms(phi)
        assert rms == pytest.approx(here, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("eta", [0.7, 0.9, 1.0])
    @pytest.mark.parametrize("m", [181, 300])
    def test_rms_is_accurate_at_large_m(self, m, eta):
        curve = _SineCurve(m, eta, _loss_table(m + 1, eta))
        for phi in (0.0, 0.4 * math.pi / (m + 1), -2.0, 7.0):
            assert curve.rms(phi) == pytest.approx(public_rms(m, eta, phi), rel=2e-11, abs=0.0), phi

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 16), eta=st.floats(0.05, 1.0), frac=st.floats(0.05, 0.95))
    def test_slope_is_derivative_of_rms_squared(self, m, eta, frac):
        phi, h = frac * math.pi / (m + 1), 1e-5
        fd = (public_rms(m, eta, phi + h) ** 2 - public_rms(m, eta, phi - h) ** 2) / (2 * h)
        got = _SineCurve(m, eta, _loss_table(m + 1, eta)).rms2_slope([phi])[0]
        assert got == pytest.approx(fd, abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(half_m=st.integers(1, 30), eta=st.floats(0.05, 1.0))
    def test_even_m_reports_the_lattice_point(self, half_m, eta):
        assert _optimal_fast_row(2 * half_m, eta, 8, _loss_table(2 * half_m + 1, eta))[1] == 0.0

    @pytest.mark.parametrize("m, eta", [(1, 0.9), (5, 0.9), (13, 0.9)])
    def test_odd_m_minimiser_is_a_sign_change_of_the_slope(self, m, eta):
        phi_star = _optimal_fast_row(m, eta, 8, _loss_table(m + 1, eta))[1]
        assert 0.0 < phi_star <= math.pi / (m + 1)
        curve = _SineCurve(m, eta, _loss_table(m + 1, eta))
        slope = curve.rms2_slope([phi_star * (1 - 1e-6), phi_star * (1 + 1e-6)])
        assert slope[0] < 0.0 < slope[1]

    def test_odd_m_minimiser_can_be_the_half_cell_point(self):
        # at strong loss the curve falls across the whole half-cell
        assert _optimal_fast_row(3, 0.3, 8, _loss_table(4, 0.3))[1] == math.pi / 4

    def test_lossless_odd_m_has_no_kink_to_fall_off(self):
        # at eta = 1 the outcome at distance pi has probability zero
        assert _optimal_fast_row(5, 1.0, 8, _loss_table(6, 1.0))[1] == 0.0

    def test_odd_m_sweep_row_reports_the_fast_row_minimiser(self, tmp_path):
        cfg = small_cfg(tmp_path, n_range=(1.5, 6.5, 1.0), phi_grid_points=16)
        row = run_sweep(cfg).rows[2]  # n = 3.5, m = 7
        assert row.argmin_phi == _optimal_fast_row(7, 0.9, 16, _loss_table(8, 0.9))[1]
        assert 0.0 < row.argmin_phi < math.pi / 8

    @pytest.mark.parametrize("spec", [MmStateSpec(8, 2), MmStateSpec(9, 4), MmStateSpec(6, 0)])
    @pytest.mark.parametrize("eta", [0.6, 0.95, 1.0])
    def test_mm_reports_quarter_period_off_the_grid(self, spec, eta):
        # a 90-point grid misses delta*phi = pi/2; the reported phase does not
        best, phi_star = _mm_row(spec, eta, _loss_table(spec.m + 1, eta))
        assert phi_star == math.pi / (2 * spec.delta)

        def err(phi):
            return mm_phase_error(mm_state_output(spec, eta, phi, check=False), spec, phi)

        period = TWO_PI / spec.delta
        assert err(phi_star) == pytest.approx(best, rel=1e-10)
        assert err(phi_star) <= min(err(period * k / 90) for k in range(90)) + 1e-15


class TestRunSweep:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_sweep(small_cfg(tmp_path, output_path=str(a)))
        run_sweep(small_cfg(tmp_path, output_path=str(b)))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_run_in_order_on_the_calling_thread(self, family, tmp_path, monkeypatch):
        # whatever INTERF_THREADS holds, it is not read
        compute_row = sweep_mod._compute_row
        calls = []

        def recording_row(cfg, value, table_for):
            calls.append((threading.get_ident(), value))
            return compute_row(cfg, value, table_for)

        monkeypatch.setattr(sweep_mod, "_compute_row", recording_row)
        monkeypatch.delenv("INTERF_THREADS", raising=False)
        cfg = small_cfg(tmp_path, state_family=family, n_range=(4.0, 7.0, 1.0))
        run_sweep(cfg._replace(output_path=str(tmp_path / "unset.csv")))
        for threads in ("3", "abc"):
            monkeypatch.setenv("INTERF_THREADS", threads)
            calls.clear()
            out = tmp_path / f"{threads}.csv"
            run_sweep(cfg._replace(output_path=str(out)))
            assert calls == [(threading.get_ident(), n) for n in (4.0, 5.0, 6.0, 7.0)]
            assert out.read_bytes() == (tmp_path / "unset.csv").read_bytes()

    def test_work_counts_do_not_grow_with_the_rows(self, tmp_path, monkeypatch):
        # a loss table depends on eta alone, so a sweep over n builds one for its
        # largest top index (and the binomial table inside it) whatever its row
        # count, and a sweep over eta one per row from one binomial table; with
        # --validate the gate adds one binomial table, one loss table per eta,
        # one stacked Kraus round trip per (m, eta) and one loss channel per
        # eta for both arms, with its binomial table, whose top-left blocks serve
        # every m, on every run, since nothing is cached
        tables, loss_tables, stacks, channels = [], [], [], []
        kraus_round_trip = protocol_mod._kraus_round_trip
        loss_channel = protocol_mod.loss_channel
        loss_table = engine_mod._loss_table

        def counting_table(nmax):
            tables.append(nmax)
            return binomial_table(nmax)

        def counting_loss_table(d, eta, binom=None):
            loss_tables.append((d, eta))
            return loss_table(d, eta, binom)

        def counting_round_trip(*args):
            stacks.append(args[0].shape)
            return kraus_round_trip(*args)

        def counting_channel(eta, dim):
            channels.append((eta, dim))
            return loss_channel(eta, dim)

        for mod in (engine_mod, fock_mod, protocol_mod):
            monkeypatch.setattr(mod, "binomial_table", counting_table)
        for mod in (engine_mod, protocol_mod):
            monkeypatch.setattr(mod, "_loss_table", counting_loss_table)
        monkeypatch.setattr(protocol_mod, "_kraus_round_trip", counting_round_trip)
        monkeypatch.setattr(protocol_mod, "loss_channel", counting_channel)
        etas = [0.5 + 0.05 * k for k in range(11)]
        for kw, top, want_loss_tables in [
            (dict(n_range=(2.0, 2.0, 1.0)), 4, [(5, 0.9)]),
            (dict(n_range=(2.0, 40.0, 1.0)), 80, [(81, 0.9)]),
            (dict(state_family="mm", n_range=(5.0, 60.0, 1.0)), 117, [(118, 0.9)]),
            (dict(sweep_axis="eta", fixed_n=8.0, eta_range=(0.5, 1.0, 0.05)), 16,
             [(17, eta) for eta in etas]),
        ]:
            tables.clear()
            loss_tables.clear()
            run_sweep(small_cfg(tmp_path, **kw))
            assert tables == [top]
            assert loss_tables == want_loss_tables
        assert stacks == channels == []
        for _ in range(2):
            for calls in (tables, loss_tables, stacks, channels):
                calls.clear()
            run_sweep(small_cfg(tmp_path, state_family="mm", n_range=(5.0, 30.0, 1.0),
                                validate=True))
            assert tables == [8, 8, 8, 8, 57]
            assert loss_tables == [(9, 0.5), (9, 0.9), (9, 1.0), (58, 0.9)]
            assert len(stacks) == 24
            assert channels == [(0.5, 9), (0.9, 9), (1.0, 9)]

    def test_header_and_shape(self, tmp_path):
        summary = run_sweep(small_cfg(tmp_path))
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4
        assert [r.sweep for r in summary.rows] == [2.0, 3.0, 4.0, 5.0]
        for row in summary.rows:
            assert row.heisenberg <= row.shot_noise
            assert row.mm_error is None
            assert row.min_rms is not None

    def test_mm_at_m_prime_0_noiseless_hits_half_inverse_n(self, tmp_path):
        cfg = small_cfg(
            tmp_path,
            state_family="mm",
            mm_m_prime=0,
            fixed_eta=1.0,
            n_range=(1.0, 6.0, 1.0),
            phi_grid_points=360,
        )
        summary = run_sweep(cfg)
        for row in summary.rows:
            assert row.mm_error == pytest.approx(1.0 / (2 * row.sweep), abs=1e-9)
            assert row.min_rms is None

    def test_eta_axis_sweep(self, tmp_path):
        cfg = SweepConfig(
            state_family="mm",
            sweep_axis="eta",
            fixed_n=6.0,
            mm_m_prime=2,
            eta_range=(0.6, 1.0, 0.2),
            phi_grid_points=120,
            output_path=str(tmp_path / "eta.csv"),
        )
        summary = run_sweep(cfg)
        assert [r.sweep for r in summary.rows] == [0.6, 0.8, 1.0]
        # less loss improves the minimized error
        errs = [r.mm_error for r in summary.rows]
        assert errs[0] > errs[1] > errs[2]

    def test_mm_summary_has_no_excluded_samples_line(self, tmp_path):
        # the grid's phi = 0 sample is an inf sentinel, but no CSV column averages the grid
        cfg = small_cfg(tmp_path, state_family="mm", mm_m_prime=2, n_range=(4.0, 5.0, 1.0))
        assert not any("excluded" in line for line in run_sweep(cfg).lines())

    def test_overlapping_mm_sweep_does_not_warn(self, tmp_path):
        # delta <= m_prime chains the observable's dyads; mm_observable warns
        # about that, but the sweep never builds the observable
        cfg = small_cfg(tmp_path, state_family="mm", mm_m_prime=3, n_range=(3.5, 4.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_sweep(cfg)
        assert all(r.mm_error is not None for r in summary.rows)

    def test_row_past_the_binomial_limit_builds_no_table(self, tmp_path, monkeypatch):
        # the row fails on its top index before it asks for its loss table
        tables = []
        loss_table, table = engine_mod._loss_table, engine_mod.binomial_table
        monkeypatch.setattr(engine_mod, "_loss_table",
                            lambda *args: tables.append(args[:2]) or loss_table(*args))
        monkeypatch.setattr(engine_mod, "binomial_table",
                            lambda nmax: tables.append(nmax) or table(nmax))
        with pytest.raises(ValidationFailure,
                           match=r"sweep=515 \(top index 1030\): .*binomials of 1030 overflow"):
            run_sweep(small_cfg(tmp_path, n_range=(515.0, 515.0, 1.0)))
        assert tables == []
        assert not (tmp_path / "out.csv").exists()

    def test_validation_gate_writes_reports(self, tmp_path):
        cfg = small_cfg(tmp_path, validate=True, n_range=(2.0, 3.0, 1.0))
        summary = run_sweep(cfg)
        assert summary.validation is not None and summary.validation.passed
        txt, kv = summary.validation_paths
        assert "status=pass" in open(kv).read()
        assert "overall max_dev" in open(txt).read()

    def test_validation_failure_blocks_csv(self, tmp_path, monkeypatch):
        from interferolab.protocol import ValidationCell, ValidationReport

        bad = ValidationReport(
            (ValidationCell("rho", 2, -1, 0.9, 0.3, 1.0, (0, 0)),), 1e-10
        )
        # run_sweep looks the gate up in protocol when cfg.validate asks for it
        monkeypatch.setattr(protocol_mod, "validate_closed_forms", lambda *a, **k: bad)
        cfg = small_cfg(tmp_path, validate=True)
        with pytest.raises(ValidationFailure):
            run_sweep(cfg)
        assert not (tmp_path / "out.csv").exists()


GOLDEN_DIR = Path(__file__).parent / "golden"


def assert_golden_is_the_reference_correctly_rounded(golden_name, reference_name, columns):
    with open(GOLDEN_DIR / reference_name, encoding="utf-8") as fh:
        ref = {row["sweep"]: row for row in csv.DictReader(fh)}
    with open(GOLDEN_DIR / golden_name, encoding="utf-8") as fh:
        golden = list(csv.DictReader(fh))
    assert [row["sweep"] for row in golden] == list(ref)
    twelve = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)
    for row in golden:
        for col in columns:
            want = twelve.plus(decimal.Decimal(ref[row["sweep"]][col]))
            assert decimal.Decimal(row[col]) == want, (row["sweep"], col)


def test_golden_cells_are_the_reference_correctly_rounded():
    # reference: tests/golden/mp_reference.py, 40 digits in mpmath
    assert_golden_is_the_reference_correctly_rounded(
        "optimal_vs_n_eta09_default.csv", "optimal_vs_n_eta09_reference.csv", ("min_rms", "holevo")
    )


def test_large_golden_min_rms_is_the_reference_correctly_rounded():
    # reference: tests/golden/mp_reference.py large, 40 digits in mpmath
    assert_golden_is_the_reference_correctly_rounded(
        "optimal_vs_n_eta09_large.csv", "optimal_vs_n_eta09_large_reference.csv", ("min_rms",)
    )


@pytest.mark.parametrize("threads", ["1", None, "3"])
def test_cli_reproduces_the_mm_golden_csv(threads, tmp_path, monkeypatch):
    # the two-component benchmark run at seed 0, without --validate; the
    # bytes do not depend on the retired INTERF_THREADS variable
    if threads is None:
        monkeypatch.delenv("INTERF_THREADS", raising=False)
    else:
        monkeypatch.setenv("INTERF_THREADS", threads)
    out = tmp_path / "mm.csv"
    assert cli_main([
        "--family", "mm", "--axis", "n", "--eta", "0.9", "--m-prime", "3",
        "--n-min", "5", "--n-max", "100", "--n-step", "1", "--phi-grid", "720", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / "mm_vs_n_eta09_mprime3.csv").read_bytes()


def test_cli_reproduces_the_validation_report_goldens(tmp_path):
    # --validate caps the gate at top index 8; both reports are pinned byte
    # for byte, like the CSV goldens
    out = tmp_path / "val.csv"
    assert cli_main(["--validate", "--n-min", "2", "--n-max", "12", "--out", str(out)]) == 0
    for suffix in ("txt", "kv"):
        got = (tmp_path / f"val.csv.validation.{suffix}").read_bytes()
        assert got == (GOLDEN_DIR / f"validation_n2_12.{suffix}").read_bytes()


@pytest.mark.parametrize("m_prime", ["3", "0"], ids=["mm", "mm-m-prime-0"])
def test_mm_rows_do_not_depend_on_the_phase_grid(m_prime, tmp_path):
    outs = []
    for grid in (4, 90, 720):
        outs.append(tmp_path / f"{grid}.csv")
        assert cli_main([
            "--family", "mm", "--m-prime", m_prime, "--eta", "0.7", "--n-min", "5", "--n-max", "20",
            "--phi-grid", str(grid), "--out", str(outs[-1]),
        ]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_off_grid_mm_error_is_the_reference_correctly_rounded(tmp_path):
    # a 90-point grid misses delta*phi = pi/2 on every row; reference:
    # tests/golden/mp_reference.py mm-off-grid, 40 digits in mpmath
    out = tmp_path / "mm.csv"
    assert cli_main([
        "--family", "mm", "--m-prime", "4", "--eta", "0.5", "--n-min", "5", "--n-max", "40",
        "--phi-grid", "90", "--out", str(out),
    ]) == 0
    # an absolute path overrides GOLDEN_DIR
    assert_golden_is_the_reference_correctly_rounded(
        str(out), "mm_vs_n_eta05_mprime4_reference.csv", ("mm_error",)
    )
    with open(out, encoding="utf-8") as fh:
        cells = {row["sweep"]: row["mm_error"] for row in csv.DictReader(fh)}
    # cells where a grid scan refined by golden section (tolerance 1e-6 in
    # phi) misses the 12th digit
    assert cells["20"] == "26079.5832537"
    assert cells["33"] == "9416144861.12"
    assert cells["40"] == "1.17437248555e+13"


@pytest.mark.parametrize("threads", ["1", None])
def test_cli_reproduces_the_large_m_golden_csv(threads, tmp_path, monkeypatch):
    # the large-n benchmark run at seed 0 (m = 50 to 300): the rows from m = 100
    # on run their lags from 2 on in blocks, and every row reads the top-left
    # block of one C-order loss table of 301 rows; min_rms is reference-rounded,
    # holevo is not. The bytes do not depend on the retired INTERF_THREADS variable
    if threads is None:
        monkeypatch.delenv("INTERF_THREADS", raising=False)
    else:
        monkeypatch.setenv("INTERF_THREADS", threads)
    out = tmp_path / "large.csv"
    assert cli_main([
        "--family", "optimal", "--axis", "n", "--eta", "0.9", "--n-min", "25", "--n-max", "150",
        "--n-step", "25", "--phi-grid", "720", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / "optimal_vs_n_eta09_large.csv").read_bytes()


def test_large_golden_holevo_is_near_the_reference():
    # reference: tests/golden/mp_reference.py large, 40 digits in mpmath; the
    # cells are not correctly rounded (log-gamma binomials above n = 60), and
    # the largest gap, at m = 300, is 7.8e-11
    with open(GOLDEN_DIR / "optimal_vs_n_eta09_large_reference.csv", encoding="utf-8") as fh:
        ref = {row["sweep"]: float(row["holevo"]) for row in csv.DictReader(fh)}
    with open(GOLDEN_DIR / "optimal_vs_n_eta09_large.csv", encoding="utf-8") as fh:
        golden = list(csv.DictReader(fh))
    assert [row["sweep"] for row in golden] == list(ref)
    for row in golden:
        want = ref[row["sweep"]]
        assert abs(float(row["holevo"]) - want) <= 1e-10 * want, row["sweep"]


class TestCsvFormatting:
    def test_twelve_significant_digits(self):
        assert format_float(1.0 / 3.0) == "0.333333333333"
        assert format_float(2.0) == "2"

    def test_sentinels_and_gaps(self):
        assert format_float(math.inf) == "inf"
        assert format_float(-math.inf) == "-inf"
        assert format_float(None) == ""
        row = CurvePoint(sweep=3.0, mm_error=math.inf).csv_row()
        assert row.split(",")[5] == "inf"
        assert row.split(",")[1] == ""


class TestMergeExternal:
    """--external: the comparison file fills the external column before the CSV is written."""

    def run_with(self, tmp_path, text):
        comp = tmp_path / "comp.csv"
        comp.write_bytes(text.encode() if isinstance(text, str) else text)
        run_sweep(small_cfg(tmp_path, external_comparison_file=str(comp)))
        return tmp_path / "out.csv"

    def test_empty_comparison_keeps_file(self, tmp_path):
        run_sweep(small_cfg(tmp_path))
        before = (tmp_path / "out.csv").read_bytes()
        assert self.run_with(tmp_path, "").read_bytes() == before

    def test_single_match_fills_one_cell(self, tmp_path):
        csv = self.run_with(tmp_path, "3,0.125\n")
        rows = csv.read_text().splitlines()[1:]
        externals = [r.split(",")[9] for r in rows]
        assert externals == ["", "0.125", "", ""]

    def test_byte_order_mark_leaves_the_csv_unchanged(self, tmp_path):
        plain = self.run_with(tmp_path, "3,0.125\n").read_bytes()
        assert self.run_with(tmp_path, "\ufeff3,0.125\n").read_bytes() == plain
        assert b",0.125\n" in plain

    def test_mismatch_warns_and_leaves_empty(self, tmp_path):
        comp = tmp_path / "comp.csv"
        comp.write_text("99,0.5\n3,0.125\n0.5,1\n")
        summary = run_sweep(small_cfg(tmp_path, external_comparison_file=str(comp)))
        assert summary.unmatched == (99.0, 0.5)
        assert summary.lines()[-1] == "comparison values matching no sweep value: 99.0, 0.5"
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert [r.split(",")[9] for r in rows] == ["", "0.125", "", ""]

    @pytest.mark.parametrize("text, line", [
        pytest.param("1,2,3\n", 1, id="three-columns"),
        pytest.param("3,0.5\n2,nan\n", 2, id="nan-cell"),
        pytest.param("inf,0.5\n", 1, id="inf-sweep-value"),
        pytest.param("3,inf\n3,0.5\n", 1, id="inf-cell"),
        pytest.param("3,0.25\n# note\n3.0,0.5\n", 3, id="repeated-sweep-value"),
        pytest.param("3,abc\n", 1, id="non-numeric-cell"),
        pytest.param("\ufeff2,0.5\n3,abc\n", 2, id="non-numeric-cell-after-byte-order-mark"),
        pytest.param(b"3,0.5\n\xff,1\n", 2, id="undecodable-byte"),
        pytest.param(b"\xef\xbb\xbf3,0.5\n2,\xff\n", 2, id="undecodable-after-byte-order-mark"),
    ])
    def test_malformed_comparison_rejected(self, tmp_path, text, line):
        from interferolab.sweep import MalformedComparisonError

        with pytest.raises(MalformedComparisonError, match=f"comp.csv:{line}: "):
            self.run_with(tmp_path, text)
        assert not (tmp_path / "out.csv").exists()

    def test_merge_during_run(self, tmp_path):
        comp = tmp_path / "comp.csv"
        comp.write_text("2,0.77\n")
        cfg = small_cfg(tmp_path, external_comparison_file=str(comp))
        summary = run_sweep(cfg)
        assert summary.rows[0].external == 0.77

    def test_match_on_printed_sweep_value(self, tmp_path):
        # 0.5 + 14 * 0.025 is 0.8500000000000001 but prints as 0.85, which matches
        comp = tmp_path / "comp.csv"
        comp.write_text("0.85,0.25\n")
        cfg = small_cfg(
            tmp_path, sweep_axis="eta", fixed_n=3.0, eta_range=(0.5, 0.9, 0.025),
            external_comparison_file=str(comp),
        )
        summary = run_sweep(cfg)
        assert summary.rows[14].sweep != 0.85
        assert [r.external for r in summary.rows] == [None] * 14 + [0.25, None, None]


class TestGnuPlotScript:
    def test_standard_csv_lists_traces(self, tmp_path):
        script = emit_gnu_plot_script(run_sweep(small_cfg(tmp_path)))
        body = open(script).read()
        assert "filledcurves" in body
        assert "using 1:2" in body  # min RMS trace
        assert "using 1:6" not in body  # no mm column in the optimal family
        assert "logscale y" in body

    def test_mm_csv_swaps_solid_trace(self, tmp_path):
        cfg = small_cfg(
            tmp_path, state_family="mm", mm_m_prime=1, n_range=(3.0, 5.0, 1.0)
        )
        body = open(emit_gnu_plot_script(run_sweep(cfg))).read()
        assert "using 1:6" in body
        assert "using 1:2" not in body

    def test_script_is_built_from_the_rows_alone(self, tmp_path):
        comp = tmp_path / "comp.csv"
        comp.write_text("0.8,0.2\n")
        cfg = small_cfg(
            tmp_path, state_family="mm", mm_m_prime=2, sweep_axis="eta", fixed_n=5.0,
            eta_range=(0.6, 1.0, 0.2), external_comparison_file=str(comp),
        )
        summary = run_sweep(cfg)
        (tmp_path / "out.csv").unlink()
        body = open(emit_gnu_plot_script(summary)).read()
        assert "datafile = 'out.csv'" in body
        assert "using 1:6 with lines" in body  # mm_error
        assert "using 1:10 with lines" in body  # external
        assert "using 1:2 " not in body
        assert not (tmp_path / "out.csv").exists()

    def test_apostrophe_in_the_csv_name_is_doubled(self, tmp_path):
        # gnuplot reads '' inside a single-quoted string as one quote
        summary = run_sweep(small_cfg(tmp_path, output_path=str(tmp_path / "it's.csv")))
        lines = open(emit_gnu_plot_script(summary)).read().splitlines()
        assert "datafile = 'it''s.csv'" in lines
        assert "set output 'it''s.png'" in lines

    def test_header_names_every_row_field(self):
        assert len(CSV_HEADER.split(",")) == len(CurvePoint._fields)
