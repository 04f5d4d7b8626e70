import csv
import decimal
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interferolab.sweep as sweep_mod
from interferolab import (
    CSV_HEADER,
    MmStateSpec,
    SweepConfig,
    UsageError,
    ValidationFailure,
    apply_phase,
    circular_rms,
    emit_gnu_plot_script,
    merge_external,
    mm_phase_error,
    mm_state_output,
    optimal_outcome_distribution,
    optimal_state_output,
    phase_error_summary,
    povm_distribution,
    run_sweep,
)
from interferolab.sweep import (
    CurvePoint,
    _mm_row,
    _optimal_fast_row,
    _SineCurve,
    format_float,
)

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


class TestConfigValidation:
    def test_rejects_unknown_family(self, tmp_path):
        with pytest.raises(UsageError, match="family"):
            small_cfg(tmp_path, state_family="squeezed").check()

    def test_rejects_empty_range(self, tmp_path):
        with pytest.raises(UsageError, match="max"):
            small_cfg(tmp_path, n_range=(10.0, 2.0, 1.0)).check()

    def test_rejects_nonpositive_step(self, tmp_path):
        with pytest.raises(UsageError, match="step"):
            small_cfg(tmp_path, n_range=(2.0, 5.0, 0.0)).check()

    def test_rejects_mm_with_small_n(self, tmp_path):
        cfg = small_cfg(tmp_path, state_family="mm", n_range=(2.0, 5.0, 1.0), mm_m_prime=3)
        with pytest.raises(UsageError, match="m_prime"):
            cfg.check()

    def test_rejects_bad_transmissivity(self, tmp_path):
        with pytest.raises(UsageError, match="transmissivity"):
            small_cfg(tmp_path, fixed_eta=1.2).check()

    def test_rejects_fractional_n_for_integer_families(self, tmp_path):
        cfg = small_cfg(tmp_path, state_family="no", n_range=(2.5, 3.5, 1.0))
        with pytest.raises(UsageError, match="integer"):
            cfg.check()

    def test_half_integer_n_allowed_for_optimal(self, tmp_path):
        cfg = small_cfg(tmp_path, n_range=(1.5, 3.0, 0.5))
        cfg.check()
        assert cfg._top_index(1.5) == 3


class TestRowMachinery:
    def test_fast_row_matches_public_operations(self):
        m, eta, grid = 6, 0.85, 90
        best, phi_star, avg, holevo, _ = _optimal_fast_row(m, eta, grid)

        rho0 = optimal_state_output(m, eta, 0.0)

        def rms(phi):
            shifted = apply_phase(rho0, -phi)
            return circular_rms(povm_distribution(shifted, m, true_phi=phi))

        _, want_best, _, _ = phase_error_summary(rms, TWO_PI, grid)
        samples = [rms(TWO_PI * k / grid) for k in range(grid)]
        assert best == pytest.approx(want_best, abs=1e-12)
        # the reported phase is a minimiser, folded into the fundamental interval
        assert 0.0 <= phi_star <= math.pi / (m + 1)
        assert rms(phi_star) == pytest.approx(best, abs=1e-12)
        assert rms(phi_star) <= min(samples) + 1e-15
        assert avg == pytest.approx(float(np.mean(samples)), abs=1e-12)

        from interferolab import holevo_variance

        assert holevo == pytest.approx(holevo_variance(rho0), abs=1e-14)

    def test_phase_shifted_output_equals_direct_closed_form(self):
        # the sweep exploits that the phi dependence is a Fock phase twist
        m, eta, phi = 5, 0.7, 0.83
        direct = optimal_state_output(m, eta, phi)
        twisted = apply_phase(optimal_state_output(m, eta, 0.0), -phi)
        assert np.max(np.abs(direct.mat - twisted.mat)) < 1e-12

    def test_mm_row_matches_pointwise_error(self):
        spec, eta, grid = MmStateSpec(8, 2), 0.8, 120
        best, phi_star, _ = _mm_row(spec, eta, grid)
        period = TWO_PI / spec.delta

        def err(phi):
            return mm_phase_error(mm_state_output(spec, eta, phi, check=False), spec, phi)

        _, want_best, _, _ = phase_error_summary(err, period, grid)
        samples = [err(period * k / grid) for k in range(grid)]
        assert best == pytest.approx(want_best, rel=1e-10)
        # the reported phase is a minimiser, folded into the fundamental interval
        assert 0.0 <= phi_star <= period / 4
        assert err(phi_star) == pytest.approx(best, rel=1e-10)
        assert err(phi_star) <= min(samples) + 1e-15


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

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 16), eta=st.floats(0.05, 1.0), frac=st.floats(0.05, 0.95))
    def test_slope_is_derivative_of_rms_squared(self, m, eta, frac):
        phi, h = frac * math.pi / (m + 1), 1e-5
        fd = (public_rms(m, eta, phi + h) ** 2 - public_rms(m, eta, phi - h) ** 2) / (2 * h)
        got = _SineCurve(m, eta).rms2_slope([phi])[0]
        assert got == pytest.approx(fd, abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(half_m=st.integers(1, 30), eta=st.floats(0.05, 1.0))
    def test_even_m_reports_the_lattice_point(self, half_m, eta):
        assert _optimal_fast_row(2 * half_m, eta, 8)[1] == 0.0

    @pytest.mark.parametrize("m, eta", [(1, 0.9), (5, 0.9), (13, 0.9)])
    def test_odd_m_minimiser_is_a_sign_change_of_the_slope(self, m, eta):
        phi_star = _optimal_fast_row(m, eta, 8)[1]
        assert 0.0 < phi_star <= math.pi / (m + 1)
        slope = _SineCurve(m, eta).rms2_slope([phi_star * (1 - 1e-6), phi_star * (1 + 1e-6)])
        assert slope[0] < 0.0 < slope[1]

    def test_odd_m_minimiser_can_be_the_half_cell_point(self):
        # at strong loss the curve falls across the whole half-cell
        assert _optimal_fast_row(3, 0.3, 8)[1] == math.pi / 4

    def test_lossless_odd_m_has_no_kink_to_fall_off(self):
        # at eta = 1 the outcome at distance pi has probability zero
        assert _optimal_fast_row(5, 1.0, 8)[1] == 0.0

    def test_odd_m_rows_do_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path, n_range=(1.5, 6.5, 1.0), phi_grid_points=16)
        monkeypatch.setenv("INTERF_THREADS", "1")
        serial = run_sweep(replace(cfg, output_path=str(tmp_path / "serial.csv")))
        monkeypatch.delenv("INTERF_THREADS")
        pooled = run_sweep(replace(cfg, output_path=str(tmp_path / "pooled.csv")))
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()
        row = serial.rows[2]  # n = 3.5, m = 7
        assert row.argmin_phi == _optimal_fast_row(7, 0.9, 16)[1]
        assert 0.0 < row.argmin_phi < math.pi / 8
        assert [r.argmin_phi for r in pooled.rows] == [r.argmin_phi for r in serial.rows]

    @pytest.mark.parametrize("spec", [MmStateSpec(8, 2), MmStateSpec(9, 4), MmStateSpec(6, 0)])
    @pytest.mark.parametrize("eta", [0.6, 0.95, 1.0])
    def test_mm_reports_quarter_period_off_the_grid(self, spec, eta):
        # a 90-point grid misses delta*phi = pi/2; the reported phase does not
        best, phi_star, _ = _mm_row(spec, eta, 90)
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

    def test_threaded_run_matches_serial(self, tmp_path, monkeypatch):
        a = tmp_path / "serial.csv"
        b = tmp_path / "threaded.csv"
        monkeypatch.setenv("INTERF_THREADS", "1")
        run_sweep(small_cfg(tmp_path, output_path=str(a)))
        monkeypatch.setenv("INTERF_THREADS", "3")
        run_sweep(small_cfg(tmp_path, output_path=str(b)))
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_shape(self, tmp_path):
        summary = run_sweep(small_cfg(tmp_path))
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4
        assert [r.sweep_value for r in summary.rows] == [2.0, 3.0, 4.0, 5.0]
        for row in summary.rows:
            assert row.heisenberg <= row.shot_noise
            assert row.mm_error_min is None
            assert row.min_rms is not None

    def test_no_family_noiseless_hits_half_inverse_n(self, tmp_path):
        cfg = small_cfg(
            tmp_path,
            state_family="no",
            fixed_eta=1.0,
            n_range=(1.0, 6.0, 1.0),
            phi_grid_points=360,
        )
        summary = run_sweep(cfg)
        for row in summary.rows:
            assert row.mm_error_min == pytest.approx(1.0 / (2 * row.sweep_value), abs=1e-9)
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
        assert [r.sweep_value for r in summary.rows] == [0.6, 0.8, 1.0]
        # less loss improves the minimized error
        errs = [r.mm_error_min for r in summary.rows]
        assert errs[0] > errs[1] > errs[2]

    def test_overlapping_mm_sweep_does_not_warn(self, tmp_path):
        # delta <= m_prime chains the observable's dyads; mm_observable warns
        # about that, but the sweep never builds the observable
        cfg = small_cfg(tmp_path, state_family="mm", mm_m_prime=3, n_range=(3.5, 4.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_sweep(cfg)
        assert all(r.mm_error_min is not None for r in summary.rows)

    def test_noon_family_rows_only_carry_baselines(self, tmp_path):
        cfg = small_cfg(tmp_path, state_family="noon", n_range=(2.0, 4.0, 1.0))
        summary = run_sweep(cfg)
        for row in summary.rows:
            assert row.min_rms is None and row.mm_error_min is None
            assert row.noon_baseline is not None

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
        monkeypatch.setattr(sweep_mod, "validate_closed_forms", lambda *a, **k: bad)
        cfg = small_cfg(tmp_path, validate=True)
        with pytest.raises(ValidationFailure):
            run_sweep(cfg)
        assert not (tmp_path / "out.csv").exists()


GOLDEN_DIR = Path(__file__).parent / "golden"


def test_golden_cells_are_the_reference_correctly_rounded():
    # reference: tests/golden/mp_reference.py, 40 digits in mpmath
    with open(GOLDEN_DIR / "optimal_vs_n_eta09_reference.csv", encoding="utf-8") as fh:
        ref = {row["sweep"]: row for row in csv.DictReader(fh)}
    with open(GOLDEN_DIR / "optimal_vs_n_eta09_default.csv", encoding="utf-8") as fh:
        golden = list(csv.DictReader(fh))
    assert [row["sweep"] for row in golden] == list(ref)
    twelve = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)
    for row in golden:
        for col in ("min_rms", "holevo"):
            want = twelve.plus(decimal.Decimal(ref[row["sweep"]][col]))
            assert decimal.Decimal(row[col]) == want, (row["sweep"], col)


class TestCsvFormatting:
    def test_twelve_significant_digits(self):
        assert format_float(1.0 / 3.0) == "0.333333333333"
        assert format_float(2.0) == "2"

    def test_sentinels_and_gaps(self):
        assert format_float(math.inf) == "inf"
        assert format_float(None) == ""
        row = CurvePoint(sweep_value=3.0, mm_error_min=math.inf).csv_row()
        assert row.split(",")[5] == "inf"
        assert row.split(",")[1] == ""


class TestMergeExternal:
    def write_csv(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run_sweep(cfg)
        return tmp_path / "out.csv"

    def test_empty_comparison_keeps_file(self, tmp_path):
        csv = self.write_csv(tmp_path)
        before = csv.read_text()
        comp = tmp_path / "comp.csv"
        comp.write_text("")
        merge_external(csv, comp)
        assert csv.read_text() == before

    def test_single_match_fills_one_cell(self, tmp_path):
        csv = self.write_csv(tmp_path)
        comp = tmp_path / "comp.csv"
        comp.write_text("3,0.125\n")
        merge_external(csv, comp)
        rows = csv.read_text().splitlines()[1:]
        externals = [r.split(",")[9] for r in rows]
        assert externals == ["", "0.125", "", ""]

    def test_mismatch_warns_and_leaves_empty(self, tmp_path):
        csv = self.write_csv(tmp_path)
        comp = tmp_path / "comp.csv"
        comp.write_text("99,0.5\n")
        with pytest.warns(UserWarning, match="no matching sweep value"):
            merge_external(csv, comp)
        rows = csv.read_text().splitlines()[1:]
        assert all(r.split(",")[9] == "" for r in rows)

    def test_malformed_comparison_rejected(self, tmp_path):
        csv = self.write_csv(tmp_path)
        comp = tmp_path / "comp.csv"
        comp.write_text("1,2,3\n")
        from interferolab.sweep import MalformedComparisonError

        with pytest.raises(MalformedComparisonError):
            merge_external(csv, comp)

    def test_merge_during_run(self, tmp_path):
        comp = tmp_path / "comp.csv"
        comp.write_text("2,0.77\n")
        cfg = small_cfg(tmp_path, external_comparison_file=str(comp))
        summary = run_sweep(cfg)
        assert summary.rows[0].external == pytest.approx(0.77)


class TestGnuPlotScript:
    def test_standard_csv_lists_traces(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run_sweep(cfg)
        script = emit_gnu_plot_script(tmp_path / "out.csv")
        body = open(script).read()
        assert "filledcurves" in body
        assert "using 1:2" in body  # min RMS trace
        assert "using 1:6" not in body  # no mm column in the optimal family
        assert "logscale y" in body

    def test_mm_csv_swaps_solid_trace(self, tmp_path):
        cfg = small_cfg(
            tmp_path, state_family="mm", mm_m_prime=1, n_range=(3.0, 5.0, 1.0)
        )
        run_sweep(cfg)
        body = open(emit_gnu_plot_script(tmp_path / "out.csv")).read()
        assert "using 1:6" in body
        assert "using 1:2" not in body

    def test_missing_csv_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            emit_gnu_plot_script(tmp_path / "nope.csv")

    def test_wrong_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        from interferolab.sweep import MalformedComparisonError

        with pytest.raises(MalformedComparisonError):
            emit_gnu_plot_script(bad)
