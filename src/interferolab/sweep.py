"""Parameter sweeps over photon number and transmissivity, with CSV output.

A sweep walks one axis (mean photon number n, or transmissivity eta) for
one input-state family and writes a row of error figures per value,
together with the shot-noise, Heisenberg and lossy-NOON reference
columns and an empty slot for externally supplied comparison data.
Rows are pure functions of the configuration, so repeated runs emit
byte-identical files.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .estimation import _holevo_dispersion, baselines, mm_error_terms, mm_phase_error_closed
from .protocol import ValidationReport, _round_trip, validate_closed_forms
from .states import MmStateSpec, _sine_amplitudes

CSV_HEADER = "sweep,min_rms,argmin_phi,avg_rms,holevo,mm_error,shot_noise,heisenberg,noon,external"

FAMILIES = ("optimal", "mm", "no", "noon")

TWO_PI = 2.0 * math.pi


class UsageError(Exception):
    """Invalid configuration or command line."""


class ValidationFailure(Exception):
    """Numerical validation did not pass; CSV was not written."""


class MalformedComparisonError(Exception):
    """External comparison file is malformed."""


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one sweep run."""

    state_family: str = "optimal"
    sweep_axis: str = "n"
    fixed_eta: float = 0.9
    fixed_n: float = 20.0
    n_range: tuple = (2.0, 30.0, 1.0)
    eta_range: tuple = (0.5, 1.0, 0.025)
    mm_m_prime: int = 3
    phi_grid_points: int = 720
    validate: bool = False
    external_comparison_file: str | None = None
    output_path: str = "sweep.csv"

    def check(self) -> None:
        fam, axis = self.state_family, self.sweep_axis
        if fam not in FAMILIES:
            raise UsageError(f"unknown family {fam!r}; choose from {FAMILIES}")
        if axis not in ("n", "eta"):
            raise UsageError(f"unknown axis {axis!r}; choose n or eta")
        settings = (*self.n_range, *self.eta_range, self.fixed_eta, self.fixed_n)
        if not all(math.isfinite(x) for x in settings):
            raise UsageError("range bounds, steps and fixed values must be finite")
        lo, hi, step = self.n_range if axis == "n" else self.eta_range
        if step <= 0:
            raise UsageError("range step must be positive")
        if hi < lo:
            raise UsageError("range max must be >= min")
        if not math.isfinite((hi - lo) / step):
            raise UsageError(f"range step {step!r} is too small: (max - min) / step is not finite")
        if self.phi_grid_points < 2:
            raise UsageError("phi grid needs at least 2 points")
        if self.mm_m_prime < 0:
            raise UsageError("m-prime must be >= 0")
        etas = self.values() if axis == "eta" else [self.fixed_eta]
        for eta in etas:
            if not (0.0 < eta <= 1.0):
                raise UsageError(f"transmissivity {eta!r} outside (0, 1]")
        for n in self.values() if axis == "n" else [self.fixed_n]:
            if n < 1.0:
                raise UsageError(f"mean photon number {n!r} below 1")
            self._top_index(n)  # raises UsageError on bad combinations

    def values(self) -> list:
        lo, hi, step = self.n_range if self.sweep_axis == "n" else self.eta_range
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        return [lo + k * step for k in range(count)]

    def _top_index(self, n: float) -> int:
        """Largest Fock index of the input for mean photon number n."""
        fam = self.state_family
        if fam == "optimal":
            m = 2.0 * n
        elif fam == "mm":
            m = 2.0 * n - self.mm_m_prime
        else:  # no / noon use integer n
            if abs(n - round(n)) > 1e-9:
                raise UsageError(f"family {fam!r} needs integer photon numbers, got {n!r}")
            m = 2.0 * n
        if not math.isfinite(m):
            raise UsageError(f"photon number {n!r} gives a non-finite top Fock index")
        if abs(m - round(m)) > 1e-9:
            raise UsageError(f"photon number {n!r} gives non-integer top Fock index {m!r}")
        m = int(round(m))
        if fam == "mm" and m <= self.mm_m_prime:
            raise UsageError(
                f"n={n!r} with m_prime={self.mm_m_prime} gives top index {m} <= m_prime; "
                f"raise n-min above {self.mm_m_prime}"
            )
        if m < 1:
            raise UsageError(f"photon number {n!r} too small")
        return m


@dataclass(frozen=True)
class CurvePoint:
    """One CSV row; None marks a column that does not apply."""

    sweep_value: float
    min_rms: float | None = None
    argmin_phi: float | None = None
    avg_rms: float | None = None
    holevo: float | None = None
    mm_error_min: float | None = None
    shot_noise: float | None = None
    heisenberg: float | None = None
    noon_baseline: float | None = None
    external: float | None = None

    def csv_row(self) -> str:
        return ",".join(format_float(getattr(self, f.name)) for f in fields(self))


def format_float(x) -> str:
    if x is None:
        return ""
    return f"{x:.12g}"


@dataclass(frozen=True)
class SweepSummary:
    """What a run produced: rows, output path, validation outcome, timing,
    and the comparison values that matched no sweep value."""

    csv_path: str
    rows: tuple
    elapsed: float
    validation: ValidationReport | None = None
    validation_paths: tuple = ()
    unmatched: tuple = ()

    def lines(self) -> list:
        out = [f"wrote {len(self.rows)} rows -> {self.csv_path} ({self.elapsed:.2f}s)"]
        if self.validation is not None:
            out.append(
                f"production outputs vs the brute-force channel: "
                f"max_dev={self.validation.max_dev:.3e} "
                f"({'pass' if self.validation.passed else 'FAIL'}); "
                f"report: {self.validation_paths[0]}"
            )
        if self.unmatched:
            out.append("comparison values matching no sweep value: "
                       + ", ".join(map(repr, self.unmatched)))
        return out


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

    def __init__(self, m: int, eta: float):
        # summed as complex, like np.sum over a complex diagonal: a real sum pairs
        # the terms differently, and min_rms at N = 28 of the default sweep moves
        sums = [lag.sum(dtype=complex).real for lag in _round_trip(_sine_amplitudes(m), eta).values()]
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
        self.value_coeffs = np.stack([b_k, -2.0 * a_k], axis=1)
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
        series = (self._phased(phis) @ self.value_coeffs).real
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


def _optimal_fast_row(m: int, eta: float, grid_points: int):
    """Error figures for the sine state from the lag sums of its phi = 0 output.

    The reported phase is the minimiser folded into [0, pi/(m+1)] (see
    ``_SineCurve.folded_argmin``); every minimiser is
    +-argmin_phi + 2*pi*l/(m+1).  ``min_rms`` is the RMS there, not the
    lowest scan sample, which rounding noise biases low; ``avg_rms`` is
    the mean over ``grid_points`` equally spaced phases of one period,
    each folded onto the half-cell by ``_SineCurve.rms`` and evaluated
    in blocks of at most PHASE_BLOCK_ELEMENTS (phases x lags).
    """
    curve = _SineCurve(m, eta)
    grid = TWO_PI / grid_points * np.arange(grid_points)
    block = max(1, PHASE_BLOCK_ELEMENTS // curve.d)
    avg = float(np.concatenate([
        curve.rms(grid[i : i + block]) for i in range(0, grid_points, block)
    ]).mean())
    phi_star = curve.folded_argmin()
    holevo = _holevo_dispersion(abs(float(curve.lag_sums[0])))
    return float(curve.rms(phi_star)), phi_star, avg, holevo


def _mm_row(spec: MmStateSpec, eta: float):
    """Least propagated error of the two-component state, and its phase.

    The mean square MS and coherence C of the observable do not depend on
    phi, and the error sqrt(MS - C**2 + (C sin)**2) / (delta |C sin|), with
    sin = sin(delta*phi), falls as |sin| grows: it is least, sqrt(MS)/(delta |C|),
    at pi/(2*delta), the minimiser folded into [0, pi/(2*delta)] (and reported
    by convention where the curve is flat, as at eta = 1).  A non-finite error
    raises ValueError.
    """
    phi_star = math.pi / (2 * spec.delta)
    best = mm_phase_error_closed(mm_error_terms(spec, eta), phi_star)
    if not math.isfinite(best):
        raise ValueError(f"propagated error is {best} at phi = pi/(2*delta)")
    return best, phi_star


def _compute_row(cfg: SweepConfig, value: float) -> CurvePoint:
    if cfg.sweep_axis == "n":
        n, eta = value, cfg.fixed_eta
    else:
        n, eta = cfg.fixed_n, value
    base = baselines(n, eta)
    point = CurvePoint(
        sweep_value=value,
        shot_noise=base.shot_noise,
        heisenberg=base.heisenberg,
        noon_baseline=base.noon_error,
    )
    m = cfg._top_index(n)
    try:
        if cfg.state_family == "optimal":
            best, phi_star, avg, holevo = _optimal_fast_row(m, eta, cfg.phi_grid_points)
            point = replace(point, min_rms=best, argmin_phi=phi_star, avg_rms=avg, holevo=holevo)
        elif cfg.state_family in ("mm", "no"):
            m_prime = cfg.mm_m_prime if cfg.state_family == "mm" else 0
            best, phi_star = _mm_row(MmStateSpec(m, m_prime), eta)
            point = replace(point, mm_error_min=best, argmin_phi=phi_star)
    except ValueError as exc:  # the configuration passed check(), so the numbers broke down
        raise ValidationFailure(f"sweep={format_float(value)} (top index {m}): {exc}") from exc
    return point


def _worker_count() -> int:
    """Threads that compute rows: 1, since rows run in order on the calling thread.

    Its only reader is bench/traced_cli.py, which records it with each traced run.
    """
    return 1


def run_sweep(cfg: SweepConfig) -> SweepSummary:
    """Compute every row of the configured sweep and write the CSV.

    With ``cfg.validate`` set, the production outputs are first checked against
    the brute-force channel on a small subsample (top index capped at 8)
    and nothing is written unless that passes.  Rows are computed in
    ascending sweep order on the calling thread, and listed in that order.
    With ``cfg.external_comparison_file`` set, that file is read before
    anything is written and its values fill the ``external`` column.
    """
    started = time.monotonic()
    cfg.check()
    values = cfg.values()
    comp_path = cfg.external_comparison_file
    external = _read_comparison(comp_path) if comp_path else {}

    report = None
    report_paths = ()
    if cfg.validate:
        max_m = min(8, max(cfg._top_index(n) for n in (
            values if cfg.sweep_axis == "n" else [cfg.fixed_n]
        )))
        report = validate_closed_forms(max_m)
        base = Path(cfg.output_path)
        txt = base.with_name(base.name + ".validation.txt")
        kv = base.with_name(base.name + ".validation.kv")
        txt.write_text(report.to_text() + "\n", encoding="utf-8")
        report.write_key_values(kv)
        report_paths = (str(txt), str(kv))
        if not report.passed:
            raise ValidationFailure(
                f"production outputs vs the brute-force channel: max_dev={report.max_dev:.3e} "
                f"not below tolerance {report.tolerance:.1e} (report: {txt})"
            )

    rows = [_compute_row(cfg, v) for v in values]

    for row in rows:
        if row.heisenberg > row.shot_noise * (1.0 + 1e-12):
            raise ValidationFailure(
                f"baseline ordering violated at sweep={row.sweep_value}: "
                f"heisenberg {row.heisenberg} > shot noise {row.shot_noise}"
            )
    rows, unmatched = _with_external(rows, external)

    lines = [CSV_HEADER] + [r.csv_row() for r in rows]
    with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    return SweepSummary(
        csv_path=cfg.output_path,
        rows=tuple(rows),
        elapsed=time.monotonic() - started,
        validation=report,
        validation_paths=report_paths,
        unmatched=unmatched,
    )


def _read_comparison(path) -> dict:
    """Map each comparison sweep value to its error; every cell must be
    finite and no sweep value may repeat."""
    comparison = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise MalformedComparisonError(
                    f"{path}:{lineno}: expected two comma-separated columns"
                )
            try:
                value, error = float(cells[0]), float(cells[1])
            except ValueError as exc:
                raise MalformedComparisonError(f"{path}:{lineno}: {exc}") from exc
            if not (math.isfinite(value) and math.isfinite(error)):
                raise MalformedComparisonError(f"{path}:{lineno}: non-finite cell")
            if value in comparison:
                raise MalformedComparisonError(f"{path}:{lineno}: repeated sweep value {value!r}")
            comparison[value] = error
    return comparison


def _with_external(rows: list, comparison: dict) -> tuple:
    """Fill ``external`` on the rows whose sweep value, as printed in the
    CSV, equals a comparison value; also return, in file order, the
    comparison values that match no sweep value."""
    printed = [float(format_float(r.sweep_value)) for r in rows]
    seen = set(printed)
    unmatched = tuple(v for v in comparison if v not in seen)
    filled = [replace(r, external=comparison[v]) if v in comparison else r
              for r, v in zip(rows, printed)]
    return filled, unmatched


def emit_gnu_plot_script(summary: SweepSummary) -> str:
    """Write a gnuplot script next to the run's CSV mirroring the standard layout.

    Log-scale errors versus the sweep value: solid minimum-error curve,
    plus-sign Holevo markers, grey dashed average, dot-dash NOON curve,
    dashed external comparison, and a shaded band between the shot-noise
    and Heisenberg columns.  Traces whose column is empty in every row of
    ``summary`` are omitted; the CSV itself is not read.
    """
    names = [f.name for f in fields(CurvePoint)]
    filled = {n for n in names if any(getattr(r, n) is not None for r in summary.rows)}

    def col(name: str) -> int:
        return names.index(name) + 1  # gnuplot columns are 1-based

    x = col("sweep_value")
    traces = []
    if {"shot_noise", "heisenberg"} <= filled:
        traces.append(
            f"datafile using {x}:{col('shot_noise')}:{col('heisenberg')} "
            "with filledcurves fc rgb '#dddddd' title 'quantum window'"
        )
    for name, style, title in (
        ("min_rms", "with lines lw 2 lc rgb 'black'", "min RMS"),
        ("mm_error_min", "with lines lw 2 lc rgb 'black'", "min propagated error"),
        ("holevo", "with points pt 1 lc rgb 'dark-red'", "Holevo dispersion"),
        ("avg_rms", "with lines dt 2 lc rgb 'grey50'", "avg RMS"),
        ("noon_baseline", "with lines dt 4 lc rgb 'blue'", "NOON baseline"),
        ("external", "with lines dt 3 lc rgb 'dark-green'", "external comparison"),
    ):
        if name in filled:
            traces.append(f"datafile using {x}:{col(name)} {style} title '{title}'")

    path = Path(summary.csv_path)
    script = path.with_suffix(".gp")
    body = [
        f"datafile = '{path.name}'",
        "set datafile separator ','",
        "set terminal pngcairo size 900,600",
        f"set output '{path.stem}.png'",
        "set logscale y",
        "set xlabel 'sweep value'",
        "set ylabel 'phase error (rad)'",
        "set key outside",
        "plot \\",
        ", \\\n".join("    " + t for t in traces),
        "",
    ]
    script.write_text("\n".join(body), encoding="utf-8")
    return str(script)
