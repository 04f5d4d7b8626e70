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
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .estimation import (
    _propagated_error,
    baselines,
    holevo_variance,
    mm_error_terms,
    phase_error_summary,
)
from .protocol import ValidationReport, optimal_state_output, validate_closed_forms
from .states import MmStateSpec

CSV_HEADER = "sweep,min_rms,argmin_phi,avg_rms,holevo,mm_error,shot_noise,heisenberg,noon,external"

FAMILIES = ("optimal", "mm", "no", "noon")

TWO_PI = 2.0 * math.pi


class UsageError(Exception):
    """Invalid configuration or command line."""


class ValidationFailure(Exception):
    """Numerical validation did not pass; CSV was not written."""

    def __init__(self, message: str, report_path: str = ""):
        super().__init__(message)
        self.report_path = report_path


class MalformedComparisonError(Exception):
    """External comparison file could not be parsed."""


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
        lo, hi, step = self.n_range if axis == "n" else self.eta_range
        if step <= 0:
            raise UsageError("range step must be positive")
        if hi < lo:
            raise UsageError("range max must be >= min")
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
    excluded: int = 0

    def csv_row(self) -> str:
        cells = (
            self.sweep_value,
            self.min_rms,
            self.argmin_phi,
            self.avg_rms,
            self.holevo,
            self.mm_error_min,
            self.shot_noise,
            self.heisenberg,
            self.noon_baseline,
            self.external,
        )
        return ",".join(format_float(c) for c in cells)


def format_float(x) -> str:
    if x is None:
        return ""
    if math.isinf(x):
        return "inf"
    return f"{x:.12g}"


@dataclass(frozen=True)
class SweepSummary:
    """What a run produced: rows, output path, validation outcome, timing."""

    csv_path: str
    rows: tuple
    excluded_total: int
    elapsed: float
    validation: ValidationReport | None = None
    validation_paths: tuple = ()

    def lines(self) -> list:
        out = [f"wrote {len(self.rows)} rows -> {self.csv_path} ({self.elapsed:.2f}s)"]
        if self.excluded_total:
            out.append(f"excluded {self.excluded_total} non-finite phase-grid samples from averages")
        if self.validation is not None:
            out.append(
                f"closed-form validation: max_dev={self.validation.max_dev:.3e} "
                f"({'pass' if self.validation.passed else 'FAIL'}); "
                f"report: {self.validation_paths[0]}"
            )
        return out


SLOPE_SAMPLES = 64  # slope samples across the half-cell that bracket the minimiser


class _SineCurve:
    """The sine-state error curve, from the round-trip output at phi = 0.

    The output at phase phi differs from the phi=0 output only by Fock
    phases, so the whole outcome distribution is a short Fourier series
    in phi + Phi_l with coefficients c_k given by the superdiagonal sums
    of the phi=0 matrix.  Those sums are real, so the RMS is even in phi
    and, with d = m+1 outcomes, 2*pi/d-periodic: its minimisers come as
    +-phi* + 2*pi*l/d, and the half-cell [0, pi/d] holds one of them.
    """

    def __init__(self, m: int, eta: float):
        self.rho0 = optimal_state_output(m, eta, 0.0, check=False)
        self.d = d = m + 1
        self.lags = lags = np.arange(1, d)
        self.lag_sums = np.array([np.sum(np.diagonal(self.rho0.mat, offset=int(k))) for k in lags])
        self.trace = float(np.trace(self.rho0.mat).real)
        outcome = TWO_PI * np.arange(d) / d
        self.kernel = np.exp(1j * np.outer(outcome, lags))
        self.estimates = (-outcome) % TWO_PI

        # On the half-cell no outcome crosses distance pi, so outcome l deviates
        # by e_l - phi with e_l = 2*pi*s/d, s = -l wrapped into (-d/2, d/2].  Then
        #   rms^2 = (T/d) sum_l (e_l - phi)^2 + (2/d) Re sum_k c_k e^{ik phi} (B_k - 2 phi A_k)
        # with A_k, B_k = sum_l (e_l, e_l^2) e^{2 pi i k l/d}, summed in closed form
        # so that the slope keeps its accuracy where rms^2 is flattest.
        sin = np.sin(np.pi * lags / d)
        cot = np.cos(np.pi * lags / d) / sin
        sign = 1 - 2 * (lags % 2)
        if d % 2:
            first, second = 1j / sin, cot / sin
        else:
            first, second = 1.0 + 1j * cot, 1.0 / sin**2
        a_k = np.pi * sign * first
        b_k = 2.0 * np.pi**2 / d * sign * second
        self.coeffs = np.stack([1j * lags * b_k - 2.0 * a_k, -2j * lags * a_k], axis=1)
        self.mean_offset = 0.0 if d % 2 else np.pi / d  # sum_l e_l / d: the outcome at +pi

    def rms(self, phi: float) -> float:
        """Circular RMS of the outcome estimates at phase phi."""
        d, lags = self.d, self.lags
        p = (self.trace + 2.0 * (self.kernel @ (self.lag_sums * np.exp(1j * phi * lags))).real) / d
        p = np.clip(p, 0.0, None)
        dev = np.abs(np.mod(self.estimates - phi + np.pi, TWO_PI) - np.pi)
        return math.sqrt(p @ dev**2)

    def rms2_slope(self, phis) -> np.ndarray:
        """phi-derivative of rms**2 at phases in [0, pi/d], one-sided at the ends."""
        phis = np.asarray(phis, dtype=float)
        series = ((self.lag_sums * np.exp(1j * np.outer(phis, self.lags))) @ self.coeffs).real
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
            scale += 2.0 / d * float(np.abs(self.lag_sums * self.coeffs[:, 0]).sum())
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
    """Error figures for the sine state from its phi = 0 output.

    The reported phase is the minimiser folded into [0, pi/(m+1)] (see
    ``_SineCurve.folded_argmin``); every minimiser is
    +-argmin_phi + 2*pi*l/(m+1).  ``min_rms`` is the RMS there, not the
    lowest scan sample, which rounding noise biases low; ``avg_rms`` is
    the mean over the phase-grid scan of one period.
    """
    curve = _SineCurve(m, eta)
    _, _, avg, excl = phase_error_summary(curve.rms, TWO_PI, grid_points)
    phi_star = curve.folded_argmin()
    return curve.rms(phi_star), phi_star, avg, holevo_variance(curve.rho0), excl


def _mm_row(spec: MmStateSpec, eta: float, grid_points: int):
    """Minimized propagated error for the two-component state.

    The observable's mean square and the coherence amplitude are phase
    independent, so they are computed once and only the trigonometric
    error-propagation formula is scanned over phi.  That error is even in
    phi and pi/delta-periodic, and sin(delta*phi)**2 = 1 minimises it, so
    the reported phase is pi/(2*delta): the minimiser folded into
    [0, pi/(2*delta)].  Where the curve is flat (mean_square equal to
    coherence**2, as at eta = 1) the same point is reported by convention.
    """
    terms = mm_error_terms(spec, eta, 0.0)

    def err_at(phi: float) -> float:
        return _propagated_error(terms.mean_square, terms.coherence, spec.delta, phi)

    _, best, _, excl = phase_error_summary(err_at, TWO_PI / spec.delta, grid_points)
    return best, math.pi / (2 * spec.delta), excl


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
            best, phi_star, avg, holevo, excl = _optimal_fast_row(m, eta, cfg.phi_grid_points)
            point = replace(
                point, min_rms=best, argmin_phi=phi_star, avg_rms=avg, holevo=holevo, excluded=excl
            )
        elif cfg.state_family in ("mm", "no"):
            m_prime = cfg.mm_m_prime if cfg.state_family == "mm" else 0
            best, phi_star, excl = _mm_row(MmStateSpec(m, m_prime), eta, cfg.phi_grid_points)
            point = replace(point, mm_error_min=best, argmin_phi=phi_star, excluded=excl)
    except ValueError as exc:  # the configuration passed check(), so the numbers broke down
        raise ValidationFailure(f"sweep={format_float(value)} (top index {m}): {exc}") from exc
    return point


def _worker_count() -> int:
    raw = (os.environ.get("INTERF_THREADS") or "").strip()
    cap = int(raw) if raw.isdigit() else 0
    if cap > 0:
        return cap
    return min(8, os.cpu_count() or 1)


def run_sweep(cfg: SweepConfig) -> SweepSummary:
    """Compute every row of the configured sweep and write the CSV.

    With ``cfg.validate`` set, the production outputs are first checked against
    the brute-force channel on a small subsample (top index capped at 8)
    and nothing is written unless that passes.  Rows are independent and
    may be computed by several workers (capped by INTERF_THREADS); the
    file always lists them in ascending sweep order.
    """
    started = time.monotonic()
    cfg.check()
    values = cfg.values()
    if not values:
        raise UsageError("sweep range is empty")

    report = None
    report_paths = ()
    if cfg.validate:
        max_m = min(8, max(cfg._top_index(n) for n in (
            values if cfg.sweep_axis == "n" else [cfg.fixed_n]
        )))
        etas = (0.5, 0.9, 1.0)
        report = validate_closed_forms(max_m, eta_grid=etas, phi_grid=(0.0, 0.3, 1.2))
        base = Path(cfg.output_path)
        txt = base.with_name(base.name + ".validation.txt")
        kv = base.with_name(base.name + ".validation.kv")
        txt.write_text(report.to_text() + "\n", encoding="utf-8")
        report.write_key_values(kv)
        report_paths = (str(txt), str(kv))
        if not report.passed:
            raise ValidationFailure(
                f"closed forms deviate from the oracle by {report.max_dev:.3e} "
                f"(report: {txt})",
                report_path=str(txt),
            )

    workers = _worker_count()
    if workers > 1 and len(values) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda v: _compute_row(cfg, v), values))
    else:
        rows = [_compute_row(cfg, v) for v in values]

    for row in rows:
        if row.heisenberg > row.shot_noise * (1.0 + 1e-12):
            raise ValidationFailure(
                f"baseline ordering violated at sweep={row.sweep_value}: "
                f"heisenberg {row.heisenberg} > shot noise {row.shot_noise}"
            )

    lines = [CSV_HEADER] + [r.csv_row() for r in rows]
    with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    excluded_total = sum(r.excluded for r in rows)
    if cfg.external_comparison_file:
        merge_external(cfg.output_path, cfg.external_comparison_file)
        rows = _reread_rows(cfg.output_path)

    return SweepSummary(
        csv_path=cfg.output_path,
        rows=tuple(rows),
        excluded_total=excluded_total,
        elapsed=time.monotonic() - started,
        validation=report,
        validation_paths=report_paths,
    )


def _reread_rows(csv_path) -> list:
    rows = []
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise MalformedComparisonError(f"unexpected header in {csv_path}")
        for line in fh:
            cells = line.rstrip("\n").split(",")
            vals = [None if c == "" else float(c) for c in cells]
            rows.append(
                CurvePoint(
                    sweep_value=vals[0],
                    min_rms=vals[1],
                    argmin_phi=vals[2],
                    avg_rms=vals[3],
                    holevo=vals[4],
                    mm_error_min=vals[5],
                    shot_noise=vals[6],
                    heisenberg=vals[7],
                    noon_baseline=vals[8],
                    external=vals[9],
                )
            )
    return rows


def _read_comparison(path) -> list:
    pairs = []
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
                pairs.append((float(cells[0]), float(cells[1])))
            except ValueError as exc:
                raise MalformedComparisonError(f"{path}:{lineno}: {exc}") from exc
    return pairs


def merge_external(csv_path, comparison_path) -> str:
    """Fill the ``external`` column of an existing sweep CSV in place.

    The comparison file has two columns (sweep value, error); cells are
    filled on exact sweep-value match and left empty otherwise.
    """
    pairs = _read_comparison(comparison_path)
    comp = {v: err for v, err in pairs}
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise MalformedComparisonError(f"{csv_path} does not carry the standard header")
    matched = set()
    out = [CSV_HEADER]
    for line in lines[1:]:
        cells = line.split(",")
        key = float(cells[0])
        if key in comp:
            cells[9] = format_float(comp[key])
            matched.add(key)
        out.append(",".join(cells))
    unmatched = [v for v, _ in pairs if v not in matched]
    if unmatched:
        warnings.warn(
            f"{len(unmatched)} comparison rows had no matching sweep value "
            f"(first: {unmatched[0]!r})",
            stacklevel=2,
        )
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(out) + "\n")
    return csv_path


def emit_gnu_plot_script(csv_path) -> str:
    """Write a gnuplot script next to the CSV mirroring the standard layout.

    Log-scale errors versus the sweep value: solid minimum-error curve,
    plus-sign Holevo markers, grey dashed average, dot-dash NOON curve,
    dashed external comparison, and a shaded band between the shot-noise
    and Heisenberg columns.  Traces whose column is empty are omitted.
    """
    path = Path(csv_path)
    if not path.is_file():
        raise FileNotFoundError(f"no such CSV: {csv_path}")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise MalformedComparisonError(f"{csv_path} does not carry the standard header")
    names = CSV_HEADER.split(",")
    filled = [False] * len(names)
    for line in lines[1:]:
        for i, cell in enumerate(line.split(",")):
            if cell != "":
                filled[i] = True

    def col(name: str) -> int:
        return names.index(name) + 1  # gnuplot columns are 1-based

    traces = []
    if filled[col("shot_noise") - 1] and filled[col("heisenberg") - 1]:
        traces.append(
            f"datafile using {col('sweep')}:{col('shot_noise')}:{col('heisenberg')} "
            "with filledcurves fc rgb '#dddddd' title 'quantum window'"
        )
    for name, style, title in (
        ("min_rms", "with lines lw 2 lc rgb 'black'", "min RMS"),
        ("mm_error", "with lines lw 2 lc rgb 'black'", "min propagated error"),
        ("holevo", "with points pt 1 lc rgb 'dark-red'", "Holevo dispersion"),
        ("avg_rms", "with lines dt 2 lc rgb 'grey50'", "avg RMS"),
        ("noon", "with lines dt 4 lc rgb 'blue'", "NOON baseline"),
        ("external", "with lines dt 3 lc rgb 'dark-green'", "external comparison"),
    ):
        if filled[col(name) - 1]:
            traces.append(f"datafile using {col('sweep')}:{col(name)} {style} title '{title}'")

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
