"""Parameter sweeps over photon number and transmissivity, with CSV output.

A sweep walks one axis (mean photon number n, or transmissivity eta) for
one input-state family and writes a row of error figures per value,
together with the shot-noise, Heisenberg and lossy-NOON reference
columns (NOON empty at a fractional photon number: no such state exists)
and an empty slot for comparison data.  Rows are pure functions of the
configuration, so repeated runs emit byte-identical files.  This module
needs the standard library only: its three value types are NamedTuples,
as every value type of the package is a named tuple, and every row figure
comes from ``engine``, which loads with numpy at the first row.
"""

from __future__ import annotations

import io
import math
import operator
import time
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .protocol import ValidationReport

FAMILIES = ("optimal", "mm")

MAX_ROWS = 100_000  # far above any real sweep; a longer range is a mistyped step
MAX_PHI_GRID = 1_000_000  # a row folds the grid through about 24 bytes per point


class UsageError(Exception):
    """Invalid configuration or command line."""


class ValidationFailure(Exception):
    """Numerical validation did not pass; CSV was not written."""


class MalformedComparisonError(Exception):
    """External comparison file is malformed."""


class SweepConfig(NamedTuple):
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
        rows = self._row_count()
        if rows > MAX_ROWS:
            raise UsageError(f"range step {step!r} gives {rows:.6g} rows, more than {MAX_ROWS}")
        for name, count in (("phi grid", self.phi_grid_points), ("m-prime", self.mm_m_prime)):
            try:
                operator.index(count)
            except TypeError:
                raise UsageError(f"{name} must be an integer, got {count!r}") from None
        if self.phi_grid_points < 2:
            raise UsageError("phi grid needs at least 2 points")
        if self.phi_grid_points > MAX_PHI_GRID:
            raise UsageError(f"phi grid of {self.phi_grid_points} points is more than "
                             f"{MAX_PHI_GRID}")
        if not Path(self.output_path).name:
            raise UsageError(f"output path {self.output_path!r} names no file")
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

    def _row_count(self) -> int:
        lo, hi, step = self.n_range if self.sweep_axis == "n" else self.eta_range
        return int(math.floor((hi - lo) / step + 1e-9)) + 1

    def values(self) -> list:
        # _row_count admits a last step that overshoots max by rounding: clamp it
        lo, hi, step = self.n_range if self.sweep_axis == "n" else self.eta_range
        return [min(lo + k * step, hi) for k in range(self._row_count())]

    def _top_index(self, n: float) -> int:
        """Largest Fock index of the input for mean photon number n."""
        fam = self.state_family
        m = 2.0 * n - (self.mm_m_prime if fam == "mm" else 0)
        if not math.isfinite(m):
            raise UsageError(f"photon number {n!r} gives a non-finite top Fock index")
        if abs(m - round(m)) > 1e-9:
            raise UsageError(f"photon number {n!r} gives non-integer top Fock index {m!r}")
        m = int(round(m))
        if fam == "mm" and m <= self.mm_m_prime:
            raise UsageError(
                f"n={n!r} with m_prime={self.mm_m_prime} gives top index {m} <= m_prime; "
                f"raise {'n-min' if self.sweep_axis == 'n' else 'n'} above {self.mm_m_prime}"
            )
        return m


class CurvePoint(NamedTuple):
    """One CSV row; each field is the CSV column of its name, and None marks
    a column that does not apply."""

    sweep: float
    min_rms: float | None = None
    argmin_phi: float | None = None
    avg_rms: float | None = None
    holevo: float | None = None
    mm_error: float | None = None
    shot_noise: float | None = None
    heisenberg: float | None = None
    noon: float | None = None
    external: float | None = None

    def csv_row(self) -> str:
        return ",".join(map(format_float, self))


CSV_HEADER = ",".join(CurvePoint._fields)


def format_float(x) -> str:
    if x is None:
        return ""
    return f"{x:.12g}"


class SweepSummary(NamedTuple):
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


def _compute_row(cfg: SweepConfig, value: float, table_for) -> CurvePoint:
    """The row at sweep value ``value``; ``table_for(eta)`` gives the loss table
    of its transmissivity."""
    from .engine import MmStateSpec, _check_rows, _mm_row, _optimal_fast_row, baselines

    if cfg.sweep_axis == "n":
        n, eta = value, cfg.fixed_eta
    else:
        n, eta = cfg.fixed_n, value
    m = cfg._top_index(n)
    where = f"sweep={format_float(value)} (top index {m})"
    try:
        _check_rows(m + 1)  # past the binomial limit, fail before building anything
        base = baselines(n, eta)
        if cfg.state_family == "optimal":
            best, phi_star, avg, holevo = _optimal_fast_row(m, eta, cfg.phi_grid_points,
                                                            table_for(eta))
            columns = dict(min_rms=best, argmin_phi=phi_star, avg_rms=avg, holevo=holevo)
        else:
            best, phi_star = _mm_row(MmStateSpec(m, cfg.mm_m_prime), eta, table_for(eta))
            columns = dict(mm_error=best, argmin_phi=phi_star)
        point = CurvePoint(
            sweep=value,
            shot_noise=base.shot_noise,
            heisenberg=base.heisenberg,
            noon=base.noon_error,
            **columns,
        )
    except (ValueError, ArithmeticError) as exc:  # check() passed, so the numbers broke down
        raise ValidationFailure(f"{where}: {exc}") from exc
    for name, x in zip(point._fields, point):
        if x is not None and not math.isfinite(x):
            raise ValidationFailure(f"{where}: {name} is {x}")
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

    top = max(map(cfg._top_index, values if cfg.sweep_axis == "n" else [cfg.fixed_n]))
    report = None
    report_paths = ()
    if cfg.validate:
        from .protocol import validate_closed_forms  # the gate and its Kraus oracle load here

        report = validate_closed_forms(min(8, top))
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

    from .engine import _loss_tables  # numpy and the row figures load here

    table_for = _loss_tables(top)
    rows = [_compute_row(cfg, v, table_for) for v in values]
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


def _utf8_lines(path, error) -> io.StringIO:
    """The lines of the text file ``path`` as ``open(path, encoding="utf-8-sig")``
    reads them: UTF-8 less a leading byte-order mark, universal newlines.  A byte
    that is not UTF-8 raises ``error`` naming the file, the line and the byte's
    offset in the file, which such an ``open`` counts from its read buffer."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: byte {exc.start} (0x{data[exc.start]:02x}) "
                    "is not UTF-8") from exc
    return io.StringIO(text.removeprefix("\ufeff"), newline=None)


def _read_comparison(path) -> dict:
    """Map each comparison sweep value to its error; every cell must be
    finite and no sweep value may repeat."""
    comparison = {}
    for lineno, line in enumerate(_utf8_lines(path, MalformedComparisonError), 1):
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
    printed = [float(format_float(r.sweep)) for r in rows]
    seen = set(printed)
    unmatched = tuple(v for v in comparison if v not in seen)
    filled = [r._replace(external=comparison[v]) if v in comparison else r
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
    names = CurvePoint._fields
    filled = {n for n in names if any(getattr(r, n) is not None for r in summary.rows)}

    def col(name: str) -> int:
        return names.index(name) + 1  # gnuplot columns are 1-based

    x = col("sweep")
    traces = []
    if {"shot_noise", "heisenberg"} <= filled:
        traces.append(
            f"datafile using {x}:{col('shot_noise')}:{col('heisenberg')} "
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
        if name in filled:
            traces.append(f"datafile using {x}:{col(name)} {style} title '{title}'")

    path = Path(summary.csv_path)
    script = path.with_suffix(".gp")
    datafile, stem = (s.replace("'", "''") for s in (path.name, path.stem))  # gnuplot reads '' as '
    body = [
        f"datafile = '{datafile}'",
        "set datafile separator ','",
        "set terminal pngcairo size 900,600",
        f"set output '{stem}.png'",
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
