"""Correctness check of one sweep CSV, independent of the sweep's fast path.

Every row is checked:
- the sweep value is the configured one, in order;
- the baseline columns are exactly ``baselines(n, eta)`` as printed;
- heisenberg <= shot_noise;
- the minimum error is re-evaluated at the reported ``argmin_phi``:
  through ``circular_rms(optimal_outcome_distribution(...))`` for the
  optimal family (the weight-sum route, not the sweep's Fourier series),
  and through ``mm_phase_error(mm_state_output(...))`` for mm/no (the
  output matrix, not the sweep's precomputed scalars);
- optionally, every column except ``argmin_phi`` matches a golden CSV.

``argmin_phi`` itself is never byte-compared: the sine-state RMS has
d equal minima per period, so which one is reported is not a function of
the configuration.
"""

from __future__ import annotations

import math
import warnings

from interferolab.cli import build_parser, resolve_config
from interferolab.estimation import (
    baselines,
    circular_rms,
    mm_phase_error,
    optimal_outcome_distribution,
)
from interferolab.protocol import mm_state_output
from interferolab.states import MmStateSpec
from interferolab.sweep import CSV_HEADER, format_float

REL_TOL = 1e-9
COLUMNS = CSV_HEADER.split(",")
ARGMIN = COLUMNS.index("argmin_phi")


def sweep_config(cli_args):
    """The SweepConfig the CLI resolves from ``cli_args``."""
    return resolve_config(build_parser().parse_args(cli_args))[0]


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def _row_problem(cfg, value: float, cells: list, golden_cells) -> str | None:
    if len(cells) != len(COLUMNS):
        return f"{len(cells)} cells"
    col = dict(zip(COLUMNS, cells))
    if col["sweep"] != format_float(value):
        return f"sweep value {col['sweep']!r}, expected {format_float(value)!r}"
    n, eta = (value, cfg.fixed_eta) if cfg.sweep_axis == "n" else (cfg.fixed_n, value)
    base = baselines(n, eta)
    for name, want in (
        ("shot_noise", base.shot_noise),
        ("heisenberg", base.heisenberg),
        ("noon", base.noon_error),
    ):
        if col[name] != format_float(want):
            return f"{name} {col[name]!r}, baselines() gives {format_float(want)!r}"
    if not float(col["heisenberg"]) <= float(col["shot_noise"]):
        return "heisenberg above shot noise"

    fam = cfg.state_family
    if fam == "optimal":
        m = round(2 * n)
        phi = float(col["argmin_phi"])
        got = circular_rms(optimal_outcome_distribution(m, eta, phi))
        if not _close(got, float(col["min_rms"])):
            return f"min_rms {col['min_rms']} but {got!r} at argmin_phi"
        if float(col["avg_rms"]) < float(col["min_rms"]):
            return "avg_rms below min_rms"
        if not float(col["holevo"]) > 0.0:
            return "holevo not positive"
    elif fam in ("mm", "no"):
        m_prime = cfg.mm_m_prime if fam == "mm" else 0
        spec = MmStateSpec(round(2 * n - m_prime), m_prime)
        phi = float(col["argmin_phi"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # overlapping index families are expected
            got = mm_phase_error(mm_state_output(spec, eta, phi, check=False), spec, phi)
        if not _close(got, float(col["mm_error"])):
            return f"mm_error {col['mm_error']} but {got!r} at argmin_phi"

    if golden_cells is not None:
        if len(golden_cells) != len(cells):
            return "no matching golden row"
        for i, (have, want) in enumerate(zip(cells, golden_cells)):
            if i == ARGMIN or have == want:
                continue
            if have == "" or want == "" or not _close(float(have), float(want)):
                return f"{COLUMNS[i]} {have!r}, golden {want!r}"
    return None


def check_csv(text: str, cfg, golden: str | None = None) -> dict:
    """Row index -> problem for every row that fails; {} when all pass.

    Missing rows fail; a bad header fails every row.
    """
    values = cfg.values()
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return {i: "bad header" for i in range(len(values))}
    body = lines[1:]
    gold = golden.splitlines()[1:] if golden is not None else None
    problems = {}
    for i, value in enumerate(values):
        if i >= len(body):
            problems[i] = "missing"
            continue
        golden_cells = None
        if gold is not None:
            golden_cells = gold[i].split(",") if i < len(gold) else []
        try:
            problem = _row_problem(cfg, value, body[i].split(","), golden_cells)
        except ValueError as exc:
            problem = f"unparsable: {exc}"
        if problem:
            problems[i] = problem
    for i in range(len(values), len(body)):
        problems[i] = "extra row"
    return problems
