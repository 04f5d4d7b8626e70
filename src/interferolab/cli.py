"""Command-line front end for the sweep runner.

Every setting is one entry of ``KEYS``: its name is both the flag
(``--n-min``) and the config-file key (``n-min=4``).  Flags override
config-file entries, which override the ``SweepConfig`` defaults.
Exit codes: 0 success, 1 usage error, 2 numerical validation failure,
3 I/O error.  Rows run in ascending sweep order on the calling thread.
This module and ``sweep`` use the standard library only, and no module
loads ``dataclasses``, so ``--help``, usage errors and config checks load
neither numpy nor ``inspect``.

``run()`` is the process entry of ``python -m interferolab`` and of the
``interferolab`` script: it runs ``main()`` with the collector off and
freezes the heap before exiting, so that interpreter shutdown does not
scan numpy's objects.  In-process callers use ``main(argv)``, which
returns the exit code.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .sweep import (
    FAMILIES,
    MalformedComparisonError,
    SweepConfig,
    UsageError,
    ValidationFailure,
    _utf8_lines,
    emit_gnu_plot_script,
    run_sweep,
)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# key -> (SweepConfig field or None, slot in its (min, max, step) range or None,
#         value parser, help text); booleans are store_true flags
KEYS = {
    "family": ("state_family", None, str, "input-state family: " + " or ".join(FAMILIES)),
    "axis": ("sweep_axis", None, str, "sweep over photon number n or transmissivity eta"),
    "eta": ("fixed_eta", None, float, "fixed transmissivity for axis n"),
    "n": ("fixed_n", None, float, "fixed photon number for axis eta"),
    "n-min": ("n_range", 0, float, "first photon number of axis n"),
    "n-max": ("n_range", 1, float, "last photon number of axis n"),
    "n-step": ("n_range", 2, float, "photon-number step of axis n"),
    "eta-min": ("eta_range", 0, float, "first transmissivity of axis eta"),
    "eta-max": ("eta_range", 1, float, "last transmissivity of axis eta"),
    "eta-step": ("eta_range", 2, float, "transmissivity step of axis eta"),
    "m-prime": ("mm_m_prime", None, int,
                "lower Fock component for the mm family (top index is 2n - m_prime)"),
    "phi-grid": ("phi_grid_points", None, int, "phase-grid points per period"),
    "validate": ("validate", None, _parse_bool,
                 "cross-check the production outputs against the brute-force channel first"),
    "external": ("external_comparison_file", None, str,
                 "two-column CSV merged into the external column"),
    "out": ("output_path", None, str, "output CSV path"),
    "emit-plot": (None, None, _parse_bool, "write a gnuplot script next to the CSV"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are code 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="interferolab",
        description="Phase-error sweeps for round-trip single-mode interferometry.",
    )
    for key, (_field, _slot, parse, help_text) in KEYS.items():
        if parse is _parse_bool:
            p.add_argument(f"--{key}", action="store_true", default=None, help=help_text)
        else:
            p.add_argument(f"--{key}", type=parse, help=help_text)
    p.add_argument("--config", help="key=value config file (flags win)")
    return p


def load_config_file(path) -> dict:
    """Parse one key=value per line into {flag dest: value}; blank lines
    and # comments are ignored."""
    values: dict = {}
    for lineno, line in enumerate(_utf8_lines(path, UsageError), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not eq:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        if key not in KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key.replace("-", "_")] = KEYS[key][2](raw)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {raw!r}")
    return values


def resolve_config(args) -> tuple:
    """Apply precedence (flags > config file > defaults); returns
    (SweepConfig, emit_plot)."""
    values = load_config_file(args.config) if args.config else {}
    values.update({dest: val for dest, val in vars(args).items() if val is not None})
    cfg = SweepConfig()
    fields = {}
    ranges = {"n_range": list(cfg.n_range), "eta_range": list(cfg.eta_range)}
    for key, (field, slot, _parse, _help) in KEYS.items():
        val = values.get(key.replace("-", "_"))
        if field is None or val is None:
            continue
        if slot is None:
            fields[field] = val
        else:
            ranges[field][slot] = val
    fields.update((field, tuple(bounds)) for field, bounds in ranges.items())
    return cfg._replace(**fields), bool(values.get("emit_plot"))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg, emit_plot = resolve_config(args)
        out = Path(cfg.output_path)
        if emit_plot and out.suffix == ".gp":  # emit_gnu_plot_script's name
            raise UsageError(f"--emit-plot would overwrite the CSV {out} with its script")
        summary = run_sweep(cfg)
        for line in summary.lines():
            print(line)
        if emit_plot:
            script = emit_gnu_plot_script(summary)
            print(f"plot script -> {script}")
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, MalformedComparisonError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def run():
    """Run ``main()`` on the command line and end the process with its exit code.

    The collector stays off for the run and the heap is frozen before
    exiting: a row makes no reference cycles, so reference counts free
    everything it builds, and shutdown's final collections skip frozen
    objects.  This leaves the collector off and the heap frozen for
    whatever runs after, so nothing in-process may call it; ``atexit``
    handlers still run, and every file is closed where it is written.
    """
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
