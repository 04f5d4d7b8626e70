"""Command-line front end for the sweep runner.

Flags override config-file entries, which override built-in defaults.
Exit codes: 0 success, 1 usage error, 2 numerical validation failure,
3 I/O error.  The worker count is capped by the INTERF_THREADS
environment variable (0 or unset picks automatically).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .sweep import (
    MalformedComparisonError,
    SweepConfig,
    UsageError,
    ValidationFailure,
    emit_gnu_plot_script,
    run_sweep,
)

_RANGE_KEYS = {
    "n-min": ("n_range", 0),
    "n-max": ("n_range", 1),
    "n-step": ("n_range", 2),
    "eta-min": ("eta_range", 0),
    "eta-max": ("eta_range", 1),
    "eta-step": ("eta_range", 2),
}

_SCALAR_KEYS = {
    "family": ("state_family", str),
    "axis": ("sweep_axis", str),
    "eta": ("fixed_eta", float),
    "n": ("fixed_n", float),
    "m-prime": ("mm_m_prime", int),
    "phi-grid": ("phi_grid_points", int),
    "external": ("external_comparison_file", str),
    "out": ("output_path", str),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are code 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="interferolab",
        description="Phase-error sweeps for round-trip single-mode interferometry.",
    )
    p.add_argument("--family", choices=["optimal", "mm", "no", "noon"], default=None,
                   help="input-state family (noon emits baseline columns only)")
    p.add_argument("--axis", choices=["n", "eta"], default=None,
                   help="sweep over photon number n or transmissivity eta")
    p.add_argument("--eta", type=float, default=None, help="fixed transmissivity for axis n")
    p.add_argument("--n", type=float, default=None, help="fixed photon number for axis eta")
    p.add_argument("--n-min", type=float, default=None)
    p.add_argument("--n-max", type=float, default=None)
    p.add_argument("--n-step", type=float, default=None)
    p.add_argument("--eta-min", type=float, default=None)
    p.add_argument("--eta-max", type=float, default=None)
    p.add_argument("--eta-step", type=float, default=None)
    p.add_argument("--m-prime", type=int, default=None,
                   help="lower Fock component for the mm family (top index is 2n - m_prime)")
    p.add_argument("--phi-grid", type=int, default=None, help="phase-grid points per period")
    p.add_argument("--validate", action="store_true", default=False,
                   help="cross-check the production outputs against the brute-force channel first")
    p.add_argument("--external", default=None, help="two-column CSV merged into the external column")
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--config", default=None, help="key=value config file (flags win)")
    p.add_argument("--emit-plot", action="store_true", default=False,
                   help="write a gnuplot script next to the CSV")
    return p


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"config key {key!r}: expected a boolean, got {raw!r}")


def load_config_file(path) -> dict:
    """Parse one key=value per line; blank lines and # comments ignored."""
    updates: dict = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in _SCALAR_KEYS:
            attr, typ = _SCALAR_KEYS[key]
            try:
                updates[attr] = typ(raw)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {raw!r}")
        elif key in _RANGE_KEYS:
            attr, idx = _RANGE_KEYS[key]
            try:
                updates.setdefault(attr, {})[idx] = float(raw)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {raw!r}")
        elif key == "validate":
            updates["validate"] = _parse_bool(raw, key)
        elif key == "emit-plot":
            updates["emit_plot"] = _parse_bool(raw, key)
        else:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
    return updates


def _flag_updates(args) -> dict:
    updates: dict = {}
    for key, (attr, _typ) in _SCALAR_KEYS.items():
        val = getattr(args, key.replace("-", "_"))
        if val is not None:
            updates[attr] = val
    for key, (attr, idx) in _RANGE_KEYS.items():
        val = getattr(args, key.replace("-", "_"))
        if val is not None:
            updates.setdefault(attr, {})[idx] = val
    if args.validate:
        updates["validate"] = True
    if args.emit_plot:
        updates["emit_plot"] = True
    return updates


def resolve_config(args) -> tuple:
    """Apply precedence (flags > config file > defaults); returns
    (SweepConfig, emit_plot)."""
    merged: dict = {}
    if args.config:
        merged.update(load_config_file(args.config))
    flag_updates = _flag_updates(args)
    for attr, val in flag_updates.items():
        if isinstance(val, dict) and isinstance(merged.get(attr), dict):
            merged[attr].update(val)
        else:
            merged[attr] = val
    emit_plot = bool(merged.pop("emit_plot", False))

    cfg = SweepConfig()
    names = {f.name for f in fields(SweepConfig)}
    for attr, val in merged.items():
        if attr not in names:
            raise UsageError(f"unknown configuration field {attr!r}")
        if isinstance(val, dict):  # sparse range override
            base = list(getattr(cfg, attr))
            for idx, num in val.items():
                base[idx] = num
            val = tuple(base)
        cfg = _with(cfg, attr, val)
    return cfg, emit_plot


def _with(cfg: SweepConfig, attr: str, val) -> SweepConfig:
    from dataclasses import replace

    return replace(cfg, **{attr: val})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg, emit_plot = resolve_config(args)
        summary = run_sweep(cfg)
        for line in summary.lines():
            print(line)
        if emit_plot:
            script = emit_gnu_plot_script(cfg.output_path)
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


if __name__ == "__main__":
    raise SystemExit(main())
