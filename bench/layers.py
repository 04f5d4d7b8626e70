"""Interferolab's layers as the tracer sees them.

``install`` replaces each module's public functions with traced
wrappers in every interferolab namespace that holds them, so a call
is recorded wherever its caller looks the name up (for example
``interferolab.sweep.optimal_state_output`` and
``interferolab.protocol.apply_channel``).  ``layer_metrics`` turns one
traced run's spans into the per-layer metrics named in BENCHMARK.json.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import statistics

from tracing import self_times

MODULES = ("fock", "states", "protocol", "estimation", "sweep", "cli")


# Computed, not measured: complex128 d x d matmuls cost 8 d^3 flops each,
# and apply_channel does two per Kraus matrix.
def _apply_channel_flops(args, kwargs):
    rho, ch = args[0], args[1]
    return {"fock.apply_channel.flops_computed": 16 * len(ch.kraus) * rho.dim**3}


# Computed, not measured: the sine-state closed form materialises a d^2 x d
# float64 weight array plus three complex128 arrays of that shape
# (phased weights, their conjugate, the prefactor-scaled conjugate).
def _optimal_output_bytes(args, kwargs):
    d = args[0] + 1
    return {"protocol.optimal_state_output.bytes_computed": (8 + 3 * 16) * d**3}


TRACED = {
    "fock": {
        "apply_channel": _apply_channel_flops,
        "apply_phase": None,
        "loss_channel": None,
        "permutation_unitary": None,
        "binomial_table": None,
        "expectation": None,
    },
    "states": {
        "optimal_phase_state": None,
        "mm_state": None,
        "no_state": None,
        "pegg_barnett_vector": None,
        "noon_state": None,
    },
    "protocol": {
        "optimal_state_output": _optimal_output_bytes,
        "mm_state_output": None,
        "mm_output_coefficients": None,
        "roundtrip_oracle": None,
        "roundtrip_step": None,
        "validate_closed_forms": None,
    },
    "estimation": {
        "phase_error_summary": "estimation.error_fn.evals",
        "holevo_variance": None,
        "baselines": None,
        "mm_observable": None,
        "povm_distribution": None,
        "circular_rms": None,
        "optimal_outcome_distribution": None,
    },
    "sweep": {
        "run_sweep": None,
        "_compute_row": None,
    },
}

SPAN_NAMES = {("sweep", "_compute_row"): "sweep.row"}


def install(tracer) -> None:
    """Swap traced wrappers into every interferolab module namespace."""
    mods = [importlib.import_module("interferolab")] + [
        importlib.import_module(f"interferolab.{m}") for m in MODULES
    ]
    for layer, funcs in TRACED.items():
        home = importlib.import_module(f"interferolab.{layer}")
        for fname, attrs in funcs.items():
            orig = getattr(home, fname)
            name = SPAN_NAMES.get((layer, fname), f"{layer}.{fname}")
            if isinstance(attrs, str):
                wrapper = tracer.wrap_counting_callback(orig, name, attrs)
            else:
                wrapper = tracer.wrap(orig, name, attrs)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
    sweep = importlib.import_module("interferolab.sweep")
    sweep.ThreadPoolExecutor = tracer.pool_class()


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "estimation.phase_error_summary.calls": "count",
    "estimation.phase_error_summary.self_s": "s",
    "estimation.error_fn.evals": "count",
    "estimation.holevo_variance.self_s": "s",
    "estimation.calls": "count",
    "estimation.self_s": "s",
    "protocol.optimal_state_output.calls": "count",
    "protocol.optimal_state_output.self_s": "s",
    "protocol.optimal_state_output.bytes_computed": "bytes",
    "protocol.mm_state_output.self_s": "s",
    "protocol.mm_output_coefficients.calls": "count",
    "protocol.mm_output_coefficients.self_s": "s",
    "protocol.roundtrip_oracle.calls": "count",
    "protocol.roundtrip_oracle.self_s": "s",
    "protocol.validate_closed_forms.self_s": "s",
    "protocol.calls": "count",
    "protocol.self_s": "s",
    "fock.apply_channel.calls": "count",
    "fock.apply_channel.self_s": "s",
    "fock.apply_channel.flops_computed": "flop",
    "fock.loss_channel.calls": "count",
    "fock.loss_channel.self_s": "s",
    "fock.binomial_table.calls": "count",
    "fock.binomial_table.self_s": "s",
    "fock.calls": "count",
    "fock.self_s": "s",
    "states.calls": "count",
    "states.self_s": "s",
    "sweep.run_sweep.wall_s": "s",
    "sweep.busy_s": "s",
    "sweep.parallel_efficiency": "ratio",
    "sweep.row_s.p50": "s",
    "sweep.row_s.p90": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that must repeat exactly between traced runs of one configuration.
COUNTS = tuple(k for k, unit in PER_LAYER.items() if unit in ("count", "bytes", "flop"))

_NS = 1e-9


def layer_metrics(spans, import_s: float, workers: int) -> dict:
    """Per-layer metrics of one traced run (everything but trace.overhead_s)."""
    own = self_times(spans)
    out = {k: 0 for k in PER_LAYER if k != "trace.overhead_s"}

    def add(key, val):
        if key in out:
            out[key] += val

    rows = []
    for s in spans:
        layer = s.name.partition(".")[0]
        self_s = own[s.id] * _NS
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.self_s", self_s)
        if layer in ("fock", "states", "protocol", "estimation"):
            add(f"{layer}.calls", 1)
            add(f"{layer}.self_s", self_s)
        for key, val in (s.attrs or {}).items():
            add(key, val)
        if s.name == "sweep.run_sweep":
            add("sweep.run_sweep.wall_s", (s.end - s.start) * _NS)
        elif s.name == "sweep.row":
            rows.append((s.end - s.start) * _NS)

    wall = out["sweep.run_sweep.wall_s"]
    pool = workers if len(rows) > 1 else 1  # run_sweep skips the pool for one row
    out["sweep.busy_s"] = sum(rows)
    out["sweep.parallel_efficiency"] = out["sweep.busy_s"] / (wall * pool) if wall > 0 else 0.0
    if rows:
        out["sweep.row_s.p50"] = statistics.median(rows)
        out["sweep.row_s.p90"] = (
            statistics.quantiles(rows, n=10, method="inclusive")[8] if len(rows) > 1 else rows[0]
        )
    out["cli.import_s"] = import_s
    return out
