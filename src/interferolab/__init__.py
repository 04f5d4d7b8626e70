"""Numerical laboratory for single-mode round-trip interferometry with loss.

A probe state samples the interferometer phase in one arm, has its Fock
components reversed by a permutation unitary, and returns through the
reference arm, which strips the common arm phase; photon loss acts in
both arms.  The package provides the truncated Fock-space machinery,
the protocol channel and its single-round outputs, phase-error figures
(circular RMS, Holevo dispersion, propagated observable error), and a
sweep CLI that regenerates the error curves with shot-noise, Heisenberg
and lossy-NOON baselines.
"""

import importlib

_EXPORTS = {  # home module -> the public names it defines
    "engine": (
        "Baselines", "MmErrorTerms", "MmStateSpec", "baselines", "mm_phase_error_closed",
        "noon_phase_error",
    ),
    "fock": (
        "DensityMatrix", "FockVector", "KrausChannel", "apply_channel", "apply_phase",
        "expectation", "loss_channel", "permutation_unitary",
    ),
    "states": (
        "TwoModeFockVector", "mm_state", "no_state", "noon_state", "optimal_phase_state",
        "pegg_barnett_vector", "two_mode_loss_channel", "two_mode_phase",
    ),
    "protocol": (
        "RoundTripConfig", "ValidationReport", "mm_output_coefficients",
        "mm_state_output", "optimal_state_output", "roundtrip_oracle", "roundtrip_step",
        "validate_closed_forms",
    ),
    "estimation": (
        "OutcomeDistribution", "circular_distance", "circular_rms", "holevo_variance",
        "mm_error_terms", "mm_observable", "mm_phase_error", "noon_phase_error_brute",
        "optimal_outcome_distribution", "phase_error_summary", "povm_distribution",
    ),
    "sweep": (
        "CSV_HEADER", "CurvePoint", "SweepConfig", "SweepSummary", "UsageError",
        "ValidationFailure", "emit_gnu_plot_script", "run_sweep",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Load a public name's home module on first use (PEP 562), so that
    ``import interferolab.cli`` loads only what a sweep runs."""
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_HOME})
