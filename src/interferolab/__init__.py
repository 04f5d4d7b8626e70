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

from .fock import (
    DensityMatrix,
    FockVector,
    KrausChannel,
    PermutationUnitary,
    apply_channel,
    apply_phase,
    binomial,
    expectation,
    loss_channel,
    permutation_unitary,
)
from .states import (
    MmStateSpec,
    TwoModeFockVector,
    mm_state,
    no_state,
    noon_state,
    optimal_phase_state,
    pegg_barnett_vector,
    two_mode_loss_channel,
    two_mode_phase,
)
from .protocol import (
    MmOutputCoefficients,
    RoundTripConfig,
    ValidationReport,
    mm_output_coefficients,
    mm_state_output,
    optimal_state_output,
    roundtrip_oracle,
    roundtrip_step,
    validate_closed_forms,
)
from .estimation import (
    Baselines,
    MmErrorTerms,
    OutcomeDistribution,
    baselines,
    circular_distance,
    circular_rms,
    circular_rms_about_mean,
    holevo_variance,
    mm_error_terms,
    mm_observable,
    mm_phase_error,
    mm_phase_error_closed,
    noon_observable,
    noon_phase_error,
    noon_phase_error_brute,
    optimal_outcome_distribution,
    phase_error_summary,
    povm_distribution,
)
from .sweep import (
    CSV_HEADER,
    CurvePoint,
    SweepConfig,
    SweepSummary,
    UsageError,
    ValidationFailure,
    emit_gnu_plot_script,
    merge_external,
    run_sweep,
)

__version__ = "0.1.0"
