"""Directed-information rate analysis for linear feedback loops.

A discrete-time plant is stabilized over a noisy feedback channel; the
information rate that channel carries about the loop splits into a Bode
sensitivity term set by the plant's unstable poles plus a nonnegative
disturbance-transmission term. This package computes the rate and its
decomposition analytically, checks the identities, and validates the values
against time-domain Monte Carlo simulation.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    ConsistencyError,
    DivergenceError,
    DivisionDomainError,
    InvalidInputError,
    LogDomainError,
    LoopInfoError,
    SingularityError,
    UnstableLoopError,
)
from .lti import (
    ClosedLoop,
    LoopModel,
    Polynomial,
    StabilityReport,
    TransferFunction,
    close_loop,
    freq_response_array,
    is_stabilizing,
    pole_placement_controller,
    poly_roots,
    tf,
    TF_ONE,
    TF_ZERO,
)
from .spectral import (
    FrequencyGrid,
    NoiseSpec,
    SpectrumSamples,
    colored,
    log_integral,
    noise_psd,
    output_psd,
    sensitivity_ratio,
    spectrum_to_csv,
    white,
)
from .decomposition import (
    DecompositionReport,
    IndependenceReport,
    RateInputs,
    SuiteCase,
    bode_term_analytic,
    controller_independence_check,
    decompose,
    export_integrands,
    gaussian_entropy_rate,
    random_stabilized_loop,
    run_identity_suite,
    white_noise_disturbance_term,
)
from .montecarlo import (
    ComparisonRecord,
    SimulationConfig,
    TrajectorySet,
    compare_report,
    empirical_directed_info,
    simulate_loop,
    welch_psd,
)
from .config import (
    LoopConfig,
    RunOptions,
    dump_config,
    load_config,
    parse_config,
    write_config,
)

__version__ = "0.1.0"

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
