"""Exactly solvable spin-bath dephasing model.

A qubit coupled to N independent environment spins dephases with a
decoherence factor r(t) that this package computes exactly, expands into
a weighted-walk energy spectrum, compares against its Gaussian and
exponential limit laws, and averages over seeded coupling ensembles.
"""

__version__ = "0.1.0"

from .config import ConfigError, RunConfig, build_config, load_config
from .echo import (
    DiagonalBranchHamiltonian,
    branch_spectrum,
    echo_amplitude,
    survival_probability,
)
from .ensembles import (
    AmplitudeRule,
    CouplingDistribution,
    EnsembleResult,
    EnsembleSpec,
    ensemble_average_trace,
    realization_model,
    sample_amplitudes,
    sample_couplings,
)
from .errors import (
    CapacityError,
    DegenerateDistributionError,
    DimensionMismatchError,
    ValidationError,
)
from .limits import (
    LindebergReport,
    StatisticsSummary,
    TimeAverageCheck,
    check_time_average,
    gaussian_decoherence,
    gaussian_ldos,
    gaussian_validity_window,
    laplace_demoivre_weight,
    lindeberg_check,
    long_time_average_sq,
    summarize,
)
from .model import (
    CouplingSet,
    DecoherenceTrace,
    EnvironmentAmplitudes,
    TimeGrid,
    decoherence_factor,
    decoherence_trace,
)
from .runner import run
from .spectrum import (
    ENUMERATION_CAP,
    EnergySpectrum,
    LdosHistogram,
    characteristic_function,
    default_merge_epsilon,
    enumerate_walks,
    ldos,
    merge_degenerate,
)

__all__ = [
    "__version__",
    "AmplitudeRule",
    "CapacityError",
    "ConfigError",
    "RunConfig",
    "CouplingDistribution",
    "CouplingSet",
    "DecoherenceTrace",
    "DegenerateDistributionError",
    "DiagonalBranchHamiltonian",
    "DimensionMismatchError",
    "ENUMERATION_CAP",
    "EnergySpectrum",
    "EnsembleResult",
    "EnsembleSpec",
    "EnvironmentAmplitudes",
    "LdosHistogram",
    "LindebergReport",
    "StatisticsSummary",
    "TimeAverageCheck",
    "TimeGrid",
    "ValidationError",
    "branch_spectrum",
    "build_config",
    "characteristic_function",
    "check_time_average",
    "decoherence_factor",
    "decoherence_trace",
    "default_merge_epsilon",
    "echo_amplitude",
    "ensemble_average_trace",
    "enumerate_walks",
    "gaussian_decoherence",
    "gaussian_ldos",
    "gaussian_validity_window",
    "laplace_demoivre_weight",
    "ldos",
    "lindeberg_check",
    "load_config",
    "long_time_average_sq",
    "merge_degenerate",
    "realization_model",
    "run",
    "sample_amplitudes",
    "sample_couplings",
    "summarize",
    "survival_probability",
]
