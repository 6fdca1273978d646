"""The public API: adding or removing an export must show in this list."""

import spinbath as sb

PUBLIC_API = [
    "AmplitudeRule",
    "CapacityError",
    "ConfigError",
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
    "RunConfig",
    "StatisticsSummary",
    "TimeAverageCheck",
    "TimeGrid",
    "ValidationError",
    "__version__",
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


def test_public_api_is_pinned():
    assert sorted(sb.__all__) == PUBLIC_API
    assert [name for name in sb.__all__ if not hasattr(sb, name)] == []
    namespace: dict = {}
    exec("from spinbath import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_API
