"""The public API: adding or removing an export, or a public member of an
exported class, must show in these lists."""

import dataclasses

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

#: Each exported class's dataclass fields and the names its own body
#: defines, save those that start with an underscore.
PUBLIC_MEMBERS = {
    "AmplitudeRule": ["equal", "fixed", "kind", "parse", "random", "up_weight"],
    "CapacityError": [],
    "ConfigError": [],
    "CouplingDistribution": [
        "fixed",
        "gaussian",
        "kind",
        "lorentzian",
        "params",
        "parse",
        "uniform",
    ],
    "CouplingSet": ["couplings", "n"],
    "DecoherenceTrace": ["n_spins", "times", "values"],
    "DegenerateDistributionError": [],
    "DiagonalBranchHamiltonian": ["down", "from_couplings", "n", "up"],
    "DimensionMismatchError": [],
    "EnergySpectrum": ["energies", "merged", "n_spins", "weights"],
    "EnsembleResult": ["mean", "values"],
    "EnsembleSpec": ["amplitudes", "distribution", "n", "realizations", "seed"],
    "EnvironmentAmplitudes": [
        "alpha",
        "alpha_sq",
        "beta",
        "beta_sq",
        "equal_superposition",
        "from_up_weights",
        "n",
    ],
    "LdosHistogram": ["edges", "masses"],
    "LindebergReport": ["max_step_ratio", "tail_mass", "threshold", "verdict"],
    "RunConfig": [
        "amplitudes",
        "bins",
        "distribution",
        "experiment",
        "figure",
        "format",
        "horizon",
        "merge",
        "merge_epsilon",
        "n",
        "out_dir",
        "quiet",
        "realizations",
        "samples",
        "seed",
        "start",
        "steps",
        "stop",
        "time_grid",
    ],
    "StatisticsSummary": ["mean", "step_means", "step_variances", "variance"],
    "TimeAverageCheck": ["analytic", "empirical", "horizon", "n_sigma", "samples", "stderr"],
    "TimeGrid": ["samples", "start", "steps", "stop"],
    "ValidationError": [],
}


def test_public_api_is_pinned():
    assert sorted(sb.__all__) == PUBLIC_API
    assert [name for name in sb.__all__ if not hasattr(sb, name)] == []
    namespace: dict = {}
    exec("from spinbath import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_API


def public_members(cls: type) -> list[str]:
    fields = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
    return sorted({name for name in [*fields, *vars(cls)] if not name.startswith("_")})


def test_public_members_are_pinned():
    exported = [getattr(sb, name) for name in sorted(sb.__all__)]
    classes = {cls.__name__: cls for cls in exported if isinstance(cls, type)}
    assert {name: public_members(cls) for name, cls in classes.items()} == PUBLIC_MEMBERS
