"""Each documented rejection raises its error with a message that names the fault.

These are the checks that no other test reaches: constructors and
samplers fed an empty, non-finite, unnormalized or out-of-range input.
"""

import math

import numpy as np
import pytest

import spinbath as sb
from spinbath.config import ConfigError, load_config

_FIXED = sb.CouplingDistribution.fixed(1.0)
_EQUAL = sb.AmplitudeRule.equal()

_COUPLINGS = sb.CouplingSet([1.0, 2.0])
_AMPS = sb.EnvironmentAmplitudes.equal_superposition(2)
_H = sb.DiagonalBranchHamiltonian.from_couplings(_COUPLINGS)
_SPECTRUM = sb.enumerate_walks(_COUPLINGS, _AMPS)
_SUMMARY = sb.summarize(_COUPLINGS, _AMPS)


def _load_sectionless(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("n = 3\n", encoding="utf-8")
    return load_config(path)


#: Case -> (a call taking tmp_path, a fragment of its message).  Every
#: case raises ValidationError, save the "config-" ones' ConfigError.
CASES = {
    "amplitudes-empty": (lambda _: sb.EnvironmentAmplitudes([], []), "non-empty 1-d"),
    "amplitudes-nan": (lambda _: sb.EnvironmentAmplitudes([math.nan], [0.0]), "must be finite"),
    "up-weight-above-1": (
        lambda _: sb.EnvironmentAmplitudes.from_up_weights([1.5]), "must lie in [0, 1]"
    ),
    "grid-infinite": (lambda _: sb.TimeGrid(0.0, math.inf, 3), "endpoints must be finite"),
    "trace-lengths": (
        lambda _: sb.DecoherenceTrace([0.0, 1.0], [1.0], 2), "matching 1-d arrays"
    ),
    "ensemble-values-shape": (
        lambda _: sb.EnsembleResult(sb.DecoherenceTrace([0.0, 1.0], [1.0, 0.5], 2), [1.0, 0.5]),
        "ensemble values need shape (M, 2), got (2,)",
    ),
    "spectrum-empty": (lambda _: sb.EnergySpectrum([], [], 1), "non-empty 1-d arrays"),
    "spectrum-sum": (
        lambda _: sb.EnergySpectrum([0.0, 1.0], [0.5, 0.6], 1), "weights sum to 1.1"
    ),
    "ldos-edge-count": (
        lambda _: sb.LdosHistogram([0.0, 1.0], [0.5, 0.5]), "len(edges) == len(masses) + 1"
    ),
    "ldos-sum": (lambda _: sb.LdosHistogram([0.0, 1.0, 2.0], [0.6, 0.6]), "sum to 1"),
    "ldos-nan-edge": (
        lambda _: sb.LdosHistogram([0.0, math.nan, 2.0], [0.5, 0.5]),
        "histogram edges must be finite and strictly increasing",
    ),
    "ldos-infinite-mass": (
        lambda _: sb.LdosHistogram([0.0, 1.0, 2.0], [math.inf, 0.5]),
        "histogram masses must be finite and nonnegative",
    ),
    "ldos-negative-mass": (
        lambda _: sb.LdosHistogram([0.0, 1.0, 2.0], [-0.5, 1.5]),
        "histogram masses must be finite and nonnegative",
    ),
    "hamiltonian-empty": (
        lambda _: sb.DiagonalBranchHamiltonian([], []), "non-empty 1-d sequence"
    ),
    "distribution-infinite": (
        lambda _: sb.CouplingDistribution("gaussian", (0.0, math.inf)), "must be finite"
    ),
    "rule-unknown": (lambda _: sb.AmplitudeRule("bogus"), "unknown amplitude rule 'bogus'"),
    "rule-equal-parameter": (
        lambda _: sb.AmplitudeRule("equal", 0.5), "equal amplitude rule takes no parameter"
    ),
    "rule-parse-two-parameters": (
        lambda _: sb.AmplitudeRule.parse("fixed(0.1, 0.2)"), "takes one parameter"
    ),
    "summary-empty": (lambda _: sb.StatisticsSummary([], []), "step means must form a non-empty 1-d"),
    "summary-2d": (
        lambda _: sb.StatisticsSummary([[1.0]], [[1.0]]), "step means must form a non-empty 1-d"
    ),
    "summary-means-infinite": (
        lambda _: sb.StatisticsSummary([math.inf], [1.0]), "step means must be finite"
    ),
    "summary-variances-2d": (
        lambda _: sb.StatisticsSummary([1.0], [[1.0]]),
        "need one step variance >= 0 per step mean, got array([[1.]])",
    ),
    "summary-variances-short": (
        lambda _: sb.StatisticsSummary([1.0, 2.0], [1.0]),
        "need one step variance >= 0 per step mean, got array([1.])",
    ),
    "summary-variances-negative": (
        lambda _: sb.StatisticsSummary([1.0], [-1.0]),
        "need one step variance >= 0 per step mean, got array([-1.])",
    ),
    "summary-variances-nan": (
        lambda _: sb.StatisticsSummary([1.0], [math.nan]),
        "need one step variance >= 0 per step mean, got array([nan])",
    ),
    "couplings-none": (lambda _: sb.sample_couplings(_FIXED, 0, 7), "n must be >= 1, got 0"),
    "amplitudes-none": (
        lambda _: sb.sample_amplitudes(_EQUAL, 0, 7), "n must be >= 1, got 0"
    ),
    "walk-level-above-n": (
        lambda _: sb.laplace_demoivre_weight(4, 5, 0.5), "l must be <= n = 4, got 5"
    ),
    "realization-index": (
        lambda _: sb.realization_model(sb.EnsembleSpec(_FIXED, _EQUAL, 2, 3, 7), 3),
        "realization index 3 outside 0..2",
    ),
    "horizon-negative": (
        lambda _: sb.check_time_average(
            sb.CouplingSet([1.0, 2.0]), sb.EnvironmentAmplitudes.equal_superposition(2),
            horizon=-1.0,
        ),
        "horizon must be > 0.0, got -1.0",
    ),
    "config-without-section": (_load_sectionless, "no section headers"),
    # Each scalar bound, held by _checked_float or _checked_int, in one message form.
    "config-merge-epsilon-negative": (
        lambda _: sb.RunConfig("trace", merge_epsilon=-1e-9), "merge_epsilon must be >= 0.0, got -1e-09"
    ),
    "config-horizon-zero": (lambda _: sb.RunConfig("trace", horizon=0), "horizon must be > 0.0, got 0.0"),
    "gaussian-sigma-zero": (
        lambda _: sb.CouplingDistribution.gaussian(0.0, 0.0), "gaussian sigma must be > 0.0, got 0.0"
    ),
    "lorentzian-gamma-negative": (
        lambda _: sb.CouplingDistribution.parse("lorentzian(0, -2)"),
        "lorentzian gamma must be > 0.0, got -2.0",
    ),
    "rule-up-weight-negative": (
        lambda _: sb.AmplitudeRule.fixed(-0.5), "up_weight must be >= 0.0, got -0.5"
    ),
    "rule-up-weight-above-1": (
        lambda _: sb.AmplitudeRule.parse("fixed(1.5)"), "up_weight must be <= 1.0, got 1.5"
    ),
    "merge-epsilon-negative": (
        lambda _: sb.merge_degenerate(_SPECTRUM, -1), "merge epsilon must be >= 0.0, got -1.0"
    ),
    "threshold-zero": (
        lambda _: sb.lindeberg_check(_SUMMARY, 0.0), "threshold must be > 0.0, got 0.0"
    ),
    "realization-index-negative": (
        lambda _: sb.realization_model(sb.EnsembleSpec(_FIXED, _EQUAL, 2, 3, 7), -1),
        "realization index must be >= 0, got -1",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejection_raises_its_error(case, tmp_path):
    call, fragment = CASES[case]
    kind = ConfigError if case.startswith("config-") else sb.ValidationError
    with pytest.raises(kind) as info:
        call(tmp_path)
    assert type(info.value) is kind
    assert fragment in str(info.value)


def _merged(epsilon):
    merged = sb.merge_degenerate(_SPECTRUM, epsilon)
    return merged.energies.tolist(), merged.weights.tolist()


#: Each public float parameter -> (the words its errors name it by, a call
#: taking the value).  The RunConfig fields raise ConfigError, the rest
#: ValidationError.
FLOAT_PARAMETERS = {
    "TimeGrid-start": ("grid endpoints", lambda v: sb.TimeGrid(v, 10.0, 3).samples.tolist()),
    "TimeGrid-stop": ("grid endpoints", lambda v: sb.TimeGrid(-10.0, v, 3).samples.tolist()),
    "decoherence_factor": ("time", lambda v: sb.decoherence_factor(_COUPLINGS, _AMPS, v)),
    "echo_amplitude": ("time", lambda v: sb.echo_amplitude(_H, -_H, _AMPS, v)),
    "survival_probability": ("time", lambda v: sb.survival_probability(_H, _AMPS, v)),
    "characteristic_function": ("time", lambda v: sb.characteristic_function(_SPECTRUM, v)),
    "gaussian_decoherence": ("time", lambda v: sb.gaussian_decoherence(_SUMMARY, v)),
    "CouplingDistribution": (
        "distribution parameters", lambda v: sb.CouplingDistribution("uniform", (-10.0, v))
    ),
    "AmplitudeRule": ("up_weight", lambda v: sb.AmplitudeRule("fixed", v)),
    "merge_degenerate": ("merge epsilon", _merged),
    "lindeberg_check": ("threshold", lambda v: sb.lindeberg_check(_SUMMARY, v)),
    "laplace_demoivre_weight": ("up_weight", lambda v: sb.laplace_demoivre_weight(4, 1, v)),
    "check_time_average": (
        "horizon", lambda v: sb.check_time_average(_COUPLINGS, _AMPS, horizon=v, samples=64)
    ),
    **{
        f"RunConfig-{field}": (field, lambda v, field=field: sb.RunConfig("trace", **{field: v}))
        for field in ("start", "stop", "merge_epsilon", "horizon")
    },
}


def _outcome(call, value) -> str:
    """The repr of what call(value) returns, or its exception's type and message."""
    try:
        return repr(call(value))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize(
    "value",
    [True, "1.5", math.nan, math.inf, -math.inf, 10**400, [1.0]],
    ids=["True", "'1.5'", "nan", "inf", "-inf", "10**400", "[1.0]"],
)
@pytest.mark.parametrize("parameter", sorted(FLOAT_PARAMETERS))
def test_float_parameter_rejects_what_is_not_a_finite_number(parameter, value):
    # float() would take True as 1.0 and "1.5" as 1.5; a NaN or an
    # infinity gave nan+nanj or merged every level into one.
    what, call = FLOAT_PARAMETERS[parameter]
    kind = ConfigError if parameter.startswith("RunConfig") else sb.ValidationError
    with pytest.raises(kind) as info:
        call(value)
    assert type(info.value) is kind
    assert what in str(info.value)


@pytest.mark.parametrize(
    "value", [1, np.float32(0.5), np.int64(1), np.array(0.25)], ids=lambda v: type(v).__name__
)
@pytest.mark.parametrize("parameter", sorted(FLOAT_PARAMETERS))
def test_float_parameter_takes_any_real_as_its_float(parameter, value):
    _, call = FLOAT_PARAMETERS[parameter]
    assert _outcome(call, value) == _outcome(call, float(value))


#: Each count parameter -> (its name in messages, its least value, a call
#: taking the value).  The RunConfig fields raise ConfigError, the rest
#: ValidationError.
COUNT_PARAMETERS = {
    "equal_superposition": ("n", 1, sb.EnvironmentAmplitudes.equal_superposition),
    "TimeGrid": ("grid steps", 1, lambda v: sb.TimeGrid(0.0, 1.0, v)),
    "EnsembleSpec-n": ("n", 1, lambda v: sb.EnsembleSpec(_FIXED, _EQUAL, v, 3, 7)),
    "EnsembleSpec-realizations": (
        "realizations", 1, lambda v: sb.EnsembleSpec(_FIXED, _EQUAL, 2, v, 7)
    ),
    "sample_couplings": ("n", 1, lambda v: sb.sample_couplings(_FIXED, v, 7)),
    "sample_amplitudes": ("n", 1, lambda v: sb.sample_amplitudes(_EQUAL, v, 7)),
    "check_time_average": (
        "samples", 2, lambda v: sb.check_time_average(_COUPLINGS, _AMPS, horizon=200.0, samples=v)
    ),
    "laplace_demoivre_weight-n": ("n", 1, lambda v: sb.laplace_demoivre_weight(v, 0, 0.5)),
    "laplace_demoivre_weight-l": ("l", 0, lambda v: sb.laplace_demoivre_weight(4, v, 0.5)),
    "ldos": ("bins", 1, lambda v: sb.ldos(_SPECTRUM, v)),
    **{
        f"RunConfig-{field}": (field, 1, lambda v, field=field: sb.RunConfig("trace", **{field: v}))
        for field in ("n", "realizations", "steps", "bins", "samples")
    },
}


@pytest.mark.parametrize("parameter", sorted(COUNT_PARAMETERS))
def test_count_below_its_bound_names_parameter_and_bound(parameter):
    what, least, call = COUNT_PARAMETERS[parameter]
    kind = ConfigError if parameter.startswith("RunConfig") else sb.ValidationError
    with pytest.raises(kind) as info:
        call(least - 1)
    assert type(info.value) is kind
    assert f"{what} must be >= {least}, got {least - 1}" in str(info.value)
