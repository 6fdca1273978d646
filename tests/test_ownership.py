"""Value types own their arrays.

A public constructor copies its array arguments and freezes the copies,
so a caller who keeps writing to the arrays it passed in changes
nothing.  Every array a library function returns is read-only.  A
producer adopts the arrays it allocates uncopied, and the type's
invariants are checked on that path as on the public one.
"""

from dataclasses import is_dataclass
from types import SimpleNamespace

import numpy as np
import pytest

import spinbath as sb
from spinbath.model import _adopt


def stored_arrays(obj) -> list[np.ndarray]:
    """Every array ``obj`` holds, its cached ones and those of the value
    objects it holds included."""
    arrays = []
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, tuple):
            arrays += [v for v in value if isinstance(v, np.ndarray)]
        elif is_dataclass(value):
            arrays += stored_arrays(value)
    return arrays


def _amplitude_arrays() -> tuple[np.ndarray, np.ndarray]:
    w = np.array([0.2, 0.5, 0.9])
    return np.sqrt(w).astype(np.complex128), np.sqrt(1.0 - w).astype(np.complex128)


def _coupling_set():
    g = np.array([0.3, -1.2, 2.0])
    return sb.CouplingSet(g), [g]


def _amplitudes():
    alpha, beta = _amplitude_arrays()
    return sb.EnvironmentAmplitudes(alpha, beta), [alpha, beta]


def _time_grid():
    start, stop = np.array(0.0), np.array(2.0)
    return sb.TimeGrid(start, stop, 5), [start, stop]


def _trace():
    times, values = np.array([0.0, 1.0]), np.array([1.0 + 0.0j, 0.5j])
    return sb.DecoherenceTrace(times, values, 2), [times, values]


def _spectrum():
    energies, weights = np.array([-1.0, 1.0]), np.array([0.25, 0.75])
    return sb.EnergySpectrum(energies, weights, 1, merged=True), [energies, weights]


def _histogram():
    edges, masses = np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5])
    return sb.LdosHistogram(edges, masses), [edges, masses]


def _hamiltonian():
    up, down = np.array([1.0, -0.5, 2.0]), np.array([-1.0, 0.5, 0.0])
    h = sb.DiagonalBranchHamiltonian(up, down)
    assert {"_half_up", "_half_down"} <= vars(h).keys()  # so the read-only check sees the halves
    return h, [up, down]


def _summary():
    means, variances = np.array([0.1, -0.2]), np.array([0.5, 0.25])
    return sb.StatisticsSummary(means, variances), [means, variances]


def _ensemble_result():
    mean, caller = _trace()
    values = np.array([[1.0 + 0.0j, 0.5j], [1.0 + 0.0j, 0.5 + 0.0j]])
    return sb.EnsembleResult(mean, values), [*caller, values]


BUILDERS = {
    "CouplingSet": _coupling_set,
    "EnvironmentAmplitudes": _amplitudes,
    "TimeGrid": _time_grid,
    "DecoherenceTrace": _trace,
    "EnergySpectrum": _spectrum,
    "LdosHistogram": _histogram,
    "DiagonalBranchHamiltonian": _hamiltonian,
    "StatisticsSummary": _summary,
    "EnsembleResult": _ensemble_result,
}


#: Type -> fields, of the dtypes its constructor copies to, that break one
#: invariant its ``_freeze()`` checks.
BROKEN = {
    "CouplingSet": lambda: dict(couplings=np.array([0.5, np.nan])),
    "EnvironmentAmplitudes": lambda: dict(alpha=np.array([0.9 + 0j]), beta=np.array([0.1 + 0j])),
    "TimeGrid": lambda: dict(start=1.0, stop=0.0, steps=5),
    "DecoherenceTrace": lambda: dict(
        times=np.array([0.0, 1.0]), values=np.array([1.0 + 0j, 1.5 + 0j]), n_spins=1
    ),
    "EnergySpectrum": lambda: dict(
        energies=np.array([1.0, 0.0]), weights=np.array([0.5, 0.5]), n_spins=1, merged=True
    ),
    "LdosHistogram": lambda: dict(edges=np.array([0.0, 2.0, 1.0]), masses=np.array([0.5, 0.5])),
    "DiagonalBranchHamiltonian": lambda: dict(up=np.array([1.0, 2.0]), down=np.array([-1.0])),
    "StatisticsSummary": lambda: dict(step_means=np.array([0.1]), step_variances=np.array([-1.0])),
    "EnsembleResult": lambda: dict(mean=_trace()[0], values=np.ones((1, 3), dtype=np.complex128)),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_adopting_runs_the_checks_of_the_public_constructor(name):
    cls = getattr(sb, name)
    with pytest.raises((sb.ValidationError, sb.DimensionMismatchError)) as public:
        cls(**BROKEN[name]())
    with pytest.raises(public.type) as adopted:
        _adopt(cls, **BROKEN[name]())
    assert str(adopted.value) == str(public.value)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_value_type_keeps_read_only_copies_of_caller_arrays(name):
    obj, caller = BUILDERS[name]()
    assert type(obj).__name__ == name
    stored = stored_arrays(obj)
    assert stored
    before = [a.tobytes() for a in stored]
    for a in caller:
        assert a.flags.writeable
        a[...] = 7
    assert [a.tobytes() for a in stored] == before
    for a in stored:
        assert not a.flags.writeable
        assert not any(np.shares_memory(a, c) for c in caller)


def test_ensemble_result_takes_any_sequence_as_a_complex_array():
    result = sb.EnsembleResult(sb.DecoherenceTrace([0.0, 1.0], [1.0, 0.5], 2), [[1.0, 0.5]])
    assert result.values.dtype == np.complex128 and result.values.shape == (1, 2)


def _model():
    spec = sb.EnsembleSpec(
        sb.CouplingDistribution.gaussian(0.0, 1.0), sb.AmplitudeRule.random(), 5, 3, 7
    )
    return sb.realization_model(spec, 0)


def _branch_spectrum():
    couplings, amps = _model()
    return sb.branch_spectrum(sb.DiagonalBranchHamiltonian.from_couplings(couplings), amps)


def _ensemble_average():
    spec = sb.EnsembleSpec(
        sb.CouplingDistribution.uniform(0.5, 2.0), sb.AmplitudeRule.equal(), 4, 3, 7
    )
    return sb.ensemble_average_trace(spec, sb.TimeGrid(0.0, 2.0, 9))


def _realization_model():
    # A namespace, not the returned tuple: stored_arrays reads vars().
    spec = sb.EnsembleSpec(
        sb.CouplingDistribution.lorentzian(0.0, 1.0), sb.AmplitudeRule.equal(), 5, 3, 7
    )
    couplings, amplitudes = sb.realization_model(spec, 1)
    return SimpleNamespace(couplings=couplings, amplitudes=amplitudes)


PRODUCERS = {
    "sample_couplings": lambda: sb.sample_couplings(sb.CouplingDistribution.uniform(0.5, 2.0), 4, 7),
    "sample_amplitudes": lambda: sb.sample_amplitudes(sb.AmplitudeRule.random(), 4, 7),
    "equal_superposition": lambda: sb.EnvironmentAmplitudes.equal_superposition(3),
    "from_up_weights": lambda: sb.EnvironmentAmplitudes.from_up_weights(np.array([0.2, 1.0])),
    "-DiagonalBranchHamiltonian(...)": lambda: -_hamiltonian()[0],
    "realization_model": _realization_model,
    "decoherence_trace": lambda: sb.decoherence_trace(*_model(), np.array([0.0, 0.5, 1.0])),
    "enumerate_walks": lambda: sb.enumerate_walks(*_model()),
    "merge_degenerate": lambda: sb.merge_degenerate(sb.enumerate_walks(*_model()), 0.1),
    "ldos": lambda: sb.ldos(sb.enumerate_walks(*_model()), bins=7),
    "branch_spectrum": _branch_spectrum,
    "ensemble_average_trace": _ensemble_average,
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_library_returns_read_only_arrays(name):
    arrays = stored_arrays(PRODUCERS[name]())
    assert arrays
    assert not any(a.flags.writeable for a in arrays)
