"""Seeded generation of coupling sets and amplitudes, and ensemble averages.

Realization i of an ensemble draws its couplings from stream 2i and its
amplitudes from stream 2i + 1 of the root seed (see ``rng``), so single
runs and partial reruns see identical data.
A plain trace experiment is realization 0 of the matching ensemble.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ValidationError
from .model import (
    CouplingSet,
    DecoherenceTrace,
    EnvironmentAmplitudes,
    TimeGrid,
    _adopt,
    _checked_float,
    _checked_int,
    _checked_type,
    _Value,
    decoherence_trace,
)
from .rng import cauchy, rekeyed_generator, standard_normal

_COUPLING_KINDS = {"fixed": 1, "uniform": 2, "gaussian": 2, "lorentzian": 2}
_AMPLITUDE_KINDS = {"equal": 0, "fixed": 1, "random": 0}

_SPEC_RE = re.compile(r"^\s*([a-z-]+)\s*(?:\(([^)]*)\))?\s*$")


def _parse_call(text: str, what: str) -> tuple[str, tuple[float, ...]]:
    m = _SPEC_RE.match(text)
    if not m:
        raise ValidationError(f"cannot parse {what} {text!r}")
    name = m.group(1)
    args: tuple[float, ...] = ()
    if m.group(2) is not None and m.group(2).strip():
        try:
            args = tuple(float(p) for p in m.group(2).split(","))
        except ValueError as exc:
            raise ValidationError(f"bad numeric parameter in {what} {text!r}") from exc
    return name, args


@dataclass(frozen=True)
class CouplingDistribution:
    """Named distribution for coupling strengths.

    Kinds: fixed(g), uniform(lo, hi), gaussian(mean, sigma),
    lorentzian(center, gamma).
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in _COUPLING_KINDS:
            raise ValidationError(f"unknown coupling distribution {self.kind!r}")
        params = tuple(_checked_float(p, "distribution parameters") for p in self.params)
        if len(params) != _COUPLING_KINDS[self.kind]:
            raise ValidationError(
                f"{self.kind} takes {_COUPLING_KINDS[self.kind]} parameter(s), got {len(params)}"
            )
        if self.kind == "uniform" and not params[0] < params[1]:
            raise ValidationError("uniform needs lo < hi")
        width = {"gaussian": "sigma", "lorentzian": "gamma"}.get(self.kind)
        if width and params[1] <= 0.0:
            raise ValidationError(f"{self.kind} needs {width} > 0")
        object.__setattr__(self, "params", params)

    @classmethod
    def fixed(cls, g: float) -> "CouplingDistribution":
        return cls("fixed", (g,))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "CouplingDistribution":
        return cls("uniform", (lo, hi))

    @classmethod
    def gaussian(cls, mean: float, sigma: float) -> "CouplingDistribution":
        return cls("gaussian", (mean, sigma))

    @classmethod
    def lorentzian(cls, center: float, gamma: float) -> "CouplingDistribution":
        return cls("lorentzian", (center, gamma))

    @classmethod
    def parse(cls, text: str) -> "CouplingDistribution":
        """Parse e.g. 'gaussian(0, 1)' or 'fixed(1.0)'."""
        name, args = _parse_call(text, "coupling distribution")
        return cls(name, args)

    def __str__(self) -> str:
        return f"{self.kind}({', '.join(repr(p) for p in self.params)})"


@dataclass(frozen=True)
class AmplitudeRule:
    """How per-spin amplitude pairs are chosen.

    'equal' sets every pair to (1/sqrt(2), 1/sqrt(2)); 'fixed' uses real
    pairs with |alpha|^2 = up_weight; 'random' draws pairs uniformly on
    the normalized-state sphere (four Box-Muller normals, normalized).
    """

    kind: str
    up_weight: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _AMPLITUDE_KINDS:
            raise ValidationError(f"unknown amplitude rule {self.kind!r}")
        if self.kind == "fixed":
            up_weight = _checked_float(self.up_weight, "up_weight")
            if not 0.0 <= up_weight <= 1.0:
                raise ValidationError("fixed amplitude rule needs |alpha|^2 in [0, 1]")
            object.__setattr__(self, "up_weight", up_weight)
        elif self.up_weight is not None:
            raise ValidationError(f"{self.kind} amplitude rule takes no parameter")

    @classmethod
    def equal(cls) -> "AmplitudeRule":
        return cls("equal")

    @classmethod
    def fixed(cls, up_weight: float) -> "AmplitudeRule":
        return cls("fixed", up_weight)

    @classmethod
    def random(cls) -> "AmplitudeRule":
        return cls("random")

    @classmethod
    def parse(cls, text: str) -> "AmplitudeRule":
        """Parse 'equal', 'fixed(0.9)' or 'random'."""
        name, args = _parse_call(text, "amplitude rule")
        if name not in _AMPLITUDE_KINDS:
            raise ValidationError(f"unknown amplitude rule {name!r}")
        if len(args) != _AMPLITUDE_KINDS[name]:
            count = "one" if _AMPLITUDE_KINDS[name] else "no"
            raise ValidationError(f"{name} amplitude rule takes {count} parameter")
        return cls(name, *args)

    def __str__(self) -> str:
        if self.kind == "fixed":
            return f"fixed({self.up_weight!r})"
        return self.kind


@dataclass(frozen=True)
class EnsembleSpec:
    """Full description of a seeded ensemble of model realizations."""

    distribution: CouplingDistribution
    amplitudes: AmplitudeRule
    n: int
    realizations: int
    seed: int

    def __post_init__(self) -> None:
        _checked_type(self.distribution, CouplingDistribution, "distribution")
        _checked_type(self.amplitudes, AmplitudeRule, "amplitudes")
        for name, least in (("n", 1), ("realizations", 1), ("seed", None)):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name, least))

    @cached_property
    def _shared_amplitudes(self) -> EnvironmentAmplitudes | None:
        """The amplitudes an 'equal' or 'fixed' rule gives every
        realization, built once; None for 'random', which draws per stream."""
        if self.amplitudes.kind == "random":
            return None
        return sample_amplitudes(self.amplitudes, self.n, self.seed)


def sample_couplings(
    dist: CouplingDistribution, n: int, seed: int, *, stream: int = 0
) -> CouplingSet:
    """Draw N couplings; identical (dist, n, seed, stream) give identical bits."""
    _checked_type(dist, CouplingDistribution, "distribution")
    n, seed, stream = _checked_int(n, "n", 1), _checked_int(seed, "seed"), _checked_int(stream, "stream")
    gen = rekeyed_generator(seed, stream)
    if dist.kind == "fixed":
        values = np.full(n, dist.params[0])
    elif dist.kind == "uniform":
        lo, hi = dist.params
        values = lo + (hi - lo) * gen.random(n)
    elif dist.kind == "gaussian":
        mean, sigma = dist.params
        values = mean + sigma * standard_normal(gen, n)
    else:
        center, gamma = dist.params
        values = cauchy(gen, n, center, gamma)
    return _adopt(CouplingSet, couplings=values)  # every branch allocates values afresh


def sample_amplitudes(
    rule: AmplitudeRule, n: int, seed: int, *, stream: int = 1
) -> EnvironmentAmplitudes:
    """Build N amplitude pairs under the rule; deterministic in (seed, stream)."""
    _checked_type(rule, AmplitudeRule, "amplitude rule")
    n, seed, stream = _checked_int(n, "n", 1), _checked_int(seed, "seed"), _checked_int(stream, "stream")
    if rule.kind == "equal":
        return EnvironmentAmplitudes.equal_superposition(n)
    if rule.kind == "fixed":
        return EnvironmentAmplitudes.from_up_weights(np.full(n, rule.up_weight))
    gen = rekeyed_generator(seed, stream)
    z = standard_normal(gen, 4 * n)
    alpha = z[0::4] + 1j * z[1::4]
    beta = z[2::4] + 1j * z[3::4]
    # A zero norm (p = 2^-106 per spin) gives NaN, which EnvironmentAmplitudes rejects.
    norm = np.sqrt(np.abs(alpha) ** 2 + np.abs(beta) ** 2)
    return _adopt(EnvironmentAmplitudes, alpha=alpha / norm, beta=beta / norm)


@dataclass(frozen=True, eq=False)
class EnsembleResult(_Value):
    """Pointwise complex mean trace and every realization's r(t).

    ``values`` is a read-only (realizations, steps) array whose row i is
    realization i on the mean's time grid.
    """

    mean: DecoherenceTrace
    values: np.ndarray
    _ARRAYS = {"values": np.complex128}

    def _freeze(self) -> None:
        _checked_type(self.mean, DecoherenceTrace, "mean")
        shape = self.values.shape
        if len(shape) != 2 or shape[0] < 1 or shape[1] != len(self.mean):
            raise ValidationError(f"ensemble values need shape (M, {len(self.mean)}), got {shape}")


def realization_model(
    spec: EnsembleSpec, index: int
) -> tuple[CouplingSet, EnvironmentAmplitudes]:
    """Couplings and amplitudes of realization ``index`` of the ensemble."""
    index = _checked_int(index, "realization index")
    if not 0 <= index < spec.realizations:
        raise ValidationError(f"realization index {index} outside 0..{spec.realizations - 1}")
    couplings = sample_couplings(spec.distribution, spec.n, spec.seed, stream=2 * index)
    amps = spec._shared_amplitudes
    if amps is None:
        amps = sample_amplitudes(spec.amplitudes, spec.n, spec.seed, stream=2 * index + 1)
    return couplings, amps


def ensemble_average_trace(spec: EnsembleSpec, grid: TimeGrid) -> EnsembleResult:
    """Evaluate every realization on the grid and average r(t) over them.

    The rows are added into a zeros-start mean in realization order.
    numpy's reductions over axis 0 pick their order by memory layout; on a
    one-sample grid they sum pairwise, which gives other bits.  More bytes
    than a numpy array can index raise CapacityError before allocating.
    """
    nbytes = spec.realizations * len(grid) * 16
    if nbytes > np.iinfo(np.intp).max:
        raise CapacityError(
            f"{spec.realizations} realizations x {len(grid)} steps x 16 bytes = {nbytes} bytes "
            f"of r(t) values exceed numpy's largest array, {np.iinfo(np.intp).max} bytes"
        )
    values = np.empty((spec.realizations, len(grid)), dtype=np.complex128)
    acc = np.zeros(len(grid), dtype=np.complex128)
    for index, row in enumerate(values):
        row[:] = decoherence_trace(*realization_model(spec, index), grid).values
        acc += row
    acc /= spec.realizations
    mean = _adopt(DecoherenceTrace, times=grid.samples, values=acc, n_spins=spec.n)
    return _adopt(EnsembleResult, mean=mean, values=values)
