"""Seeded generation of coupling sets and amplitudes, and ensemble averages.

Realization i of an ensemble draws its couplings from stream 2i and its
amplitudes from stream 2i + 1 of the root seed (see ``rng``), so single
runs and partial reruns see identical data.
A plain trace experiment is realization 0 of the matching ensemble.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import (
    CouplingSet,
    DecoherenceTrace,
    EnvironmentAmplitudes,
    TimeGrid,
    _checked_int,
    _readonly,
    decoherence_trace,
)
from .rng import cauchy, rekeyed_generator, standard_normal

_COUPLING_KINDS = {"fixed": 1, "uniform": 2, "gaussian": 2, "lorentzian": 2}

_SPEC_RE = re.compile(r"^\s*([a-z-]+)\s*(?:\(([^)]*)\))?\s*$")


def _checked_type(value, kind: type, what: str) -> None:
    if not isinstance(value, kind):
        raise ValidationError(f"{what} must be a {kind.__name__}, got {value!r}")


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
        params = tuple(float(p) for p in self.params)
        if len(params) != _COUPLING_KINDS[self.kind]:
            raise ValidationError(
                f"{self.kind} takes {_COUPLING_KINDS[self.kind]} parameter(s), got {len(params)}"
            )
        if not all(math.isfinite(p) for p in params):
            raise ValidationError("distribution parameters must be finite")
        if self.kind == "uniform" and not params[0] < params[1]:
            raise ValidationError("uniform needs lo < hi")
        if self.kind == "gaussian" and not params[1] > 0.0:
            raise ValidationError("gaussian needs sigma > 0")
        if self.kind == "lorentzian" and not params[1] > 0.0:
            raise ValidationError("lorentzian needs gamma > 0")
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
        if self.kind not in ("equal", "fixed", "random"):
            raise ValidationError(f"unknown amplitude rule {self.kind!r}")
        if self.kind == "fixed":
            if self.up_weight is None or not 0.0 <= float(self.up_weight) <= 1.0:
                raise ValidationError("fixed amplitude rule needs |alpha|^2 in [0, 1]")
            object.__setattr__(self, "up_weight", float(self.up_weight))
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
        if name == "fixed":
            if len(args) != 1:
                raise ValidationError("fixed amplitude rule takes one parameter")
            return cls("fixed", args[0])
        if args:
            raise ValidationError(f"{name} amplitude rule takes no parameter")
        return cls(name)

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
        for name in ("n", "realizations", "seed"):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name))
        if self.n < 1:
            raise ValidationError("need at least one environment spin")
        if self.realizations < 1:
            raise ValidationError("need at least one realization")


def sample_couplings(
    dist: CouplingDistribution, n: int, seed: int, *, stream: int = 0
) -> CouplingSet:
    """Draw N couplings; identical (dist, n, seed, stream) give identical bits."""
    _checked_type(dist, CouplingDistribution, "distribution")
    n, seed = _checked_int(n, "n"), _checked_int(seed, "seed")
    stream = _checked_int(stream, "stream")
    if n < 1:
        raise ValidationError("need at least one coupling")
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
    return CouplingSet(values)


@functools.lru_cache(maxsize=1)
def _seedless_amplitudes(rule: AmplitudeRule, n: int, spelling: str) -> EnvironmentAmplitudes:
    """The amplitudes of an 'equal' or 'fixed' rule, which ignore the seed.

    One immutable instance serves every realization of an ensemble.  The
    spelling ``str(rule)`` is part of the cache key because fixed(-0.0)
    equals fixed(0.0) but gives alpha = -0.0.
    """
    if rule.kind == "equal":
        return EnvironmentAmplitudes.equal_superposition(n)
    return EnvironmentAmplitudes.from_up_weights(np.full(n, rule.up_weight))


def sample_amplitudes(
    rule: AmplitudeRule, n: int, seed: int, *, stream: int = 1
) -> EnvironmentAmplitudes:
    """Build N amplitude pairs under the rule; deterministic in (seed, stream)."""
    _checked_type(rule, AmplitudeRule, "amplitude rule")
    n, seed = _checked_int(n, "n"), _checked_int(seed, "seed")
    stream = _checked_int(stream, "stream")
    if n < 1:
        raise ValidationError("need at least one amplitude pair")
    if rule.kind != "random":
        return _seedless_amplitudes(rule, n, str(rule))
    gen = rekeyed_generator(seed, stream)
    z = standard_normal(gen, 4 * n)
    alpha = z[0::4] + 1j * z[1::4]
    beta = z[2::4] + 1j * z[3::4]
    norm = np.sqrt(np.abs(alpha) ** 2 + np.abs(beta) ** 2)
    # A zero norm needs both Box-Muller radii to vanish; guard anyway.
    degenerate = norm == 0.0
    if np.any(degenerate):
        alpha[degenerate] = 1.0
        beta[degenerate] = 0.0
        norm[degenerate] = 1.0
    return EnvironmentAmplitudes(alpha / norm, beta / norm)


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Pointwise complex mean trace and every realization's r(t).

    ``values`` is a read-only (realizations, steps) array whose row i is
    realization i on the mean's time grid.
    """

    mean: DecoherenceTrace
    values: np.ndarray


def realization_model(
    spec: EnsembleSpec, index: int
) -> tuple[CouplingSet, EnvironmentAmplitudes]:
    """Couplings and amplitudes of realization ``index`` of the ensemble."""
    index = _checked_int(index, "realization index")
    if not 0 <= index < spec.realizations:
        raise ValidationError(f"realization index {index} outside 0..{spec.realizations - 1}")
    couplings = sample_couplings(spec.distribution, spec.n, spec.seed, stream=2 * index)
    amps = sample_amplitudes(spec.amplitudes, spec.n, spec.seed, stream=2 * index + 1)
    return couplings, amps


def ensemble_average_trace(spec: EnsembleSpec, grid: TimeGrid) -> EnsembleResult:
    """Evaluate every realization on the grid and average r(t) over them.

    The rows are added into a zeros-start mean in realization order.
    numpy's reductions over axis 0 pick their order by memory layout; on a
    one-sample grid they sum pairwise, which gives other bits.
    """
    values = np.empty((spec.realizations, len(grid)), dtype=np.complex128)
    acc = np.zeros(len(grid), dtype=np.complex128)
    for index, row in enumerate(values):
        row[:] = decoherence_trace(*realization_model(spec, index), grid).values
        acc += row
    mean = DecoherenceTrace._adopt(grid.samples, acc / spec.realizations, spec.n)
    return EnsembleResult(mean, _readonly(values))
