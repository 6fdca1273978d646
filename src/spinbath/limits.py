"""Statistical summaries and limiting forms of the dephasing spectrum.

Each spin contributes a two-point random energy (+g_k or -g_k with the
branch weights); the cumulative mean and variance of those steps control
both the Gaussian envelope of the local density of states and the
short-time Gaussian decay of r(t).  Also here: the binomial Gaussian
approximation for equal couplings, a finite-size Lindeberg diagnostic,
and the long-time average of |r|^2 with its numerical estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDistributionError, ValidationError
from .model import (
    CouplingSet,
    EnvironmentAmplitudes,
    decoherence_trace,
    _adopt,
    _checked_float,
    _checked_int,
    _finite_1d,
    _require_matching_sizes,
    _Value,
)

LINDEBERG_THRESHOLD = 0.2

#: Contiguous batches behind check_time_average's standard error, at most one per sample.
_BATCHES = 32

SATISFIED = "satisfied"
VIOLATED = "violated"


@dataclass(frozen=True, eq=False)
class StatisticsSummary(_Value):
    """Per-step means a_k and variances b_k^2, and their sums ``mean`` and
    ``variance``.  A step variance may be +inf, where g_k^2 overflows."""

    step_means: np.ndarray
    step_variances: np.ndarray
    mean: float = field(init=False)
    variance: float = field(init=False)
    _ARRAYS = {"step_means": np.float64, "step_variances": np.float64}

    def _freeze(self) -> None:
        means, variances = _finite_1d(self.step_means, "step means"), self.step_variances
        if variances.shape != means.shape or not np.all(variances >= 0.0):  # a NaN fails too
            raise ValidationError(f"need one step variance >= 0 per step mean, got {variances!r}")
        object.__setattr__(self, "mean", float(means.sum()))
        object.__setattr__(self, "variance", float(variances.sum()))


@dataclass(frozen=True)
class LindebergReport:
    """Finite-size proxy verdict for the Gaussian-limit condition."""

    max_step_ratio: float
    tail_mass: float
    threshold: float
    verdict: str


def summarize(couplings: CouplingSet, amps: EnvironmentAmplitudes) -> StatisticsSummary:
    """Per-spin step statistics: a_k = (|alpha_k|^2 - |beta_k|^2) g_k and
    b_k^2 = g_k^2 - a_k^2 = 4 |alpha_k|^2 |beta_k|^2 g_k^2."""
    _require_matching_sizes(couplings.n, amps.n, "couplings vs amplitudes")
    g = couplings.couplings
    up_w, down_w = amps.alpha_sq, amps.beta_sq
    a = (up_w - down_w) * g
    # The product form keeps b_k^2 >= 0 exactly; g^2 - a^2 can round negative.
    w4 = 4.0 * up_w * down_w  # a zero weight adds 0.0, even where g^2 overflows
    g = np.where(w4 > 0.0, g, 0.0)
    with np.errstate(over="ignore"):  # an overflowing (w4 g) g gives the documented +inf
        b2 = w4 * np.square(g)
        # Where g^2 overflows, (w4 g) g may not; elsewhere w4 g^2 keeps its bits.
        wide = np.isinf(b2)
        b2[wide] = w4[wide] * g[wide] * g[wide]
    return _adopt(StatisticsSummary, step_means=a, step_variances=b2)


def gaussian_ldos(summary: StatisticsSummary, energy):
    """Gaussian envelope of the energy distribution, evaluated at energy:
    a float for a scalar energy, else a read-only array."""
    if summary.variance <= 0.0:
        raise DegenerateDistributionError("zero cumulative variance: spectrum is a point mass")
    e = np.asarray(energy, dtype=np.float64)
    norm = 1.0 / math.sqrt(2.0 * math.pi * summary.variance)
    out = norm * np.exp(-np.square(e - summary.mean) / (2.0 * summary.variance))
    if np.isscalar(energy):
        return float(out)
    if isinstance(out, np.ndarray):  # a 0-d energy gives a numpy scalar
        out.setflags(write=False)
    return out


def gaussian_decoherence(summary: StatisticsSummary, t) -> complex:
    """Limit form of r(t): a mean-energy phase times a Gaussian envelope.

    Reliable for t up to about gaussian_validity_window(summary); beyond
    that the neglected higher cumulants of the spectrum matter.
    """
    t = _checked_float(t, "time")
    # At t = 0 (where an infinite variance gives inf * 0) and under a zero
    # envelope r is exactly 1 or 0, whatever the phase.
    envelope = math.exp(-0.5 * summary.variance * t * t) if t else 1.0
    phase = summary.mean * t if t and envelope else 0.0
    if not math.isfinite(phase):
        raise ValidationError(f"mean-energy phase {summary.mean!r} * {t!r} overflows")
    return complex(envelope * complex(math.cos(phase), math.sin(phase)))


def gaussian_validity_window(summary: StatisticsSummary) -> float:
    """Time horizon 2 / B_N inside which the Gaussian forms are trusted."""
    if summary.variance <= 0.0:
        raise DegenerateDistributionError("zero cumulative variance")
    return 2.0 / math.sqrt(summary.variance)


def laplace_demoivre_weight(n: int, l: int, up_weight: float) -> float:
    """Gaussian approximation to the binomial walk weight at level l.

    Approximates C(n, l) |alpha|^(2(n-l)) |beta|^(2l) for equal couplings
    and equal amplitudes with |alpha|^2 = up_weight.
    """
    n, l = _checked_int(n, "n", 1), _checked_int(l, "l", 0)
    if l > n:
        raise ValidationError(f"l must be <= n = {n}, got {l!r}")
    up_weight = _checked_float(up_weight, "up_weight")
    if not 0.0 < up_weight < 1.0:
        raise DegenerateDistributionError("binomial Gaussian needs 0 < |alpha|^2 < 1")
    down_weight = 1.0 - up_weight
    var = n * up_weight * down_weight
    return math.exp(-((l - n * down_weight) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def lindeberg_check(
    summary: StatisticsSummary, threshold: float = LINDEBERG_THRESHOLD
) -> LindebergReport:
    """Finite-size Lindeberg diagnostic.

    The asymptotic condition asks that no single step dominate the
    cumulative variance.  The practical verdict here is satisfied iff
    max_k b_k / B_N <= threshold.  The report also carries the classical
    truncated-second-moment tail mass at tau = threshold: the fraction of
    B_N^2 contributed by step outcomes deviating from their mean by at
    least threshold * B_N.
    """
    threshold = _checked_float(threshold, "threshold", above=0.0)
    if not math.isfinite(summary.variance):
        raise ValidationError(f"cumulative variance B_N^2 overflows to {summary.variance!r}")
    total = math.sqrt(summary.variance)
    if total == 0.0:
        raise DegenerateDistributionError("zero cumulative variance")
    b2 = summary.step_variances
    ratio = float(np.sqrt(b2).max() / total)

    # Step k is +|g_k| with probability p_k = (|g_k| + a_k) / (2 |g_k|), else
    # -|g_k|, so its deviations |g_k| - a_k and |g_k| + a_k carry (1 - p_k) b_k^2
    # and p_k b_k^2.  A step with b_k^2 = 0 is a point mass, which adds 0 to
    # the tail even where a_k^2 overflows.
    live = b2 > 0.0
    a, b2 = summary.step_means[live], b2[live]
    g_abs = np.hypot(a, np.sqrt(b2))
    p = (g_abs + a) / (2.0 * g_abs)
    cut = threshold * total
    tail = np.sum(b2 * ((1.0 - p) * (g_abs - a >= cut) + p * (g_abs + a >= cut)))
    verdict = SATISFIED if ratio <= threshold else VIOLATED
    return LindebergReport(
        max_step_ratio=ratio,
        tail_mass=float(tail / summary.variance),
        threshold=threshold,
        verdict=verdict,
    )


def long_time_average_sq(amps: EnvironmentAmplitudes) -> float:
    """Long-time average of |r(t)|^2: 2^-N prod_k (1 + (|alpha_k|^2 - |beta_k|^2)^2).

    The 2^-N is folded into the product factor by factor so large N
    cannot overflow on the way to a representable result.
    """
    bias = amps.alpha_sq - amps.beta_sq
    return float(np.prod(0.5 * (1.0 + np.square(bias))))


def _sq_magnitude_samples(
    couplings: CouplingSet,
    amps: EnvironmentAmplitudes,
    horizon: float | None,
    samples: int,
) -> tuple[float, np.ndarray]:
    """The resolved horizon and |r(t)|^2 at ``samples`` times in [0, horizon)."""
    magnitudes = np.abs(couplings.couplings)
    if not np.all(magnitudes > 0.0) or np.unique(magnitudes).size != couplings.n:
        raise ValidationError(
            "time-average estimator requires nonzero couplings with pairwise distinct "
            "magnitudes: a zero coupling never dephases and a +-g pair repeats its "
            "cos 2gt factor, which breaks the phase-mixing it relies on"
        )
    if horizon is None:
        # 100 periods of the slowest coupling.
        slowest = float(magnitudes.min())
        horizon = 100.0 * (2.0 * math.pi / slowest)
        if not math.isfinite(horizon):
            raise ValidationError(f"100 periods of slowest coupling {slowest!r} overflow; pass a horizon")
    horizon = _checked_float(horizon, "horizon", above=0.0)
    # Left-endpoint sampling of [0, horizon): the closed interval would
    # double-count the revival at both ends.
    times = horizon * np.arange(samples) / samples
    # abs() of each Python complex, squared: np.square(np.hypot(re, im))
    # differs from it in the last bit for some values.
    values = decoherence_trace(couplings, amps, times).values.tolist()
    return horizon, np.array([abs(r) ** 2 for r in values])


@dataclass(frozen=True)
class TimeAverageCheck:
    """Closed-form vs numerical long-time average of |r|^2."""

    analytic: float
    empirical: float
    stderr: float
    n_sigma: float
    horizon: float
    samples: int


def check_time_average(
    couplings: CouplingSet,
    amps: EnvironmentAmplitudes,
    horizon: float | None = None,
    samples: int = 4096,
) -> TimeAverageCheck:
    """Compare the analytic long-time average against the estimator.

    The estimator is the mean of |r(t)|^2 at ``samples`` left-endpoint
    times in [0, horizon); the horizon defaults to 100 periods of the
    slowest coupling.  The closed form 2^-N prod_k (1 + bias_k^2) assumes
    incommensurate couplings, so the magnitudes |g_k| must be nonzero and
    pairwise distinct, or ``ValidationError`` is raised.

    The standard error comes from the means of ``_BATCHES`` contiguous
    batches, which stays honest when nearby time samples are correlated.
    Batch means need at least two samples.  Equal batch means (a horizon
    too short to dephase) that miss the closed form raise
    ``ValidationError``, since their gap has no standard error.
    """
    samples = _checked_int(samples, "samples", 2)  # batch means need two
    horizon, sq = _sq_magnitude_samples(couplings, amps, horizon, samples)
    analytic = long_time_average_sq(amps)
    empirical = float(sq.mean())
    blocks = min(_BATCHES, sq.size)
    block_means = np.array([b.mean() for b in np.array_split(sq, blocks)])
    stderr = float(block_means.std(ddof=1) / math.sqrt(blocks))
    gap = abs(empirical - analytic)
    if gap and not stderr:  # no bound on an argument, so no _checked_float call
        raise ValidationError(
            f"all {blocks} batch means of |r|^2 are equal, and their mean {empirical!r} "
            f"is not the closed form {analytic!r}: r(t) does not dephase within "
            f"horizon {horizon!r}, so the gap has no standard error"
        )
    n_sigma = 0.0 if gap == 0.0 else gap / stderr
    return TimeAverageCheck(
        analytic=analytic,
        empirical=empirical,
        stderr=stderr,
        n_sigma=n_sigma,
        horizon=horizon,
        samples=samples,
    )
