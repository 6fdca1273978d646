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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistributionError, ValidationError
from .model import (
    CouplingSet,
    EnvironmentAmplitudes,
    decoherence_trace,
    _checked_int,
    _readonly,
    _require_matching_sizes,
)

LINDEBERG_THRESHOLD = 0.2

SATISFIED = "satisfied"
VIOLATED = "violated"


@dataclass(frozen=True, eq=False)
class StatisticsSummary:
    """Per-step means a_k and variances b_k^2 with their cumulative sums."""

    step_means: np.ndarray
    step_variances: np.ndarray
    mean: float
    variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "step_means", _readonly(np.array(self.step_means, dtype=np.float64)))
        object.__setattr__(self, "step_variances", _readonly(np.array(self.step_variances, dtype=np.float64)))


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
    b2 = 4.0 * up_w * down_w * np.square(g)
    return StatisticsSummary(
        step_means=a, step_variances=b2, mean=float(a.sum()), variance=float(b2.sum())
    )


def gaussian_ldos(summary: StatisticsSummary, energy):
    """Gaussian envelope of the energy distribution, evaluated at energy."""
    if summary.variance <= 0.0:
        raise DegenerateDistributionError("zero cumulative variance: spectrum is a point mass")
    e = np.asarray(energy, dtype=np.float64)
    norm = 1.0 / math.sqrt(2.0 * math.pi * summary.variance)
    out = norm * np.exp(-np.square(e - summary.mean) / (2.0 * summary.variance))
    return float(out) if np.isscalar(energy) else out


def gaussian_decoherence(summary: StatisticsSummary, t) -> complex:
    """Limit form of r(t): a mean-energy phase times a Gaussian envelope.

    Reliable for t up to about gaussian_validity_window(summary); beyond
    that the neglected higher cumulants of the spectrum matter.
    """
    t = float(t)
    return complex(
        math.exp(-0.5 * summary.variance * t * t)
        * complex(math.cos(summary.mean * t), math.sin(summary.mean * t))
    )


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
    n, l = _checked_int(n, "n"), _checked_int(l, "l")
    if n < 1 or not 0 <= l <= n:
        raise ValidationError("need n >= 1 and 0 <= l <= n")
    up_weight = float(up_weight)
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
    if not threshold > 0.0:  # also rejects NaN
        raise ValidationError("threshold must be positive")
    total = math.sqrt(summary.variance)
    if total == 0.0:
        raise DegenerateDistributionError("zero cumulative variance")
    steps = np.sqrt(summary.step_variances)
    ratio = float(steps.max() / total)

    # Reconstruct the two-point outcome deviations from (a_k, b_k^2):
    # outcomes +-|g_k| with up-weight (|g_k| + a_k) / (2 |g_k|).
    a = summary.step_means
    g_abs = np.sqrt(np.square(a) + summary.step_variances)
    safe = np.where(g_abs > 0.0, g_abs, 1.0)
    up_w = np.where(g_abs > 0.0, (g_abs + a) / (2.0 * safe), 0.5)
    dev_up = g_abs - a
    dev_down = -g_abs - a
    cut = threshold * total
    tail = np.sum(
        up_w * np.square(dev_up) * (np.abs(dev_up) >= cut)
        + (1.0 - up_w) * np.square(dev_down) * (np.abs(dev_down) >= cut)
    )
    verdict = SATISFIED if ratio <= threshold else VIOLATED
    return LindebergReport(
        max_step_ratio=ratio,
        tail_mass=float(tail / summary.variance),
        threshold=float(threshold),
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
        horizon = 100.0 * (2.0 * math.pi / float(magnitudes.min()))
    horizon = float(horizon)
    if not (horizon > 0.0 and np.isfinite(horizon)):
        raise ValidationError("horizon must be positive and finite")
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
    blocks: int = 32,
) -> TimeAverageCheck:
    """Compare the analytic long-time average against the estimator.

    The estimator is the mean of |r(t)|^2 at ``samples`` left-endpoint
    times in [0, horizon); the horizon defaults to 100 periods of the
    slowest coupling.  The closed form 2^-N prod_k (1 + bias_k^2) assumes
    incommensurate couplings, so the magnitudes |g_k| must be nonzero and
    pairwise distinct, or ``ValidationError`` is raised.

    The standard error comes from batch means (``blocks`` contiguous
    blocks), which stays honest when nearby time samples are correlated.
    Batch means need at least two samples and two blocks.  Equal batch
    means (a horizon too short to dephase) that miss the closed form raise
    ``ValidationError``, since their gap has no standard error.
    """
    samples, blocks = _checked_int(samples, "samples"), _checked_int(blocks, "blocks")
    if samples < 2 or blocks < 2:
        raise ValidationError("batch means need at least 2 samples and 2 blocks")
    horizon, sq = _sq_magnitude_samples(couplings, amps, horizon, samples)
    analytic = long_time_average_sq(amps)
    empirical = float(sq.mean())
    blocks = min(blocks, sq.size)
    block_means = np.array([b.mean() for b in np.array_split(sq, blocks)])
    stderr = float(block_means.std(ddof=1) / math.sqrt(blocks))
    gap = abs(empirical - analytic)
    if gap > 0.0 and stderr == 0.0:
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
