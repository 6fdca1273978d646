"""Weighted-walk enumeration of the dephasing energy spectrum.

Each environment spin contributes +g_k (weight |alpha_k|^2) or -g_k
(weight |beta_k|^2) to a terminal energy, so the 2^N sign assignments
form a discrete local density of states whose characteristic function
is exactly r(t).  Walks are indexed by bitmask: bit k set means spin k
took the -g_k branch.  Distinct couplings generically give 2^N distinct
terminal energies; equal couplings collapse onto N+1 binomially
weighted levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .model import CouplingSet, EnvironmentAmplitudes, _checked_time, _readonly, _require_matching_sizes

#: Default ceiling on enumerable environment sizes (2^24 = 16.7M walks).
ENUMERATION_CAP = 24

_WEIGHT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EnergySpectrum:
    """Terminal energies E_W with weights p_W, in walk (bitmask) order
    unless ``merged``, in which case energies are strictly increasing."""

    energies: np.ndarray
    weights: np.ndarray
    n_spins: int
    merged: bool = False

    def __post_init__(self) -> None:
        self._freeze(
            np.array(self.energies, dtype=np.float64, copy=True),
            np.array(self.weights, dtype=np.float64, copy=True),
        )

    @classmethod
    def _adopt(
        cls, energies: np.ndarray, weights: np.ndarray, n_spins: int, merged: bool
    ) -> EnergySpectrum:
        """Validate and freeze float64 arrays the caller has just allocated
        and hands over, without the public constructor's copy."""
        spectrum = object.__new__(cls)
        object.__setattr__(spectrum, "n_spins", n_spins)
        object.__setattr__(spectrum, "merged", merged)
        spectrum._freeze(energies, weights)
        return spectrum

    def _freeze(self, e: np.ndarray, w: np.ndarray) -> None:
        n = self.n_spins
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValidationError(f"n_spins must be an int >= 1, got {n!r}")
        if not isinstance(self.merged, bool):
            raise ValidationError(f"merged must be a bool, got {self.merged!r}")
        if e.ndim != 1 or e.size < 1 or e.shape != w.shape:
            raise ValidationError("spectrum needs matching non-empty 1-d arrays")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(w))):
            raise ValidationError("spectrum energies and weights must be finite")
        if np.any(w < 0.0):
            raise ValidationError("spectrum weights must be nonnegative")
        total = float(np.sum(w))
        if not abs(total - 1.0) <= _WEIGHT_TOL:
            raise ValidationError(f"spectrum weights sum to {total!r}, not 1")
        if self.merged and np.any(np.diff(e) <= 0.0):
            raise ValidationError("merged spectrum must have strictly increasing energies")
        object.__setattr__(self, "n_spins", int(n))
        object.__setattr__(self, "energies", _readonly(e))
        object.__setattr__(self, "weights", _readonly(w))

    def __len__(self) -> int:
        return self.energies.size

    def moments(self) -> tuple[float, float]:
        """Weighted mean and variance of the terminal energies."""
        mean = float(self.weights @ self.energies)
        var = float(self.weights @ np.square(self.energies - mean))
        return mean, var


@dataclass(frozen=True, eq=False)
class LdosHistogram:
    """Binned weight distribution over terminal energies."""

    edges: np.ndarray
    masses: np.ndarray
    spectrum: EnergySpectrum

    def __post_init__(self) -> None:
        edges = np.array(self.edges, dtype=np.float64, copy=True)
        masses = np.array(self.masses, dtype=np.float64, copy=True)
        if edges.ndim != 1 or masses.ndim != 1 or edges.size != masses.size + 1:
            raise ValidationError("histogram needs len(edges) == len(masses) + 1")
        if not (np.all(np.isfinite(edges)) and np.all(np.isfinite(masses))):
            raise ValidationError("histogram edges and masses must be finite")
        if np.any(np.diff(edges) <= 0.0):
            raise ValidationError("histogram edges must be strictly increasing")
        if np.any(masses < 0.0) or not abs(float(masses.sum()) - 1.0) <= _WEIGHT_TOL:
            raise ValidationError("histogram masses must be nonnegative and sum to 1")
        object.__setattr__(self, "edges", _readonly(edges))
        object.__setattr__(self, "masses", _readonly(masses))

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def enumerate_walks(
    couplings: CouplingSet,
    amps: EnvironmentAmplitudes,
    *,
    cap: int = ENUMERATION_CAP,
) -> EnergySpectrum:
    """Enumerate all 2^N weighted sign assignments of the couplings.

    Entry m corresponds to bitmask m over the spins; bit k set means spin
    k contributes -g_k with weight |beta_k|^2, clear means +g_k with
    weight |alpha_k|^2.  The ordering is part of the contract so that
    outputs are reproducible.
    """
    _require_matching_sizes(couplings.n, amps.n, "couplings vs amplitudes")
    n = couplings.n
    if n > cap:
        raise CapacityError(
            f"enumerating {n} spins needs 2^{n} = {2 ** n} walks; cap is {cap} "
            "(use the product formula or sampling above the cap)"
        )
    size = 1 << n
    energies = np.zeros(size)
    weights = np.ones(size)
    g = couplings.couplings
    up_w, down_w = amps.alpha_sq, amps.beta_sq
    for k in range(n):
        half = 1 << k
        block = slice(0, half)
        mirror = slice(half, 2 * half)
        np.subtract(energies[block], g[k], out=energies[mirror])
        energies[block] += g[k]
        np.multiply(weights[block], down_w[k], out=weights[mirror])
        weights[block] *= up_w[k]
    return EnergySpectrum._adopt(energies, weights, n, merged=False)


def merge_degenerate(spectrum: EnergySpectrum, epsilon: float) -> EnergySpectrum:
    """Coalesce near-degenerate terminal energies.

    Entries are scanned in energy order and joined into one group while
    consecutive gaps stay within epsilon; each group keeps its summed
    weight and weight-averaged energy (plain average for zero-weight
    groups).  Merging is opt-in so the degenerate/non-degenerate
    structure of a spectrum stays observable by default.

    When all weights are equal, as for equal amplitudes, only the
    energies are sorted; otherwise an index sort carries the weights
    along.  Both give the same bits.
    """
    if not epsilon >= 0.0:  # also rejects NaN, which would merge everything
        raise ValidationError("merge epsilon must be nonnegative")
    w = spectrum.weights
    if w.min() == w.max():
        # Weights that sum to 1 and compare equal have equal bits, so any
        # permutation of w is w.  Equal energies have equal bits too, save
        # +-0.0, and the group sums below give +0.0 for either zero.
        e = np.sort(spectrum.energies)
    else:
        # argsort's default kind sets the tie order, and so each group's
        # summation order; another kind would change merged bits.
        order = np.argsort(spectrum.energies)
        e = spectrum.energies[order]
        w = w[order]
        del order
    starts = np.empty(e.size, dtype=bool)
    starts[0] = True
    np.greater(np.diff(e), epsilon, out=starts[1:])
    levels = e[starts]
    level_w = w[starts]
    # A singleton group's sums are base + 0.0 and 0.0 + w, which only
    # change -0.0 (to 0.0); adding 0.0 in place gives the same bits.
    levels += 0.0
    level_w += 0.0
    # Only groups with two or more members need summing: entry i is in
    # one unless both it and entry i + 1 start groups.  From here on e
    # and w hold just those entries.
    member = starts.copy()
    member[:-1] &= starts[1:]
    np.logical_not(member, out=member)
    idx = np.flatnonzero(member)
    e, w, head = e[idx], w[idx], starts[idx]
    joins = idx[~head]
    group = np.cumsum(head) - 1
    w_sum = np.bincount(group, weights=w)
    # Averaging offsets from each group's lowest energy keeps exactly
    # degenerate groups at their exact energy (no double rounding).
    base = e[head]
    delta = e - base[group]
    safe = np.where(w_sum > 0.0, w_sum, 1.0)
    mean_delta = np.bincount(group, weights=w * delta) / safe
    if np.any(w_sum == 0.0):
        counts = np.bincount(group)
        plain = np.bincount(group, weights=delta) / counts
        mean_delta = np.where(w_sum > 0.0, mean_delta, plain)
    # A group head's level is its position less the joins before it.
    heads = idx[head]
    rows = heads - np.searchsorted(joins, heads)
    levels[rows] = base + mean_delta
    level_w[rows] = w_sum
    return EnergySpectrum._adopt(levels, level_w, spectrum.n_spins, merged=True)


def default_merge_epsilon(couplings: CouplingSet) -> float:
    """Default degeneracy window: 1e-9 times the largest coupling magnitude."""
    return 1e-9 * float(np.max(np.abs(couplings.couplings)))


def ldos(spectrum: EnergySpectrum, bins: int | None = None) -> LdosHistogram:
    """Mass-preserving uniform histogram of the spectrum.

    Bins span [min E_W, max E_W]; the default count is
    ceil(sqrt(#entries)).  A single-energy spectrum gets a unit-width bin
    around it.
    """
    if bins is None:
        bins = math.ceil(math.sqrt(len(spectrum)))
    bins = int(bins)
    if bins < 1:
        raise ValidationError("histogram needs at least one bin")
    e = spectrum.energies
    masses, edges = np.histogram(
        e, bins=bins, range=(float(e.min()), float(e.max())), weights=spectrum.weights
    )
    return LdosHistogram(edges=edges, masses=masses, spectrum=spectrum)


def characteristic_function(spectrum: EnergySpectrum, t) -> complex:
    """Weighted phase sum over the spectrum: sum_W p_W exp(i E_W t)."""
    t = _checked_time(t)
    return complex(np.sum(spectrum.weights * np.exp(1j * spectrum.energies * t)))
