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
from .model import (
    CouplingSet,
    EnvironmentAmplitudes,
    _adopt,
    _checked_float,
    _checked_int,
    _checked_n_spins,
    _checked_type,
    _require_matching_sizes,
    _Value,
)

#: Ceiling on enumerable environment sizes (2^24 = 16.7M walks).
ENUMERATION_CAP = 24

#: Entries per window of a whole-array pass (``_holds``, ``_increasing``,
#: ``_gaps_above``, ``_sorted``, ``_compacted``): one window's temporaries at a time.
_CHUNK_ROWS = 1 << 16

_WEIGHT_TOL = 1e-10

#: Peak bytes per bin of ``ldos`` through ``np.histogram`` (tracemalloc).
#: Bin starts found by search peak lower, at three float64 arrays.
_BYTES_PER_BIN = 41


@dataclass(frozen=True, eq=False)
class EnergySpectrum(_Value):
    """Terminal energies E_W with weights p_W, in walk (bitmask) order
    unless ``merged``, in which case energies are strictly increasing."""

    energies: np.ndarray
    weights: np.ndarray
    n_spins: int
    merged: bool = False
    _ARRAYS = {"energies": np.float64, "weights": np.float64}

    def __post_init__(self) -> None:
        super().__post_init__()
        # Weights are checked here only: producers build theirs from checked
        # weights.  Energies, which can overflow, or tie when merged with
        # epsilon below one ulp, are checked in _freeze on every path.
        _probabilities(self.weights, "spectrum weights")

    def _freeze(self) -> None:
        n_spins = _checked_n_spins(self.n_spins)
        _checked_type(self.merged, bool, "merged")
        e, w = self.energies, self.weights
        if e.ndim != 1 or e.size < 1 or e.shape != w.shape:
            raise ValidationError("spectrum needs matching non-empty 1-d arrays")
        if not _holds(np.isfinite, e):
            raise ValidationError("spectrum energies must be finite")
        if self.merged and not _increasing(e):
            raise ValidationError("merged spectrum must have strictly increasing energies")
        object.__setattr__(self, "n_spins", n_spins)

    def __len__(self) -> int:
        return self.energies.size


@dataclass(frozen=True, eq=False)
class LdosHistogram(_Value):
    """Binned weight distribution over terminal energies."""

    edges: np.ndarray
    masses: np.ndarray
    _ARRAYS = {"edges": np.float64, "masses": np.float64}

    def _freeze(self) -> None:
        edges, masses = self.edges, self.masses
        if edges.ndim != 1 or masses.ndim != 1 or edges.size != masses.size + 1:
            raise ValidationError("histogram needs len(edges) == len(masses) + 1")
        if not (_holds(np.isfinite, edges) and _increasing(edges)):
            raise ValidationError("histogram edges must be finite and strictly increasing")
        _probabilities(masses, "histogram masses")


def enumerate_walks(couplings: CouplingSet, amps: EnvironmentAmplitudes) -> EnergySpectrum:
    """Enumerate all 2^N weighted sign assignments of the couplings.

    Entry m corresponds to bitmask m over the spins; bit k set means spin
    k contributes -g_k with weight |beta_k|^2, clear means +g_k with
    weight |alpha_k|^2.  The ordering is part of the contract so that
    outputs are reproducible.

    When |alpha_k|^2 == |beta_k|^2 for every k, as for equal amplitudes,
    every walk's weight is the same product, taken in the same k order;
    it is computed once and the weights are a read-only 0-stride view of
    it.
    """
    _require_matching_sizes(couplings.n, amps.n, "couplings vs amplitudes")
    n = couplings.n
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"enumerating {n} spins needs 2^{n} = {2 ** n} walks; cap is {ENUMERATION_CAP} "
            "(use the product formula or sampling above the cap)"
        )
    g = couplings.couplings
    reach = sum(map(abs, g.tolist()))  # Python floats overflow without a numpy warning
    if not math.isfinite(reach):
        raise ValidationError(f"sum of |couplings| overflows to {reach!r}; walk energies would too")
    size = 1 << n
    up_w, down_w = amps.alpha_sq, amps.beta_sq
    uniform = np.array_equal(up_w, down_w)
    energies = np.zeros(size)
    # A uniform weight lives in a 1-entry array, which every block slice
    # below selects whole, so it takes the same multiplications in order.
    weights = np.ones(1 if uniform else size)
    for k in range(n):
        half = 1 << k
        block = slice(0, half)
        mirror = slice(half, 2 * half)
        np.subtract(energies[block], g[k], out=energies[mirror])
        energies[block] += g[k]
        if not uniform:
            np.multiply(weights[block], down_w[k], out=weights[mirror])
        weights[block] *= up_w[k]
    if uniform:
        weights = np.broadcast_to(weights, (size,))
    return _adopt(EnergySpectrum, energies=energies, weights=weights, n_spins=n)


def merge_degenerate(spectrum: EnergySpectrum, epsilon: float) -> EnergySpectrum:
    """Coalesce near-degenerate terminal energies.

    Entries are scanned in energy order and joined into one group while
    consecutive gaps stay within epsilon; each group keeps its summed
    weight and weight-averaged energy (plain average for zero-weight
    groups).  Merging is opt-in so the degenerate/non-degenerate
    structure of a spectrum stays observable by default.

    When the weights are one broadcast value, as ``enumerate_walks``
    gives equal amplitudes, only the energies are sorted; otherwise an
    index sort carries the weights along.  Both give the same bits.
    Energies that mirror about zero, e[m] == -e[n - 1 - m] for every m,
    as enumerated walks do, are sorted from the magnitudes of their first
    half alone (``_sorted``); other energies by ``np.sort``.

    It drops ``spectrum`` once its arrays are read, and the walk energies
    once sorted, before it gathers weights: Python 3.11+ moves arguments
    into the callee, so ``merge_degenerate(enumerate_walks(c, a), eps)``
    frees the walk arrays mid-merge.  A spectrum the caller keeps is kept.
    """
    epsilon = _checked_float(epsilon, "merge epsilon")
    if epsilon < 0.0:
        raise ValidationError("merge epsilon must be nonnegative")
    e, w, n_spins = spectrum.energies, spectrum.weights, spectrum.n_spins
    one_value = w.strides == (0,)
    del spectrum
    if one_value:
        # A broadcast weight is one value, so any permutation of w is w.
        # Equal energies have equal bits, save +-0.0, and the group sums
        # below give +0.0 for either zero.
        w = w[:1].copy()
        e = _sorted(e)
    else:
        # argsort's default kind sets the tie order, and so each group's
        # summation order; another kind would change merged bits.
        order = np.argsort(e)
        e = e[order]
        w = w[order]
        del order
    starts = np.empty(e.size, dtype=bool)
    starts[0] = True
    _gaps_above(e, epsilon, out=starts[1:])
    # Only groups with two or more members need summing: entry i is in
    # one unless both it and entry i + 1 start groups.  Their entries are
    # gathered first; then the levels are compacted into the sorted
    # buffers themselves.
    member = starts.copy()
    member[:-1] &= starts[1:]
    np.logical_not(member, out=member)
    idx = np.flatnonzero(member)
    del member
    e_sub, head = e[idx], starts[idx]
    w_sub = np.broadcast_to(w, idx.shape) if one_value else w[idx]
    # A singleton group's sums are base + 0.0 and 0.0 + w, which only
    # change -0.0 (to 0.0); adding 0.0 in place gives the same bits.
    levels = _compacted(e, starts)
    del e
    levels += 0.0
    if one_value:
        level_w = np.full(levels.size, w[0] + 0.0)
    else:
        level_w = _compacted(w, starts)
        level_w += 0.0
    del w, starts
    # A group head's level is its position less the joins before it.
    heads = idx[head]
    rows = heads - np.searchsorted(idx[~head], heads)
    del idx, heads
    group = np.cumsum(head)
    group -= 1
    w_sum = np.bincount(group, weights=w_sub)
    # Averaging offsets from each group's lowest energy keeps exactly
    # degenerate groups at their exact energy (no double rounding).
    base = e_sub[head]
    delta = np.subtract(e_sub, base[group], out=e_sub)
    del e_sub
    safe = np.where(w_sum > 0.0, w_sum, 1.0)
    mean_delta = np.bincount(group, weights=w_sub * delta) / safe
    if np.any(w_sum == 0.0):
        counts = np.bincount(group)
        plain = np.bincount(group, weights=delta) / counts
        mean_delta = np.where(w_sum > 0.0, mean_delta, plain)
    levels[rows] = base + mean_delta
    level_w[rows] = w_sum
    return _adopt(EnergySpectrum, energies=levels, weights=level_w, n_spins=n_spins, merged=True)


def _sorted(e: np.ndarray) -> np.ndarray:
    """np.sort(e) by value, sorting only half of a mirrored e.

    Flipping every spin negates a walk energy, and rounding to nearest
    is odd, so enumerated energies hold e[m] == -e[n - 1 - m] exactly.
    When every such pair does, the sorted values are the sorted
    magnitudes of the first half, below them their negated reverse; zeros
    there come out as -0.0.  Pairs are compared one _CHUNK_ROWS window at
    a time; an odd n or any unequal pair takes np.sort.
    """
    n = e.size
    half = n // 2
    windows = ((lo, min(lo + _CHUNK_ROWS, half)) for lo in range(0, half, _CHUNK_ROWS))
    if n % 2 or not all(np.array_equal(e[lo:hi], -e[n - hi : n - lo][::-1]) for lo, hi in windows):
        return np.sort(e)
    out = np.empty(n)
    upper = np.abs(e[:half], out=out[half:])
    upper.sort()
    np.negative(upper[::-1], out=out[:half])
    return out


def _compacted(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """a[keep], moved to the front of the caller's fresh array a.

    Each _CHUNK_ROWS chunk is gathered before it is written back, at or
    before its own position, so no unread entry is overwritten.  When
    fewer than half the entries are kept they are copied out, so that
    the whole buffer is not held for a few levels.
    """
    k = 0
    for lo in range(0, a.size, _CHUNK_ROWS):
        kept = a[lo : lo + _CHUNK_ROWS][keep[lo : lo + _CHUNK_ROWS]]
        a[k : k + kept.size] = kept
        k += kept.size
    return a[:k].copy() if 2 * k < a.size else a[:k]


def _capped_bins(bins: int) -> int:
    """bins as an int; CapacityError above the longest table the walk cap allows."""
    bins = _checked_int(bins, "bins", 1)
    if bins > 1 << ENUMERATION_CAP:
        raise CapacityError(
            f"a histogram of {bins} bins needs about {_BYTES_PER_BIN * bins} bytes; "
            f"cap is 2^{ENUMERATION_CAP} = {1 << ENUMERATION_CAP} bins"
        )
    return bins


def _gaps_above(e: np.ndarray, threshold: float, out: np.ndarray) -> None:
    """Set out[i] = e[i + 1] - e[i] > threshold from windows of _CHUNK_ROWS + 1
    entries that overlap by one: one chunk of gaps is held, never a whole-array difference."""
    for lo in range(0, e.size - 1, _CHUNK_ROWS):
        window = e[lo : lo + _CHUNK_ROWS + 1]
        np.greater(np.diff(window), threshold, out=out[lo : lo + window.size - 1])


def _holds(test, a: np.ndarray) -> bool:
    """Whether test(window).all() on every _CHUNK_ROWS window of a: no mask as long as a."""
    return all(test(a[lo : lo + _CHUNK_ROWS]).all() for lo in range(0, a.size, _CHUNK_ROWS))


def _increasing(a: np.ndarray) -> bool:
    """Whether a increases strictly (a NaN fails), by _CHUNK_ROWS + 1 windows overlapping by one."""
    windows = (a[lo : lo + _CHUNK_ROWS + 1] for lo in range(0, a.size - 1, _CHUNK_ROWS))
    return all((w[:-1] < w[1:]).all() for w in windows)


def _probabilities(p: np.ndarray, what: str) -> None:
    """Raise ValidationError unless p is finite, nonnegative and sums to 1 within _WEIGHT_TOL."""
    if not _holds(lambda window: np.isfinite(window) & (window >= 0.0), p):
        raise ValidationError(f"{what} must be finite and nonnegative")
    total = float(np.sum(p))
    if not abs(total - 1.0) <= _WEIGHT_TOL:
        raise ValidationError(f"{what} sum to {total!r}, not 1")


def _uniform_edges(lo: float, hi: float, bins: int, what: str) -> np.ndarray:
    """The edges np.histogram gives ``bins`` uniform bins over data from
    lo to hi, a single value getting a unit-width bin around it.

    Raises ValidationError where np.histogram would fail with "Too many
    bins for data range", or give edges that are not finite: the edges
    must increase strictly.
    """
    first, last = (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):  # last - first may overflow
        edges = np.linspace(first, last, bins + 1)
    if not _increasing(edges):
        raise ValidationError(
            f"{bins} bins cannot split the {what} range [{lo!r}, {hi!r}] "
            "into bins with distinct finite edges"
        )
    return edges


def default_merge_epsilon(couplings: CouplingSet) -> float:
    """Default degeneracy window: 1e-9 times the largest coupling magnitude."""
    return 1e-9 * float(np.max(np.abs(couplings.couplings)))


def ldos(spectrum: EnergySpectrum, bins: int | None = None) -> LdosHistogram:
    """Mass-preserving uniform histogram of the spectrum.

    Bins span [min E_W, max E_W]; the default count is
    ceil(sqrt(#entries)).  A single-energy spectrum gets a unit-width bin
    around it.  More than 2^ENUMERATION_CAP bins raise CapacityError; bins
    too fine for the energy range to give distinct edges raise
    ValidationError.  The masses are those of ``np.histogram``, bit for
    bit: a merged spectrum's come from where each bin starts among its
    increasing energies, found by one ``np.searchsorted`` of numpy's
    edges, unless the bin width is subnormal; the rest are numpy's own.
    """
    if bins is None:
        bins = math.ceil(math.sqrt(len(spectrum)))
    bins = _capped_bins(bins)
    e = spectrum.energies
    if spectrum.merged:
        lo, hi = float(e[0]), float(e[-1])
    else:
        lo, hi = float(e.min()), float(e.max())
    edges = _uniform_edges(lo, hi, bins, "energy")
    if spectrum.merged and (edges[-1] - edges[0]) / bins >= np.finfo(np.float64).smallest_normal:
        masses = _sorted_masses(e, spectrum.weights, edges)
    else:
        # Walk order, or a subnormal bin width (see _sorted_masses):
        # np.histogram computes each entry's bin.
        masses, edges = np.histogram(e, bins=bins, range=(lo, hi), weights=spectrum.weights)
    return _adopt(LdosHistogram, edges=edges, masses=masses)


#: Entries per block of ``np.histogram``'s uniform-bin loop (its internal
#: ``BLOCK``).  Each block's per-bin sums are added to the totals in
#: block order, so the same blocks give the same bits.
_HIST_BLOCK = 1 << 16


def _sorted_masses(e: np.ndarray, w: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """np.histogram's masses of increasing energies e, found from where
    each bin starts rather than from every entry's bin."""
    # np.histogram puts x in its estimate, (x - first) / (last - first)
    # * bins truncated, moved at most one bin towards the bin whose edges
    # bracket x.  The estimate misses x's exact position by a few ulps of
    # bins, far below one bin.  With a normal step, each linspace edge
    # first + i * step misses its exact value by half an ulp of the edge
    # plus a few ulps of i steps, under one bin since the edges are
    # distinct.  So the bracketing bin is within one of the estimate,
    # numpy's correction reaches it, and the entries below edge b are the
    # first searchsorted(e, edges[b]).  A subnormal step is rounded to a
    # multiple of the smallest subnormal, i * step can then miss by many
    # bins (np.linspace(-7.777e-321, 8.8e-322, 767) does), and ldos sends
    # such widths to np.histogram.
    bins = edges.size - 1
    n = e.size
    starts = np.searchsorted(e, edges)  # starts[0] is 0: e[0] >= first
    starts[-1] = n  # the last bin holds its right edge
    # Bins that hold entries, and the entry each starts at.
    filled = np.flatnonzero(np.diff(starts))
    first_entry = starts[filled]
    masses = np.zeros(bins)
    for lo in range(0, n, _HIST_BLOCK):
        hi = min(lo + _HIST_BLOCK, n)
        r0 = np.searchsorted(first_entry, lo, side="right") - 1
        r1 = np.searchsorted(first_entry, hi)
        counts = np.diff(first_entry[r0 + 1 : r1], prepend=lo, append=hi)
        block_bin = np.repeat(np.arange(r1 - r0), counts)
        # The same sequential per-bin sums as numpy's bincount of this
        # block; bins the block misses would only add +0.0.
        masses[filled[r0:r1]] += np.bincount(block_bin, weights=w[lo:hi])
    return masses


def characteristic_function(spectrum: EnergySpectrum, t) -> complex:
    """Weighted phase sum over the spectrum: sum_W p_W exp(i E_W t)."""
    t = _checked_float(t, "time")
    return complex(np.sum(spectrum.weights * np.exp(1j * spectrum.energies * t)))
