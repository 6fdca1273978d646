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
    _checked_type,
    _require_matching_sizes,
    _Value,
)

#: Ceiling on enumerable environment sizes (2^24 = 16.7M walks).
ENUMERATION_CAP = 24

#: Entries per window of a whole-array pass (``_holds``, ``_increasing``,
#: ``_gaps_above``, ``_sorted``, ``_compacted``, ``_member_chunks``,
#: ``characteristic_function``), and members per chunk of the merge's group
#: sums: one window's or chunk's temporaries at a time.
_CHUNK_ROWS = 1 << 16

_WEIGHT_TOL = 1e-10

#: Peak bytes per bin of ``ldos`` through ``np.histogram`` (tracemalloc).
#: Bin starts found by search peak lower, at three float64 arrays; walks
#: over more than one block also hold their running masses, 8 more.
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
        n_spins = _checked_int(self.n_spins, "n_spins", 1)
        _checked_type(self.merged, bool, "merged")
        e, w = self.energies, self.weights
        if e.ndim != 1 or e.size < 1 or e.shape != w.shape:
            raise ValidationError("spectrum needs matching non-empty 1-d arrays")
        # Strictly increasing energies hold no NaN, and an infinity only at an end.
        increasing = self.merged and _increasing(e)
        if not (np.isfinite(e[0]) and np.isfinite(e[-1]) if increasing else _holds(np.isfinite, e)):
            raise ValidationError("spectrum energies must be finite")
        if self.merged and not increasing:
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
    epsilon = _checked_float(epsilon, "merge epsilon", least=0.0)
    e, w, n_spins = spectrum.energies, spectrum.weights, spectrum.n_spins
    one_value = w.strides == (0,)
    del spectrum
    if one_value:
        # A broadcast weight is one value, so any permutation of w is w.
        # Equal energies have equal bits, save +-0.0, and the group sums
        # give +0.0 for either zero.
        w = w[:1].copy()
        e = _sorted(e)
    else:
        # argsort's default kind sets the tie order, and so each group's
        # summation order; another kind would change merged bits.
        order = np.argsort(e)
        e = e[order]
        w = w[order]
        del order
    # Group starts, and past the last entry one more (see _member_chunks).
    starts = np.empty(e.size + 1, dtype=bool)
    starts[0] = starts[-1] = True
    _gaps_above(e, epsilon, out=starts[1:-1])
    # Only groups with two or more members need summing; that is done
    # first, as the levels are then compacted into the sorted buffers.
    rows, joined_e, joined_w = _joined_levels(e, w, starts)
    levels = _compacted(e, starts[:-1])
    del e
    # A singleton group's sums are base + 0.0 and 0.0 + w, which only
    # change -0.0 (to 0.0).  The levels increase, so their zeros are one run.
    levels[np.searchsorted(levels, 0.0) : np.searchsorted(levels, 0.0, side="right")] = 0.0
    if one_value:
        del starts
        level_w = np.full(levels.size, w[0] + 0.0)
    else:
        level_w = _compacted(w, starts[:-1])
        del starts
        level_w += 0.0
    del w
    levels[rows] = joined_e
    level_w[rows] = joined_w
    return _adopt(EnergySpectrum, energies=levels, weights=level_w, n_spins=n_spins, merged=True)


def _member_chunks(starts: np.ndarray):
    """Positions of the entries of groups with two or more members, in
    order, in chunks of at most _CHUNK_ROWS, found one _CHUNK_ROWS window
    of ``starts`` at a time.  Entry i is such a member unless it and entry
    i + 1 both start groups; ``starts`` has one more entry than the
    spectrum, True, so the last entry is judged alike."""
    chunk, held = np.empty(_CHUNK_ROWS, dtype=np.intp), 0
    for lo in range(0, starts.size - 1, _CHUNK_ROWS):
        window = starts[lo : lo + _CHUNK_ROWS + 1]
        found = np.flatnonzero(~(window[:-1] & window[1:]))
        found += lo
        while found.size:
            taken = found[: _CHUNK_ROWS - held]
            chunk[held : held + taken.size] = taken
            held += taken.size
            found = found[taken.size :]
            if held == _CHUNK_ROWS:
                yield chunk
                chunk, held = np.empty(_CHUNK_ROWS, dtype=np.intp), 0
    if held:
        yield chunk[:held]


def _joined_levels(e: np.ndarray, w: np.ndarray, starts: np.ndarray):
    """(rows, energies, weights) of the levels of the groups with two or
    more members, for merge_degenerate to write over their compacted
    first entries.

    The sums are those of ``np.bincount`` over every member at once: each
    group's terms are added in member order, from +0.0.  Members are taken
    one chunk at a time (``_member_chunks``).  The group a chunk ends in
    carries its level row, base energy, count and running sums into the
    next chunk, whose bin 0 starts from them (``_bin_sums``), so each of
    its sums goes on in order; a running sum from +0.0 is never -0.0, so
    adding it to +0.0 changes nothing.
    """
    rows, energies, weights = [np.empty(0, dtype=np.intp)], [np.empty(0)], [np.empty(0)]

    def finish(level_rows, base, counts, w_sum, wd_sum, d_sum):
        rows.append(level_rows)
        energies.append(_group_energies(base, counts, w_sum, wd_sum, d_sum))
        weights.append(w_sum)

    carry = None
    joins = 0  # members before the chunk that do not start a group
    for idx in _member_chunks(starts):
        head = starts[idx]
        heads = np.flatnonzero(head)
        # Bin 0 is the carried group, if any; bin g > 0 the chunk's g-th.
        row0, *carried = carry or (0, 0.0, 1, 0.0, 0.0, 0.0)
        first = 0 if carry else 1
        # A head's row is its position less the joins before it.
        level_rows = np.concatenate(([row0], idx[heads] - (joins + heads - np.arange(heads.size))))
        joins += idx.size - heads.size
        columns = (level_rows, *_bin_sums(e, w, idx, head, heads, carried, first))
        # The chunk's last group may go on in the next chunk; the others end here.
        finish(*(column[first:-1] for column in columns))
        carry = tuple(column[-1] for column in columns)
    if carry:
        finish(*(np.array([value]) for value in carry))
    return np.concatenate(rows), np.concatenate(energies), np.concatenate(weights)


def _bin_sums(e, w, idx, head, heads, carried, first):
    """Base energy, count and sums of weight, weight times offset and
    offset of each bin of a member chunk: bin 0 goes on from ``carried``,
    bin g > 0 is the group of the chunk's g-th head.  Counts and offset
    sums are only formed when a bin from ``first`` on has no weight: a
    group with weight does not use them.  (``np.take`` with ``mode="clip"``
    writes straight into its ``out``; the indices are in range.)"""
    base0, count0, w0, wd0, d0 = carried
    group = np.empty(idx.size + 1, dtype=np.intp)
    group[0] = 0
    np.cumsum(head, out=group[1:])
    base = np.empty(heads.size + 1)
    base[0] = base0
    np.take(e, idx[heads], out=base[1:], mode="clip")
    # Averaging offsets from each group's lowest energy keeps exactly
    # degenerate groups at their exact energy (no double rounding).
    delta = np.empty(idx.size + 1)
    delta[0] = d0
    np.take(e, idx, out=delta[1:], mode="clip")
    terms = np.empty(idx.size + 1)
    delta[1:] -= np.take(base, group[1:], out=terms[1:], mode="clip")
    terms[0] = w0
    if w.size == 1:  # one broadcast weight
        terms[1:] = w[0]
    else:
        np.take(w, idx, out=terms[1:], mode="clip")
    w_sum = np.bincount(group, weights=terms)
    np.multiply(terms[1:], delta[1:], out=terms[1:])
    terms[0] = wd0
    wd_sum = np.bincount(group, weights=terms)
    if w_sum[first:].all():
        return base, np.ones(base.size, dtype=np.intp), w_sum, wd_sum, np.zeros(base.size)
    counts = np.bincount(group)
    counts[0] += count0 - 1
    return base, counts, w_sum, wd_sum, np.bincount(group, weights=delta)


def _group_energies(base, counts, w_sum, wd_sum, d_sum) -> np.ndarray:
    """Each group's level: base plus its weight-averaged offset, or its
    plain average offset when it has no weight."""
    mean_delta = wd_sum / np.where(w_sum > 0.0, w_sum, 1.0)
    if not w_sum.all():
        mean_delta = np.where(w_sum > 0.0, mean_delta, d_sum / counts)
    return base + mean_delta


def _sorted(e: np.ndarray) -> np.ndarray:
    """np.sort(e) by value, sorting only half of a mirrored e.

    Flipping every spin negates a walk energy, and rounding to nearest
    is odd, so enumerated energies hold e[m] == -e[n - 1 - m] exactly.
    When every such pair does, the sorted values are the sorted
    magnitudes of the first half, below them their negated reverse; zeros
    there come out as -0.0.  Pairs are compared one _CHUNK_ROWS window at
    a time, against the mirror image negated into the lower half of the
    output, which is filled last, and each window's magnitudes are written
    as it passes; an odd n or any unequal pair takes np.sort.
    """
    n = e.size
    half = n // 2
    if n % 2:
        return np.sort(e)
    out = np.empty(n)
    for lo in range(0, half, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, half)
        if not np.array_equal(e[lo:hi], np.negative(e[n - hi : n - lo][::-1], out=out[lo:hi])):
            del out
            return np.sort(e)
        np.abs(e[lo:hi], out=out[half + lo : half + hi])
    upper = out[half:]
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
    edges, unless the bin width is subnormal; the rest are numpy's own,
    taken one block at a time (``_block_histogram``).
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
        masses = _block_histogram(e, spectrum.weights, bins, (lo, hi))
    return _adopt(LdosHistogram, edges=edges, masses=masses)


#: Entries per block of ``np.histogram``'s uniform-bin loop (its internal
#: ``BLOCK``).  Each block's per-bin sums are added to the totals in
#: block order, so the same blocks give the same bits.
_HIST_BLOCK = 1 << 16


def _block_histogram(e: np.ndarray, w: np.ndarray, bins: int, span: tuple[float, float]) -> np.ndarray:
    """np.histogram's masses of e weighted by w over ``span``, from one
    call per _HIST_BLOCK block, added in block order as numpy's own loop
    adds them.  numpy ravels its weights whole first, which copies the
    0-stride weights of equal amplitudes into an array as long as e; a
    block's call copies only the block."""
    masses = np.histogram(e[:_HIST_BLOCK], bins, range=span, weights=w[:_HIST_BLOCK])[0]
    for lo in range(_HIST_BLOCK, e.size, _HIST_BLOCK):
        block = slice(lo, lo + _HIST_BLOCK)
        masses += np.histogram(e[block], bins, range=span, weights=w[block])[0]
    return masses


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
    """Weighted phase sum over the spectrum: sum_W p_W exp(i E_W t).

    The bits are those of ``np.sum`` over every term at once, but the
    terms are formed one leaf of at most _CHUNK_ROWS at a time: a longer
    range splits where numpy's complex pairwise sum splits it, at half its
    count of doubles rounded down to a multiple of 8, and each leaf is one
    ``np.sum``.
    """
    t = _checked_float(t, "time")
    e, w = spectrum.energies, spectrum.weights

    def total(lo: int, hi: int) -> complex:
        size = hi - lo
        if size <= _CHUNK_ROWS:
            return np.sum(w[lo:hi] * np.exp(1j * e[lo:hi] * t))
        mid = lo + (size - size % 8) // 2
        return total(lo, mid) + total(mid, hi)

    return complex(total(0, e.size))
