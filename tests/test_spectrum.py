"""Tests for walk enumeration, merging, histograms and the characteristic function."""

import functools
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinbath as sb
from spinbath import spectrum as spectrum_module
from spinbath.model import _adopt
from helpers import (
    brute_force_characteristic,
    brute_force_spectrum,
    every_spectrum_rebuilt,  # a fixture, used through pytestmark
    exact_half_amplitudes,
    make_amplitudes,
    models,
    random_model,
    spectrum_moments,
    whole_array_merge,
)

# Every spectrum these tests produce is also rebuilt through the public
# constructor, which runs the weight checks that producers skip.
pytestmark = pytest.mark.usefixtures("every_spectrum_rebuilt")


def traced_peak(fn, *args):
    """Result of fn(*args) and the peak bytes it allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def merge_cases():
    """(energies, weights) pairs that exercise every branch of the merge."""
    cases = [
        # Exact ties with unequal weights.
        ([1.0, 0.5, 1.0, 0.5, 1.0], [0.1, 0.2, 0.3, 0.15, 0.25]),
        # Zero-weight groups: exact ties and a pair 5e-10 apart.
        ([3.0, 0.0, 3.0, 2.0, 2.0 + 5e-10], [0.0, 1.0, 0.0, 0.0, 0.0]),
        # Multi-member groups at the first and the last index.
        ([-1.0, 1.0, 0.0, -1.0 + 1e-10, 1.0], [0.1, 0.2, 0.3, 0.25, 0.15]),
        # All singletons, and a single group.
        ([-2.0, 0.5, 3.0], [0.25, 0.5, 0.25]),
        ([0.25, 0.25, 0.25 + 1e-12, 0.25], [0.125, 0.5, 0.25, 0.125]),
        # Signed zeros.
        ([-0.0, 1.0, -0.0, 2.0], [0.25, 0.25, 0.25, 0.25]),
        ([0.0, 1.0, 2.0, 2.0], [0.5, -0.0, 0.5, -0.0]),
        # Equal weights, which sort energies alone: exact ties, both
        # orders of 0.0 and -0.0, and groups with zero and 1e-10 gaps.
        ([2.0, -1.0, 2.0, 0.5, -1.0, 2.0, 0.5, 3.0], [0.125] * 8),
        ([0.0, -0.0, 1.0, 0.0, -0.0], [0.2] * 5),
        ([-0.0, 0.0, 1.0, -0.0, 0.0], [0.2] * 5),
        ([0.0, -0.0, 1e-10, -1e-10, -0.0, 0.0, 5.0, 5.0], [0.125] * 8),
        ([1.0, 1.0 + 1e-10, 1.0, 1.0 - 1e-10, 3.0, 3.0 + 2e-10, 3.0 + 1e-10, -2.0], [0.125] * 8),
    ]
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        e = 0.5 * rng.integers(-4, 5, n) + rng.choice([0.0, 2e-10, 0.3], n)
        w = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
        if not w.any():
            w[0] = 1.0
        cases.append((e, w / w.sum()))
    return cases


class TestEnumerateWalks:
    def test_single_spin(self):
        spec = sb.enumerate_walks(sb.CouplingSet([1.0]), make_amplitudes([0.25]))
        assert spec.energies.tolist() == [1.0, -1.0]
        np.testing.assert_allclose(spec.weights, [0.25, 0.75], atol=1e-15)
        assert spec.n_spins == 1 and not spec.merged

    def test_two_spins_hand_enumeration(self):
        spec = sb.enumerate_walks(sb.CouplingSet([1.0, 2.0]), exact_half_amplitudes(2))
        assert spec.energies.tolist() == [3.0, 1.0, -1.0, -3.0]
        assert spec.weights.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_bitmask_order_contract(self):
        # Bit k set means spin k took the -g branch.
        g = np.array([1.0, 10.0, 100.0])
        spec = sb.enumerate_walks(sb.CouplingSet(g), make_amplitudes([0.5, 0.5, 0.5]))
        for mask in range(8):
            signs = [-1.0 if mask >> k & 1 else 1.0 for k in range(3)]
            assert spec.energies[mask] == np.dot(signs, g)

    def test_matches_itertools_oracle(self):
        rng = np.random.default_rng(99)
        for n in (1, 2, 4, 6):
            c, a = random_model(rng, n)
            spec = sb.enumerate_walks(c, a)
            expected = brute_force_spectrum(c, a)
            assert len(spec) == 2**n
            got = sorted(zip(spec.energies, spec.weights))
            want = sorted(expected)
            for (e1, w1), (e2, w2) in zip(got, want):
                assert e1 == pytest.approx(e2, abs=1e-12)
                assert w1 == pytest.approx(w2, abs=1e-14)

    def test_capacity_error_names_cost(self):
        c = sb.CouplingSet(np.ones(25))
        a = sb.EnvironmentAmplitudes.equal_superposition(25)
        with pytest.raises(sb.CapacityError, match="2\\^25"):
            sb.enumerate_walks(c, a)
        h = sb.DiagonalBranchHamiltonian.from_couplings(c)
        with pytest.raises(sb.CapacityError, match="2\\^25"):
            sb.branch_spectrum(h, a)

    @pytest.mark.parametrize("rule", ["equal", "random"])
    @pytest.mark.parametrize(
        "up, down", [([1e308, 1.0], [-1e308, -1.0]), ([1e308, 1.0], [1e308, -1.0])]
    )
    def test_branch_spectrum_near_the_float_limit(self, up, down, rule):
        # Half-splittings and the shift come from halved energies, so no
        # up - down or up + down overflows where the spectrum does not.
        ensemble = sb.EnsembleSpec(
            sb.CouplingDistribution.fixed(1.0), sb.AmplitudeRule.parse(rule), 2, 1, 7
        )
        _, a = sb.realization_model(ensemble, 0)
        got = sb.branch_spectrum(sb.DiagonalBranchHamiltonian(up, down), a)
        # Walk m takes down_k where bit k of m is set, as enumerate_walks does.
        choices = [
            [(down[k], a.beta_sq[k]) if m >> k & 1 else (up[k], a.alpha_sq[k]) for k in range(2)]
            for m in range(4)
        ]
        assert got.energies.tolist() == [sum(e for e, _ in walk) for walk in choices]
        assert got.weights.tolist() == [math.prod(float(w) for _, w in walk) for walk in choices]

    def test_weights_sum_to_one(self):
        c, a = random_model(np.random.default_rng(3), 12)
        spec = sb.enumerate_walks(c, a)
        assert float(spec.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        g=st.lists(
            st.one_of(
                st.floats(-10.0, 10.0),
                st.sampled_from([0.0, -0.0]),
                st.floats(1e299, 1e300).flatmap(lambda x: st.sampled_from([x, -x])),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @example(g=sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), 16, 7).couplings)
    @example(g=[0.0] * 8)
    @example(g=[3.0, -1.5, 0.25, -7.0, 1e-300, -2.5])
    @example(g=[0.0, -0.0, 1.0, -0.0, 0.0, -1.0])
    @example(g=[1e300, -3e300, 7e299, 1.0, -5e299])
    def test_energies_mirror_about_zero(self, g):
        # Flipping every spin negates a walk's energy, and every step rounds
        # to nearest, which is odd, so e[m] == -e[2^N - 1 - m] exactly (by
        # value: a zero may come out with either sign).  Couplings near
        # 1e300 sum to far below the float limit.
        amps = sb.EnvironmentAmplitudes.equal_superposition(len(g))
        e = sb.enumerate_walks(sb.CouplingSet(g), amps).energies
        assert np.array_equal(e, -e[::-1])

    @pytest.mark.parametrize(
        "rule, shared", [("equal", True), ("fixed(0.5)", True), ("fixed(0.3)", False)]
    )
    def test_equal_branch_weights_share_one_value(self, rule, shared):
        # With |alpha_k|^2 == |beta_k|^2 every walk has the same weight,
        # held once behind a 0-stride view; its bits match the oracle's
        # product, taken in the same spin order.
        n = 10
        c = sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), n, 4)
        a = sb.sample_amplitudes(sb.AmplitudeRule.parse(rule), n, 4)
        w = sb.enumerate_walks(c, a).weights
        assert (w.strides == (0,)) is shared
        assert not w.flags.writeable
        want = np.array([weight for _, weight in brute_force_spectrum(c, a)])
        assert sorted(w.view(np.int64).tolist()) == sorted(want.view(np.int64).tolist())


class TestEnergySpectrum:
    @pytest.mark.parametrize(
        "energies, weights",
        [
            ([0.0, 1.0], [float("nan"), 1.0]),
            ([float("nan"), 1.0], [0.5, 0.5]),
            ([float("inf"), 1.0], [0.5, 0.5]),
            ([-1.0, float("-inf")], [0.5, 0.5]),
        ],
        ids=["nan-weight", "nan-energy", "inf-energy", "-inf-energy"],
    )
    def test_non_finite_values_rejected(self, energies, weights):
        with pytest.raises(sb.ValidationError, match="finite"):
            sb.EnergySpectrum(energies=energies, weights=weights, n_spins=1)

    @pytest.mark.parametrize(
        "energies",
        [[np.nan], [-np.inf, 0.0], [0.0, np.inf], [0.0, np.nan, 1.0], [0.0, np.inf, 1.0]],
        ids=["nan", "-inf-first", "inf-last", "nan-inside", "inf-inside"],
    )
    def test_merged_non_finite_energies_named_before_their_order(self, energies):
        # Increasing energies are checked for finiteness at their ends
        # only; out of order, every entry is, and finiteness is named first.
        w = np.full(len(energies), 1.0 / len(energies))
        with pytest.raises(sb.ValidationError, match="energies must be finite"):
            sb.EnergySpectrum(energies=energies, weights=w, n_spins=1, merged=True)

    @pytest.mark.parametrize("merged", [False, True])
    def test_increasing_energies_skip_the_finiteness_scan(self, merged, monkeypatch):
        tests = []
        real_holds = spectrum_module._holds
        monkeypatch.setattr(
            spectrum_module, "_holds", lambda test, a: tests.append(test) or real_holds(test, a)
        )
        sb.EnergySpectrum(energies=np.arange(4.0), weights=np.full(4, 0.25), n_spins=2, merged=merged)
        assert (np.isfinite in tests) is not merged

    @pytest.mark.parametrize("weight, match", [(np.nan, "finite"), (-0.25, "nonnegative")])
    @pytest.mark.parametrize("shared", [True, False], ids=["broadcast", "contiguous"])
    def test_bad_weight_rejected_before_sum(self, weight, match, shared):
        # The public constructor checks every weight, of a 0-stride view as
        # of an array; the bad value is last in the array.  Producers that
        # adopt their arrays build weights from checked ones and skip this.
        w = np.broadcast_to(np.array([weight]), (4,)) if shared else np.array([0.5] * 3 + [weight])
        with pytest.raises(sb.ValidationError, match=match):
            sb.EnergySpectrum(energies=np.arange(4.0), weights=w, n_spins=2, merged=False)

    def test_produced_spectra_are_rebuilt_publicly(self):
        # The module's fixture catches a producer whose weights break the
        # public checks, which adopting them alone does not run.
        w = np.array([0.5] * 3 + [np.nan])
        spec = _adopt(sb.EnergySpectrum, energies=np.arange(4.0), weights=w, n_spins=2)
        assert np.isnan(spec.weights[-1])
        with pytest.raises(sb.ValidationError, match="finite"):
            spectrum_module._adopt(sb.EnergySpectrum, energies=np.arange(4.0), weights=w, n_spins=2)

    @pytest.mark.parametrize(
        "n_spins", [-3, 0, True, 2.5, "2", None], ids=["negative", "zero", "bool", "float", "str", "none"]
    )
    def test_bad_n_spins_rejected(self, n_spins):
        with pytest.raises(sb.ValidationError, match="n_spins"):
            sb.EnergySpectrum(energies=[0.0, 1.0], weights=[0.5, 0.5], n_spins=n_spins)

    @pytest.mark.parametrize(
        "merged", [0, 1, None, "yes", np.bool_(True)], ids=["0", "1", "none", "str", "numpy-bool"]
    )
    def test_non_bool_merged_rejected(self, merged):
        with pytest.raises(sb.ValidationError, match="merged"):
            sb.EnergySpectrum(energies=[0.0, 1.0], weights=[0.5, 0.5], n_spins=1, merged=merged)

    def test_numpy_int_n_spins_stored_as_int(self):
        spec = sb.EnergySpectrum(energies=[0.0, 1.0], weights=[0.5, 0.5], n_spins=np.int64(2))
        assert type(spec.n_spins) is int and spec.n_spins == 2

    def test_whole_number_float_n_spins_stored_as_int(self):
        # n_spins follows the rule of every other count.
        spec = sb.EnergySpectrum(energies=[0.0, 1.0], weights=[0.5, 0.5], n_spins=2.0)
        assert type(spec.n_spins) is int and spec.n_spins == 2

    def test_public_constructor_copies_caller_arrays(self):
        e = np.array([0.0, 1.0])
        w = np.array([0.5, 0.5])
        spec = sb.EnergySpectrum(energies=e, weights=w, n_spins=1)
        e[0] = 5.0
        w[:] = [1.0, 0.0]
        assert spec.energies.tolist() == [0.0, 1.0]
        assert spec.weights.tolist() == [0.5, 0.5]
        assert e.flags.writeable and w.flags.writeable
        assert not (spec.energies.flags.writeable or spec.weights.flags.writeable)

    def test_handed_over_arrays_are_frozen(self):
        c, a = random_model(np.random.default_rng(8), 5)
        spec = sb.enumerate_walks(c, a)
        h = sb.DiagonalBranchHamiltonian(up=c.couplings, down=-0.5 * c.couplings)
        for s in (spec, sb.merge_degenerate(spec, 0.0), sb.branch_spectrum(h, a)):
            assert not (s.energies.flags.writeable or s.weights.flags.writeable)

    def test_enumeration_peak_memory(self):
        # N = 20: 8 MiB per walk column, 16 MiB for the spectrum itself.
        c, a = random_model(np.random.default_rng(11), 20)
        spec, peak = traced_peak(sb.enumerate_walks, c, a)
        assert len(spec) == 2**20
        assert peak < 24 * 2**20

    def test_merge_peak_memory_above_its_input(self):
        c, a = random_model(np.random.default_rng(11), 20)
        spec = sb.enumerate_walks(c, a)
        merged, peak = traced_peak(sb.merge_degenerate, spec, sb.default_merge_epsilon(c))
        assert len(merged) > 2**19
        assert peak < 48 * 2**20

    @pytest.mark.parametrize(
        "n, couplings, rule, walk_arrays",
        [
            pytest.param(18, "gaussian(0, 1)", "equal", 2.1, id="equal-2.1"),
            pytest.param(18, "gaussian(0, 1)", "random", 3.75, id="random-3.75"),
            pytest.param(18, "fixed(1.0)", "equal", 2.75, id="heavy-merge-equal-2.75"),
            pytest.param(18, "fixed(1.0)", "random", 3.75, id="heavy-merge-random-3.75"),
            pytest.param(20, "fixed(1.0)", "equal", 2.0, id="n20-heavy-merge-equal-2.0"),
            pytest.param(20, "fixed(1.0)", "random", 3.5, id="n20-heavy-merge-random-3.5"),
        ],
    )
    def test_merge_peak_in_walk_arrays(self, n, couplings, rule, walk_arrays):
        # One walk array is 2 MiB at N = 18, 8 MiB at N = 20.  With
        # Gaussian couplings nearly every level is a singleton: the sorted
        # energies (and sorted weights, if any) are compacted in place into
        # the two outputs; equal weights add a level weight array once the
        # group-start mask (1/8 array) is freed, random weights hold the
        # argsort permutation while gathering (3 arrays).  Gap scans hold
        # one 2^16-gap window, and the result checks its order one window
        # at a time.  Equal couplings merge every walk into N + 1 levels:
        # their group sums run over chunks of 2^16 members, about 2 MiB of
        # temporaries beside the sorted buffers and the mask, and the few
        # levels are copied out of the sorted buffers, which are freed.
        # Gathering every member at once held 3.25 arrays (5.25 with
        # weights) at both sizes.
        dist = sb.CouplingDistribution.parse(couplings)
        c = sb.sample_couplings(dist, n, 5)
        a = sb.sample_amplitudes(sb.AmplitudeRule.parse(rule), n, 5)
        spec = sb.enumerate_walks(c, a)
        merged, peak = traced_peak(sb.merge_degenerate, spec, sb.default_merge_epsilon(c))
        if dist.kind == "fixed":
            assert len(merged) == n + 1
        else:
            assert len(merged) > 2 ** (n - 1)
        assert peak < walk_arrays * 8 * 2**n

    @pytest.mark.parametrize(
        "rule, walk_arrays",
        [pytest.param("equal", 2.1, id="equal-2.1"), pytest.param("random", 4.25, id="random-4.25")],
    )
    def test_merge_of_fresh_walks_peak_in_walk_arrays(self, rule, walk_arrays):
        # N = 18 with Gaussian couplings, enumeration included.  No name
        # holds the walk spectrum, so the merge frees its energies once
        # they are sorted (equal weights: the walks and their sorted copy,
        # then the sorted copy and level weights, the group-start mask
        # freed between; 3.5 arrays while the walks were held) or gathered
        # (random weights: walk weights, permutation and both gathered
        # copies at most; 5.0 while held).
        n = 18
        c = sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), n, 5)
        a = sb.sample_amplitudes(sb.AmplitudeRule.parse(rule), n, 5)
        eps = sb.default_merge_epsilon(c)
        merged, peak = traced_peak(lambda: sb.merge_degenerate(sb.enumerate_walks(c, a), eps))
        assert len(merged) > 2 ** (n - 1)
        assert peak < walk_arrays * 8 * 2**n

    @pytest.mark.parametrize("rule", ["equal", "random"])
    def test_merge_leaves_a_kept_spectrum_whole(self, rule):
        c = sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), 12, 5)
        spec = sb.enumerate_walks(c, sb.sample_amplitudes(sb.AmplitudeRule.parse(rule), 12, 5))
        before = spec.energies.tobytes(), spec.weights.tobytes(), spec.weights.strides
        merged = sb.merge_degenerate(spec, 0.05)
        assert len(merged) < len(spec)
        assert (spec.energies.tobytes(), spec.weights.tobytes(), spec.weights.strides) == before
        assert not (spec.energies.flags.writeable or spec.weights.flags.writeable)


#: Lengths about the seams where _CHUNK_ROWS windows meet.
_C = spectrum_module._CHUNK_ROWS
_SEAM_SIZES = [_C - 1, _C, _C + 1, 2 * _C + 1]


class TestWindowedChecks:
    """The array checks run one _CHUNK_ROWS window at a time: each gives
    the whole-array answer at every seam, and holds no whole-array mask."""

    @pytest.mark.parametrize("size", _SEAM_SIZES)
    def test_gaps_above_fills_every_gap(self, size):
        e = np.cumsum(np.random.default_rng(size).uniform(0.0, 2.0, size))
        out = np.empty(size - 1, dtype=bool)
        spectrum_module._gaps_above(e, 1.0, out)
        assert np.array_equal(out, np.diff(e) > 1.0)

    @pytest.mark.parametrize(
        "size, index, fault",
        [
            (size, index, fault)
            for size in _SEAM_SIZES
            for index in (_C - 1, _C, _C + 1)
            if index < size
            for fault in ("tie", "decrease", "nan")
        ],
    )
    def test_increasing_fails_at_every_seam(self, size, index, fault):
        a = np.arange(size, dtype=float)
        a[index] = {"tie": a[index - 1], "decrease": a[index - 1] - 0.5, "nan": np.nan}[fault]
        assert not spectrum_module._increasing(a)

    @pytest.mark.parametrize("size", _SEAM_SIZES)
    def test_increasing_holds_without_a_fault(self, size):
        assert spectrum_module._increasing(np.arange(size, dtype=float))

    def test_increasing_compares_without_a_gap_that_overflows(self):
        # Neighbours more than the float maximum apart; their difference
        # would overflow, with a warning, though the order is plain.
        assert spectrum_module._increasing(np.array([-1e308, 1e308]))
        assert sb.EnergySpectrum([-1e308, 1e308], [0.5, 0.5], 1, merged=True).merged

    @pytest.mark.parametrize("size", _SEAM_SIZES)
    def test_holds_finds_a_nan_in_any_window(self, size):
        a = np.zeros(size)
        assert spectrum_module._holds(np.isfinite, a)
        for index in sorted({0, _C - 1, _C, size - 1} & set(range(size))):
            a[index] = np.nan
            assert not spectrum_module._holds(np.isfinite, a), index
            a[index] = 0.0

    # 2^22 entries: a whole-array mask would be 4 MiB.  The allowance is
    # above the constructors' own copies of their arrays.
    _N = 1 << 22

    @pytest.mark.parametrize("merged", [False, True], ids=["walks", "merged"])
    def test_public_spectrum_checks_hold_under_a_mib(self, merged):
        e, w = np.arange(self._N, dtype=float), np.full(self._N, 1.0 / self._N)
        _, peak = traced_peak(
            lambda: sb.EnergySpectrum(energies=e, weights=w, n_spins=22, merged=merged)
        )
        assert peak < e.nbytes + w.nbytes + (1 << 20)

    def test_public_histogram_checks_hold_under_a_mib(self):
        edges, masses = np.arange(self._N + 1, dtype=float), np.full(self._N, 1.0 / self._N)
        _, peak = traced_peak(lambda: sb.LdosHistogram(edges=edges, masses=masses))
        assert peak < edges.nbytes + masses.nbytes + (1 << 20)

    def test_uniform_edges_check_holds_under_a_mib(self):
        edges, peak = traced_peak(spectrum_module._uniform_edges, 0.0, 1.0, self._N, "energy")
        assert peak < edges.nbytes + (1 << 20)


class TestMergeDegenerate:
    def test_distinct_energies_unchanged(self):
        spec = sb.EnergySpectrum(
            energies=[-1.0, 0.5, 2.0], weights=[0.25, 0.5, 0.25], n_spins=2
        )
        merged = sb.merge_degenerate(spec, 0.0)
        assert merged.energies.tolist() == [-1.0, 0.5, 2.0]
        assert merged.weights.tolist() == [0.25, 0.5, 0.25]
        assert merged.merged

    def test_equal_coupling_binomial_collapse(self):
        spec = sb.enumerate_walks(sb.CouplingSet([1.0] * 4), exact_half_amplitudes(4))
        merged = sb.merge_degenerate(spec, 1e-9)
        assert merged.energies.tolist() == [-4.0, -2.0, 0.0, 2.0, 4.0]
        # Exact binary fractions: the rational identity holds with float ==.
        for level, weight in enumerate(merged.weights):
            assert float(weight) == Fraction(math.comb(4, level), 16)

    def test_equal_coupling_n6_newton_triangle(self):
        spec = sb.enumerate_walks(sb.CouplingSet([2.0] * 6), exact_half_amplitudes(6))
        merged = sb.merge_degenerate(spec, 1e-9)
        assert len(merged) == 7
        np.testing.assert_array_equal(merged.energies, 2.0 * np.arange(-6, 7, 2))
        for level, weight in enumerate(merged.weights):
            assert float(weight) == Fraction(math.comb(6, level), 64)

    def test_near_degenerate_pair(self):
        spec = sb.EnergySpectrum(energies=[1.0, 1.0 + 1e-10], weights=[0.5, 0.5], n_spins=1)
        merged = sb.merge_degenerate(spec, 1e-9)
        assert len(merged) == 1
        assert float(merged.weights[0]) == 1.0
        assert merged.energies[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-9, 10.0])
    def test_bit_identical_to_whole_array_merge(self, epsilon):
        for energies, weights in merge_cases():
            spec = sb.EnergySpectrum(energies=energies, weights=weights, n_spins=1)
            merged = sb.merge_degenerate(spec, epsilon)
            want_e, want_w = whole_array_merge(spec.energies, spec.weights, epsilon)
            assert merged.energies.view(np.int64).tolist() == want_e.view(np.int64).tolist()
            assert merged.weights.view(np.int64).tolist() == want_w.view(np.int64).tolist()

    @pytest.mark.parametrize(
        "n, couplings, amplitudes, epsilon",
        [
            (16, "fixed(1.0)", "equal", 1e-9),
            (14, "gaussian(0, 1)", "equal", 1e-3),
            (14, "fixed(1.0)", "fixed(0.3)", 1e-9),
        ],
        ids=["equal-weights-binomial", "equal-weights-wide-epsilon", "unequal-weights-ties"],
    )
    def test_enumerated_spectrum_bit_identical_to_whole_array_merge(
        self, n, couplings, amplitudes, epsilon
    ):
        spec = sb.enumerate_walks(
            sb.sample_couplings(sb.CouplingDistribution.parse(couplings), n, 5),
            sb.sample_amplitudes(sb.AmplitudeRule.parse(amplitudes), n, 5),
        )
        merged = sb.merge_degenerate(spec, epsilon)
        assert len(merged) < len(spec) // 2
        want_e, want_w = whole_array_merge(spec.energies, spec.weights, epsilon)
        assert merged.energies.view(np.int64).tolist() == want_e.view(np.int64).tolist()
        assert merged.weights.view(np.int64).tolist() == want_w.view(np.int64).tolist()

    @pytest.mark.parametrize("epsilon", [0.0, 1e-9, 0.3, 1.5])
    @pytest.mark.parametrize("couplings", ["gaussian", "fixed", "integer"])
    def test_dense_equal_weights_merge_as_their_broadcast_twin(self, couplings, epsilon):
        # enumerate_walks gives equal amplitudes one broadcast weight, which
        # takes the sort-only path; the same weights stored densely take the
        # index sort, and must give the same bits.
        rng = np.random.default_rng(17)
        for n in range(1, 15):
            g = {
                "gaussian": rng.standard_normal(n),
                "fixed": np.full(n, 0.7),
                "integer": rng.integers(-3, 4, n).astype(float),
            }[couplings]
            amps = sb.EnvironmentAmplitudes.equal_superposition(n)
            twin = sb.enumerate_walks(sb.CouplingSet(g), amps)
            dense = sb.EnergySpectrum(twin.energies, twin.weights, n)
            assert twin.weights.strides == (0,) and dense.weights.strides == (8,)
            want = sb.merge_degenerate(twin, epsilon)
            got = sb.merge_degenerate(dense, epsilon)
            assert got.energies.tobytes() == want.energies.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()

    @pytest.mark.parametrize("uniform", [True, False], ids=["equal-weights", "unequal-weights"])
    def test_gaps_across_chunk_boundaries(self, uniform):
        # Gaps of 0.25 merge at epsilon 0.5, the one at index
        # 2^16 - 1 | 2^16 among them; a gap of 1 at 2^17 - 1 | 2^17 splits
        # the walks into two levels.  Both sit where gap windows meet.
        size = 3 << 16
        e = 0.25 * np.arange(size)
        e[1 << 17 :] += 0.75
        rng = np.random.default_rng(12)
        w = np.full(size, 1.0 / size) if uniform else rng.random(size)
        spec = sb.EnergySpectrum(energies=rng.permutation(e), weights=w / w.sum(), n_spins=18)
        merged = sb.merge_degenerate(spec, 0.5)
        want_e, want_w = whole_array_merge(spec.energies, spec.weights, 0.5)
        assert len(merged) == 2
        assert merged.energies.view(np.int64).tolist() == want_e.view(np.int64).tolist()
        assert merged.weights.view(np.int64).tolist() == want_w.view(np.int64).tolist()

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3])
    @pytest.mark.parametrize(
        "case, mirrored",
        [
            ("enumerated-zero-level", True),
            ("unmirrored-pair-at-2^16-1", False),
            ("unmirrored-pair-at-2^16", False),
            ("odd-size", False),
            ("all-zero", True),
        ],
    )
    def test_mirrored_sort_bit_identical_to_whole_array_merge(
        self, case, mirrored, epsilon, monkeypatch
    ):
        # Broadcast weights sort the energies alone: a mirrored spectrum
        # from the magnitudes of its first half, anything else by np.sort.
        # The pairs are compared one 2^16-entry window at a time; an
        # unmirrored pair sits at the end of the first window or at the
        # start of the second.
        n = 18
        amps = sb.EnvironmentAmplitudes.equal_superposition(n)
        if case == "enumerated-zero-level":
            spec = sb.enumerate_walks(sb.CouplingSet(np.ones(n)), amps)
        else:
            g = sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), n, 5)
            e = np.array(sb.enumerate_walks(g, amps).energies)
            if case.startswith("unmirrored-pair"):
                m = (1 << 16) - case.endswith("-1")
                e[m] = np.nextafter(e[m], np.inf)
            elif case == "odd-size":
                e = np.insert(e, e.size // 2, 0.0)
            elif case == "all-zero":
                e = np.zeros(e.size)
                e[::3] = -0.0
            w = np.broadcast_to(np.array([1.0 / e.size]), e.shape)
            spec = _adopt(sb.EnergySpectrum, energies=e, weights=w, n_spins=n)
        sorts = []
        real_sort = np.sort
        monkeypatch.setattr(np, "sort", lambda a: sorts.append(a.size) or real_sort(a))
        merged = sb.merge_degenerate(spec, epsilon)
        monkeypatch.undo()
        assert not sorts if mirrored else sorts == [len(spec)]
        want_e, want_w = whole_array_merge(spec.energies, spec.weights, epsilon)
        assert merged.energies.view(np.int64).tolist() == want_e.view(np.int64).tolist()
        assert merged.weights.view(np.int64).tolist() == want_w.view(np.int64).tolist()

    @pytest.mark.parametrize("chunk", [1, 3, 7, 64])
    def test_member_chunks_bit_identical_to_whole_array_merge(self, chunk, monkeypatch):
        # With chunks this small, groups span chunks and carry their sums
        # into the next.  fixed(0.0) couplings make one group of every walk,
        # and fixed(0.0) amplitudes groups with no weight, whose energies
        # differ at epsilon 0.05 with Gaussian couplings.
        monkeypatch.setattr(spectrum_module, "_CHUNK_ROWS", chunk)
        for n, couplings, amplitudes, epsilon in itertools.product(
            (1, 6, 11),
            ("fixed(1.0)", "fixed(0.0)", "gaussian(0, 1)"),
            ("equal", "random", "fixed(0.0)"),
            (0.0, 0.05, 2.5),
        ):
            spec = sb.enumerate_walks(
                sb.sample_couplings(sb.CouplingDistribution.parse(couplings), n, 5),
                sb.sample_amplitudes(sb.AmplitudeRule.parse(amplitudes), n, 5),
            )
            merged = sb.merge_degenerate(spec, epsilon)
            want_e, want_w = whole_array_merge(spec.energies, spec.weights, epsilon)
            case = (n, couplings, amplitudes, epsilon)
            assert merged.energies.tobytes() == want_e.tobytes(), case
            assert merged.weights.tobytes() == want_w.tobytes(), case

    def test_merged_order_checked_across_chunk_boundary(self):
        # Only the pair 2^16 - 1 | 2^16, where gap windows meet, is out of order.
        size = 1 << 17
        e = np.arange(size, dtype=float)
        w = np.full(size, 1.0 / size)
        assert len(sb.EnergySpectrum(energies=e, weights=w, n_spins=17, merged=True)) == size
        e[1 << 16] = e[(1 << 16) - 1]
        with pytest.raises(sb.ValidationError, match="strictly increasing"):
            sb.EnergySpectrum(energies=e, weights=w, n_spins=17, merged=True)

    def test_negative_epsilon_rejected(self):
        spec = sb.EnergySpectrum(energies=[0.0], weights=[1.0], n_spins=1)
        for epsilon in (-1.0, float("nan")):
            with pytest.raises(sb.ValidationError):
                sb.merge_degenerate(spec, epsilon)

    @settings(max_examples=40, deadline=None)
    @given(model=models(max_n=6), eps=st.floats(0.0, 10.0, allow_nan=False))
    def test_weight_conserved_and_sorted(self, model, eps):
        c, a = model
        merged = sb.merge_degenerate(sb.enumerate_walks(c, a), eps)
        assert float(merged.weights.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(merged.energies) > 0.0)

    def test_default_epsilon_scale(self):
        c = sb.CouplingSet([0.5, -3.0])
        assert sb.default_merge_epsilon(c) == pytest.approx(3e-9)


class TestLdos:
    def test_single_entry(self):
        spec = sb.EnergySpectrum(energies=[0.0], weights=[1.0], n_spins=1)
        hist = sb.ldos(spec, bins=1)
        assert hist.masses.tolist() == [1.0]
        assert hist.edges[0] < 0.0 < hist.edges[1]

    def test_mass_preserving_default_bins(self):
        c, a = random_model(np.random.default_rng(17), 10)
        spec = sb.enumerate_walks(c, a)
        hist = sb.ldos(spec)
        assert hist.masses.size == math.ceil(math.sqrt(2**10))
        assert float(hist.masses.sum()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "edges, masses",
        [
            ([0.0, 1.0, 2.0], [float("nan"), 1.0]),
            ([0.0, float("nan"), 2.0], [0.5, 0.5]),
            ([float("-inf"), 0.0, 1.0], [0.5, 0.5]),
        ],
        ids=["nan-mass", "nan-edge", "inf-edge"],
    )
    def test_non_finite_histogram_rejected(self, edges, masses):
        with pytest.raises(sb.ValidationError, match="finite"):
            sb.LdosHistogram(edges=edges, masses=masses)

    def test_invalid_bins(self):
        spec = sb.EnergySpectrum(energies=[0.0], weights=[1.0], n_spins=1)
        with pytest.raises(sb.ValidationError):
            sb.ldos(spec, bins=0)

    @pytest.mark.parametrize("bins", [2.5, True, float("nan")])
    def test_non_integer_bins_rejected(self, bins):
        spec = sb.EnergySpectrum(energies=[0.0, 1.0], weights=[0.5, 0.5], n_spins=1)
        with pytest.raises(sb.ValidationError, match="integer"):
            sb.ldos(spec, bins=bins)

    def test_histogram_does_not_keep_its_spectrum_alive(self):
        c, a = random_model(np.random.default_rng(5), 10)
        spec = sb.enumerate_walks(c, a)
        alive = weakref.ref(spec)
        hist = sb.ldos(spec)
        del spec
        assert alive() is None
        assert hist.masses.size == 32

    def test_bins_above_cap_raise_capacity_error(self):
        spec = sb.EnergySpectrum(energies=[0.0], weights=[1.0], n_spins=1)
        bins = 2**sb.ENUMERATION_CAP + 1
        with pytest.raises(sb.CapacityError, match=f"about {41 * bins} bytes"):
            sb.ldos(spec, bins=bins)

    def test_peak_memory_per_bin_within_estimate(self):
        # The capacity message estimates 41 bytes per bin, merged or not:
        # np.histogram's peak, which searched bin starts stay below.
        bins = 1 << 16
        for merged in (False, True):
            spec = sb.EnergySpectrum(
                energies=[0.0, 1.0], weights=[0.5, 0.5], n_spins=1, merged=merged
            )
            _, peak = traced_peak(sb.ldos, spec, bins)
            assert peak < 41 * bins + (1 << 16), merged

    def test_merged_peak_memory_per_bin(self):
        # Many bins over few merged levels: the histogram adopts the edges
        # and masses ldos built, so the peak is ldos's own edges, bin
        # starts and masses (24 bytes per bin), not 41 with the copies.
        rng = np.random.default_rng(3)
        levels = 1024
        spec = sb.EnergySpectrum(
            energies=np.sort(rng.standard_normal(levels)),
            weights=np.full(levels, 1.0 / levels),
            n_spins=10,
            merged=True,
        )
        bins = 1 << 18
        hist, peak = traced_peak(sb.ldos, spec, bins)
        assert hist.masses.size == bins
        assert peak < 26 * bins

    def test_histograms_are_frozen_and_constructor_copies(self):
        edges = np.array([0.0, 1.0, 2.0])
        masses = np.array([0.25, 0.75])
        hist = sb.LdosHistogram(edges=edges, masses=masses)
        edges[0] = -1.0
        masses[:] = [1.0, 0.0]
        assert hist.edges.tolist() == [0.0, 1.0, 2.0]
        assert hist.masses.tolist() == [0.25, 0.75]
        spec = sb.EnergySpectrum(energies=[0.0, 1.0], weights=[0.5, 0.5], n_spins=1)
        for h in (hist, sb.ldos(spec), sb.ldos(sb.merge_degenerate(spec, 0.0), 3)):
            assert not (h.edges.flags.writeable or h.masses.flags.writeable)

    def test_edge_order_checked_across_chunk_boundary(self):
        # Only the pair 2^16 - 1 | 2^16, where gap windows meet, is out of order.
        bins = 1 << 17
        edges = np.arange(bins + 1, dtype=float)
        masses = np.full(bins, 1.0 / bins)
        assert sb.LdosHistogram(edges=edges, masses=masses).masses.size == bins
        edges[1 << 16] = edges[(1 << 16) - 1]
        with pytest.raises(sb.ValidationError, match="strictly increasing"):
            sb.LdosHistogram(edges=edges, masses=masses)

    @pytest.mark.parametrize("bins", [3, 1000, 70_000])
    @pytest.mark.parametrize("rule", ["equal", "random"])
    def test_walk_order_bit_identical_to_numpy_histogram(self, rule, bins):
        # 2^18 walks: ldos takes four np.histogram calls, one per block,
        # and equal amplitudes give 0-stride weights.
        c = sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), 18, 5)
        spec = sb.enumerate_walks(c, sb.sample_amplitudes(sb.AmplitudeRule.parse(rule), 18, 5))
        assert (spec.weights.strides == (0,)) == (rule == "equal")
        assert_ldos_is_numpy_histogram(spec, bins)

    def test_unmerged_peak_memory_is_one_block(self):
        # np.histogram ravels 0-stride weights whole: at N = 20 that copy
        # is 8 MiB and its peak 10.2 MiB above the spectrum.  Block by
        # block it holds one block's temporaries.
        c = sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), 20, 7)
        spec = sb.enumerate_walks(c, sb.EnvironmentAmplitudes.equal_superposition(20))
        hist, peak = traced_peak(sb.ldos, spec)
        assert hist.masses.size == 1024
        assert peak < 4 << 20

    @pytest.mark.parametrize("merged", [False, True])
    def test_bins_too_fine_for_energy_range_rejected(self, merged):
        # 10^5 bins over 2 subnormal steps cannot have distinct edges.
        spec = sb.EnergySpectrum(
            energies=[0.0, 1e-320], weights=[0.5, 0.5], n_spins=1, merged=merged
        )
        with pytest.raises(
            sb.ValidationError, match=r"100000 bins cannot split the energy range \[0.0, 1e-320\]"
        ):
            sb.ldos(spec, bins=100_000)

    def test_histogram_mean_matches_summary_mean(self):
        # Bin centers weighted by mass reproduce the spectrum mean to
        # within one bin width.
        rng = np.random.default_rng(6)
        c = sb.CouplingSet(rng.normal(0.0, 1.0, size=6))
        a = sb.EnvironmentAmplitudes.equal_superposition(6)
        hist = sb.ldos(sb.enumerate_walks(c, a))
        width = float(hist.edges[1] - hist.edges[0])
        centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
        hist_mean = float(np.sum(hist.masses * centers))
        assert abs(hist_mean - sb.summarize(c, a).mean) < width

    def test_equal_coupling_gaussian_envelope(self):
        # Binned binomial weights track the Gaussian envelope closely at N=24.
        n = 24
        spec = sb.enumerate_walks(
            sb.CouplingSet([1.0] * n), sb.EnvironmentAmplitudes.equal_superposition(n)
        )
        hist = sb.ldos(spec, bins=5)
        summary = sb.summarize(
            sb.CouplingSet([1.0] * n), sb.EnvironmentAmplitudes.equal_superposition(n)
        )
        scale = math.sqrt(2.0 * summary.variance)
        gauss_mass = [
            0.5 * (math.erf((hi - summary.mean) / scale) - math.erf((lo - summary.mean) / scale))
            for lo, hi in zip(hist.edges[:-1], hist.edges[1:])
        ]
        outside = 1.0 - sum(gauss_mass)
        tv = 0.5 * (np.abs(hist.masses - np.array(gauss_mass)).sum() + outside)
        assert tv < 0.02


@functools.lru_cache(maxsize=3)
def merged_n18(rule: str) -> sb.EnergySpectrum:
    """A merged spectrum of 2^18 levels: four np.histogram blocks."""
    n = 18
    c = sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), n, 5)
    a = sb.sample_amplitudes(sb.AmplitudeRule.parse(rule), n, 5)
    return sb.merge_degenerate(sb.enumerate_walks(c, a), sb.default_merge_epsilon(c))


def assert_ldos_is_numpy_histogram(spec, bins) -> None:
    """ldos gives np.histogram's edges and masses bit for bit, or, where
    numpy raises, raises ValidationError."""
    e = spec.energies
    count = math.ceil(math.sqrt(len(spec))) if bins is None else bins
    try:
        masses, edges = np.histogram(
            e, count, range=(float(e.min()), float(e.max())), weights=spec.weights
        )
    except ValueError:
        with pytest.raises(sb.ValidationError, match="cannot split the energy range"):
            sb.ldos(spec, bins)
        return
    hist = sb.ldos(spec, bins)
    assert hist.edges.tobytes() == edges.tobytes()
    assert hist.masses.tobytes() == masses.tobytes()


@st.composite
def edge_spectra(draw):
    """A merged spectrum whose levels lie on and next to numpy's edges for
    its bin count, which is 1 to about 3 times the level count, with the
    range normal (across a binade, offset by +-1e16, straddling zero) or
    subnormal."""
    kind = draw(st.sampled_from(["binade", "offset", "zero", "subnormal"]))
    if kind == "binade":
        scale = 2.0 ** draw(st.integers(-40, 40))
        lo, hi = scale * draw(st.floats(0.25, 0.99)), scale * draw(st.floats(1.01, 4.0))
    elif kind == "offset":
        lo = draw(st.sampled_from([1e16, -1e16 - 8000.0]))
        hi = lo + 2.0 * draw(st.integers(1, 4000))
    elif kind == "zero":
        lo, hi = -draw(st.floats(1e-300, 1e300)), draw(st.floats(1e-300, 1e300))
    else:
        ends = draw(st.lists(st.integers(-3000, 3000), min_size=2, max_size=2, unique=True))
        lo, hi = sorted(k * 5e-324 for k in ends)
    bins = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = np.linspace(lo, hi, bins + 1)
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    near = np.unique(np.clip(near, lo, hi))
    keep = rng.random(near.size) < draw(st.floats(1 / 9, 1.0))
    e = np.unique(np.concatenate([[lo, hi], near[keep]]))
    w = rng.random(e.size) + 1e-3
    return sb.EnergySpectrum(energies=e, weights=w / w.sum(), n_spins=1, merged=True), bins


class TestMergedLdos:
    """Merged spectra take their masses from bin starts, not np.histogram,
    unless numpy's bin width is subnormal."""

    @pytest.mark.parametrize(
        "bins", [1, 257, None, 2**18 + 5], ids=["1", "257", "default", "above-entries"]
    )
    @pytest.mark.parametrize("rule", ["random", "equal", "fixed(0.3)"])
    def test_bit_identical_to_numpy_histogram(self, rule, bins):
        spec = merged_n18(rule)
        assert spec.merged and len(spec) > 3 * 2**16
        assert_ldos_is_numpy_histogram(spec, bins)

    @settings(max_examples=300, deadline=None)
    @given(case=edge_spectra())
    def test_levels_at_edges_bit_identical_to_numpy_histogram(self, case):
        assert_ldos_is_numpy_histogram(*case)

    def test_subnormal_width_takes_np_histogram(self):
        # Rounding i * step to multiples of the smallest subnormal moves
        # these edges by many bins, so numpy's bin is not always the one
        # between the edges: bin starts from the edges give other masses.
        edges = np.linspace(-7.777e-321, 8.8e-322, 767)
        assert (edges[-1] - edges[0]) / 766 < np.finfo(np.float64).smallest_normal
        near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        e = np.unique(np.clip(near, edges[0], edges[-1]))
        spec = sb.EnergySpectrum(
            energies=e, weights=np.full(e.size, 1.0 / e.size), n_spins=10, merged=True
        )
        assert_ldos_is_numpy_histogram(spec, 766)
        masses, _ = np.histogram(e, 766, range=(e[0], e[-1]), weights=spec.weights)
        from_edges = spectrum_module._sorted_masses(e, spec.weights, edges)
        assert from_edges.tobytes() != masses.tobytes()

    def test_subnormal_width_over_blocks_takes_np_histogram_blockwise(self):
        # 2^17 levels one smallest subnormal apart: two blocks of the fallback.
        n = 1 << 17
        w = np.random.default_rng(4).random(n)
        spec = sb.EnergySpectrum(
            energies=np.arange(n) * 5e-324, weights=w / w.sum(), n_spins=17, merged=True
        )
        for bins in (3, 1000):
            assert_ldos_is_numpy_histogram(spec, bins)

    def test_peak_memory_below_numpy(self):
        # One block's bin ids and the per-bin arrays, against the
        # temporaries np.histogram takes for each block's entries.
        spec = merged_n18("random")
        e = spec.energies
        _, numpy_peak = traced_peak(
            np.histogram, e, 512, (float(e[0]), float(e[-1])), False, spec.weights
        )
        _, peak = traced_peak(sb.ldos, spec, 512)
        assert peak < numpy_peak

    def test_few_bins_skip_np_histogram(self, monkeypatch):
        def no_histogram(*_args, **_kwargs):
            raise AssertionError("np.histogram was called")

        monkeypatch.setattr(np, "histogram", no_histogram)
        for bins in (None, 2000, 2**18 + 5):
            sb.ldos(merged_n18("random"), bins)

    @pytest.mark.parametrize("bins", [1, 2, 3, 1000])
    def test_one_level(self, bins):
        spec = sb.EnergySpectrum(energies=[2.5], weights=[1.0], n_spins=1, merged=True)
        assert_ldos_is_numpy_histogram(spec, bins)

    @pytest.mark.parametrize("bins", [1, 7, 333, 998, 999, 1000, 1500, 5000])
    def test_offset_by_1e16(self, bins):
        # Consecutive doubles near 1e16 are 2 apart, so numpy's first
        # estimate and the edges round coarsely, and fine bins have no
        # distinct edges, which numpy rejects.
        rng = np.random.default_rng(3)
        w = rng.random(1000)
        spec = sb.EnergySpectrum(
            energies=1e16 + 2.0 * np.arange(1000), weights=w / w.sum(), n_spins=10, merged=True
        )
        assert_ldos_is_numpy_histogram(spec, bins)

    def test_bin_across_block_boundary(self):
        # With 3 bins over 2^17 evenly spaced levels, bin 1 holds levels
        # 43691..87380, across numpy's block boundary at 2^16.  numpy
        # sums each block's part of the bin, then adds the two; the same
        # weights summed in one pass give other bits, so this fails if
        # numpy's BLOCK moves away from the block size ldos assumes.
        n = 1 << 17
        rng = np.random.default_rng(12)
        w = rng.random(n)
        spec = sb.EnergySpectrum(
            energies=np.arange(n, dtype=float), weights=w / w.sum(), n_spins=17, merged=True
        )
        e, w = spec.energies, spec.weights
        masses, edges = np.histogram(e, 3, range=(0.0, float(n - 1)), weights=w)
        lo, hi = np.searchsorted(e, edges[1:3])
        assert lo < 1 << 16 < hi
        one_pass = np.cumsum(w[lo:hi])[-1]
        blocks = np.cumsum(w[lo : 1 << 16])[-1] + np.cumsum(w[1 << 16 : hi])[-1]
        assert one_pass != blocks
        assert masses[1] == blocks
        assert_ldos_is_numpy_histogram(spec, 3)


class TestCharacteristicFunction:
    def test_leaves_give_the_bits_of_one_np_sum(self):
        # The sum is split into leaves where numpy's complex pairwise sum
        # splits it.  A numpy change to that rule, or to its PW_BLOCKSIZE
        # leaf size, fails here: splitting at half the entries rounded down
        # to a multiple of 8 gave other bits at 225 of 300 lengths.
        rng = np.random.default_rng(38)
        for size in rng.integers((1 << 16) + 1, 6 << 16, size=12, endpoint=True).tolist():
            w = rng.random(size)
            spec = sb.EnergySpectrum(
                energies=rng.standard_normal(size) * 40.0, weights=w / w.sum(), n_spins=20
            )
            t = float(rng.uniform(-3.0, 3.0))
            whole = np.sum(spec.weights * np.exp(1j * spec.energies * t))
            assert np.complex128(sb.characteristic_function(spec, t)).tobytes() == whole.tobytes(), size

    def test_peak_memory_is_a_few_leaves(self):
        # Whole-array terms held 4 complex temporaries as long as the
        # spectrum: 64 MiB at N = 20, 512 MiB at N = 24.
        c = sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), 20, 7)
        amps = sb.EnvironmentAmplitudes.equal_superposition(20)
        spec = sb.enumerate_walks(c, amps)
        chi, peak = traced_peak(sb.characteristic_function, spec, 0.3)
        assert abs(chi - sb.decoherence_factor(c, amps, 0.3)) < 1e-10
        assert peak < 3 << 20

    def test_weights_sum_at_zero_time(self):
        c, a = random_model(np.random.default_rng(2), 8)
        spec = sb.enumerate_walks(c, a)
        assert sb.characteristic_function(spec, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_single_spin_cosine(self):
        spec = sb.EnergySpectrum(energies=[2.0, -2.0], weights=[0.5, 0.5], n_spins=1)
        for t in np.linspace(-3, 3, 11):
            assert sb.characteristic_function(spec, t) == pytest.approx(
                np.cos(2.0 * t), abs=1e-12
            )

    def test_matches_product_formula(self):
        rng = np.random.default_rng(123)
        for n in (1, 5, 11, 16, 20):
            c, a = random_model(rng, n)
            spec = sb.enumerate_walks(c, a)
            for t in rng.uniform(-20, 20, size=8):
                chi = sb.characteristic_function(spec, t)
                r = sb.decoherence_factor(c, a, t)
                assert abs(chi - r) < 1e-10

    def test_matches_itertools_oracle(self):
        rng = np.random.default_rng(5)
        c, a = random_model(rng, 5)
        spec = sb.enumerate_walks(c, a)
        for t in (0.3, -1.8, 7.7):
            assert sb.characteristic_function(spec, t) == pytest.approx(
                brute_force_characteristic(c, a, t), abs=1e-12
            )


class TestMoments:
    @settings(max_examples=40, deadline=None)
    @given(model=models(max_n=8))
    def test_first_two_moments_match_step_sums(self, model):
        c, a = model
        mean, var = spectrum_moments(sb.enumerate_walks(c, a))
        summary = sb.summarize(c, a)
        assert mean == pytest.approx(summary.mean, abs=1e-10)
        assert var == pytest.approx(summary.variance, abs=1e-8)
