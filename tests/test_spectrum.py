"""Tests for walk enumeration, merging, histograms and the characteristic function."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinbath as sb
from helpers import (
    brute_force_characteristic,
    brute_force_spectrum,
    exact_half_amplitudes,
    make_amplitudes,
    models,
    random_model,
    whole_array_merge,
)


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
        # The cap is adjustable.
        assert len(sb.enumerate_walks(c, a, cap=25)) == 2**25

    def test_weights_sum_to_one(self):
        c, a = random_model(np.random.default_rng(3), 12)
        spec = sb.enumerate_walks(c, a)
        assert float(spec.weights.sum()) == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("weight, match", [(np.nan, "finite"), (-0.25, "nonnegative")])
    @pytest.mark.parametrize("shared", [True, False], ids=["broadcast", "contiguous"])
    def test_bad_weight_rejected_before_sum(self, weight, match, shared):
        # A 0-stride view is checked through its one stored value, an
        # array through all of them; the bad value is last in the array.
        w = np.broadcast_to(np.array([weight]), (4,)) if shared else np.array([0.5] * 3 + [weight])
        with pytest.raises(sb.ValidationError, match=match):
            sb.EnergySpectrum._adopt(np.arange(4.0), w, 2, merged=False)

    @pytest.mark.parametrize(
        "n_spins", [-3, 0, True, 2.0, "2", None], ids=["negative", "zero", "bool", "float", "str", "none"]
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

    @pytest.mark.parametrize("rule, walk_arrays", [("equal", 3.0), ("random", 3.75)])
    def test_merge_peak_in_walk_arrays(self, rule, walk_arrays):
        # N = 18, one walk array is 2 MiB, and nearly every level is a
        # singleton.  The two outputs take 2 arrays.  Equal weights add
        # the sorted energies, freed before the level weights are
        # gathered; random weights add the sorted weights too.  Gap scans
        # hold one 2^16-gap window (1/4 array), masks 1/8 array each.
        n = 18
        c = sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), n, 5)
        a = sb.sample_amplitudes(sb.AmplitudeRule.parse(rule), n, 5)
        spec = sb.enumerate_walks(c, a)
        merged, peak = traced_peak(sb.merge_degenerate, spec, sb.default_merge_epsilon(c))
        assert len(merged) > 2 ** (n - 1)
        assert peak < walk_arrays * 8 * 2**n


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
        spec = sb.EnergySpectrum(energies=[0.0], weights=[1.0], n_spins=1)
        with pytest.raises(sb.ValidationError, match="finite"):
            sb.LdosHistogram(edges=edges, masses=masses, spectrum=spec)

    def test_invalid_bins(self):
        spec = sb.EnergySpectrum(energies=[0.0], weights=[1.0], n_spins=1)
        with pytest.raises(sb.ValidationError):
            sb.ldos(spec, bins=0)

    def test_bins_above_cap_raise_capacity_error(self):
        spec = sb.EnergySpectrum(energies=[0.0], weights=[1.0], n_spins=1)
        bins = 2**sb.ENUMERATION_CAP + 1
        with pytest.raises(sb.CapacityError, match=f"about {41 * bins} bytes"):
            sb.ldos(spec, bins=bins)

    def test_peak_memory_per_bin_within_estimate(self):
        # The capacity message estimates 41 bytes per bin.
        spec = sb.EnergySpectrum(energies=[0.0, 1.0], weights=[0.5, 0.5], n_spins=1)
        bins = 1 << 16
        _, peak = traced_peak(sb.ldos, spec, bins)
        assert peak < 41 * bins + (1 << 16)

    def test_histogram_mean_matches_summary_mean(self):
        # Bin centers weighted by mass reproduce the spectrum mean to
        # within one bin width.
        rng = np.random.default_rng(6)
        c = sb.CouplingSet(rng.normal(0.0, 1.0, size=6))
        a = sb.EnvironmentAmplitudes.equal_superposition(6)
        hist = sb.ldos(sb.enumerate_walks(c, a))
        width = float(hist.edges[1] - hist.edges[0])
        hist_mean = float(hist.masses @ hist.centers)
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


class TestCharacteristicFunction:
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
    @pytest.mark.parametrize("n", [5, 12, 18])
    def test_shared_weight_moments_bit_identical(self, n):
        # The public constructor copies weights into a contiguous array.
        c = sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), n, 3)
        spec = sb.enumerate_walks(c, sb.EnvironmentAmplitudes.equal_superposition(n))
        dense = sb.EnergySpectrum(energies=spec.energies, weights=spec.weights, n_spins=n)
        assert spec.weights.strides == (0,) and dense.weights.strides == (8,)
        got = np.array(spec.moments()).view(np.int64).tolist()
        assert got == np.array(dense.moments()).view(np.int64).tolist()

    @settings(max_examples=40, deadline=None)
    @given(model=models(max_n=8))
    def test_first_two_moments_match_step_sums(self, model):
        c, a = model
        mean, var = sb.enumerate_walks(c, a).moments()
        summary = sb.summarize(c, a)
        assert mean == pytest.approx(summary.mean, abs=1e-10)
        assert var == pytest.approx(summary.variance, abs=1e-8)
