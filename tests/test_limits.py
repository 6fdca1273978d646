"""Tests for step statistics, Gaussian limit forms, Lindeberg and time averages."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinbath as sb
from spinbath import limits
from spinbath.model import _BLOCK_BYTES
from helpers import exact_half_amplitudes, make_amplitudes, models, random_model


class TestSummarize:
    def test_single_balanced_spin(self):
        s = sb.summarize(sb.CouplingSet([1.0]), exact_half_amplitudes(1))
        assert s.step_means.tolist() == [0.0]
        assert s.step_variances.tolist() == [1.0]
        assert s.mean == 0.0 and s.variance == 1.0

    def test_deterministic_walk(self):
        c = sb.CouplingSet([2.0, -1.0, 0.5])
        s = sb.summarize(c, make_amplitudes([1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(s.step_means, c.couplings)
        assert s.variance == 0.0
        np.testing.assert_array_equal(s.step_variances, [0.0, 0.0, 0.0])

    def test_hand_arithmetic_two_spins(self):
        s = sb.summarize(sb.CouplingSet([1.0, 2.0]), make_amplitudes([0.25, 0.5]))
        np.testing.assert_allclose(s.step_means, [-0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(s.step_variances, [0.75, 4.0], atol=1e-12)
        assert s.mean == pytest.approx(-0.5, abs=1e-12)
        assert s.variance == pytest.approx(4.75, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(model=models())
    def test_step_variance_identity(self, model):
        c, a = model
        s = sb.summarize(c, a)
        # b_k^2 = g_k^2 - a_k^2 and is never negative.
        np.testing.assert_allclose(
            s.step_variances, np.square(c.couplings) - np.square(s.step_means), atol=1e-12
        )
        assert np.all(s.step_variances >= 0.0)
        assert s.mean == pytest.approx(float(s.step_means.sum()), abs=1e-12)
        assert s.variance == pytest.approx(float(s.step_variances.sum()), abs=1e-12)


class TestGaussianForms:
    def _summary(self, n=8, seed=4):
        rng = np.random.default_rng(seed)
        c = sb.CouplingSet(rng.normal(0.0, 1.0, size=n))
        return sb.summarize(c, sb.EnvironmentAmplitudes.equal_superposition(n))

    def test_peak_value(self):
        s = self._summary()
        peak = sb.gaussian_ldos(s, s.mean)
        assert peak == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * s.variance), abs=1e-15)

    def test_normalized_by_quadrature(self):
        s = self._summary()
        width = math.sqrt(s.variance)
        grid = np.linspace(s.mean - 10 * width, s.mean + 10 * width, 20001)
        mass = np.trapezoid(sb.gaussian_ldos(s, grid), grid)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_variance_rejected(self):
        s = sb.summarize(sb.CouplingSet([1.0]), make_amplitudes([1.0]))
        with pytest.raises(sb.DegenerateDistributionError):
            sb.gaussian_ldos(s, 0.0)
        with pytest.raises(sb.DegenerateDistributionError):
            sb.gaussian_validity_window(s)

    def test_decay_form(self):
        s = self._summary()
        assert sb.gaussian_decoherence(s, 0.0) == 1.0 + 0.0j
        t = 0.4
        expected = math.exp(-0.5 * s.variance * t * t)
        value = sb.gaussian_decoherence(s, t)
        assert abs(value) == pytest.approx(expected, abs=1e-12)
        # With a centered spectrum the factor is purely real.
        centered = sb.summarize(
            sb.CouplingSet([1.0, -1.0]), exact_half_amplitudes(2)
        )
        assert sb.gaussian_decoherence(centered, 1.3).imag == 0.0

    def test_magnitude_monotone_in_abs_time(self):
        s = self._summary()
        ts = np.linspace(0.0, 3.0, 50)
        mags = [abs(sb.gaussian_decoherence(s, t)) for t in ts]
        assert np.all(np.diff(mags) < 0.0)

    def test_fourier_transform_of_gaussian_ldos(self):
        # Quadrature of exp(iEt) against the Gaussian density reproduces
        # the closed-form decay at 10 probe times.
        s = self._summary()
        width = math.sqrt(s.variance)
        grid = np.linspace(s.mean - 12 * width, s.mean + 12 * width, 40001)
        density = sb.gaussian_ldos(s, grid)
        for t in np.linspace(0.0, 2.0 / width, 10):
            numeric = np.trapezoid(density * np.exp(1j * grid * t), grid)
            assert abs(numeric - sb.gaussian_decoherence(s, t)) < 1e-6

    def test_validity_window(self):
        s = self._summary()
        assert sb.gaussian_validity_window(s) == pytest.approx(
            2.0 / math.sqrt(s.variance), abs=1e-15
        )

    def test_exact_trace_tracks_gaussian_envelope_early(self):
        # While |r| > 0.5 the exact trace stays within 5% of the
        # Gaussian envelope built from the same couplings.
        couplings = sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), 24, seed=6)
        amps = sb.EnvironmentAmplitudes.equal_superposition(24)
        s = sb.summarize(couplings, amps)
        grid = sb.TimeGrid(0.0, 2.0 / math.sqrt(s.variance), 200)
        trace = sb.decoherence_trace(couplings, amps, grid)
        mags = np.abs(trace.values)
        window = mags > 0.5
        envelope = np.array([abs(sb.gaussian_decoherence(s, t)) for t in grid.samples])
        assert np.all(np.abs(mags[window] - envelope[window]) / envelope[window] < 0.05)


class TestLaplaceDeMoivre:
    def test_central_term_n100(self):
        value = sb.laplace_demoivre_weight(100, 50, 0.5)
        assert value == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 25.0), abs=1e-15)
        assert value == pytest.approx(0.0798, abs=5e-4)

    def test_normalization(self):
        for n in (100, 400):
            total = sum(sb.laplace_demoivre_weight(n, l, 0.5) for l in range(n + 1))
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_term_by_term_against_exact_binomial(self):
        n = 24
        worst = max(
            abs(sb.laplace_demoivre_weight(n, l, 0.5) - math.comb(n, l) / 2.0**n)
            for l in range(n + 1)
        )
        assert worst < 0.01

    def test_degenerate_weight_rejected(self):
        for w in (0.0, 1.0):
            with pytest.raises(sb.DegenerateDistributionError):
                sb.laplace_demoivre_weight(10, 5, w)

    def test_level_bounds(self):
        with pytest.raises(sb.ValidationError):
            sb.laplace_demoivre_weight(10, 11, 0.5)
        with pytest.raises(sb.ValidationError):
            sb.laplace_demoivre_weight(10, -1, 0.5)


class TestLindeberg:
    def test_equal_couplings_ratio(self):
        for n in (1, 4, 16, 64):
            s = sb.summarize(sb.CouplingSet([1.0] * n), exact_half_amplitudes(n))
            report = sb.lindeberg_check(s, threshold=0.2)
            assert report.max_step_ratio == pytest.approx(1.0 / math.sqrt(n), abs=1e-12)
            expected = "satisfied" if n > 1.0 / 0.2**2 else "violated"
            assert report.verdict == expected

    def test_single_spin_always_dominates(self):
        s = sb.summarize(sb.CouplingSet([1.0]), exact_half_amplitudes(1))
        assert sb.lindeberg_check(s, threshold=0.5).verdict == "violated"
        assert sb.lindeberg_check(s, threshold=1.0).verdict == "satisfied"

    def test_dominant_coupling_violates(self):
        g = [100.0] + [1.0] * 9
        s = sb.summarize(sb.CouplingSet(g), exact_half_amplitudes(10))
        report = sb.lindeberg_check(s, threshold=0.5)
        assert report.verdict == "violated"
        assert report.max_step_ratio > 0.99

    def test_tail_mass_steps(self):
        # Balanced equal couplings deviate by exactly g, so the tail mass
        # is all-or-nothing at the cutoff g / (g sqrt(N)) = 1/sqrt(N).
        s = sb.summarize(sb.CouplingSet([1.0] * 16), exact_half_amplitudes(16))
        assert sb.lindeberg_check(s, threshold=0.2).tail_mass == pytest.approx(1.0)
        assert sb.lindeberg_check(s, threshold=0.3).tail_mass == pytest.approx(0.0)

    def test_zero_variance_rejected(self):
        s = sb.summarize(sb.CouplingSet([1.0, 1.0]), make_amplitudes([1.0, 1.0]))
        with pytest.raises(sb.DegenerateDistributionError):
            sb.lindeberg_check(s)

    def test_bad_threshold(self):
        s = sb.summarize(sb.CouplingSet([1.0]), exact_half_amplitudes(1))
        with pytest.raises(sb.ValidationError):
            sb.lindeberg_check(s, threshold=0.0)


class TestLongTimeAverage:
    def test_balanced_pairs_give_power_of_two(self):
        assert sb.long_time_average_sq(exact_half_amplitudes(20)) == 2.0**-20

    def test_polarized_environment_never_decoheres(self):
        assert sb.long_time_average_sq(make_amplitudes([1.0, 1.0, 1.0])) == 1.0

    def test_hand_arithmetic(self):
        value = sb.long_time_average_sq(make_amplitudes([0.5, 0.9]))
        assert value == pytest.approx(0.41, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(model=models(), shift=st.floats(0.0, 2 * np.pi, allow_nan=False))
    def test_invariant_under_permutation_and_phases(self, model, shift):
        _, a = model
        base = sb.long_time_average_sq(a)
        permuted = sb.EnvironmentAmplitudes(a.alpha[::-1], a.beta[::-1])
        assert sb.long_time_average_sq(permuted) == pytest.approx(base, abs=1e-12)
        rephased = sb.EnvironmentAmplitudes(
            a.alpha * np.exp(1j * shift), a.beta * np.exp(-0.5j * shift)
        )
        assert sb.long_time_average_sq(rephased) == pytest.approx(base, abs=1e-12)

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for n in (1, 5, 30):
            _, a = random_model(rng, n)
            value = sb.long_time_average_sq(a)
            assert 0.0 < value <= 1.0


class TestEmpiricalTimeAverage:
    def test_cosine_squared_over_full_periods(self):
        # Left-endpoint sampling over whole periods averages cos^2 to 1/2.
        c = sb.CouplingSet([1.0])
        a = exact_half_amplitudes(1)
        check = sb.check_time_average(c, a, horizon=6.0 * np.pi, samples=4096)
        assert check.empirical == pytest.approx(0.5, abs=1e-9)

    def test_repeated_couplings_rejected(self):
        c = sb.CouplingSet([1.0, 1.0])
        with pytest.raises(sb.ValidationError):
            sb.check_time_average(c, exact_half_amplitudes(2))

    @pytest.mark.parametrize("couplings", [[0.0, 1.0], [0.5, -0.5]])
    def test_zero_and_opposite_couplings_rejected(self, couplings):
        # A zero coupling never dephases and a +-g pair shares its cos 2gt
        # factor: the closed form 2^-N prod(1 + bias^2) does not apply.
        c = sb.CouplingSet(couplings)
        a = exact_half_amplitudes(2)
        with pytest.raises(sb.ValidationError):
            sb.check_time_average(c, a, samples=64)

    @pytest.mark.parametrize("rule, n", [("equal", 24), ("random", 100)])
    def test_samples_match_pointwise_abs_bit_for_bit(self, rule, n):
        # N = 24 with equal amplitudes is check-average's default model; the
        # N = 100 case runs its times through at least three kernel blocks.
        # Both give |r|^2 far from underflow, where squaring np.hypot(re, im)
        # instead of scalar abs() changes bits.
        spec = sb.EnsembleSpec(
            sb.CouplingDistribution.uniform(0.5, 2.0), sb.AmplitudeRule.parse(rule), n, 1, 7
        )
        c, a = sb.realization_model(spec, 0)
        samples = 8192
        assert n == 24 or samples * 16 * n >= 3 * _BLOCK_BYTES
        horizon, sq = limits._sq_magnitude_samples(c, a, None, samples)
        times = horizon * np.arange(samples) / samples
        expected = np.array([abs(sb.decoherence_factor(c, a, t)) ** 2 for t in times])
        assert np.all(expected > 1e-300)
        assert np.array_equal(sq.view(np.int64), expected.view(np.int64))

    def test_estimator_matches_closed_form(self):
        c = sb.CouplingSet(np.sqrt([2.0, 3.0, 5.0, 7.0]))
        a = sb.EnvironmentAmplitudes.equal_superposition(4)
        check = sb.check_time_average(c, a, samples=4096)
        assert check.analytic == pytest.approx(sb.long_time_average_sq(a))
        assert check.n_sigma < 3.0

    @pytest.mark.parametrize("samples, blocks", [(1, 32), (512, 1)])
    def test_check_needs_two_samples_and_two_blocks(self, samples, blocks):
        # One batch has no spread: the standard error would be NaN.
        c = sb.CouplingSet([1.0, 2.3])
        a = exact_half_amplitudes(2)
        with pytest.raises(sb.ValidationError):
            sb.check_time_average(c, a, horizon=200.0, samples=samples, blocks=blocks)

    def test_check_reports_fields(self):
        c = sb.CouplingSet([1.0, 2.3])
        a = exact_half_amplitudes(2)
        check = sb.check_time_average(c, a, horizon=200.0, samples=512, blocks=8)
        assert check.horizon == 200.0 and check.samples == 512
        assert check.stderr > 0.0
        times = 200.0 * np.arange(512) / 512
        expected = np.mean([abs(sb.decoherence_factor(c, a, t)) ** 2 for t in times])
        assert check.empirical == pytest.approx(expected)
