"""Tests for step statistics, Gaussian limit forms, Lindeberg and time averages."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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

    def test_zero_weight_spin_adds_zero_where_g_squared_overflows(self):
        # 4 |alpha|^2 |beta|^2 g^2 was 0 * inf = NaN for g = 1e200 with
        # |beta|^2 = 0.  Such a spin is a point mass and adds exactly 0.0;
        # an overflow or invalid-value warning would fail this test.
        s = sb.summarize(sb.CouplingSet([1e200, 3.0]), sb.EnvironmentAmplitudes.from_up_weights([1.0, 0.5]))
        assert s.step_variances[0] == 0.0 and s.variance == pytest.approx(9.0, abs=1e-12)
        assert math.isfinite(sb.gaussian_validity_window(s))
        report = sb.lindeberg_check(s)
        assert math.isfinite(report.max_step_ratio) and math.isfinite(report.tail_mass)
        assert math.isfinite(abs(sb.gaussian_decoherence(s, 0.1)))

    def test_totals_are_the_sums_of_the_steps(self):
        # The constructor takes the steps only and derives mean and
        # variance from them, so the two cannot disagree.
        s = sb.summarize(*random_model(np.random.default_rng(5), 40))
        assert s.mean == float(s.step_means.sum())
        assert s.variance == float(s.step_variances.sum())
        again = sb.StatisticsSummary(s.step_means, s.step_variances)
        assert (again.mean, again.variance) == (s.mean, s.variance)
        with pytest.raises(TypeError):
            sb.StatisticsSummary(s.step_means, s.step_variances, 0.0, 1.0)

    def test_overflowing_square_gives_inf_without_a_warning(self):
        # Warnings are errors in this suite, and no errstate is set here.
        amps = sb.EnvironmentAmplitudes.equal_superposition(2)
        s = sb.summarize(sb.CouplingSet([1e200, 1e200]), amps)
        assert s.step_variances.tolist() == [math.inf, math.inf] and s.variance == math.inf

    def test_infinite_step_variance_accepted(self):
        # summarize gives +inf where g^2 overflows; the constructor agrees.
        s = sb.StatisticsSummary([0.0, 1.0], [math.inf, 2.0])
        assert s.variance == math.inf and s.mean == 1.0

    def test_step_variances_keep_the_product_bits(self):
        # Spins with nonzero weights on both branches keep 4 up down g^2
        # bit for bit where g^2 is finite, and take (4 up down g) g where
        # it overflows, finite or not; zero-weight spins add +0.0.
        rng = np.random.default_rng(21)
        w = rng.random(64)
        w[::7] = 1.0
        w[3::7] = 0.0
        g = rng.standard_normal(64) * 10.0 ** rng.uniform(-200, 200, 64)
        w[[1, 2]] = 0.9
        g[[1, 2]] = [1.5e154, -2e154]  # g^2 overflows, 0.36 g^2 does not
        a = sb.EnvironmentAmplitudes.from_up_weights(w)
        zero = a.alpha_sq * a.beta_sq == 0.0
        w4 = 4.0 * a.alpha_sq * a.beta_sq
        with np.errstate(over="ignore", invalid="ignore"):
            plain = w4 * np.square(g)
            wide = np.isinf(np.square(g))
            want = plain.copy()
            want[wide] = w4[wide] * g[wide] * g[wide]
            got = sb.summarize(sb.CouplingSet(g), a).step_variances
        assert zero.sum() == 19 and np.isnan(plain[zero]).any() and np.isinf(want[~zero]).any()
        assert np.isinf(plain[[1, 2]]).all() and np.isfinite(want[[1, 2]]).all()
        want[zero] = 0.0
        assert got.tobytes() == want.tobytes()

    def test_variance_is_finite_where_only_g_squared_overflows(self):
        # 4 * 0.99 * 0.01 * (2e154)^2 = 1.584e307 is finite though (2e154)^2 is not.
        s = sb.summarize(sb.CouplingSet([2e154]), sb.EnvironmentAmplitudes.from_up_weights([0.99]))
        assert s.variance == pytest.approx(1.584e307, rel=1e-12)
        report = sb.lindeberg_check(s)
        assert math.isfinite(report.max_step_ratio) and math.isfinite(report.tail_mass)
        assert math.isfinite(sb.gaussian_validity_window(s)) and sb.gaussian_validity_window(s) > 0.0

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

    @staticmethod
    def _overflowing_summary(up_weight: float):
        # g^2 overflows, so with up weight 0.9 the variance is inf.
        amps = sb.EnvironmentAmplitudes.from_up_weights([up_weight, up_weight])
        with np.errstate(over="ignore"):
            return sb.summarize(sb.CouplingSet([1e300, 2e300]), amps)

    def test_infinite_variance_is_one_at_zero_and_zero_after(self):
        s = self._overflowing_summary(0.9)
        assert s.mean == 2.4e300 and s.variance == math.inf
        for t in (0.0, -0.0):
            value = sb.gaussian_decoherence(s, t)
            assert value == 1.0 and not math.copysign(1.0, value.imag) < 0.0
        for t in (1e10, 5e-324, -3.0):
            value = sb.gaussian_decoherence(s, t)
            assert value == 0j and math.copysign(1.0, value.real) > 0.0

    def test_overflowing_phase_under_a_nonzero_envelope_rejected(self):
        # Up weight 1 gives zero variance, so the envelope is 1 at every t,
        # while the mean energy 2e150 times t = 1e160 overflows.
        amps = sb.EnvironmentAmplitudes.from_up_weights([1.0, 1.0])
        s = sb.summarize(sb.CouplingSet([1e150, 1e150]), amps)
        assert s.variance == 0.0
        assert sb.gaussian_decoherence(s, 1e-150) == complex(math.cos(2.0), math.sin(2.0))
        with pytest.raises(sb.ValidationError, match="phase"):
            sb.gaussian_decoherence(s, 1e160)

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

    def test_non_integer_level_rejected(self):
        with pytest.raises(sb.ValidationError, match="integer"):
            sb.laplace_demoivre_weight(10, 4.5, 0.5)

    def test_level_bounds(self):
        with pytest.raises(sb.ValidationError):
            sb.laplace_demoivre_weight(10, 11, 0.5)
        with pytest.raises(sb.ValidationError):
            sb.laplace_demoivre_weight(10, -1, 0.5)


@st.composite
def scaled_models(draw):
    """Models whose step variances are well conditioned: |g_k| is 0 or in
    [1e-3, 5], and |alpha_k|^2 is 0, 1 or in [0.01, 0.99].  Nearer a point
    mass, the rounding of |alpha|^2 + |beta|^2 away from 1 moves the
    two-point second moments off 4 |alpha|^2 |beta|^2 g^2 by more than
    rounding."""
    n = draw(st.integers(1, 40))
    magnitude = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))
    g = [draw(st.sampled_from([-1.0, 1.0])) * draw(magnitude) for _ in range(n)]
    weight = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))
    up = draw(st.lists(weight, min_size=n, max_size=n))
    return sb.CouplingSet(g), make_amplitudes(up)


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

    @settings(max_examples=200, deadline=None)
    @given(model=scaled_models(), threshold=st.floats(0.05, 1.0))
    def test_tail_mass_matches_brute_force(self, model, threshold):
        # Each spin is +g_k with weight |alpha_k|^2 or -g_k with weight
        # |beta_k|^2; the tail sums the second moments of the outcomes that
        # deviate from the spin's mean by at least threshold * B_N.
        c, amps = model
        g, up, down = c.couplings, amps.alpha_sq, amps.beta_sq
        mean = up * g - down * g
        outcomes = [(up, g - mean), (down, -g - mean)]
        moments = [w * np.square(dev) for w, dev in outcomes]
        step_var = moments[0] + moments[1]
        total = float(step_var.sum())
        assume(total > 0.0)
        cut = threshold * math.sqrt(total)
        ratio = math.sqrt(float(step_var.max()) / total)
        # Rounding decides outcomes that sit on the cut, and steps at the threshold.
        assume(abs(ratio - threshold) > 1e-9 * threshold)
        assume(all(np.all(abs(np.abs(dev) - cut) > 1e-9 * cut) for _, dev in outcomes))
        tail = sum(float(m[np.abs(dev) >= cut].sum()) for m, (_, dev) in zip(moments, outcomes))
        report = sb.lindeberg_check(sb.summarize(c, amps), threshold)
        assert report.tail_mass == pytest.approx(tail / total, rel=1e-12, abs=0.0)
        assert report.verdict == ("satisfied" if ratio <= threshold else "violated")

    def test_zero_variance_rejected(self):
        s = sb.summarize(sb.CouplingSet([1.0, 1.0]), make_amplitudes([1.0, 1.0]))
        with pytest.raises(sb.DegenerateDistributionError):
            sb.lindeberg_check(s)

    def test_infinite_variance_rejected(self):
        # g^2 overflows for g = 1e200.  lindeberg_check warned and returned
        # a NaN ratio and tail with a "violated" verdict; warnings are
        # errors in this suite, so it must raise before any arithmetic.
        amps = sb.EnvironmentAmplitudes.equal_superposition(2)
        with np.errstate(over="ignore"):
            s = sb.summarize(sb.CouplingSet([1e200, 1e200]), amps)
        assert s.variance == math.inf
        with pytest.raises(sb.ValidationError, match=r"cumulative variance B_N\^2 overflows to inf"):
            sb.lindeberg_check(s)

    def test_bad_threshold(self):
        s = sb.summarize(sb.CouplingSet([1.0]), exact_half_amplitudes(1))
        for threshold in (0.0, -1.0, float("nan")):
            with pytest.raises(sb.ValidationError, match="threshold"):
                sb.lindeberg_check(s, threshold=threshold)


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

    def test_default_horizon_beyond_the_float_range_rejected(self):
        # 100 periods of a 5e-324 coupling overflow; the horizon the
        # caller never passed must not appear as "horizon must be finite".
        c = sb.CouplingSet([5e-324, 1.0])
        a = sb.EnvironmentAmplitudes.from_up_weights([0.9, 0.9])
        with pytest.raises(sb.ValidationError, match=r"slowest coupling 5e-324 .*pass a horizon"):
            sb.check_time_average(c, a)
        assert sb.check_time_average(c, a, horizon=100.0, samples=64).horizon == 100.0

    def test_estimator_matches_closed_form(self):
        c = sb.CouplingSet(np.sqrt([2.0, 3.0, 5.0, 7.0]))
        a = sb.EnvironmentAmplitudes.equal_superposition(4)
        check = sb.check_time_average(c, a, samples=4096)
        assert check.analytic == pytest.approx(sb.long_time_average_sq(a))
        assert check.n_sigma < 3.0

    def test_check_needs_two_samples(self):
        # One batch has no spread: the standard error would be NaN.
        c = sb.CouplingSet([1.0, 2.3])
        a = exact_half_amplitudes(2)
        with pytest.raises(sb.ValidationError, match="samples must be >= 2, got 1"):
            sb.check_time_average(c, a, horizon=200.0, samples=1)

    def test_check_rejects_equal_batch_means_off_the_closed_form(self):
        # Over a 1e-9 horizon |r|^2 stays near 1, against a closed form of
        # 1/4: the gap would be infinitely many standard errors of 0.
        c = sb.CouplingSet([1.0, 2.3])
        a = exact_half_amplitudes(2)
        with pytest.raises(sb.ValidationError, match="does not dephase"):
            sb.check_time_average(c, a, horizon=1e-9, samples=512)

    @pytest.mark.parametrize("samples", [100.5, True])
    def test_check_rejects_non_integer_counts(self, samples):
        # np.arange(100.5) would average 101 samples and report 100.
        c = sb.CouplingSet([1.0, 2.3])
        a = exact_half_amplitudes(2)
        with pytest.raises(sb.ValidationError, match="must be an integer"):
            sb.check_time_average(c, a, horizon=200.0, samples=samples)

    def test_check_reports_fields(self):
        c = sb.CouplingSet([1.0, 2.3])
        a = exact_half_amplitudes(2)
        check = sb.check_time_average(c, a, horizon=200.0, samples=512)
        assert check.horizon == 200.0 and check.samples == 512
        assert check.stderr > 0.0
        times = 200.0 * np.arange(512) / 512
        expected = np.mean([abs(sb.decoherence_factor(c, a, t)) ** 2 for t in times])
        assert check.empirical == pytest.approx(expected)
