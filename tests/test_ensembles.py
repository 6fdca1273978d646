"""Tests for distributions, amplitude rules, sampling and ensemble averaging."""

import math

import numpy as np
import pytest

import spinbath as sb
from helpers import closed_form_ensemble_mean


def r_squared(x: np.ndarray, y: np.ndarray) -> float:
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return 1.0 - float((resid**2).sum() / ((y - y.mean()) ** 2).sum())


def equal_ensemble(dist, n, m, seed):
    return sb.EnsembleSpec(
        distribution=dist, amplitudes=sb.AmplitudeRule.equal(), n=n, realizations=m, seed=seed
    )


class TestCouplingDistribution:
    def test_validation(self):
        with pytest.raises(sb.ValidationError):
            sb.CouplingDistribution.gaussian(0.0, 0.0)
        with pytest.raises(sb.ValidationError):
            sb.CouplingDistribution.lorentzian(0.0, -1.0)
        with pytest.raises(sb.ValidationError):
            sb.CouplingDistribution.uniform(2.0, 1.0)
        with pytest.raises(sb.ValidationError):
            sb.CouplingDistribution("exotic", (1.0,))

    def test_parse_round_trip(self):
        for text in ("fixed(1.5)", "uniform(-1.0, 1.0)", "gaussian(0.0, 2.0)", "lorentzian(0.0, 0.25)"):
            dist = sb.CouplingDistribution.parse(text)
            assert str(dist) == text
        with pytest.raises(sb.ValidationError):
            sb.CouplingDistribution.parse("gaussian(0)")
        with pytest.raises(sb.ValidationError):
            sb.CouplingDistribution.parse("gaussian(a, b)")


class TestAmplitudeRule:
    def test_parse(self):
        assert sb.AmplitudeRule.parse("equal").kind == "equal"
        assert sb.AmplitudeRule.parse("fixed(0.9)").up_weight == 0.9
        assert sb.AmplitudeRule.parse("random").kind == "random"
        with pytest.raises(sb.ValidationError):
            sb.AmplitudeRule.parse("fixed(1.5)")
        with pytest.raises(sb.ValidationError):
            sb.AmplitudeRule.parse("equal(0.3)")


class TestSampling:
    def test_fixed_couplings(self):
        c = sb.sample_couplings(sb.CouplingDistribution.fixed(1.0), 5, seed=0)
        assert c.couplings.tolist() == [1.0] * 5

    def test_bit_identical_repeats(self):
        dist = sb.CouplingDistribution.gaussian(0.0, 1.0)
        a = sb.sample_couplings(dist, 100, seed=5, stream=2)
        b = sb.sample_couplings(dist, 100, seed=5, stream=2)
        np.testing.assert_array_equal(a.couplings, b.couplings)

    def test_gaussian_moments(self):
        c = sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), 10**4, seed=1)
        assert abs(c.couplings.mean()) < 4.0 / math.sqrt(10**4)
        assert abs(c.couplings.var() - 1.0) < 0.1

    def test_uniform_range(self):
        c = sb.sample_couplings(sb.CouplingDistribution.uniform(-2.0, 3.0), 10**4, seed=2)
        assert c.couplings.min() >= -2.0 and c.couplings.max() < 3.0
        assert abs(c.couplings.mean() - 0.5) < 0.1

    def test_lorentzian_median(self):
        c = sb.sample_couplings(sb.CouplingDistribution.lorentzian(0.0, 0.5), 10**5, seed=3)
        assert abs(np.median(c.couplings)) < 4.0 * 0.5 / math.sqrt(10**5)

    def test_equal_amplitudes(self):
        amps = sb.sample_amplitudes(sb.AmplitudeRule.equal(), 4, seed=0)
        np.testing.assert_array_equal(amps.alpha, np.full(4, 1 / np.sqrt(2), dtype=complex))
        np.testing.assert_array_equal(amps.beta, np.full(4, 1 / np.sqrt(2), dtype=complex))

    def test_fixed_amplitudes_polarized(self):
        amps = sb.sample_amplitudes(sb.AmplitudeRule.fixed(1.0), 3, seed=0)
        np.testing.assert_array_equal(amps.alpha, np.ones(3, dtype=complex))
        np.testing.assert_array_equal(amps.beta, np.zeros(3, dtype=complex))

    @pytest.mark.parametrize("rule", ["equal", "fixed(0.3)"])
    def test_seedless_rules_share_one_instance(self, rule):
        rule = sb.AmplitudeRule.parse(rule)
        spec = sb.EnsembleSpec(sb.CouplingDistribution.fixed(1.0), rule, 5, 3, 7)
        first, *rest = [sb.realization_model(spec, i)[1] for i in range(3)]
        assert all(amps is first for amps in rest)
        assert sb.sample_amplitudes(rule, 5, seed=99, stream=4) is first
        assert sb.sample_amplitudes(rule, 6, seed=7).n == 6

    def test_seedless_rules_keep_the_sign_of_zero(self):
        # fixed(-0.0) == fixed(0.0), yet its alpha is -0.0, not 0.0.
        plus = sb.sample_amplitudes(sb.AmplitudeRule.fixed(0.0), 2, seed=0)
        minus = sb.sample_amplitudes(sb.AmplitudeRule.fixed(-0.0), 2, seed=0)
        assert np.signbit(plus.alpha.real).tolist() == [False, False]
        assert np.signbit(minus.alpha.real).tolist() == [True, True]

    def test_random_amplitudes_normalized_and_deterministic(self):
        amps = sb.sample_amplitudes(sb.AmplitudeRule.random(), 256, seed=11, stream=9)
        norms = np.abs(amps.alpha) ** 2 + np.abs(amps.beta) ** 2
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        again = sb.sample_amplitudes(sb.AmplitudeRule.random(), 256, seed=11, stream=9)
        np.testing.assert_array_equal(amps.alpha, again.alpha)

    def test_random_up_weights_cover_unit_interval(self):
        # Haar pairs put |alpha|^2 uniform on [0, 1].
        amps = sb.sample_amplitudes(sb.AmplitudeRule.random(), 10**4, seed=4)
        w = amps.alpha_sq
        assert abs(w.mean() - 0.5) < 0.02
        assert abs(np.quantile(w, 0.25) - 0.25) < 0.02

    @pytest.mark.parametrize(
        "kwargs",
        [{"n": 2.5}, {"n": True}, {"seed": 2.5}, {"seed": False}, {"stream": 1.5}, {"stream": True}],
        ids=["n-fraction", "n-bool", "seed-fraction", "seed-bool", "stream-fraction", "stream-bool"],
    )
    @pytest.mark.parametrize("sampler", ["couplings", "amplitudes"])
    def test_non_integer_sampler_arguments_rejected(self, sampler, kwargs):
        # int() would read seed 2.5 as seed 2, and stream 1.5 as stream 1.
        args = {"n": 4, "seed": 2, "stream": 1, **kwargs}
        (name,) = kwargs
        with pytest.raises(sb.ValidationError, match=f"{name} must be an integer"):
            if sampler == "couplings":
                sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), **args)
            else:
                sb.sample_amplitudes(sb.AmplitudeRule.random(), **args)

    def test_untyped_sampler_rules_rejected(self):
        with pytest.raises(sb.ValidationError, match="distribution must be"):
            sb.sample_couplings("gaussian(0,1)", 3, 1)
        with pytest.raises(sb.ValidationError, match="amplitude rule must be"):
            sb.sample_amplitudes("random", 3, 1)

    def test_whole_float_sampler_arguments_read_as_integers(self):
        dist = sb.CouplingDistribution.gaussian(0.0, 1.0)
        want = sb.sample_couplings(dist, 4, 2, stream=1).couplings
        got = sb.sample_couplings(dist, 4.0, np.float64(2.0), stream=np.int64(1)).couplings
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        amps = sb.sample_amplitudes(sb.AmplitudeRule.random(), 3.0, 2.0, stream=5.0)
        assert amps.n == 3


class TestEnsembleAverage:
    def test_single_realization_is_identity(self):
        spec = equal_ensemble(sb.CouplingDistribution.gaussian(0.0, 1.0), 6, 1, seed=3)
        grid = sb.TimeGrid(0.0, 2.0, 21)
        result = sb.ensemble_average_trace(spec, grid)
        np.testing.assert_array_equal(result.mean.values, result.values[0])

    def test_values_are_a_readonly_realization_by_step_array(self):
        spec = equal_ensemble(sb.CouplingDistribution.gaussian(0.0, 1.0), 4, 6, seed=8)
        result = sb.ensemble_average_trace(spec, sb.TimeGrid(0.0, 2.0, 11))
        assert result.values.shape == (6, 11)
        assert result.values.dtype == np.complex128
        assert not result.values.flags.writeable
        with pytest.raises(ValueError):
            result.values[0, 0] = 0.0

    @pytest.mark.parametrize("amplitudes", ["equal", "random"])
    def test_rows_are_realization_traces_bit_for_bit(self, amplitudes):
        spec = sb.EnsembleSpec(
            distribution=sb.CouplingDistribution.lorentzian(0.0, 0.5),
            amplitudes=sb.AmplitudeRule.parse(amplitudes),
            n=7,
            realizations=9,
            seed=31,
        )
        grid = sb.TimeGrid(0.0, 4.0, 17)
        result = sb.ensemble_average_trace(spec, grid)
        for i, row in enumerate(result.values):
            want = sb.decoherence_trace(*sb.realization_model(spec, i), grid).values
            np.testing.assert_array_equal(row.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("steps", [1, 5])
    def test_mean_is_the_zeros_start_row_sum(self, steps):
        # On a one-sample grid numpy's axis-0 mean sums pairwise and gives
        # other bits than the realization-order sum.
        spec = sb.EnsembleSpec(
            distribution=sb.CouplingDistribution.lorentzian(0.0, 0.25),
            amplitudes=sb.AmplitudeRule.random(),
            n=6,
            realizations=300,
            seed=5,
        )
        grid = sb.TimeGrid(0.7, 0.7 + steps - 1, steps)
        result = sb.ensemble_average_trace(spec, grid)
        acc = np.zeros(steps, dtype=np.complex128)
        for row in result.values:
            acc += row
        want = acc / spec.realizations
        np.testing.assert_array_equal(result.mean.values.view(np.int64), want.view(np.int64))
        assert result.mean.times is grid.samples

    def test_realization_zero_matches_direct_sampling(self):
        spec = equal_ensemble(sb.CouplingDistribution.gaussian(0.0, 1.0), 5, 3, seed=17)
        couplings, amps = sb.realization_model(spec, 0)
        direct = sb.sample_couplings(spec.distribution, 5, 17, stream=0)
        np.testing.assert_array_equal(couplings.couplings, direct.couplings)

    @pytest.mark.parametrize("index", [1.5, True, np.float64(0.5)])
    def test_non_integer_realization_index_rejected(self, index):
        # Index 1.5 would read couplings from stream 3 (realization 1's
        # amplitudes) and amplitudes from stream 4 (realization 2's couplings).
        spec = equal_ensemble(sb.CouplingDistribution.gaussian(0.0, 1.0), 5, 3, seed=17)
        with pytest.raises(sb.ValidationError, match="realization index must be an integer"):
            sb.realization_model(spec, index)

    def test_every_realization_obeys_model_invariants(self):
        spec = sb.EnsembleSpec(
            distribution=sb.CouplingDistribution.lorentzian(0.0, 1.0),
            amplitudes=sb.AmplitudeRule.random(),
            n=6,
            realizations=8,
            seed=2,
        )
        grid = sb.TimeGrid(0.0, 5.0, 33)
        result = sb.ensemble_average_trace(spec, grid)
        assert np.all(result.values[:, 0] == 1.0 + 0.0j)
        assert np.all(np.abs(result.values) <= 1.0 + 1e-12)

    def test_gaussian_ensemble_mean_matches_per_spin_expectation(self):
        # E[cos(g t)] = exp(-sigma^2 t^2 / 2) per spin, so the mean trace
        # is exp(-N sigma^2 t^2 / 2).
        n, m, sigma = 4, 500, 0.8
        ts = np.linspace(0.0, 1.2, 25)
        spec = equal_ensemble(sb.CouplingDistribution.gaussian(0.0, sigma), n, m, seed=7)
        result = sb.ensemble_average_trace(spec, sb.TimeGrid(0.0, 1.2, 25))
        oracle = np.exp(-n * sigma**2 * ts**2 / 2.0)
        spread = result.values.real.std(axis=0, ddof=1) / math.sqrt(m)
        gap = np.abs(result.mean.values.real - oracle)
        assert np.all(gap <= 3.0 * spread + 1e-12)

    def test_gaussian_ensemble_log_linear_in_t_squared(self):
        ts = np.linspace(0.0, 1.5, 60)
        spec = equal_ensemble(sb.CouplingDistribution.gaussian(0.0, 0.8), 6, 300, seed=11)
        result = sb.ensemble_average_trace(spec, sb.TimeGrid(0.0, 1.5, 60))
        mags = np.abs(result.mean.values)
        window = mags > 0.05
        assert r_squared(ts[window] ** 2, np.log(mags[window])) > 0.99

    def test_lorentzian_ensemble_decays_exponentially(self):
        # E[cos(g t)] = exp(-gamma |t|) per spin for Cauchy couplings.
        n, m, gamma = 12, 400, 0.3
        ts = np.linspace(0.0, 0.5, 40)
        spec = equal_ensemble(sb.CouplingDistribution.lorentzian(0.0, gamma), n, m, seed=13)
        result = sb.ensemble_average_trace(spec, sb.TimeGrid(0.0, 0.5, 40))
        oracle = np.exp(-n * gamma * ts)
        spread = result.values.real.std(axis=0, ddof=1) / math.sqrt(m)
        gap = np.abs(result.mean.values.real - oracle)
        assert np.all(gap <= 3.0 * spread + 1e-12)
        mags = np.abs(result.mean.values)
        window = mags > 10.0 * 2.0 ** (-n / 2)
        assert r_squared(ts[window], np.log(mags[window])) > 0.98

    @pytest.mark.parametrize("rule", ["equal", "fixed(0.8)", "random"])
    @pytest.mark.parametrize(
        "dist", ["fixed(0.7)", "gaussian(0.3, 0.5)", "lorentzian(0.4, 0.2)", "uniform(0.5, 2)"]
    )
    def test_sampled_mean_matches_closed_form(self, dist, rule):
        # A wrong scale, center or weight in a sampler moves the mean by
        # many standard errors.  Identical realizations (fixed couplings,
        # equal or fixed amplitudes) have a standard error of about 0, so
        # it is floored at 1e-12 for the rounding of the two forms.
        n, m = 6, 1000
        dist, rule = sb.CouplingDistribution.parse(dist), sb.AmplitudeRule.parse(rule)
        grid = sb.TimeGrid(0.0, 3.0, 31)
        oracle = closed_form_ensemble_mean(dist, rule, n, grid.samples)
        for seed in (3, 4):
            spec = sb.EnsembleSpec(dist, rule, n, m, seed)
            result = sb.ensemble_average_trace(spec, grid)
            stderr = result.values.std(axis=0, ddof=1) / math.sqrt(m)
            gap = np.abs(result.mean.values - oracle)
            assert np.all(gap <= 5.0 * np.maximum(stderr, 1e-12))

    def test_lorentzian_realizations_disperse_more_than_gaussian(self):
        # Matched half-width: Cauchy gamma equals the Gaussian HWHM.
        gamma = math.sqrt(2.0 * math.log(2.0))
        n, m, t_star = 10, 600, 0.15
        grid = sb.TimeGrid(0.0, t_star, 2)
        spreads = {}
        for name, dist in (
            ("gauss", sb.CouplingDistribution.gaussian(0.0, 1.0)),
            ("lorentz", sb.CouplingDistribution.lorentzian(0.0, gamma)),
        ):
            result = sb.ensemble_average_trace(equal_ensemble(dist, n, m, seed=21), grid)
            finals = np.abs(result.values[:, 1])
            spreads[name] = finals.var(ddof=1)
        assert spreads["lorentz"] >= 3.0 * spreads["gauss"]

    def test_saturation_level_for_single_realization(self):
        # Late-time |r| fluctuates within an order of magnitude of 2^(-N/2).
        n = 12
        couplings = sb.sample_couplings(sb.CouplingDistribution.gaussian(0.0, 1.0), n, seed=3)
        amps = sb.EnvironmentAmplitudes.equal_superposition(n)
        grid = sb.TimeGrid(50.0, 250.0, 801)
        trace = sb.decoherence_trace(couplings, amps, grid)
        level = math.sqrt(float(np.mean(np.abs(trace.values) ** 2)))
        floor = 2.0 ** (-n / 2)
        assert 0.1 * floor < level < 10.0 * floor

    @pytest.mark.parametrize(
        "field, value", [("n", 3.9), ("realizations", 2.7), ("seed", 1.5), ("n", True)]
    )
    def test_spec_rejects_non_integers(self, field, value):
        # int() would store 3, 2, 1 and 1.
        kwargs = {"n": 3, "realizations": 2, "seed": 1, field: value}
        with pytest.raises(sb.ValidationError, match=f"{field} must be an integer"):
            sb.EnsembleSpec(sb.CouplingDistribution.fixed(1.0), sb.AmplitudeRule.equal(), **kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("distribution", "gaussian(0, 1)"), ("amplitudes", "equal"), ("amplitudes", None)],
    )
    def test_spec_rejects_untyped_rules(self, field, value):
        # A string here once failed later, in sampling, with AttributeError.
        kwargs = dict(
            distribution=sb.CouplingDistribution.fixed(1.0),
            amplitudes=sb.AmplitudeRule.equal(),
            n=3,
            realizations=2,
            seed=1,
        )
        kwargs[field] = value
        with pytest.raises(sb.ValidationError, match=f"{field} must be a"):
            sb.EnsembleSpec(**kwargs)

    def test_spec_takes_numpy_integers(self):
        spec = equal_ensemble(sb.CouplingDistribution.fixed(1.0), np.int64(3), np.int32(2), np.uint64(7))
        assert (spec.n, spec.realizations, spec.seed) == (3, 2, 7)
        assert all(type(v) is int for v in (spec.n, spec.realizations, spec.seed))

    def test_spec_validation(self):
        with pytest.raises(sb.ValidationError):
            sb.EnsembleSpec(
                distribution=sb.CouplingDistribution.fixed(1.0),
                amplitudes=sb.AmplitudeRule.equal(),
                n=0,
                realizations=1,
                seed=0,
            )
        with pytest.raises(sb.ValidationError):
            equal_ensemble(sb.CouplingDistribution.fixed(1.0), 2, 0, seed=0)
