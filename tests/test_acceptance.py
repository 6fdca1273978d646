"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is either an analytic closed form or an
independently computed oracle; none are tuned to the implementation.
"""

import math

import numpy as np

import spinbath as sb
from spinbath.config import RunConfig
from spinbath.runner import run as run_experiment
from helpers import closed_form_ensemble_mean, make_amplitudes, random_model, spectrum_moments


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_criterion_1_product_formula_equals_characteristic_function():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        c, a = random_model(rng, n)
        spectrum = sb.enumerate_walks(c, a)
        for t in rng.uniform(-25.0, 25.0, size=50):
            gap = abs(
                sb.characteristic_function(spectrum, t) - sb.decoherence_factor(c, a, t)
            )
            worst = max(worst, gap)
    report("1 oracle-equivalence", worst < 1e-10, f"max |chi - r| = {worst:.3e}")


def test_criterion_2_equal_coupling_closed_form():
    worst = 0.0
    for n in (1, 4, 24):
        c = sb.CouplingSet([1.0] * n)
        a = sb.EnvironmentAmplitudes.equal_superposition(n)
        for t in np.linspace(0.0, 3.0, 61):
            gap = abs(sb.decoherence_factor(c, a, t) - np.cos(t) ** n)
            worst = max(worst, gap)
    report("2 cos^N closed form", worst < 1e-12, f"max error = {worst:.3e} at N in (1, 4, 24)")


def test_criterion_3_long_time_average():
    couplings = sb.CouplingSet(np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0]))
    amps = sb.EnvironmentAmplitudes.equal_superposition(8)
    check = sb.check_time_average(couplings, amps, samples=8192)
    ok = check.analytic == 2.0**-8 and check.n_sigma < 3.0
    report(
        "3 long-time average",
        ok,
        f"analytic = {check.analytic}, empirical = {check.empirical:.6e}, "
        f"n_sigma = {check.n_sigma:.2f}",
    )


def test_criterion_4_gaussian_limit_of_magnitude():
    deviations = []
    dist = sb.CouplingDistribution.gaussian(0.0, 1.0)
    for seed in range(100):
        couplings = sb.sample_couplings(dist, 24, seed)
        amps = sb.EnvironmentAmplitudes.equal_superposition(24)
        summary = sb.summarize(couplings, amps)
        spread = math.sqrt(summary.variance)
        grid = sb.TimeGrid(0.0, 5.0 / spread, 500)
        trace = sb.decoherence_trace(couplings, amps, grid)
        mags = np.abs(trace.values)
        window = mags > 0.1
        envelope = np.exp(-0.5 * summary.variance * grid.samples**2)
        deviations.append(float(np.abs(mags[window] - envelope[window]).max()))
    median = float(np.median(deviations))
    report("4 gaussian limit", median < 0.05, f"median max deviation = {median:.4f}")


def test_criterion_5_laplace_de_moivre():
    n = 24
    term_err = max(
        abs(sb.laplace_demoivre_weight(n, l, 0.5) - math.comb(n, l) / 2.0**n)
        for l in range(n + 1)
    )
    couplings = sb.CouplingSet([1.0] * n)
    amps = sb.EnvironmentAmplitudes.equal_superposition(n)
    summary = sb.summarize(couplings, amps)
    hist = sb.ldos(sb.enumerate_walks(couplings, amps), bins=5)
    scale = math.sqrt(2.0 * summary.variance)
    gauss_mass = np.array(
        [
            0.5 * (math.erf((hi - summary.mean) / scale) - math.erf((lo - summary.mean) / scale))
            for lo, hi in zip(hist.edges[:-1], hist.edges[1:])
        ]
    )
    tv = 0.5 * (np.abs(hist.masses - gauss_mass).sum() + (1.0 - gauss_mass.sum()))
    ok = term_err < 0.01 and tv < 0.02
    report("5 laplace-de-moivre", ok, f"max term error = {term_err:.5f}, TV = {tv:.5f}")


def test_criterion_6_lorentzian_exponential_decay():
    n, m, gamma = 20, 1000, 0.25
    spec = sb.EnsembleSpec(
        distribution=sb.CouplingDistribution.lorentzian(0.0, gamma),
        amplitudes=sb.AmplitudeRule.equal(),
        n=n,
        realizations=m,
        seed=1,
    )
    grid = sb.TimeGrid(0.0, 3.0, 301)
    result = sb.ensemble_average_trace(spec, grid)
    members = result.values.real
    mean = result.mean.values.real
    stderr = members.std(axis=0, ddof=1) / math.sqrt(m)
    oracle = closed_form_ensemble_mean(spec.distribution, spec.amplitudes, n, grid.samples).real
    floor = 2.0 ** (-n / 2)
    window = oracle > 10.0 * floor
    violations = int(np.sum(np.abs(mean[window] - oracle[window]) > 3.0 * stderr[window]))
    plateau = float(np.abs(members[:, grid.samples > 2.0]).mean())
    plateau_ok = floor / 10.0 < plateau < floor * 10.0
    ok = violations == 0 and plateau_ok
    report(
        "6 lorentzian decay",
        ok,
        f"{violations} pointwise violations over {int(window.sum())} points, "
        f"plateau/floor = {plateau / floor:.2f}",
    )


def test_criterion_7_echo_specialization():
    rng = np.random.default_rng(707)
    worst_echo = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        c, a = random_model(rng, n)
        h0 = sb.DiagonalBranchHamiltonian.from_couplings(c)
        h1 = -h0
        for t in rng.uniform(-10.0, 10.0, size=5):
            gap = abs(sb.echo_amplitude(h0, h1, a, t) - sb.decoherence_factor(c, a, t))
            worst_echo = max(worst_echo, gap)
    worst_survival = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        _, a = random_model(rng, n)
        h = sb.DiagonalBranchHamiltonian(up=rng.normal(size=n), down=rng.normal(size=n))
        spectrum = sb.branch_spectrum(h, a)
        for t in rng.uniform(-10.0, 10.0, size=5):
            gap = abs(
                sb.survival_probability(h, a, t)
                - abs(sb.characteristic_function(spectrum, t)) ** 2
            )
            worst_survival = max(worst_survival, gap)
    ok = worst_echo < 1e-12 and worst_survival < 1e-10
    report(
        "7 echo specialization",
        ok,
        f"max |echo - r| = {worst_echo:.3e}, max survival gap = {worst_survival:.3e}",
    )


def test_criterion_8_moment_identities():
    rng = np.random.default_rng(808)
    worst_mean = worst_var = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        c, a = random_model(rng, n)
        mean, var = spectrum_moments(sb.enumerate_walks(c, a))
        summary = sb.summarize(c, a)
        worst_mean = max(worst_mean, abs(mean - summary.mean))
        worst_var = max(worst_var, abs(var - summary.variance))
    ok = worst_mean < 1e-8 and worst_var < 1e-8
    report(
        "8 moment identities",
        ok,
        f"max mean gap = {worst_mean:.3e}, max variance gap = {worst_var:.3e}",
    )


def test_criterion_9_reproducible_runs(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        cfg = RunConfig(
            experiment="ensemble",
            n=24,
            distribution=sb.CouplingDistribution.gaussian(0.0, 1.0),
            seed=7,
            realizations=5,
            stop=2.0,
            steps=101,
            out_dir=out,
            quiet=True,
        )
        run_experiment(cfg)
        outputs.append((out / "ensemble.csv").read_bytes())
    trace_outputs = []
    for tag in ("third", "fourth"):
        out = tmp_path / tag
        cfg = RunConfig(experiment="trace", n=10, seed=3, steps=64, out_dir=out, quiet=True)
        run_experiment(cfg)
        trace_outputs.append((out / "trace.csv").read_bytes())
    ok = outputs[0] == outputs[1] and trace_outputs[0] == trace_outputs[1]
    report("9 reproducibility", ok, "byte-identical CSV outputs across reruns")
