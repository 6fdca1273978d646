"""Tests for the domain types and the exact decoherence factor."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinbath as sb
from spinbath.model import _BLOCK_BYTES
from helpers import kron_branch_state, make_amplitudes, models, random_model, times


class TestTypes:
    def test_coupling_set_rejects_empty_and_nonfinite(self):
        with pytest.raises(sb.ValidationError):
            sb.CouplingSet([])
        with pytest.raises(sb.ValidationError):
            sb.CouplingSet([1.0, np.nan])
        with pytest.raises(sb.ValidationError):
            sb.CouplingSet([np.inf])

    def test_coupling_set_is_immutable(self):
        c = sb.CouplingSet([1.0, 2.0])
        with pytest.raises(ValueError):
            c.couplings[0] = 3.0

    def test_amplitudes_reject_bad_norms(self):
        with pytest.raises(sb.ValidationError):
            sb.EnvironmentAmplitudes([0.9], [0.1])
        # Off by more than 1e-12 is rejected rather than renormalized.
        w = 0.5 + 5e-12
        with pytest.raises(sb.ValidationError):
            sb.EnvironmentAmplitudes([np.sqrt(w) * 1.00001], [np.sqrt(1 - w)])

    def test_amplitudes_size_mismatch(self):
        with pytest.raises(sb.DimensionMismatchError):
            sb.EnvironmentAmplitudes([1.0, 0.0], [0.0])

    def test_system_state_norm_gate(self):
        sb.SystemState(1.0, 0.0)
        with pytest.raises(sb.ValidationError):
            sb.SystemState(1.0, 0.5)

    def test_time_grid_samples(self):
        grid = sb.TimeGrid(0.0, 1.0, 5)
        assert len(grid) == 5
        np.testing.assert_allclose(np.diff(grid.samples), 0.25)
        single = sb.TimeGrid(0.0, 0.0, 1)
        assert single.samples.tolist() == [0.0]

    def test_time_grid_validation(self):
        with pytest.raises(sb.ValidationError):
            sb.TimeGrid(1.0, 0.0, 5)
        with pytest.raises(sb.ValidationError):
            sb.TimeGrid(0.0, 1.0, 0)
        with pytest.raises(sb.ValidationError):
            sb.TimeGrid(1.0, 1.0, 2)

    def test_trace_invariants(self):
        with pytest.raises(sb.ValidationError):
            sb.DecoherenceTrace(times=[0.0, 1.0], values=[1.0, 1.5], n_spins=1)
        with pytest.raises(sb.ValidationError):
            sb.DecoherenceTrace(times=[0.0], values=[1.0 + 1e-15j], n_spins=1)
        trace = sb.DecoherenceTrace(times=[0.0, 1.0], values=[1.0, 0.5j], n_spins=1)
        assert len(trace) == 2


class TestDecoherenceFactor:
    def test_zero_time_is_exactly_one(self):
        rng = np.random.default_rng(11)
        for n in (1, 3, 17):
            c, a = random_model(rng, n)
            assert sb.decoherence_factor(c, a, 0.0) == 1.0 + 0.0j

    def test_single_spin_equal_weights_is_cosine(self):
        c = sb.CouplingSet([1.0])
        a = sb.EnvironmentAmplitudes.equal_superposition(1)
        for t in np.linspace(-7.0, 7.0, 29):
            assert sb.decoherence_factor(c, a, t) == pytest.approx(np.cos(t), abs=1e-12)

    def test_equal_couplings_closed_form(self):
        # cos^N(g t) pins the phase convention; at t = pi/3, cos^4 = 1/16.
        c = sb.CouplingSet([1.0] * 4)
        a = sb.EnvironmentAmplitudes.equal_superposition(4)
        r = sb.decoherence_factor(c, a, np.pi / 3)
        assert r == pytest.approx(1.0 / 16.0, abs=1e-12)
        for n in (1, 4, 24):
            cn = sb.CouplingSet([1.0] * n)
            an = sb.EnvironmentAmplitudes.equal_superposition(n)
            for t in np.linspace(0.1, 2.9, 8):
                assert sb.decoherence_factor(cn, an, t) == pytest.approx(
                    np.cos(t) ** n, abs=1e-12
                )

    def test_size_mismatch(self):
        with pytest.raises(sb.DimensionMismatchError):
            sb.decoherence_factor(
                sb.CouplingSet([1.0, 2.0]), sb.EnvironmentAmplitudes.equal_superposition(3), 0.5
            )

    def test_nonfinite_time(self):
        c, a = random_model(np.random.default_rng(0), 2)
        with pytest.raises(sb.ValidationError):
            sb.decoherence_factor(c, a, np.inf)

    def test_matches_expanded_state_overlap(self):
        # Independent oracle: build both branch vectors in the full
        # 2^N space and take the inner product.
        rng = np.random.default_rng(42)
        for n in (1, 2, 5, 9):
            c, a = random_model(rng, n)
            for t in (0.3, 1.7, -2.2):
                bra = kron_branch_state(c, a, t, branch=1)
                ket = kron_branch_state(c, a, t, branch=0)
                expected = np.vdot(bra, ket)
                assert sb.decoherence_factor(c, a, t) == pytest.approx(expected, abs=1e-12)

    def test_large_n_log_path_matches_gaussian_envelope(self):
        # 2e4 spins exercises the log-magnitude accumulation.
        rng = np.random.default_rng(3)
        n = 20_000
        c = sb.CouplingSet(rng.standard_normal(n))
        a = sb.EnvironmentAmplitudes.equal_superposition(n)
        summary = sb.summarize(c, a)
        t = 0.5 / np.sqrt(summary.variance)
        r = sb.decoherence_factor(c, a, t)
        assert abs(r) == pytest.approx(np.exp(-0.5 * summary.variance * t**2), rel=0.05)

    @settings(max_examples=60, deadline=None)
    @given(model=models(), t=times)
    def test_magnitude_bounded_and_hermitian(self, model, t):
        c, a = model
        r = sb.decoherence_factor(c, a, t)
        assert abs(r) <= 1.0 + 1e-12
        assert sb.decoherence_factor(c, a, -t) == complex(r).conjugate()

    @settings(max_examples=30, deadline=None)
    @given(first=models(max_n=4), second=models(max_n=4), t=times)
    def test_multiplicative_over_disjoint_environments(self, first, second, t):
        c1, a1 = first
        c2, a2 = second
        joint_c = sb.CouplingSet(np.concatenate([c1.couplings, c2.couplings]))
        joint_a = sb.EnvironmentAmplitudes(
            np.concatenate([a1.alpha, a2.alpha]), np.concatenate([a1.beta, a2.beta])
        )
        product = sb.decoherence_factor(c1, a1, t) * sb.decoherence_factor(c2, a2, t)
        assert sb.decoherence_factor(joint_c, joint_a, t) == pytest.approx(product, abs=1e-12)


class TestTrace:
    def test_single_zero_grid(self):
        c, a = random_model(np.random.default_rng(5), 3)
        trace = sb.decoherence_trace(c, a, sb.TimeGrid(0.0, 0.0, 1))
        assert trace.values.tolist() == [1.0 + 0.0j]

    def test_grid_values_match_cosine(self):
        c = sb.CouplingSet([1.0])
        a = sb.EnvironmentAmplitudes.equal_superposition(1)
        trace = sb.decoherence_trace(c, a, sb.TimeGrid(0.0, np.pi, 3))
        np.testing.assert_allclose(trace.values, [1.0, 0.0, -1.0], atol=1e-12)

    def test_bitwise_identical_to_pointwise(self):
        rng = np.random.default_rng(8)
        # The second case spans several blocks of times.  Its short time
        # range keeps |r| above the underflow to 0.0, which would compare
        # equal whatever the kernel did.
        assert 16 * 10_000 * 101 > 3 * _BLOCK_BYTES
        for n, start, stop, steps in ((6, -2.0, 3.0, 41), (10_000, -0.15, 0.2, 101)):
            c, a = random_model(rng, n)
            grid = sb.TimeGrid(start, stop, steps)
            trace = sb.decoherence_trace(c, a, grid)
            assert np.count_nonzero(trace.values) >= 0.89 * steps
            for t, v in zip(grid.samples, trace.values):
                assert v == sb.decoherence_factor(c, a, t)

    def test_peak_memory_is_bounded_by_time_blocks(self):
        # One unblocked (times x spins) complex temporary would be 122 MiB.
        rng = np.random.default_rng(4)
        n = 20_000
        c = sb.CouplingSet(rng.standard_normal(n))
        a = sb.EnvironmentAmplitudes.equal_superposition(n)
        grid = sb.TimeGrid(0.0, 1.0, 401)
        tracemalloc.start()
        try:
            sb.decoherence_trace(c, a, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_times_array_matches_pointwise(self):
        c, a = random_model(np.random.default_rng(12), 7)
        times = np.array([0.0, 2.5, -1.25, 0.0, 40.0, 1e-3])
        trace = sb.decoherence_trace(c, a, times)
        assert trace.times.tolist() == times.tolist()
        for t, v in zip(times, trace.values):
            assert v == sb.decoherence_factor(c, a, t)
        assert trace.values[0] == trace.values[3] == 1.0 + 0.0j

    @pytest.mark.parametrize(
        "times", [[0.0, np.nan], [[0.0, 1.0]], [], np.inf, 0.5], ids=["nan", "2d", "empty", "inf", "0d"]
    )
    def test_times_array_rejected(self, times):
        c, a = random_model(np.random.default_rng(13), 3)
        with pytest.raises(sb.ValidationError):
            sb.decoherence_trace(c, a, np.array(times))

    def test_metadata(self):
        c, a = random_model(np.random.default_rng(1), 2)
        trace = sb.decoherence_trace(c, a, sb.TimeGrid(0.0, 1.0, 3))
        assert trace.n_spins == 2


class TestBranchEvolution:
    def test_zero_time_identity(self):
        c, a = random_model(np.random.default_rng(2), 4)
        evolved = sb.evolve_environment_branch(c, a, 0.0, 0)
        np.testing.assert_array_equal(evolved.alpha, a.alpha)
        np.testing.assert_array_equal(evolved.beta, a.beta)

    def test_unitarity_round_trip(self):
        c, a = random_model(np.random.default_rng(23), 5)
        there = sb.evolve_environment_branch(c, a, 1.3, 0)
        back = sb.evolve_environment_branch(c, there, -1.3, 0)
        np.testing.assert_allclose(back.alpha, a.alpha, atol=1e-12)
        np.testing.assert_allclose(back.beta, a.beta, atol=1e-12)

    def test_invalid_branch(self):
        c, a = random_model(np.random.default_rng(0), 2)
        with pytest.raises(sb.ValidationError):
            sb.evolve_environment_branch(c, a, 1.0, 2)

    def test_branch_one_is_branch_zero_at_negative_time(self):
        c, a = random_model(np.random.default_rng(31), 4)
        one = sb.evolve_environment_branch(c, a, 0.9, 1)
        zero = sb.evolve_environment_branch(c, a, -0.9, 0)
        np.testing.assert_array_equal(one.alpha, zero.alpha)
        np.testing.assert_array_equal(one.beta, zero.beta)

    @pytest.mark.parametrize("n", [1, 7, 40, 100])
    def test_overlap_of_branches_equals_decoherence_factor(self, n):
        rng = np.random.default_rng(n)
        c, a = random_model(rng, n)
        for t in (0.05, 0.81, 4.0):
            bra = sb.evolve_environment_branch(c, a, t, 1)
            ket = sb.evolve_environment_branch(c, a, t, 0)
            overlap = sb.environment_overlap(bra, ket)
            assert overlap == pytest.approx(sb.decoherence_factor(c, a, t), abs=1e-12)


class TestReducedDensityMatrix:
    def test_pointer_state_untouched(self):
        rho = sb.reduced_density_matrix(sb.SystemState(1.0, 0.0), 0.3 + 0.1j)
        assert rho.rho00 == 1.0 and rho.rho11 == 0.0 and rho.rho01 == 0.0

    def test_pure_superposition_no_decoherence(self):
        s = sb.SystemState(1 / np.sqrt(2), 1 / np.sqrt(2))
        rho = sb.reduced_density_matrix(s, 1.0)
        for entry in (rho.rho00, rho.rho01, rho.rho10, rho.rho11):
            assert entry == pytest.approx(0.5, abs=1e-12)

    def test_fully_decohered_pointer_mixture(self):
        s = sb.SystemState(1 / np.sqrt(2), 1 / np.sqrt(2))
        rho = sb.reduced_density_matrix(s, 0.0)
        assert rho.rho01 == 0.0 and rho.rho10 == 0.0
        assert rho.rho00 == pytest.approx(0.5, abs=1e-12)
        assert rho.rho11 == pytest.approx(0.5, abs=1e-12)

    def test_rejects_overlong_factor(self):
        with pytest.raises(sb.ValidationError):
            sb.reduced_density_matrix(sb.SystemState(1.0, 0.0), 1.0 + 1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        weight=st.floats(0.0, 1.0, allow_nan=False),
        phase=st.floats(0.0, 2 * np.pi, allow_nan=False),
        mag=st.floats(0.0, 1.0, allow_nan=False),
        arg=st.floats(0.0, 2 * np.pi, allow_nan=False),
    )
    def test_eigenvalues_in_unit_interval(self, weight, phase, mag, arg):
        s = sb.SystemState(np.sqrt(weight), np.sqrt(1 - weight) * np.exp(1j * phase))
        rho = sb.reduced_density_matrix(s, mag * np.exp(1j * arg))
        eigs = np.linalg.eigvalsh(rho.as_array())
        assert np.all(eigs >= -1e-12) and np.all(eigs <= 1.0 + 1e-12)

    def test_purity_bracket_for_balanced_state(self):
        s = sb.SystemState(1 / np.sqrt(2), 1 / np.sqrt(2))
        c, a = random_model(np.random.default_rng(77), 10)
        for t in np.linspace(0.0, 4.0, 17):
            r = sb.decoherence_factor(c, a, t)
            purity = sb.reduced_density_matrix(s, r).purity()
            assert 0.5 - 1e-12 <= purity <= 1.0 + 1e-12
