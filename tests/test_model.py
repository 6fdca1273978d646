"""Tests for the domain types and the exact decoherence factor."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import spinbath as sb
from spinbath.model import _BLOCK_BYTES, _branch_product
from helpers import (
    EDGE_TIMES,
    branch_overlap,
    edge_couplings,
    kron_branch_state,
    models,
    random_model,
    times,
)


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

    @pytest.mark.parametrize("n", [2.0, np.int64(3)])
    def test_equal_superposition_takes_whole_numbers(self, n):
        amps = sb.EnvironmentAmplitudes.equal_superposition(n)
        assert amps.n == n and amps.alpha.tobytes() == amps.beta.tobytes()

    @pytest.mark.parametrize("n", [True, 2.5, "3", -1, 0])
    def test_equal_superposition_rejects_bad_counts(self, n):
        # A count follows README's rule: np.full would take True as 1 and fail on 2.5.
        with pytest.raises(sb.ValidationError, match="integer|n must be >= 1"):
            sb.EnvironmentAmplitudes.equal_superposition(n)

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

    def test_time_grid_rejects_overflowing_width(self):
        # np.linspace would give the samples [nan, inf, 1e308].
        with pytest.raises(sb.ValidationError, match="overflows"):
            sb.TimeGrid(-1e308, 1e308, 3)
        assert sb.TimeGrid(-1e308, 0.0, 3).samples.tolist() == [-1e308, -5e307, 0.0]

    @pytest.mark.parametrize("steps", [2.5, True, float("inf")])
    def test_time_grid_rejects_non_integer_steps(self, steps):
        # int() would give 2.5 two samples and True one.
        with pytest.raises(sb.ValidationError, match="integer"):
            sb.TimeGrid(0.0, 1.0, steps)

    @pytest.mark.parametrize("steps", [np.int64(3), np.uint8(3), 3.0])
    def test_time_grid_takes_whole_numbers(self, steps):
        grid = sb.TimeGrid(0.0, 1.0, steps)
        assert grid.steps == 3 and type(grid.steps) is int

    def test_trace_invariants(self):
        with pytest.raises(sb.ValidationError):
            sb.DecoherenceTrace(times=[0.0, 1.0], values=[1.0, 1.5], n_spins=1)
        with pytest.raises(sb.ValidationError):
            sb.DecoherenceTrace(times=[0.0], values=[1.0 + 1e-15j], n_spins=1)
        trace = sb.DecoherenceTrace(times=[0.0, 1.0], values=[1.0, 0.5j], n_spins=1)
        assert len(trace) == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"values": [1.0, np.nan]},
            {"values": [1.0, complex(np.nan, 0.0)]},
            {"times": [0.0, np.inf]},
            {"times": [np.nan, 1.0]},
            {"n_spins": -3},
            {"n_spins": 0},
            {"n_spins": True},
            {"n_spins": 2.0},
            {"n_spins": "2"},
        ],
        ids=["nan", "nan-real", "inf-time", "nan-time", "negative", "zero", "bool", "float", "str"],
    )
    def test_trace_rejects_non_finite_entries_and_bad_sizes(self, kwargs):
        # A NaN compares False with 1 + NORM_TOL, so it once passed the |r| check.
        args = {"times": [0.0, 1.0], "values": [1.0, 0.5], "n_spins": 2, **kwargs}
        with pytest.raises(sb.ValidationError):
            sb.DecoherenceTrace(**args)

    def test_trace_takes_numpy_integer_sizes(self):
        trace = sb.DecoherenceTrace(times=[0.0], values=[1.0], n_spins=np.int64(3))
        assert trace.n_spins == 3 and type(trace.n_spins) is int

    def test_overflowing_phases_are_rejected(self):
        # g t overflows to inf and e^{i inf} is NaN: |r| <= 1 holds for
        # every finite r(t), so the trace is refused, not written.
        c = sb.CouplingSet([1e308, 1e308])
        a = sb.EnvironmentAmplitudes.equal_superposition(2)
        with pytest.warns(RuntimeWarning), pytest.raises(sb.ValidationError, match="nan"):
            sb.decoherence_trace(c, a, sb.TimeGrid(0.0, 10.0, 3))


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
        # The N = 10,000 case spans several blocks of times, and the
        # N = 4096 cases exactly one block and one more step.  Their short
        # time ranges keep |r| above the underflow to 0.0, which would
        # compare equal whatever the kernel did.
        assert 16 * 10_000 * 101 > 3 * _BLOCK_BYTES
        block = _BLOCK_BYTES // (16 * 4096)
        cases = ((6, -2.0, 3.0, 41), (10_000, -0.15, 0.2, 101))
        cases += ((4096, -0.2, 0.25, block), (4096, -0.2, 0.25, block + 1))
        for n, start, stop, steps in cases:
            c, a = random_model(rng, n)
            grid = sb.TimeGrid(start, stop, steps)
            trace = sb.decoherence_trace(c, a, grid)
            assert np.count_nonzero(trace.values) >= 0.89 * steps
            for t, v in zip(grid.samples, trace.values):
                assert v == sb.decoherence_factor(c, a, t)

    def test_peak_memory_is_bounded_by_time_blocks(self):
        # One unblocked (times x spins) complex temporary would be 122 MiB
        # for the first shape.  The second is check-average's column, whose
        # kernel temporaries took 9.1 MiB under a 4 MiB block budget.
        rng = np.random.default_rng(4)
        for n, steps, bound in ((20_000, 401, 32 * 2**20), (24, 8192, 2 * 2**20)):
            c = sb.CouplingSet(rng.standard_normal(n))
            a = sb.EnvironmentAmplitudes.equal_superposition(n)
            grid = sb.TimeGrid(0.0, 1.0, steps)
            tracemalloc.start()
            try:
                sb.decoherence_trace(c, a, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (n, steps, peak)

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

    def test_trace_is_frozen_and_leaves_caller_times_writable(self):
        c, a = random_model(np.random.default_rng(2), 3)
        times = np.array([0.0, 0.5, 1.0])
        trace = sb.decoherence_trace(c, a, times)
        times[1] = 7.0
        assert trace.times.tolist() == [0.0, 0.5, 1.0]
        for arr in (trace.times, trace.values):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def _two_exponential_product(up_w, down_w, g, t):
    """The mirrored kernel's reference: both exponentials evaluated."""
    factors = up_w * np.exp(1j * (g * t)) + down_w * np.exp(1j * ((-g) * t))
    return np.multiply.reduce(factors, axis=-1)


class TestMirroredKernel:
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_bits_equal_two_exponentials(self, n):
        # At n = 1 the product is the factor itself, so this pins the bits
        # of e^{-i g t} taken as the conjugate of e^{i g t}.
        rng = np.random.default_rng(n)
        for _ in range(50):
            g = edge_couplings(rng, n)
            up_w = rng.random(n)
            down_w = 1.0 - up_w
            column = np.array(EDGE_TIMES)[:, np.newaxis]
            got = _branch_product(up_w, down_w, g, None, column)
            want = _two_exponential_product(up_w, down_w, g, column)
            want[column[:, 0] == 0.0] = 1.0
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == _branch_product(up_w, down_w, g, -g, column).tobytes()
            for t, row in zip(EDGE_TIMES, got):
                one = np.complex128(_branch_product(up_w, down_w, g, None, t))
                assert one.tobytes() == row.tobytes()

    def test_trace_equals_factor_at_edge_times(self):
        rng = np.random.default_rng(30)
        for n in (1, 30):
            c = sb.CouplingSet(edge_couplings(rng, n))
            a = sb.EnvironmentAmplitudes.from_up_weights(rng.random(n))
            trace = sb.decoherence_trace(c, a, np.array(EDGE_TIMES))
            for t, v in zip(EDGE_TIMES, trace.values):
                want = np.complex128(sb.decoherence_factor(c, a, t))
                assert v.tobytes() == want.tobytes()


class TestBranchEvolution:
    @pytest.mark.parametrize("n", [1, 7, 40, 100])
    def test_overlap_of_branches_equals_decoherence_factor(self, n):
        # r(t) = <E_1(t)|E_0(t)>, with each spin's pair evolved on its own.
        rng = np.random.default_rng(n)
        c, a = random_model(rng, n)
        for t in (0.05, 0.81, 4.0):
            overlap = branch_overlap(c, a, t)
            assert overlap == pytest.approx(sb.decoherence_factor(c, a, t), abs=1e-12)
