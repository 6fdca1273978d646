"""Tests for two-branch echo amplitudes and survival probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings

import spinbath as sb
from helpers import exact_half_amplitudes, models, random_model, times


def random_branch(rng, n):
    return sb.DiagonalBranchHamiltonian(up=rng.normal(size=n), down=rng.normal(size=n))


class TestDiagonalBranchHamiltonian:
    def test_validation(self):
        with pytest.raises(sb.ValidationError):
            sb.DiagonalBranchHamiltonian(up=[1.0, np.inf], down=[0.0, 0.0])
        with pytest.raises(sb.DimensionMismatchError):
            sb.DiagonalBranchHamiltonian(up=[1.0], down=[0.0, 0.0])

    def test_from_couplings_and_negation(self):
        h = sb.DiagonalBranchHamiltonian.from_couplings(sb.CouplingSet([1.0, -2.0]))
        assert h.up.tolist() == [1.0, -2.0]
        assert h.down.tolist() == [-1.0, 2.0]
        neg = -h
        assert neg.up.tolist() == [-1.0, 2.0]


class TestEchoAmplitude:
    def test_identical_branches_stay_unity(self):
        rng = np.random.default_rng(0)
        h = random_branch(rng, 6)
        _, amps = random_model(rng, 6)
        for t in (0.0, 0.3, 2.0, -17.0):
            assert sb.echo_amplitude(h, h, amps, t) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_branches_reproduce_decoherence_factor(self):
        rng = np.random.default_rng(1)
        for n in (1, 5, 40, 100):
            c, amps = random_model(rng, n)
            h0 = sb.DiagonalBranchHamiltonian.from_couplings(c)
            h1 = -h0
            for t in (0.2, 1.1, -3.0):
                echo = sb.echo_amplitude(h0, h1, amps, t)
                assert echo == sb.decoherence_factor(c, amps, t)

    def test_opposite_branches_near_the_float_limit(self):
        # 2g overflows for |g| above half the float limit; the halved
        # rates never form it, and keep the bits of the decoherence factor.
        rng = np.random.default_rng(4)
        c = sb.CouplingSet([1e308, -1e308, 3e307, 1.5])
        _, amps = random_model(rng, 4)
        h0 = sb.DiagonalBranchHamiltonian.from_couplings(c)
        for t in (1e-300, -2.5e-301, 3.7e-308):
            echo = np.array([sb.echo_amplitude(h0, -h0, amps, t)])
            factor = np.array([sb.decoherence_factor(c, amps, t)])
            assert echo.view(np.int64).tolist() == factor.view(np.int64).tolist()

    def test_zero_reference_branch_gives_survival_amplitude(self):
        rng = np.random.default_rng(2)
        n = 7
        h = random_branch(rng, n)
        _, amps = random_model(rng, n)
        still = sb.DiagonalBranchHamiltonian(np.zeros(n), np.zeros(n))
        for t in (0.4, 1.9):
            echo = sb.echo_amplitude(still, h, amps, t)
            # The echo runs the perturbed branch for t/2.
            assert abs(echo) ** 2 == pytest.approx(
                sb.survival_probability(h, amps, t / 2.0), abs=1e-12
            )

    def test_size_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(sb.DimensionMismatchError):
            sb.echo_amplitude(
                random_branch(rng, 2), random_branch(rng, 3), exact_half_amplitudes(2), 1.0
            )

    @settings(max_examples=40, deadline=None)
    @given(model=models(max_n=5), t=times)
    def test_swapping_branches_conjugates(self, model, t):
        _, amps = model
        rng = np.random.default_rng(7)
        h0 = random_branch(rng, amps.n)
        h1 = random_branch(rng, amps.n)
        forward = sb.echo_amplitude(h0, h1, amps, t)
        backward = sb.echo_amplitude(h1, h0, amps, t)
        assert backward == pytest.approx(complex(forward).conjugate(), abs=1e-12)

    def test_factorizes_over_disjoint_environments(self):
        rng = np.random.default_rng(8)
        n1, n2 = 3, 4
        _, a1 = random_model(rng, n1)
        _, a2 = random_model(rng, n2)
        h0a, h1a = random_branch(rng, n1), random_branch(rng, n1)
        h0b, h1b = random_branch(rng, n2), random_branch(rng, n2)
        joint_amps = sb.EnvironmentAmplitudes(
            np.concatenate([a1.alpha, a2.alpha]), np.concatenate([a1.beta, a2.beta])
        )
        joint_h0 = sb.DiagonalBranchHamiltonian(
            np.concatenate([h0a.up, h0b.up]), np.concatenate([h0a.down, h0b.down])
        )
        joint_h1 = sb.DiagonalBranchHamiltonian(
            np.concatenate([h1a.up, h1b.up]), np.concatenate([h1a.down, h1b.down])
        )
        t = 0.9
        product = sb.echo_amplitude(h0a, h1a, a1, t) * sb.echo_amplitude(h0b, h1b, a2, t)
        assert sb.echo_amplitude(joint_h0, joint_h1, joint_amps, t) == pytest.approx(
            product, abs=1e-12
        )


class TestSurvivalProbability:
    def test_starts_at_one(self):
        rng = np.random.default_rng(4)
        h = random_branch(rng, 5)
        _, amps = random_model(rng, 5)
        assert sb.survival_probability(h, amps, 0.0) == 1.0

    def test_single_spin_cosine_squared(self):
        g = 1.3
        h = sb.DiagonalBranchHamiltonian(up=[g], down=[-g])
        amps = exact_half_amplitudes(1)
        for t in np.linspace(-4, 4, 17):
            assert sb.survival_probability(h, amps, t) == pytest.approx(
                np.cos(g * t) ** 2, abs=1e-12
            )

    def test_matches_branch_spectrum_characteristic_function(self):
        rng = np.random.default_rng(5)
        for n in (2, 6, 10):
            h = random_branch(rng, n)
            _, amps = random_model(rng, n)
            spec = sb.branch_spectrum(h, amps)
            assert len(spec) == 2**n
            for t in (0.3, 1.7, 5.1):
                chi = sb.characteristic_function(spec, t)
                assert sb.survival_probability(h, amps, t) == pytest.approx(
                    abs(chi) ** 2, abs=1e-10
                )

    def test_branch_spectrum_shift(self):
        # Spin 0 contributes 2 on both branches, spin 1 contributes 3 or 1,
        # so the totals are {5, 3} each reached by two walks.
        h = sb.DiagonalBranchHamiltonian(up=[2.0, 3.0], down=[2.0, 1.0])
        amps = exact_half_amplitudes(2)
        spec = sb.branch_spectrum(h, amps)
        assert sorted(spec.energies.tolist()) == [3.0, 3.0, 5.0, 5.0]
        np.testing.assert_allclose(spec.weights, 0.25)
