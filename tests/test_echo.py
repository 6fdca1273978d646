"""Tests for two-branch echo amplitudes and survival probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings

import spinbath as sb
from spinbath.model import _branch_product
from helpers import EDGE_TIMES, edge_couplings, exact_half_amplitudes, models, random_model, times


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


def two_exponential_echo(h0, h1, amps, t):
    """echo_amplitude with both exponentials taken, from freshly halved rates."""
    up, down = 0.5 * h0.up - 0.5 * h1.up, 0.5 * h0.down - 0.5 * h1.down
    return np.complex128(_branch_product(amps.alpha_sq, amps.beta_sq, up, down, t))


def two_exponential_survival(h, amps, t):
    """survival_probability with both exponentials taken."""
    return abs(complex(_branch_product(amps.alpha_sq, amps.beta_sq, h.up, h.down, -t))) ** 2


def same_bits(got, want) -> bool:
    if np.isnan(want):
        return bool(np.isnan(got))
    return got.tobytes() == want.tobytes()


def edge_weight_sets(rng, n):
    """Random up weights and the zero-weight rules fixed(1.0) and fixed(0.0)."""
    return [
        sb.EnvironmentAmplitudes.from_up_weights(w)
        for w in (rng.random(n), np.ones(n), np.zeros(n))
    ]


class TestMirroredPairs:
    """Branch pairs whose down rates are minus their up rates take one
    exponential per spin, with the bits of two."""

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_bits_equal_two_exponentials(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            g = edge_couplings(rng, n)
            g[rng.random(n) < 0.1] = rng.choice([1e308, -1e308, 3e307])
            h0 = sb.DiagonalBranchHamiltonian.from_couplings(sb.CouplingSet(g))
            h1 = -h0
            assert h0._mirrored and h1._mirrored
            for amps in edge_weight_sets(rng, n):
                # Huge couplings overflow g t to inf at late times, where
                # both values are NaN; the sign of a NaN carries nothing.
                with np.errstate(over="ignore", invalid="ignore"):
                    for t in EDGE_TIMES:
                        got = np.complex128(sb.echo_amplitude(h0, h1, amps, t))
                        assert same_bits(got, two_exponential_echo(h0, h1, amps, t))
                        got = np.float64(sb.survival_probability(h1, amps, t))
                        assert same_bits(got, np.float64(two_exponential_survival(h1, amps, t)))

    def test_general_pair_keeps_two_exponentials(self):
        rng = np.random.default_rng(11)
        n = 9
        still = sb.DiagonalBranchHamiltonian(np.zeros(n), np.zeros(n))
        h = random_branch(rng, n)
        assert still._mirrored and not h._mirrored
        for amps in edge_weight_sets(rng, n):
            for t in EDGE_TIMES:
                got = np.complex128(sb.echo_amplitude(still, h, amps, t))
                assert got.tobytes() == two_exponential_echo(still, h, amps, t).tobytes()
                assert sb.survival_probability(h, amps, t) == two_exponential_survival(h, amps, t)

    def test_pair_mirrored_only_by_value_keeps_the_bits_of_one_exponential(self):
        # Members (g, c - g) and (-g, c + g) are not mirrored, but with small
        # dyadic energies their halved differences are exactly g and -g.
        rng = np.random.default_rng(13)
        n = 8
        g = rng.choice([-1.0, 1.0], n) * rng.integers(1, 64, n) * 0.125
        c = rng.integers(1, 64, n).astype(float)
        h0, h1 = sb.DiagonalBranchHamiltonian(g, c - g), sb.DiagonalBranchHamiltonian(-g, c + g)
        assert not h0._mirrored and not h1._mirrored
        mirrored = sb.DiagonalBranchHamiltonian.from_couplings(sb.CouplingSet(g))
        for amps in edge_weight_sets(rng, n):
            for t in EDGE_TIMES:
                got = np.complex128(sb.echo_amplitude(h0, h1, amps, t))
                want = np.complex128(sb.echo_amplitude(mirrored, -mirrored, amps, t))
                assert got.tobytes() == want.tobytes()

    def test_alternating_pairs_each_get_their_own_rates(self):
        rng = np.random.default_rng(12)
        n = 6
        h0 = sb.DiagonalBranchHamiltonian.from_couplings(sb.CouplingSet(rng.normal(size=n)))
        h1, h2 = -h0, random_branch(rng, n)
        _, amps = random_model(rng, n)
        for t in (0.3, -1.7, 4.0):
            for h in (h1, h2, h1, h2):
                got = np.complex128(sb.echo_amplitude(h0, h, amps, t))
                assert got.tobytes() == two_exponential_echo(h0, h, amps, t).tobytes()
                assert sb.survival_probability(h, amps, t) == two_exponential_survival(h, amps, t)
        # An equal pair held in new objects gives the same value.
        twin = sb.DiagonalBranchHamiltonian(h1.up, h1.down)
        assert sb.echo_amplitude(h0, twin, amps, 0.3) == sb.echo_amplitude(h0, h1, amps, 0.3)


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
