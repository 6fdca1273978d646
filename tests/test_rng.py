"""Tests for the deterministic stream layer."""

import threading

import numpy as np
import pytest

import spinbath as sb
from spinbath.rng import _stream_state, cauchy, rekeyed_generator, standard_normal

_MASK64 = (1 << 64) - 1

_SEEDS = [0, 42, -1, -(1 << 70) - 5, 1 << 64, (1 << 64) + 3, (1 << 100) + 7]
_STREAMS = [0, 1, 7, 2 * 499 + 1, 1 << 62, _MASK64]


def _philox(seed, stream):
    """numpy's own generator for the pair: seed and stream masked to 64 bits
    each, the seed in the key's low word and the stream in its high word."""
    return np.random.Generator(np.random.Philox(key=(seed & _MASK64) | ((stream & _MASK64) << 64)))


def _words(gen):
    """A uint32 draw, raw 64-bit words and uniforms, in that order."""
    return (
        gen.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist(),
        gen.bit_generator.random_raw(5).tolist(),
        gen.random(4).tolist(),
    )


def test_streams_are_reproducible():
    a = rekeyed_generator(42, 3).random(16)
    b = rekeyed_generator(42, 3).random(16)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = rekeyed_generator(42, 0).random(16)
    b = rekeyed_generator(42, 1).random(16)
    c = rekeyed_generator(43, 0).random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniforms_in_half_open_interval():
    u = rekeyed_generator(7, 0).random(100_000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_box_muller_moments():
    z = standard_normal(rekeyed_generator(1, 0), 10_000)
    assert z.size == 10_000
    assert abs(z.mean()) < 4.0 / np.sqrt(10_000)
    assert abs(z.var() - 1.0) < 0.1


def test_box_muller_odd_count():
    z = standard_normal(rekeyed_generator(1, 0), 7)
    assert z.size == 7


def test_cauchy_median_and_heavy_tail():
    gamma = 0.5
    draws = cauchy(rekeyed_generator(2024, 1), 10**5, center=0.0, width=gamma)
    assert abs(np.median(draws)) < 4.0 * gamma / np.sqrt(10**5)
    # No second moment: the sample variance keeps growing with more draws.
    small = cauchy(rekeyed_generator(2024, 0), 10**3)
    assert draws.var() / gamma**2 > 10.0 * small.var()


def test_cauchy_center_shift():
    shifted = cauchy(rekeyed_generator(3, 0), 10**4, center=5.0, width=1.0)
    assert abs(np.median(shifted) - 5.0) < 4.0 / np.sqrt(10**4)


@pytest.mark.parametrize("seed", _SEEDS)
def test_stream_generator_keys_masked_seed_and_stream(seed):
    for stream in _STREAMS:
        state = _stream_state(seed, stream)
        assert state["state"]["key"].tolist() == [seed & _MASK64, stream & _MASK64]
        bitgen = np.random.Philox(0)
        bitgen.state = state
        assert _words(np.random.Generator(bitgen)) == _words(_philox(seed, stream))


@pytest.mark.parametrize("seed", _SEEDS)
def test_rekeyed_generator_draws_the_words_of_a_fresh_one(seed):
    for stream in _STREAMS:
        # Each _words call leaves a uint32 half-word buffered (has_uint32
        # set) on the stream before; the reset must drop it.
        assert _words(rekeyed_generator(seed, stream)) == _words(_philox(seed, stream))
    assert rekeyed_generator(seed, 0) is rekeyed_generator(seed, 1)


def test_rekeyed_generators_are_per_thread():
    dist = sb.CouplingDistribution.lorentzian(0.0, 0.25)
    rule = sb.AmplitudeRule.random()
    expected = {
        seed: [
            (
                _philox(seed, s).random(6).tolist(),
                sb.sample_couplings(dist, 9, seed, stream=2 * s).couplings.tolist(),
                sb.sample_amplitudes(rule, 9, seed, stream=2 * s + 1).alpha.tolist(),
            )
            for s in range(300)
        ]
        for seed in (3, 4)
    }
    got = {}
    gens = {}
    start = threading.Barrier(2)

    def work(seed):
        start.wait()
        gens[seed] = rekeyed_generator(seed, 0)
        got[seed] = [
            (
                rekeyed_generator(seed, s).random(6).tolist(),
                sb.sample_couplings(dist, 9, seed, stream=2 * s).couplings.tolist(),
                sb.sample_amplitudes(rule, 9, seed, stream=2 * s + 1).alpha.tolist(),
            )
            for s in range(300)
        ]

    threads = [threading.Thread(target=work, args=(seed,)) for seed in expected]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == expected
    assert gens[3] is not gens[4]
