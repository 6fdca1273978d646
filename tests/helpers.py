"""Shared oracles, strategies and fixtures for the test suite.

The oracles here deliberately avoid the library's own code paths:
walk enumeration uses itertools over explicit sign tuples, branch
overlaps go through evolved per-spin amplitude pairs (and, for small N,
fully expanded 2^N state vectors), and degeneracy merging sums every
group of the whole array.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

import spinbath as sb
from spinbath import echo, model, spectrum


def edge_couplings(rng, n):
    """Couplings of magnitude 1e-310 to 1e3, with signed zeros mixed in."""
    g = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-310.0, 3.0, n)
    g[rng.random(n) < 0.15] = 0.0
    g[rng.random(n) < 0.15] = -0.0
    return g


#: Zero and negative times, g t that underflows to +-0 for the smallest
#: couplings, and |g t| up to 1e5.
EDGE_TIMES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-200, 1e-3, -0.7, 2.5, -99.0, 100.0]


def make_amplitudes(up_weights, up_phases=None, down_phases=None) -> sb.EnvironmentAmplitudes:
    """Normalized amplitude pairs from up-branch weights and optional phases."""
    w = np.asarray(up_weights, dtype=float)
    alpha = np.sqrt(w).astype(complex)
    beta = np.sqrt(1.0 - w).astype(complex)
    if up_phases is not None:
        alpha = alpha * np.exp(1j * np.asarray(up_phases))
    if down_phases is not None:
        beta = beta * np.exp(1j * np.asarray(down_phases))
    return sb.EnvironmentAmplitudes(alpha, beta)


def exact_half_amplitudes(n: int) -> sb.EnvironmentAmplitudes:
    """Pairs with |alpha|^2 = |beta|^2 = 0.5 exactly (0.5 +- 0.5j)."""
    return sb.EnvironmentAmplitudes(np.full(n, 0.5 + 0.5j), np.full(n, 0.5 - 0.5j))


def random_model(rng: np.random.Generator, n: int, scale: float = 2.0):
    """Seeded generic model: couplings plus complex normalized amplitudes."""
    g = scale * rng.standard_normal(n)
    w = rng.random(n)
    amps = make_amplitudes(w, 2 * np.pi * rng.random(n), 2 * np.pi * rng.random(n))
    return sb.CouplingSet(g), amps


def brute_force_spectrum(couplings: sb.CouplingSet, amps: sb.EnvironmentAmplitudes):
    """All sign assignments via itertools; list of (energy, weight) tuples."""
    g = couplings.couplings
    up, down = amps.alpha_sq, amps.beta_sq
    entries = []
    for signs in itertools.product((0, 1), repeat=couplings.n):
        energy = 0.0
        weight = 1.0
        for k, s in enumerate(signs):
            energy += -g[k] if s else g[k]
            weight *= down[k] if s else up[k]
        entries.append((energy, weight))
    return entries


def whole_array_merge(energies, weights, epsilon: float):
    """Degeneracy merge that runs the group sums over every entry,
    singletons included; returns (energies, weights)."""
    order = np.argsort(energies)
    e = energies[order]
    w = weights[order]
    starts = np.empty(e.size, dtype=bool)
    starts[0] = True
    starts[1:] = np.diff(e) > epsilon
    group = np.cumsum(starts) - 1
    w_sum = np.bincount(group, weights=w)
    base = e[starts]
    delta = e - base[group]
    safe = np.where(w_sum > 0.0, w_sum, 1.0)
    mean_delta = np.bincount(group, weights=w * delta) / safe
    if np.any(w_sum == 0.0):
        counts = np.bincount(group)
        plain = np.bincount(group, weights=delta) / counts
        mean_delta = np.where(w_sum > 0.0, mean_delta, plain)
    return base + mean_delta, w_sum


def public_rebuild(spec: sb.EnergySpectrum) -> sb.EnergySpectrum:
    """spec rebuilt through the public constructor, which runs the checks
    that producers skip (their weights are built from checked ones); the
    copies must hold the same bits."""
    rebuilt = sb.EnergySpectrum(
        energies=spec.energies, weights=spec.weights, n_spins=spec.n_spins, merged=spec.merged
    )
    assert rebuilt.energies.tobytes() == spec.energies.tobytes()
    assert rebuilt.weights.tobytes() == spec.weights.tobytes()
    return rebuilt


@pytest.fixture(scope="module")
def every_spectrum_rebuilt():
    """Runs public_rebuild on every spectrum the library adopts while a
    test module runs, save under tracemalloc, where its copies would count
    in the measured peak.  Module-scoped, so hypothesis tests may use it."""

    def adopt(cls, **fields):
        obj = model._adopt(cls, **fields)
        if cls is sb.EnergySpectrum and not tracemalloc.is_tracing():
            public_rebuild(obj)
        return obj

    with pytest.MonkeyPatch.context() as patch:
        for module in (spectrum, echo):
            patch.setattr(module, "_adopt", adopt)
        yield


def spectrum_moments(spec: sb.EnergySpectrum) -> tuple[float, float]:
    """Weighted mean and variance of the terminal energies, summed over all
    2^N walks; ``summarize`` gives both as sums of N step moments."""
    mean = float(np.sum(spec.weights * spec.energies))
    var = float(np.sum(spec.weights * np.square(spec.energies - mean)))
    return mean, var


def brute_force_characteristic(couplings, amps, t: float) -> complex:
    """Phase sum over the itertools enumeration."""
    return sum(w * np.exp(1j * e * t) for e, w in brute_force_spectrum(couplings, amps))


def evolved_pairs(couplings, amps, t: float, branch: int) -> np.ndarray:
    """(N, 2) per-spin amplitudes of one branch evolved to time t.

    Branch 0 turns the up amplitude by exp(+i g_k t / 2) and the down
    amplitude by the conjugate phase; branch 1 is branch 0 at -t.
    """
    sign = 1.0 if branch == 0 else -1.0
    phase = np.exp(0.5j * sign * couplings.couplings * t)
    return np.stack([amps.alpha * phase, amps.beta * np.conj(phase)], axis=1)


def kron_branch_state(couplings, amps, t: float, branch: int) -> np.ndarray:
    """Fully expanded 2^N state vector of one evolved branch."""
    state = np.array([1.0 + 0.0j])
    for spin in evolved_pairs(couplings, amps, t, branch):
        state = np.kron(state, spin)
    return state


def branch_overlap(couplings, amps, t: float) -> complex:
    """<E_1(t)|E_0(t)> as the product of the per-spin pair overlaps."""
    bra = evolved_pairs(couplings, amps, t, branch=1)
    ket = evolved_pairs(couplings, amps, t, branch=0)
    return complex(np.prod(np.sum(np.conj(bra) * ket, axis=1)))


def coupling_characteristic(dist: sb.CouplingDistribution, t) -> np.ndarray:
    """phi(t) = E exp(i g t) of one coupling drawn from dist."""
    t = np.asarray(t, dtype=float)
    if dist.kind == "fixed":
        return np.exp(1j * dist.params[0] * t)
    if dist.kind == "gaussian":
        mu, sigma = dist.params
        return np.exp(1j * mu * t - 0.5 * (sigma * t) ** 2)
    if dist.kind == "lorentzian":
        center, gamma = dist.params
        return np.exp(1j * center * t - gamma * np.abs(t))
    # uniform(lo, hi): (e^{i hi t} - e^{i lo t}) / (i t (hi - lo)).
    lo, hi = dist.params
    return np.exp(0.5j * (lo + hi) * t) * np.sinc(0.5 * (hi - lo) * t / np.pi)


def closed_form_ensemble_mean(
    dist: sb.CouplingDistribution, rule: sb.AmplitudeRule, n: int, t
) -> np.ndarray:
    """Exact ensemble mean E r(t) = (w phi(t) + (1 - w) phi(-t))^N.

    Couplings are i.i.d. with characteristic function phi and independent
    of the amplitudes, whose mean |alpha|^2 is w: the up weight for
    ``fixed``, 1/2 for ``equal`` and for ``random`` (uniform on [0, 1]).
    """
    w = rule.up_weight if rule.kind == "fixed" else 0.5
    phi = coupling_characteristic(dist, t)
    return (w * phi + (1.0 - w) * coupling_characteristic(dist, -t)) ** n


@st.composite
def models(draw, min_n: int = 1, max_n: int = 7, max_g: float = 5.0):
    """Random valid (CouplingSet, EnvironmentAmplitudes) pairs."""
    n = draw(st.integers(min_n, max_n))
    finite = dict(allow_nan=False, allow_infinity=False)
    g = draw(st.lists(st.floats(-max_g, max_g, **finite), min_size=n, max_size=n))
    w = draw(st.lists(st.floats(0.0, 1.0, **finite), min_size=n, max_size=n))
    if draw(st.booleans()):
        up_ph = draw(st.lists(st.floats(0.0, 2 * np.pi, **finite), min_size=n, max_size=n))
        down_ph = draw(st.lists(st.floats(0.0, 2 * np.pi, **finite), min_size=n, max_size=n))
    else:
        up_ph = down_ph = None
    return sb.CouplingSet(g), make_amplitudes(w, up_ph, down_ph)


times = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
