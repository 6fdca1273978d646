"""Shared oracles and strategies for the test suite.

The oracles here deliberately avoid the library's own code paths:
walk enumeration uses itertools over explicit sign tuples, branch
overlaps go through fully expanded 2^N state vectors, and degeneracy
merging sums every group of the whole array.
"""

import itertools

import numpy as np
from hypothesis import strategies as st

import spinbath as sb


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


def brute_force_characteristic(couplings, amps, t: float) -> complex:
    """Phase sum over the itertools enumeration."""
    return sum(w * np.exp(1j * e * t) for e, w in brute_force_spectrum(couplings, amps))


def kron_branch_state(couplings, amps, t: float, branch: int) -> np.ndarray:
    """Fully expanded 2^N state vector of one evolved branch."""
    sign = 1.0 if branch == 0 else -1.0
    state = np.array([1.0 + 0.0j])
    for k in range(couplings.n):
        phase = np.exp(0.5j * sign * couplings.couplings[k] * t)
        spin = np.array([amps.alpha[k] * phase, amps.beta[k] * np.conj(phase)])
        state = np.kron(state, spin)
    return state


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
