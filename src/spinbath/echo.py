"""Two-branch diagonal Hamiltonians, echo amplitudes, survival probability.

Supports the product family where each branch Hamiltonian is a sum of
single-spin diagonal terms, which is exactly the family for which the
overlap of the two branch evolutions factorizes spin by spin.  With the
identification up = +g_k, down = -g_k for branch 0 and its negation for
branch 1, the echo amplitude reduces to the decoherence factor.  Rates
are formed once per Hamiltonian and per branch pair; where the down rates
are minus the up rates, as there, the kernel takes one exponential, not two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import (
    CouplingSet,
    EnvironmentAmplitudes,
    _adopt,
    _branch_product,
    _checked_float,
    _intake,
    _readonly,
    _require_matching_sizes,
)
from .spectrum import EnergySpectrum, enumerate_walks


@dataclass(frozen=True, eq=False)
class DiagonalBranchHamiltonian:
    """Per-spin diagonal energies (up_k, down_k) of one branch."""

    up: np.ndarray
    down: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "up", _intake(self.up, np.float64, "branch energies"))
        object.__setattr__(self, "down", _intake(self.down, np.float64, "branch energies"))
        _require_matching_sizes(self.up.size, self.down.size, "up vs down branch energies")

    @property
    def n(self) -> int:
        return self.up.size

    @classmethod
    def from_couplings(cls, couplings: CouplingSet) -> "DiagonalBranchHamiltonian":
        """Branch-0 generator of the dephasing model: (+g_k, -g_k)."""
        g = couplings.couplings
        return cls(up=g, down=-g)

    def __neg__(self) -> "DiagonalBranchHamiltonian":
        return DiagonalBranchHamiltonian(up=-self.up, down=-self.down)

    @cached_property
    def _rates(self) -> tuple[np.ndarray, np.ndarray | None]:
        """survival_probability's kernel rates, formed once."""
        return _mirrored(self.up, self.down)


def _mirrored(up: np.ndarray, down: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(up, down), down None where it is -up by value: the one-exponential path."""
    return up, None if np.array_equal(down, -up) else down


@lru_cache(maxsize=1)  # keyed by the objects, which hash by identity and so never go stale
def _pair_rates(h0: DiagonalBranchHamiltonian, h1: DiagonalBranchHamiltonian):
    """echo_amplitude's kernel rates for the last pair, which the runner asks at every time."""
    return _mirrored(_readonly(0.5 * h0.up - 0.5 * h1.up), _readonly(0.5 * h0.down - 0.5 * h1.down))


def echo_amplitude(
    h0: DiagonalBranchHamiltonian,
    h1: DiagonalBranchHamiltonian,
    amps: EnvironmentAmplitudes,
    t,
) -> complex:
    """Overlap of the environment evolved under the two branches.

    Equals prod_k (|alpha_k|^2 e^{i (up0_k - up1_k) t / 2}
                   + |beta_k|^2 e^{i (down0_k - down1_k) t / 2}).
    Each rate is halved before the difference, so h1 = -h0 never forms
    2g, which overflows for |g| above half the float limit.  Halving a
    normal float is exact, so the phases keep the bits of
    (up0_k - up1_k) * (t / 2).  For h1 = -h0 one exponential gives the
    bits of two.
    """
    _require_matching_sizes(h0.n, h1.n, "branch Hamiltonians")
    _require_matching_sizes(h0.n, amps.n, "Hamiltonian vs amplitudes")
    t = _checked_float(t, "time")
    return complex(_branch_product(amps.alpha_sq, amps.beta_sq, *_pair_rates(h0, h1), t))


def survival_probability(
    h: DiagonalBranchHamiltonian, amps: EnvironmentAmplitudes, t
) -> float:
    """Probability that the initial product state survives evolution under h."""
    _require_matching_sizes(h.n, amps.n, "Hamiltonian vs amplitudes")
    amp = _branch_product(amps.alpha_sq, amps.beta_sq, *h._rates, -_checked_float(t, "time"))
    return float(abs(amp) ** 2)


def branch_spectrum(h: DiagonalBranchHamiltonian, amps: EnvironmentAmplitudes) -> EnergySpectrum:
    """Weighted eigenenergy spectrum of a diagonal branch Hamiltonian.

    Per-spin choices (up_k with weight |alpha_k|^2, down_k with
    |beta_k|^2) map onto sign walks over the half-splittings
    (up_k - down_k) / 2 shifted by the total midpoint energy, so the walk
    enumerator does the combinatorial work.
    """
    half = CouplingSet(0.5 * (h.up - h.down))
    shift = float(np.sum(0.5 * (h.up + h.down)))
    base = enumerate_walks(half, amps)
    energies = base.energies + shift
    return _adopt(EnergySpectrum, energies=energies, weights=base.weights, n_spins=h.n)
