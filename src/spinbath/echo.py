"""Two-branch diagonal Hamiltonians, echo amplitudes, survival probability.

Supports the product family where each branch Hamiltonian is a sum of
single-spin diagonal terms, which is exactly the family for which the
overlap of the two branch evolutions factorizes spin by spin.  With the
identification up = +g_k, down = -g_k for branch 0 and its negation for
branch 1, the echo amplitude reduces to the decoherence factor.  Each
Hamiltonian halves its energies once and a call subtracts the halves.
Where both members of a pair are mirrored, down = -up as there, the kernel
takes one exponential; a pair mirrored only by value takes two, same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    CouplingSet,
    EnvironmentAmplitudes,
    _adopt,
    _branch_product,
    _checked_float,
    _finite_1d,
    _require_matching_sizes,
    _Value,
)
from .spectrum import EnergySpectrum, enumerate_walks


@dataclass(frozen=True, eq=False)
class DiagonalBranchHamiltonian(_Value):
    """Per-spin diagonal energies (up_k, down_k) of one branch.

    Any two energies combine as their halves, formed once, so no sum or
    difference overflows where the halves would not."""

    up: np.ndarray
    down: np.ndarray
    _half_up: np.ndarray = field(init=False, repr=False)
    _half_down: np.ndarray = field(init=False, repr=False)
    _mirrored: bool = field(init=False, repr=False)
    _ARRAYS = {"up": np.float64, "down": np.float64}

    def _freeze(self) -> None:
        _finite_1d(self.up, "branch energies")
        _finite_1d(self.down, "branch energies")
        _require_matching_sizes(self.up.size, self.down.size, "up vs down branch energies")
        object.__setattr__(self, "_half_up", 0.5 * self.up)
        object.__setattr__(self, "_half_down", 0.5 * self.down)
        object.__setattr__(self, "_mirrored", np.array_equal(self.down, -self.up))

    @property
    def n(self) -> int:
        return self.up.size

    @classmethod
    def from_couplings(cls, couplings: CouplingSet) -> "DiagonalBranchHamiltonian":
        """Branch-0 generator of the dephasing model: (+g_k, -g_k)."""
        g = couplings.couplings
        return cls(up=g, down=-g)

    def __neg__(self) -> "DiagonalBranchHamiltonian":
        return _adopt(DiagonalBranchHamiltonian, up=-self.up, down=-self.down)


def echo_amplitude(
    h0: DiagonalBranchHamiltonian,
    h1: DiagonalBranchHamiltonian,
    amps: EnvironmentAmplitudes,
    t,
) -> complex:
    """Overlap of the environment evolved under the two branches.

    Equals prod_k (|alpha_k|^2 e^{i (up0_k - up1_k) t / 2}
                   + |beta_k|^2 e^{i (down0_k - down1_k) t / 2}).
    The halves never form 2g for h1 = -h0, and halving a normal float is
    exact, so the phases keep the bits of (up0_k - up1_k) * (t / 2).
    """
    _require_matching_sizes(h0.n, h1.n, "branch Hamiltonians")
    _require_matching_sizes(h0.n, amps.n, "Hamiltonian vs amplitudes")
    t = _checked_float(t, "time")
    down = None if h0._mirrored and h1._mirrored else h0._half_down - h1._half_down
    return complex(_branch_product(amps.alpha_sq, amps.beta_sq, h0._half_up - h1._half_up, down, t))


def survival_probability(
    h: DiagonalBranchHamiltonian, amps: EnvironmentAmplitudes, t
) -> float:
    """Probability that the initial product state survives evolution under h."""
    _require_matching_sizes(h.n, amps.n, "Hamiltonian vs amplitudes")
    down = None if h._mirrored else h.down
    amp = _branch_product(amps.alpha_sq, amps.beta_sq, h.up, down, -_checked_float(t, "time"))
    return float(abs(amp) ** 2)


def branch_spectrum(h: DiagonalBranchHamiltonian, amps: EnvironmentAmplitudes) -> EnergySpectrum:
    """Weighted eigenenergy spectrum of a diagonal branch Hamiltonian.

    Per-spin choices (up_k with weight |alpha_k|^2, down_k with
    |beta_k|^2) map onto sign walks over the half-splittings
    (up_k - down_k) / 2 shifted by the total midpoint energy, so the walk
    enumerator does the combinatorial work.
    """
    half = _adopt(CouplingSet, couplings=h._half_up - h._half_down)
    shift = float(np.sum(h._half_up + h._half_down))
    base = enumerate_walks(half, amps)
    energies = base.energies + shift
    return _adopt(EnergySpectrum, energies=energies, weights=base.weights, n_spins=h.n)
