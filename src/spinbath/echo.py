"""Two-branch diagonal Hamiltonians, echo amplitudes, survival probability.

Supports the product family where each branch Hamiltonian is a sum of
single-spin diagonal terms, which is exactly the family for which the
overlap of the two branch evolutions factorizes spin by spin.  With the
identification up = +g_k, down = -g_k for branch 0 and its negation for
branch 1, the echo amplitude reduces to the decoherence factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import (
    CouplingSet,
    EnvironmentAmplitudes,
    _branch_product,
    _checked_time,
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
        up = np.array(self.up, dtype=np.float64, copy=True)
        down = np.array(self.down, dtype=np.float64, copy=True)
        if up.ndim != 1 or up.size < 1:
            raise ValidationError("branch energies must form a non-empty 1-d sequence")
        _require_matching_sizes(up.size, down.size, "up vs down branch energies")
        if not (np.all(np.isfinite(up)) and np.all(np.isfinite(down))):
            raise ValidationError("branch energies must be finite")
        object.__setattr__(self, "up", _readonly(up))
        object.__setattr__(self, "down", _readonly(down))

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


def echo_amplitude(
    h0: DiagonalBranchHamiltonian,
    h1: DiagonalBranchHamiltonian,
    amps: EnvironmentAmplitudes,
    t,
) -> complex:
    """Overlap of the environment evolved under the two branches.

    Equals prod_k (|alpha_k|^2 e^{i (up0_k - up1_k) t / 2}
                   + |beta_k|^2 e^{i (down0_k - down1_k) t / 2}).
    """
    _require_matching_sizes(h0.n, h1.n, "branch Hamiltonians")
    _require_matching_sizes(h0.n, amps.n, "Hamiltonian vs amplitudes")
    return complex(
        _branch_product(
            amps.alpha_sq, amps.beta_sq, h0.up - h1.up, h0.down - h1.down, 0.5 * _checked_time(t)
        )
    )


def survival_probability(
    h: DiagonalBranchHamiltonian, amps: EnvironmentAmplitudes, t
) -> float:
    """Probability that the initial product state survives evolution under h."""
    _require_matching_sizes(h.n, amps.n, "Hamiltonian vs amplitudes")
    amp = _branch_product(amps.alpha_sq, amps.beta_sq, h.up, h.down, -_checked_time(t))
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
    return EnergySpectrum._adopt(base.energies + shift, base.weights, base.n_spins, merged=False)
