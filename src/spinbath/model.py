"""Domain types and exact dephasing dynamics of a qubit in a spin bath.

The interaction gives each of the N environment spins a conditional
energy of +-g_k/2, so the two environment branches evolve with per-spin
phases exp(+-i g_k t / 2).  The decoherence factor is the overlap of the
branches; the half phases combine into full ones:

    r(t) = prod_k ( |alpha_k|^2 exp(+i g_k t) + |beta_k|^2 exp(-i g_k t) )

This is the single place the factor-of-2 bookkeeping is fixed: branch
evolution carries g_k t / 2, the overlap carries g_k t, and the
convention is pinned by the equal-coupling closed form r(t) = cos^N(g t)
at |alpha_k|^2 = 1/2.  Couplings are angular frequencies with hbar = 1.

All types are immutable value objects (arrays are marked read-only) and
all operations are pure functions, so everything here is safe to share
between concurrent callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ValidationError

#: Tolerance for every normalization invariant.  Inputs outside it are
#: rejected, never silently renormalized.
NORM_TOL = 1e-12

#: Byte budget of one (times x spins) complex temporary in decoherence_trace.
#: At 4 MiB, check-average's 8192 x 24 column held 9.1 MiB of temporaries
#: and grew the malloc heap to 16.7 MiB, which was not always trimmed
#: afterwards, so the process's peak RSS depended on code layout.  At
#: 256 KiB the temporaries stay in cache, the bits are unchanged, and the
#: kernel runs faster at every measured shape.
_BLOCK_BYTES = 1 << 18


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _abs_sq(z: np.ndarray) -> np.ndarray:
    # re^2 + im^2 directly; abs() would round through a square root.
    return np.square(z.real) + np.square(z.imag)


def _require_matching_sizes(n_left: int, n_right: int, what: str) -> None:
    if n_left != n_right:
        raise DimensionMismatchError(f"{what}: {n_left} vs {n_right} spins")


@dataclass(frozen=True, eq=False)
class CouplingSet:
    """The N coupling strengths g_k (angular frequency units)."""

    couplings: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.couplings, dtype=np.float64, copy=True)
        if g.ndim != 1 or g.size < 1:
            raise ValidationError("couplings must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(g)):
            raise ValidationError("couplings must be finite")
        object.__setattr__(self, "couplings", _readonly(g))

    @property
    def n(self) -> int:
        return self.couplings.size


@dataclass(frozen=True, eq=False)
class EnvironmentAmplitudes:
    """Per-spin amplitude pairs (alpha_k, beta_k), each pair normalized.

    ``alpha_sq`` and ``beta_sq`` hold the branch weights |alpha_k|^2 and
    |beta_k|^2, computed once.
    """

    alpha: np.ndarray
    beta: np.ndarray
    alpha_sq: np.ndarray = field(init=False, repr=False)
    beta_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        alpha = np.array(self.alpha, dtype=np.complex128, copy=True)
        beta = np.array(self.beta, dtype=np.complex128, copy=True)
        if alpha.ndim != 1 or alpha.size < 1:
            raise ValidationError("amplitudes must form a non-empty 1-d sequence")
        _require_matching_sizes(alpha.size, beta.size, "amplitude pair arrays")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise ValidationError("amplitudes must be finite")
        alpha_sq, beta_sq = _abs_sq(alpha), _abs_sq(beta)
        worst = float(np.max(np.abs(alpha_sq + beta_sq - 1.0)))
        if worst > NORM_TOL:
            raise ValidationError(
                f"amplitude pair norm off by {worst:.3e} (> {NORM_TOL:.0e})"
            )
        object.__setattr__(self, "alpha", _readonly(alpha))
        object.__setattr__(self, "beta", _readonly(beta))
        object.__setattr__(self, "alpha_sq", _readonly(alpha_sq))
        object.__setattr__(self, "beta_sq", _readonly(beta_sq))

    @property
    def n(self) -> int:
        return self.alpha.size

    @classmethod
    def equal_superposition(cls, n: int) -> "EnvironmentAmplitudes":
        """All pairs (1/sqrt(2), 1/sqrt(2))."""
        a = np.full(n, 1.0 / np.sqrt(2.0), dtype=np.complex128)
        return cls(a, a.copy())

    @classmethod
    def from_up_weights(cls, weights) -> "EnvironmentAmplitudes":
        """Real pairs (sqrt(w_k), sqrt(1 - w_k)) from up-branch weights."""
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise ValidationError("up weights must lie in [0, 1]")
        return cls(np.sqrt(w).astype(np.complex128), np.sqrt(1.0 - w).astype(np.complex128))


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform time grid from start to stop with a fixed number of samples."""

    start: float
    stop: float
    steps: int
    samples: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        start, stop = float(self.start), float(self.stop)
        steps = _checked_int(self.steps, "grid steps")
        if not (np.isfinite(start) and np.isfinite(stop)):
            raise ValidationError("grid endpoints must be finite")
        if steps < 1:
            raise ValidationError("grid needs at least one step")
        if start > stop:
            raise ValidationError("grid start must not exceed stop")
        if steps > 1 and start == stop:
            raise ValidationError("zero-width grid cannot hold multiple samples")
        if not math.isfinite(stop - start):
            raise ValidationError(f"grid from {start!r} to {stop!r}: stop - start overflows")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "samples", _readonly(np.linspace(start, stop, steps)))

    def __len__(self) -> int:
        return self.steps


@dataclass(frozen=True, eq=False)
class DecoherenceTrace:
    """Sampled complex r(t) on a time grid, and the environment size."""

    times: np.ndarray
    values: np.ndarray
    n_spins: int

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=np.float64, copy=True)
        if not np.all(np.isfinite(times)):
            raise ValidationError("trace times must be finite")
        self._freeze(times, np.array(self.values, dtype=np.complex128, copy=True))

    @classmethod
    def _adopt(cls, times: np.ndarray, values: np.ndarray, n_spins: int) -> DecoherenceTrace:
        """Validate and freeze float64 times and complex128 values without
        the public constructor's copies.  The caller hands over ``values``,
        which it has just allocated, and ``times``, which is fresh or
        already read-only."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "n_spins", n_spins)
        trace._freeze(times, values)
        return trace

    def _freeze(self, times: np.ndarray, values: np.ndarray) -> None:
        n_spins = _checked_n_spins(self.n_spins)
        if times.ndim != 1 or times.size < 1 or times.shape != values.shape:
            raise ValidationError("trace times and values must be matching 1-d arrays")
        mags = np.abs(values)
        # Written so that a NaN fails: r(t) is finite wherever g_k t is.
        if not np.all(mags <= 1.0 + NORM_TOL):
            raise ValidationError(f"|r| must not exceed 1, got {float(mags.max())!r}")
        at_zero = values[times == 0.0]
        if at_zero.size and not np.all(at_zero == 1.0 + 0.0j):
            raise ValidationError("r(0) must equal 1 exactly")
        object.__setattr__(self, "n_spins", n_spins)
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "values", _readonly(values))

    def __len__(self) -> int:
        return self.times.size


def _checked_int(value, what: str) -> int:
    """value as an int; a bool or a value with a fractional part raises,
    where int() would take True as 1 and 2.5 as 2.

    Python and numpy integers pass, and so do floats holding a whole number.
    """
    if type(value) is int:
        return value
    whole = isinstance(value, (float, np.floating)) and value.is_integer()
    if whole or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _checked_n_spins(n) -> int:
    """n as an int; anything but a Python or numpy integer >= 1 raises."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"n_spins must be an int >= 1, got {n!r}")
    return int(n)


def _checked_time(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValidationError("time must be finite")
    return t


def _branch_product(up_w, down_w, up_rate, down_rate, t):
    """prod_k (up_w_k e^{i up_rate_k t} + down_w_k e^{i down_rate_k t}).

    ``t`` is a float, giving one value, or a column of times of shape
    (m, 1), giving m values.  At t = 0 every factor is the pair norm
    up_w_k + down_w_k, which is 1 only up to rounding, so exactly 1 is
    returned there.  Every factor has modulus at most up_w_k + down_w_k = 1,
    so no partial product is smaller than the result: the plain product
    cannot underflow before the result itself does.

    ``down_rate=None`` stands for the mirrored rates -up_rate: one complex
    exponential per spin and time instead of two.  e^{-i g t} is taken as
    the conjugate of e^{i g t}, which has the bits of the second
    exponential (cos is even and sin odd, bit for bit) save the sign of a
    zero imaginary part where g t is +-0; multiplying by the real weight
    makes that zero +0 either way.
    """
    if isinstance(t, float) and t == 0.0:
        return 1.0 + 0.0j
    up = np.exp(1j * (up_rate * t))
    if down_rate is None:
        down = np.conj(up)
    else:
        down = np.exp(1j * (down_rate * t))
    factors = up_w * up + down_w * down
    r = np.multiply.reduce(factors, axis=-1)  # np.prod without its Python wrapper
    if isinstance(t, np.ndarray):
        r[t[:, 0] == 0.0] = 1.0
    return r


def decoherence_factor(couplings: CouplingSet, amps: EnvironmentAmplitudes, t) -> complex:
    """Exact decoherence factor r(t) as a product over environment spins.

    The spin-up branch turns with +g_k and the spin-down branch with -g_k;
    r(0) is exactly 1.
    """
    _require_matching_sizes(couplings.n, amps.n, "couplings vs amplitudes")
    g = couplings.couplings
    return complex(_branch_product(amps.alpha_sq, amps.beta_sq, g, None, _checked_time(t)))


def decoherence_trace(
    couplings: CouplingSet,
    amps: EnvironmentAmplitudes,
    grid: TimeGrid | np.ndarray,
) -> DecoherenceTrace:
    """Evaluate r(t) on a grid, bit-identical to decoherence_factor at each t.

    ``grid`` is a ``TimeGrid`` or a non-empty 1-d array of finite times.
    Times go through the kernel in blocks whose (times x spins) temporaries
    stay within ``_BLOCK_BYTES`` each.
    """
    _require_matching_sizes(couplings.n, amps.n, "couplings vs amplitudes")
    if isinstance(grid, TimeGrid):
        samples = grid.samples
    else:
        samples = np.array(grid, dtype=np.float64, copy=True)
        if samples.ndim != 1 or samples.size < 1 or not np.all(np.isfinite(samples)):
            raise ValidationError("times must be a non-empty 1-d array of finite values")
    g = couplings.couplings
    times = samples[:, np.newaxis]
    block = max(1, _BLOCK_BYTES // (16 * couplings.n))
    values = np.concatenate(
        [
            _branch_product(amps.alpha_sq, amps.beta_sq, g, None, times[i : i + block])
            for i in range(0, times.shape[0], block)
        ]
    )
    return DecoherenceTrace._adopt(samples, values, couplings.n)
