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

All types are immutable value objects and all operations are pure
functions, so everything here is safe to share between concurrent
callers.  Every value type extends ``_Value``: its ``_ARRAYS`` names the
array fields a public constructor copies, and its ``_freeze()`` checks
the invariants and derives the cached fields.  A producer hands over the
arrays it has just allocated through ``_adopt``, which copies nothing.
Either way ``_settle`` runs ``_freeze()`` and marks every array the
object holds read-only, so every array the library returns is read-only
and shares no memory with an array a caller passed in.
"""

from __future__ import annotations

import math
import numbers
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


def _finite_1d(a: np.ndarray, what: str) -> np.ndarray:
    """``a`` itself, once it is checked non-empty, 1-d and finite."""
    if a.ndim != 1 or a.size < 1:
        raise ValidationError(f"{what} must form a non-empty 1-d sequence")
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} must be finite")
    return a


class _Value:
    """Base of the value types: copy the ``_ARRAYS`` fields, then settle."""

    _ARRAYS: dict = {}  # array field -> the dtype a public constructor copies it to

    def __post_init__(self) -> None:
        for name, dtype in self._ARRAYS.items():
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=dtype))
        _settle(self)


def _settle(obj: _Value) -> None:
    """Check ``obj`` and derive its cached fields, then mark every array it holds read-only."""
    obj._freeze()
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)  # half the time of flags.writeable = False


def _adopt(cls, **fields):
    """A ``cls`` holding ``fields`` uncopied, the rest at their defaults, settled."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    _settle(obj)
    return obj


def _abs_sq(z: np.ndarray) -> np.ndarray:
    # re^2 + im^2 directly; abs() would round through a square root.
    return np.square(z.real) + np.square(z.imag)


def _require_matching_sizes(n_left: int, n_right: int, what: str) -> None:
    if n_left != n_right:
        raise DimensionMismatchError(f"{what}: {n_left} vs {n_right} spins")


@dataclass(frozen=True, eq=False)
class CouplingSet(_Value):
    """The N coupling strengths g_k (angular frequency units)."""

    couplings: np.ndarray
    _ARRAYS = {"couplings": np.float64}

    def _freeze(self) -> None:
        _finite_1d(self.couplings, "couplings")

    @property
    def n(self) -> int:
        return self.couplings.size


@dataclass(frozen=True, eq=False)
class EnvironmentAmplitudes(_Value):
    """Per-spin amplitude pairs (alpha_k, beta_k), each pair normalized.

    ``alpha_sq`` and ``beta_sq`` hold the branch weights |alpha_k|^2 and
    |beta_k|^2, computed once.
    """

    alpha: np.ndarray
    beta: np.ndarray
    alpha_sq: np.ndarray = field(init=False, repr=False)
    beta_sq: np.ndarray = field(init=False, repr=False)
    _ARRAYS = {"alpha": np.complex128, "beta": np.complex128}

    def _freeze(self) -> None:
        _finite_1d(self.alpha, "amplitudes")
        _finite_1d(self.beta, "amplitudes")
        _require_matching_sizes(self.alpha.size, self.beta.size, "amplitude pair arrays")
        alpha_sq, beta_sq = _abs_sq(self.alpha), _abs_sq(self.beta)
        worst = float(np.max(np.abs(alpha_sq + beta_sq - 1.0)))
        if worst > NORM_TOL:
            raise ValidationError(
                f"amplitude pair norm off by {worst:.3e} (> {NORM_TOL:.0e})"
            )
        object.__setattr__(self, "alpha_sq", alpha_sq)
        object.__setattr__(self, "beta_sq", beta_sq)

    @property
    def n(self) -> int:
        return self.alpha.size

    @classmethod
    def equal_superposition(cls, n: int) -> "EnvironmentAmplitudes":
        """All pairs (1/sqrt(2), 1/sqrt(2)); ``n`` is a count of at least 1."""
        n = _checked_int(n, "n", 1)
        a = np.full(n, 1.0 / np.sqrt(2.0), dtype=np.complex128)
        return _adopt(cls, alpha=a, beta=a.copy())

    @classmethod
    def from_up_weights(cls, weights) -> "EnvironmentAmplitudes":
        """Real pairs (sqrt(w_k), sqrt(1 - w_k)) from up-branch weights."""
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise ValidationError("up weights must lie in [0, 1]")
        alpha, beta = np.sqrt(w).astype(np.complex128), np.sqrt(1.0 - w).astype(np.complex128)
        return _adopt(cls, alpha=alpha, beta=beta)


@dataclass(frozen=True, eq=False)
class TimeGrid(_Value):
    """Uniform time grid from start to stop with a fixed number of samples."""

    start: float
    stop: float
    steps: int
    samples: np.ndarray = field(init=False, repr=False)

    def _freeze(self) -> None:
        start, stop = (_checked_float(v, "grid endpoints") for v in (self.start, self.stop))
        steps = _checked_int(self.steps, "grid steps", 1)
        if start > stop:
            raise ValidationError("grid start must not exceed stop")
        if steps > 1 and start == stop:
            raise ValidationError("zero-width grid cannot hold multiple samples")
        if not math.isfinite(stop - start):
            raise ValidationError(f"grid from {start!r} to {stop!r}: stop - start overflows")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "samples", np.linspace(start, stop, steps))

    def __len__(self) -> int:
        return self.steps


@dataclass(frozen=True, eq=False)
class DecoherenceTrace(_Value):
    """Sampled complex r(t) on a time grid, and the environment size."""

    times: np.ndarray
    values: np.ndarray
    n_spins: int
    _ARRAYS = {"times": np.float64, "values": np.complex128}

    def __post_init__(self) -> None:
        # Public only: producers adopt a grid's samples or times they checked.
        _finite_1d(np.asarray(self.times, dtype=np.float64), "trace times")
        super().__post_init__()

    def _freeze(self) -> None:
        n_spins = _checked_int(self.n_spins, "n_spins", 1)
        times, values = self.times, self.values
        if times.ndim != 1 or times.size < 1 or times.shape != values.shape:
            raise ValidationError("trace times and values must be matching 1-d arrays")
        mags = np.abs(values)
        # Written so that a NaN fails: r(t) is finite wherever g_k t is.
        if not (mags <= 1.0 + NORM_TOL).all():
            raise ValidationError(f"|r| must not exceed 1, got {float(mags.max())!r}")
        at_zero = values[times == 0.0]
        if at_zero.size and not (at_zero == 1.0 + 0.0j).all():
            raise ValidationError("r(0) must equal 1 exactly")
        object.__setattr__(self, "n_spins", n_spins)

    def __len__(self) -> int:
        return self.times.size


def _checked_int(value, what: str, least: int | None = None) -> int:
    """value as an int of at least ``least``; a bool or a value with a
    fractional part raises, where int() would take True as 1 and 2.5 as 2.

    Python and numpy integers, whole-number floats and 0-d arrays of them pass.
    """
    if type(value) is not int:
        value = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
        whole = isinstance(value, (float, np.floating)) and value.is_integer()
        if not (whole or isinstance(value, (int, np.integer)) and not isinstance(value, bool)):
            raise ValidationError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValidationError(f"{what} must be >= {least}, got {value!r}")
    return value


def _checked_float(value, what: str, least=None, above=None, most=None) -> float:
    """value as a finite float, at least ``least``, above ``above`` and at
    most ``most`` where given.  Python and numpy reals and 0-d arrays of
    them pass; a bool, a string or a sequence raises, where float() would
    take True as 1.0 and "1.5" as 1.5.  The bounds are positional: keyword-
    only ones cost each call, such as each echo sample's, 30 ns more."""
    if not isinstance(value, float):  # np.float64 is a float, and skips this
        if isinstance(value, np.ndarray) and value.ndim == 0:
            value = value[()]  # a numpy scalar, checked below
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{what} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond every float
            value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    value = float(value)
    if least is not None and value < least:
        raise ValidationError(f"{what} must be >= {least!r}, got {value!r}")
    if above is not None and value <= above:
        raise ValidationError(f"{what} must be > {above!r}, got {value!r}")
    if most is not None and value > most:
        raise ValidationError(f"{what} must be <= {most!r}, got {value!r}")
    return value


def _checked_type(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValidationError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


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
    t = _checked_float(t, "time")
    return complex(_branch_product(amps.alpha_sq, amps.beta_sq, couplings.couplings, None, t))


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
    samples = grid.samples if isinstance(grid, TimeGrid) else _finite_1d(np.array(grid, float), "times")
    g = couplings.couplings
    times = samples[:, np.newaxis]
    block = max(1, _BLOCK_BYTES // (16 * couplings.n))
    blocks = [
        _branch_product(amps.alpha_sq, amps.beta_sq, g, None, times[i : i + block])
        for i in range(0, times.shape[0], block)
    ]
    values = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return _adopt(DecoherenceTrace, times=samples, values=values, n_spins=couplings.n)
