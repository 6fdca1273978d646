"""Deterministic random streams for reproducible experiments.

Everything random in this package is drawn from the Philox4x64
counter-based bit generator.  A stream is addressed by a 128-bit key
holding the user seed in the low 64 bits and a stream index in the high
64 bits, so each (seed, stream) pair is an independent sequence.
Uniform doubles take the top 53 bits of each 64-bit word (values in
[0, 1)); normal deviates come from the Box-Muller transform and Cauchy
deviates from the inverse CDF.  The Philox words and the uniforms are
the same on every platform.  The normal and Cauchy deviates are not:
``np.log`` and ``np.tan`` take numpy's CPU-dispatched (for example
AVX-512) code paths, whose last bits differ from the baseline build, so
``gaussian`` and ``lorentzian`` couplings and ``random`` amplitudes
depend on the CPU numpy runs on.

Samplers draw from ``rekeyed_generator``: one generator per thread whose
Philox state is reset to the start of each requested stream.  Its words
equal those of numpy's ``Philox(key=seed | stream << 64)``, without the
cost of building (and seeding) a new bit generator per stream.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_MASK64 = (1 << 64) - 1

_local = threading.local()


def _stream_state(seed: int, stream: int) -> dict:
    """Philox state at the start of the (seed, stream) stream.

    Key layout: low 64 bits = seed, high 64 bits = stream index, each
    masked to 64 bits.  The counter is zero and the word buffers are empty.
    """
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    zeros = np.zeros(4, dtype=np.uint64)  # the setter copies it into both fields
    return {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def rekeyed_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """This thread's generator, reset to the start of the (seed, stream) stream.

    It draws the same words as a new ``Philox`` keyed by the pair.  The
    next call in the same thread resets it again, so finish drawing first.
    """
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = _stream_state(seed, stream)
    return gen


def standard_normal(gen: np.random.Generator, size: int) -> np.ndarray:
    """Box-Muller standard normals; consumes ceil(size / 2) uniform pairs."""
    half = (size + 1) // 2
    # 1 - u maps [0, 1) onto (0, 1] so the log never sees zero.
    radius = np.sqrt(-2.0 * np.log(1.0 - gen.random(half)))
    angle = 2.0 * math.pi * gen.random(half)
    out = np.empty(2 * half)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:size]


def cauchy(gen: np.random.Generator, size: int, center: float = 0.0, width: float = 1.0) -> np.ndarray:
    """Inverse-CDF Cauchy draws: center + width * tan(pi (u - 1/2))."""
    u = gen.random(size)
    return center + width * np.tan(np.pi * (u - 0.5))
