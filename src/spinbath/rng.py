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
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def stream_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given (seed, stream) pair.

    Key layout: low 64 bits = seed, high 64 bits = stream index.
    """
    key = (int(seed) & _MASK64) | ((int(stream) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


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
