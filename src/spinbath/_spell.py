"""The ``repr`` text of float64 and int64 arrays, spelt with numpy arithmetic.

``spell`` turns an array into a uint8 matrix with one row per value:
read left to right with its NUL (0) bytes dropped, a row is the ASCII
text of ``repr`` of the Python float or int the value converts to, the
shortest digit string that reads back as the same float.  A float row
holds its ``-`` sign, if any, in column 0, and only there.

Floats.  Each |x| = m 2^e (``np.frexp``) is scaled by 10^(16 - k), with
k = floor(log10 |x|), to V = d + f in [1e16, 1e17): an int64 d and a
fraction f, formed as a double-double by Dekker's two-product with
10^(16 - k) held as hi + lo.  The values that read back as x lie within
half an ulp of it, H in the same units; an end counts when x's binary
mantissa is even (round half to even), and the gap below a power of two
is half the gap above it, except at the smallest normal.  The digits are
those of the multiple of 10^q in that interval with the largest q, and
of those the one nearest V, ties to even; the decimal point and exponent
follow from k, laid out as ``repr`` does: positional for
-4 <= exponent < 16, else ``d.ddde+XX`` with at least two exponent
digits.

Every step is a correctly rounded IEEE operation, ``floor``, ``ceil``,
``frexp`` or int64 arithmetic, so the text does not depend on numpy's
CPU dispatch.  k is taken from the binary exponent and a table of powers
of ten.  For 0 <= 16 - k <= 22, that is 1e-6 <= |x| < 1e17, 10^(16 - k)
is a double and every quantity above is exact.  Elsewhere hi + lo carries
a relative error near 2^-106, and a value whose V lies within ``_SLACK``
units of a rounding or interval boundary takes its text from ``repr``
instead, as do subnormals, whose half-ulp interval is too wide for the
digit search, and values whose V a rounded power of ten put outside
[1e16, 1e17).
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: Units of V within which an inexact rounding or interval test is
#: settled by ``repr``; the double-double error is below 1e-14 units.
_SLACK = 1e-9

#: Veltkamp's constant 2^27 + 1, which splits a double into two halves of
#: 26 bits whose products with another such half are exact.
_SPLIT = 134217729.0

_NUL, _MINUS, _PLUS, _DOT, _ZERO, _E = 0, ord("-"), ord("+"), ord("."), ord("0"), ord("e")


@cache
def _four_digits() -> np.ndarray:
    """The ASCII digits of 0000 to 9999, four bytes per uint32."""
    return np.frombuffer("".join(f"{i:04d}" for i in range(10_000)).encode("ascii"), np.uint32)


@cache
def _prefixes() -> np.ndarray:
    """Row i masks the first i of 20 columns: 0xFF there, 0 after."""
    return np.where(np.arange(20) < np.arange(21)[:, None], 255, 0).astype(np.uint8)


@cache
def _tens() -> np.ndarray:
    """The doubles nearest 10^-325 to 10^309 (0.0 and inf at the ends)."""
    return np.array([float(f"1e{i}") for i in range(-325, 310)])


def _power_of_two(n: np.ndarray) -> np.ndarray:
    """2.0^n for ints -1022 <= n <= 1023, built from its exponent bits."""
    return ((n + 1023) * 2**52).view(np.float64)


@cache
def _pow10(j: int) -> tuple[float, float, float, float, int]:
    """10^j as (hi + lo) 2^t with hi in [1, 2), and hi's Veltkamp halves.

    hi + lo is the ratio num / den of two ints; Python's int division
    rounds correctly, so hi is the double nearest it and lo the double
    nearest the rest."""
    if j >= 0:
        num = 10**j
        t = num.bit_length() - 1
        den = 1 << t
    else:
        den = 10**-j
        t = -den.bit_length()  # 10^-j is not a power of two
        num = 1 << -t
    hi = num / den
    rest = (num << 52) - int(hi * 2**52) * den
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, rest / (den << 52), hh, hi - hh, t


def _powers(j: np.ndarray) -> list[np.ndarray]:
    """``_pow10`` of each entry of j, one array per field."""
    lo = int(j.min())
    table = np.array([_pow10(i) for i in range(lo, int(j.max()) + 1)])
    return [np.take(column, j - lo) for column in table.T]


def _scaled(m: np.ndarray, e: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """m 2^e 10^(16 - k) as ``big + small`` (big the rounded product), half
    an ulp of m 2^e in the same units, and whether all three are exact."""
    hi, lo, hh, hl, t = _powers(16 - k)
    t = t.astype(np.int64)
    # Dekker's two-product: m hi = p + err exactly.
    mh = _SPLIT * m
    mh -= mh - m
    ml = m - mh
    p = m * hi
    err = mh * hh
    err -= p
    err += mh * hl
    err += ml * hh
    err += ml * hl
    del mh, ml, hh, hl
    err += m * lo
    # Below the smallest normal the ulp stays 2^-1074.  Every product
    # below is near 1e16 or 1, so scaling by a power of two is exact.
    half = hi * _power_of_two(np.maximum(e, -1021) - 54 + t)
    scale = _power_of_two(t + e)
    return p * scale, err * scale, half, lo == 0.0


def _under(bound: np.ndarray, f: np.ndarray, even: np.ndarray) -> np.ndarray:
    """bound < f, or bound == f where the mantissa is even: a value that
    ties between two doubles reads back as the one with the even mantissa."""
    return (bound < f) | ((bound == f) & even)


def _digit_rows(v: np.ndarray) -> np.ndarray:
    """The 20 ASCII digits of each integer 0 <= v < 10^20, zero-padded."""
    table = _four_digits()
    rows = np.empty((v.size, 5), np.uint32)
    for i, power in enumerate((10**16, 10**12, 10**8, 10**4)):
        head = v // power
        rows[:, i] = table.take(head)
        v = v - head * power
    rows[:, 4] = table.take(v)
    return rows.view(np.uint8)


def _layout(neg: np.ndarray, digits: np.ndarray, kk: np.ndarray, ndig: np.ndarray) -> np.ndarray:
    """The text matrix of values with sign ``neg``, 17 significand digits
    ``digits`` (ASCII, the first nonzero unless the value is zero),
    decimal exponent ``kk`` and ``ndig`` significant digits.

    A row is laid out as sign, a ``0`` before the point of a small
    positional value, the digits before the point, the point, the zeros
    after it, the digits after them, and the exponent.  The digits
    before and after the point are both masks over ``digits``, so no row
    is shifted."""
    sci = (kk < -4) | (kk >= 16)
    small = ~sci & (kk < 0)
    before = np.where(sci, 1, np.where(small, 0, kk + 1))
    after = np.where(sci, ndig - 1, np.where(small, ndig, np.maximum(ndig - kk - 1, 1)))
    end = before + after
    masks = _prefixes()
    width, lo, hi = int(before.max()), int(before.min()), int(end.max())
    window = masks[:, lo:hi]
    parts = [neg.view(np.uint8)[:, None] * _MINUS]
    if small.any():
        parts.append(small.view(np.uint8)[:, None] * _ZERO)
    parts.append(digits[:, :width] & masks[:, :width].take(before, axis=0))
    parts.append((after > 0).view(np.uint8)[:, None] * _DOT)
    if small.any():
        parts.append(masks[:, :3].take(np.where(small, -1 - kk, 0), axis=0) & _ZERO)
    parts.append(digits[:, lo:hi] & (window.take(end, axis=0) ^ window.take(before, axis=0)))
    if sci.any():
        rows = np.flatnonzero(sci)
        mag = np.abs(kk[rows])
        hundreds = np.where(mag >= 100, _ZERO + mag // 100, _NUL)  # at least two digits
        exponent = np.zeros((kk.size, 5), np.uint8)
        exponent[rows] = np.stack(
            [np.full(rows.size, _E), np.where(kk[rows] < 0, _MINUS, _PLUS), hundreds,
             _ZERO + mag // 10 % 10, _ZERO + mag % 10],
            axis=1,
        )
        parts.append(exponent)
    return np.concatenate(parts, axis=1)


def _spell_floats(x: np.ndarray) -> np.ndarray:
    neg = np.signbit(x)
    zero = x == 0.0
    a = np.abs(x)
    a[zero] = 1.0  # zero rows are spelt from 1.0, then cleared
    m, e = np.frexp(a)
    # |x| >= 2^(e - 1), whose floor(log10) is (e - 1) 78913 // 2^18 for
    # |e| < 1650; |x| may reach the next power of ten.
    e = e.astype(np.int64)
    k = (e - 1) * 78913 // 2**18
    k += a >= _tens().take(k + 326)
    del a
    big, small, half, exact = _scaled(m, e, k)
    # Below 2^-1022 the interval spans more than 23 units, and a rounded
    # power of ten beyond 1e22 can mislead k: repr spells those.
    doubt = (e < -1021) | (big < 1e16) | (big >= 1e17)
    # The gap below a power of two is half the gap above, save at 2^-1022.
    below = half.copy()
    below[(m == 0.5) & (e > -1021)] *= 0.5
    del m, e
    whole = np.floor(small)
    d = big.astype(np.int64)
    del big
    d += whole.astype(np.int64)
    f = small
    f -= whole
    del whole
    even = (x.view(np.int64) & 1) == 0
    # The integers in the interval run from d + lo_end to d + hi_end.  Each
    # bound below is a number in [-1, 1] compared with f: in the exact
    # range both are multiples of 2^-53 or coarser, so no step rounds.
    d0 = np.ceil(-below)
    b0 = d0 + below
    e0 = np.floor(half)
    a0 = e0 - half
    a1 = (e0 + 1.0) - half
    del below, half
    lo_end = (d0 + ~_under(f, b0, even)).astype(np.int64)
    hi_end = (e0 - 1.0 + _under(a0, f, even) + _under(a1, f, even)).astype(np.int64)
    inexact = not exact.all()
    if inexact:
        near = np.minimum(np.minimum(np.abs(b0 - f), np.abs(a0 - f)), np.abs(a1 - f))
        doubt |= ~exact & (near < _SLACK)
    del d0, b0, e0, a0, a1, even
    top = d + hi_end
    count = hi_end - lo_end + 1
    bottom = d + lo_end
    del lo_end, hi_end
    # A multiple of 10^q lies in the interval iff top mod 10^q < count.
    # count <= 23, so for q >= 2 that multiple is unique: top - top mod 100
    # with the trailing zeros of top // 100 stripped.
    hundreds = top // 100
    deep = np.flatnonzero(top - 100 * hundreds < count)
    ones = top % 10 < count
    del count
    ones[deep] = False
    # Else the multiple of 10^q, q = ones, nearest V, ties to even, kept in the interval.
    step = 1 + 9 * ones.astype(np.int64)
    lower = d // step
    rem = d - step * lower
    twice = (2 * rem - step).astype(np.float64)
    f *= -2.0
    up = (twice > f) | ((twice == f) & ((lower & 1) == 1))
    near = d - rem + up * step
    near += step * ((near < bottom).astype(np.int64) - (near > top))
    if inexact:
        twice -= f
        tie = ~exact & (np.abs(twice) < _SLACK)
        tie[deep] = False
        doubt |= tie
    del step, lower, rem, twice, f, up, bottom, top, d
    q = ones.astype(np.int64)
    strip = hundreds[deep]
    near[deep] = 100 * strip
    del hundreds, ones
    # Trailing zeros of the unique multiple, by halving steps.
    zeros = np.full(strip.size, 2)
    for width in (8, 4, 2, 1):
        head = strip // 10**width
        hit = head * 10**width == strip
        strip[hit] = head[hit]
        zeros += hit * width
    q[deep] = zeros
    # near has 16, 17 or (10^17 only) 18 digits; normalize to 17.
    length = 17 + (near >= 10**17).astype(np.int64) - (near < 10**16)
    near[length < 17] *= 10
    near[length > 17] //= 10
    near[zero] = 0
    k += length
    k -= 17
    k[zero] = 0
    length -= q
    length[zero] = 1
    text = _layout(neg, _digit_rows(near)[:, 3:], k, length)
    doubt &= ~zero
    if doubt.any():
        # A sign stays in column 0; the rest of the text starts at column 1.
        text = np.pad(text, ((0, 0), (0, max(0, 24 - text.shape[1]))))
        for i in np.flatnonzero(doubt):
            row = repr(float(x[i])).encode("ascii")
            text[i] = _NUL
            text[i, 0] = _MINUS if neg[i] else _NUL
            text[i, 1 : len(row) + 1 - neg[i]] = np.frombuffer(row.removeprefix(b"-"), np.uint8)
    return text


def _spell_ints(v: np.ndarray) -> np.ndarray:
    neg = v < 0
    mag = np.where(neg, -v, v).view(np.uint64)  # -(-2^63) wraps to 2^63 as uint64
    length = np.searchsorted(10 ** np.arange(1, 20, dtype=np.uint64), mag, side="right") + 1
    width = int(length.max())
    digits = _digit_rows(mag)[:, 20 - width :] & ~_prefixes()[:, :width][width - length]
    return np.concatenate([neg.view(np.uint8)[:, None] * _MINUS, digits], axis=1)


def spell(values: np.ndarray) -> np.ndarray:
    """The text matrix of a 1-d float64 or int64 array of finite values:
    row i, with its NUL bytes dropped, is ``repr(values[i].item())``.
    Its temporaries take a few dozen times the bytes of ``values``."""
    return (_spell_ints if values.dtype == np.int64 else _spell_floats)(values)
