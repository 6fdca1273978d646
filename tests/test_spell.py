"""The table writer's speller gives the text of ``repr``, value for value."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinbath import _spell
from spinbath._spell import spell

_MAX = 1.7976931348623157e308


def _text(values):
    """The rows of ``spell(values)`` joined by newlines, as the writer drops NULs."""
    text = spell(values)
    rows = np.concatenate([text, np.full((len(values), 1), ord("\n"), np.uint8)], axis=1)
    return rows[rows != 0].tobytes().decode("ascii")


def _mismatches(values):
    """The values whose spelt text is not their repr, the first few."""
    if _text(values) == "".join(repr(v) + "\n" for v in values.tolist()):
        return []
    return [v for v in values.tolist() if _text(np.array([v], values.dtype)) != repr(v) + "\n"][:5]


def _sweep_values():
    """Blocks of floats: random bit patterns over all binades, decimal ties
    at the 17th digit, and the neighbours of every power of two."""
    rng = np.random.default_rng(20031207)
    for _ in range(16):  # 2^20 patterns, 2^16 at a time
        bits = rng.integers(0, 2**64, 1 << 16, dtype=np.uint64).view(np.float64)
        yield bits[np.isfinite(bits)]
    # x = m + r / 8 for m near 1e14 and odd r: 100 x ends in .5 at the 17th
    # digit, a tie that goes to the even digit (so do 2^50 + r / 4).
    m = rng.integers(10**14, 2**47, 1 << 14).astype(np.float64)
    yield np.concatenate([m + rng.choice([0.125, 0.375, 0.625, 0.875], m.size),
                          2.0**50 + m % 2**49 + rng.choice([0.25, 0.75], m.size),
                          [1787677301657313.75, 2.0**53 + 2]])
    powers = 2.0 ** np.arange(-1074, 1024)
    near = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)])
    yield np.concatenate([near, -near])


def sweep():
    """Spell every sweep block; raise on the first block with a mismatch."""
    for values in _sweep_values():
        bad = _mismatches(values)
        if bad:
            raise AssertionError(f"spelt text differs from repr for {bad}")


def _counted_repr(monkeypatch):
    """The values the speller hands to ``repr``, as a list that grows
    with each call: the module-level name shadows the builtin."""
    calls = []

    def counted(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(_spell, "repr", counted, raising=False)
    return calls


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(_MAX)
@example(-_MAX)
@example(1e16)
@example(1e-4)
@example(1e-5)
@example(2.0**53 + 2)
@example(1e22)
@example(1e23)
@example(1787677301657313.75)
def test_float_text_is_repr(x):
    assert _text(np.array([x])) == repr(x) + "\n"


def test_sweep_text_is_repr(monkeypatch):
    # The repr fallback stays rare: 1,680 of the sweep's 1,093,393 values.
    calls = _counted_repr(monkeypatch)
    sweep()
    assert len(calls) <= 1680


@pytest.mark.parametrize("x", [1e23, -1e23])
def test_misjudged_power_of_ten_takes_one_repr_call(x, monkeypatch):
    # The table's 1e23 is the double below 10^23, which x equals, so the
    # first guess at k is one too high and V falls below 1e16.
    calls = _counted_repr(monkeypatch)
    assert _text(np.array([x])) == repr(x) + "\n"
    assert calls == [x]


def test_mixed_rows_are_laid_out_alone():
    # One matrix holds positional, small and scientific rows, signs,
    # zeros and repr-spelt rows; each row must read as its own repr.
    rng = np.random.default_rng(7)
    values = rng.standard_normal(4096) * 10.0 ** rng.integers(-30, 30, 4096)
    values[:8] = [0.0, -0.0, 5e-324, 1e16, 9999999999999998.0, 1e-5, 0.0001, -123456.0]
    assert _mismatches(values) == []


def test_int_text_is_repr():
    rng = np.random.default_rng(11)
    values = rng.integers(-(2**63), 2**63, 1 << 16, dtype=np.int64, endpoint=False)
    values >>= rng.integers(0, 64, values.size)  # every digit count
    extremes = np.array([-(2**63), 2**63 - 1, 0, -1, 9, 10, -10, 99, 100], np.int64)
    assert _mismatches(np.concatenate([values, extremes])) == []


@pytest.mark.parametrize(
    "disabled", ["AVX512_SPR AVX512_ICL X86_V4", "AVX512_SPR AVX512_ICL X86_V4 X86_V3"]
)
def test_sweep_does_not_depend_on_cpu_dispatch(disabled):
    # The speller uses only correctly rounded operations, so numpy's
    # AVX-512 and AVX2 code paths must give the text of the baseline.
    # A disabled feature the CPU lacks changes nothing.
    here = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    code = "import test_spell; test_spell.sweep()"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
