"""A fixed reference kernel that tells how fast the machine runs right now.

The benchmark shares a few cores of a host with other tenants, and their
load changes the speed of the same code by up to 2x over seconds to
minutes.  ``slowdown()`` times three short kernels that use none of the
program's code, each like one kind of work the workloads do:

- ``format``: ``repr`` of 131,072 floats joined into one string, like the
  CSV and JSON writers;
- ``exp``: 40 complex exponentials and products over 65,536 values, like
  the r(t) kernels;
- ``sort``: a stable argsort of 524,288 float64 values (4 MiB), like the
  merge of degenerate walks.

Each time is divided by its ``NOMINAL_S`` time, and the mean of the three
ratios is the slowdown: 1.0 on the machine state the nominal times were
taken on, 1.3 when everything runs 30% slower.  The harness runs the
reference between iterations, each time for a fixed share of the last
iteration's time, and divides each iteration's time by the mean slowdown
before and after it.
"""

from __future__ import annotations

import time

import numpy as np

_X = np.random.default_rng(0).standard_normal(1 << 19)
_Z = 1j * _X[: 1 << 16]
_FLOATS = _X[: 1 << 17].tolist()

#: Seconds each kernel took, fastest of 60 calls on a shared 2-vCPU x86_64
#: VM (Intel Xeon, Python 3.11, numpy 2.4).  They only set the scale: a
#: scaled time is in seconds of that machine at its fastest.
NOMINAL_S = {"format": 0.094, "exp": 0.085, "sort": 0.076}


def _format() -> None:
    ",".join(map(repr, _FLOATS))


def _exp() -> None:
    for _ in range(40):
        np.exp(_Z).prod()


def _sort() -> None:
    np.argsort(_X, kind="stable")


_KERNELS = {"format": _format, "exp": _exp, "sort": _sort}


def slowdown(seconds: float) -> float:
    """Mean over kernel calls of measured time / nominal time.

    The three kernels run in turn, round after round, until ``seconds``
    have passed; at least one round runs.
    """
    deadline = time.perf_counter() + seconds
    total, calls = 0.0, 0
    while calls == 0 or time.perf_counter() < deadline:
        for name, kernel in _KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            total += (time.perf_counter() - t0) / NOMINAL_S[name]
            calls += 1
    return total / calls
