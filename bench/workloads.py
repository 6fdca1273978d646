"""The benchmark's workloads: fixed spinbath argv lists plus output checks.

Each workload is one or more argv lists for ``spinbath.cli.main``.  The
harness appends ``--seed``, ``--out-dir`` and ``--quiet``; the workload
never passes ``--threads``.  Every check holds for any seed: it compares
the artifacts with identities of the model (see ``README.md``), not with
stored numbers.  Checks return a list of problems, empty when the output
is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from spinbath.ensembles import AmplitudeRule, CouplingDistribution, sample_amplitudes, sample_couplings
from spinbath.limits import summarize
from spinbath.model import TimeGrid, decoherence_factor

DEFAULT_SEED = 7

#: Absolute tolerance for sums of probabilities and moments.
_SUM_TOL = 1e-9

Argvs = tuple[tuple[str, ...], ...]


def flag(argv: Sequence[str], name: str) -> str:
    return argv[list(argv).index(name) + 1]


def resized(argvs: Argvs, overrides: dict[str, str]) -> Argvs:
    """The same argv lists with the values of the given flags replaced."""
    out = []
    for argv in argvs:
        argv = list(argv)
        for i, token in enumerate(argv[:-1]):
            if token in overrides:
                argv[i + 1] = overrides[token]
        out.append(tuple(argv))
    return tuple(out)


def _manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


def _model(out_dir: Path):
    """Couplings and amplitudes of the run, from its manifest's resolved config."""
    cfg = _manifest(out_dir)["config"]
    dist = CouplingDistribution.parse(cfg["couplings"])
    rule = AmplitudeRule.parse(cfg["amplitudes"])
    n, seed = cfg["n"], cfg["seed"]
    return cfg, sample_couplings(dist, n, seed, stream=0), sample_amplitudes(rule, n, seed, stream=1)


def _csv(path: Path, header: str) -> np.ndarray:
    with path.open(encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_ensemble(out_dirs: list[Path], argvs: Argvs) -> list[str]:
    """Mean row within 5 standard errors of e^{-N gamma t}; the errors come
    from the realization rows (Lorentzian centre 0, equal amplitudes)."""
    argv = argvs[0]
    n, m, steps = (int(flag(argv, f)) for f in ("--n", "--realizations", "--steps"))
    center, gamma = CouplingDistribution.parse(flag(argv, "--couplings")).params
    data = _csv(out_dirs[0] / "ensemble.csv", "realization,t,re_r,im_r,abs_r")
    if data.shape != ((m + 1) * steps, 5):
        return [f"ensemble.csv has shape {data.shape}, expected {((m + 1) * steps, 5)}"]
    labels = np.repeat(np.append(np.arange(m), -1), steps)
    if not np.array_equal(data[:, 0], labels):
        return ["ensemble.csv realization column out of order"]
    rows = data[: m * steps].reshape(m, steps, 5)
    mean = data[m * steps:]
    if center != 0.0:
        return ["e^{-N gamma t} check needs a Lorentzian centred at 0"]
    problems = []
    target = {2: np.exp(-n * gamma * mean[:, 1]), 3: np.zeros(steps)}
    for col, part in ((2, "real"), (3, "imaginary")):
        values = rows[:, :, col]
        stderr = values.std(axis=0, ddof=1) / math.sqrt(m)
        off = np.abs(mean[:, col] - target[col]) > 5.0 * stderr + 1e-12
        if off.any():
            problems.append(
                f"{part} part of the mean is more than 5 standard errors from "
                f"e^(-N gamma t) at {int(off.sum())} of {steps} times"
            )
        if np.max(np.abs(mean[:, col] - values.mean(axis=0))) > 1e-12:
            problems.append(f"{part} part of the mean row is not the realization mean")
    return problems


def check_spectrum(out_dirs: list[Path], argvs: Argvs) -> list[str]:
    """Weights sum to 1; weighted mean and variance match summarize()."""
    payload = json.loads((out_dirs[0] / "spectrum.json").read_text(encoding="utf-8"))
    if list(payload) != ["energy", "weight"]:
        return [f"spectrum.json columns {list(payload)}"]
    e = np.array(payload["energy"], dtype=np.float64)
    w = np.array(payload["weight"], dtype=np.float64)
    _, couplings, amps = _model(out_dirs[0])
    stats = summarize(couplings, amps)
    mean = float(w @ e)
    var = float(w @ np.square(e - mean))
    problems = []
    if e.shape != w.shape or e.size < 1:
        problems.append("energy and weight columns differ in length")
    if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > _SUM_TOL:
        problems.append(f"weights sum to {float(w.sum())!r}")
    if np.any(np.diff(e) <= 0.0):
        problems.append("merged energies are not strictly increasing")
    if abs(mean - stats.mean) > _SUM_TOL:
        problems.append(f"weighted mean energy {mean!r} != summarize().mean {stats.mean!r}")
    if abs(var - stats.variance) > _SUM_TOL * max(1.0, stats.variance):
        problems.append(f"weighted variance {var!r} != summarize().variance {stats.variance!r}")
    return problems


def check_ldos(out_dirs: list[Path], argvs: Argvs) -> list[str]:
    """Masses sum to 1 over contiguous bins whose mean matches summarize()."""
    data = _csv(out_dirs[0] / "ldos.csv", "bin_lo,bin_hi,mass")
    lo, hi, mass = data.T
    _, couplings, amps = _model(out_dirs[0])
    problems = []
    if np.any(mass < 0.0) or abs(float(mass.sum()) - 1.0) > _SUM_TOL:
        problems.append(f"ldos masses sum to {float(mass.sum())!r}")
    if np.any(hi <= lo) or not np.array_equal(lo[1:], hi[:-1]):
        problems.append("ldos bins are not contiguous and increasing")
    width = float(np.max(hi - lo))
    mean = float(mass @ (0.5 * (lo + hi)))
    if abs(mean - summarize(couplings, amps).mean) > width:
        problems.append(f"ldos mean {mean!r} is more than one bin from summarize().mean")
    return problems


def check_echo_average(out_dirs: list[Path], argvs: Argvs) -> list[str]:
    """Echo rows equal decoherence_factor bit for bit; the analytic long-time
    average equals 2^-N prod(1 + bias^2)."""
    problems = []
    cfg, couplings, amps = _model(out_dirs[0])
    data = _csv(out_dirs[0] / "echo.csv", "t,re_r,im_r,abs_r,survival_p")
    grid = cfg["grid"]
    times = TimeGrid(grid["start"], grid["stop"], grid["steps"]).samples
    if data.shape != (times.size, 5) or not np.array_equal(data[:, 0], times):
        return [f"echo.csv has shape {data.shape} or times off the {times.size}-sample grid"]
    r = [decoherence_factor(couplings, amps, t) for t in times]
    exact = np.array([(v.real, v.imag, abs(v)) for v in r])
    mismatched = np.any(data[:, 1:4].view(np.int64) != exact.view(np.int64), axis=1)
    if mismatched.any():
        problems.append(f"{int(mismatched.sum())} echo rows differ from decoherence_factor")
    if np.max(np.abs(data[:, 4] - np.square(exact[:, 2]))) > 1e-12:
        problems.append("survival probability differs from |r|^2")

    cfg, _, amps = _model(out_dirs[1])
    report = json.loads((out_dirs[1] / "average_check.json").read_text(encoding="utf-8"))
    bias = amps.alpha_sq - amps.beta_sq
    expected = math.ldexp(float(np.prod(1.0 + np.square(bias))), -cfg["n"])
    if abs(report["analytic"] - expected) > 1e-12 * expected:
        problems.append(f"analytic average {report['analytic']!r} != 2^-N prod(1 + bias^2) {expected!r}")
    if report["samples"] != int(flag(argvs[1], "--samples")):
        problems.append(f"average check used {report['samples']} samples")
    if not (0.0 <= report["empirical"] <= 1.0 and report["stderr"] > 0.0):
        problems.append("empirical average or its standard error out of range")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argvs: Argvs
    #: Work items of one iteration, computed from the argv lists.
    work: Callable[[Argvs], int]
    work_unit: str
    #: Bytes and description of the largest array one iteration holds,
    #: computed from array sizes.
    largest_array: Callable[[Argvs], tuple[int, str]]
    check: Callable[[list[Path], Argvs], list[str]]
    #: Small sizes of the same argv lists for the benchmark's own tests.
    tiny: dict[str, str]


def _walks(argvs: Argvs) -> int:
    return 1 << int(flag(argvs[0], "--n"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ensemble-fig3",
            why=(
                "The paper's Fig. 3 ensemble, 1000 realizations on a 31-sample grid: the per-sample "
                "product kernel in model and CSV writing in runner dominate; a broadcast kernel should move it."
            ),
            argvs=((
                "ensemble", "--n", "20", "--couplings", "lorentzian(0, 0.25)",
                "--realizations", "1000", "--stop", "3", "--steps", "31", "--format", "csv",
            ),),
            work=lambda a: int(flag(a[0], "--realizations")) * int(flag(a[0], "--steps")),
            work_unit="realization x time values",
            largest_array=lambda a: (
                16 * int(flag(a[0], "--realizations")) * int(flag(a[0], "--steps")),
                "realizations x times complex128 values kept for the table",
            ),
            check=check_ensemble,
            tiny={"--n": "6", "--realizations": "200", "--steps": "31"},
        ),
        Workload(
            name="spectrum-json",
            why=(
                "2^17 walks written as JSON: enumeration and merge are small and the "
                "runner's row-list JSON path dominates; a streaming writer should move it."
            ),
            argvs=(("spectrum", "--n", "17", "--couplings", "gaussian(0, 1)", "--merge", "--format", "json"),),
            work=_walks,
            work_unit="enumerated walks",
            largest_array=lambda a: (8 * _walks(a), "one float64 column of the walk arrays"),
            check=check_spectrum,
            tiny={"--n": "10"},
        ),
        Workload(
            name="ldos-n22",
            why=(
                "2^22 walks, whose 32 MiB walk arrays together outgrow the L3: merge's argsort "
                "dominates and few rows are written; bounded-memory spectrum work should move it."
            ),
            argvs=(("ldos", "--n", "22", "--couplings", "gaussian(0, 1)", "--merge", "--format", "csv"),),
            work=_walks,
            work_unit="enumerated walks",
            largest_array=lambda a: (8 * _walks(a), "one float64 column of the walk arrays"),
            check=check_ldos,
            tiny={"--n": "12"},
        ),
        Workload(
            name="echo-average",
            why=(
                "Per-t loops in echo and limits (2001 echo samples, 8192 average samples): "
                "measures the kernel copies that a shared kernel must not slow."
            ),
            argvs=(
                ("echo", "--n", "24", "--stop", "20", "--steps", "2001"),
                ("check-average", "--n", "24", "--couplings", "uniform(0.5, 2.0)", "--samples", "8192"),
            ),
            work=lambda a: int(flag(a[0], "--steps")) + int(flag(a[1], "--samples")),
            work_unit="time samples",
            largest_array=lambda a: (
                8 * int(flag(a[1], "--samples")),
                "float64 time samples of the long-time average",
            ),
            check=check_echo_average,
            tiny={"--n": "8", "--steps": "201", "--samples": "1024"},
        ),
    )
}
