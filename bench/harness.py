"""Measurement loops of the spinbath benchmark (see README.md).

``run.py`` imports this module after it has put the checkout's ``src`` on
``sys.path``.  One process runs one workload, single-threaded, calling
``spinbath.cli.main(argv)`` in process: the user path, minus the
interpreter start that ``setup_s`` measures on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import spinbath
import spinbath.cli

from reference import slowdown
from spans import Tracer, iteration_metrics
from workloads import DEFAULT_SEED, Argvs, Workload, resized

DIGESTS = Path(__file__).with_name("digests.json")

#: Timed iterations per run at least.
MIN_TIMED = 2

#: Fresh processes timed for ``setup_s`` before each of the first
#: ``SETUP_BLOCKS`` timed iterations.  Spreading them over the run, with
#: the reference kernel between blocks, keeps one burst of load on the
#: shared machine from setting the median.
SETUP_BLOCKS = 4
SETUP_PER_ITERATION = 3

#: Time the reference kernel runs between two timed iterations, as a share
#: of the last iteration's time: long enough to see the machine's speed
#: over a similar stretch of time, short enough to leave most of the run
#: to the workload.
REFERENCE_SHARE = 0.4

#: End-to-end metrics printed with ``--trace 0``, with their units.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}

#: Per-layer metrics printed with ``--trace 1``, with their units.
PER_LAYER = {
    "cli.parse_s": "s",
    "runner.self_s": "s",
    "runner.rows": "count",
    "runner.bytes_written": "B",
    "runner.bytes_per_s": "B/s",
    "ensembles.sample_s": "s",
    "ensembles.realizations": "count",
    "ensembles.average_self_s": "s",
    "ensembles.self_s": "s",
    "model.trace_s": "s",
    "model.values": "count",
    "model.spin_factors": "count",
    "model.spin_factors_per_s": "1/s",
    "model.self_s": "s",
    "echo.amplitude_s": "s",
    "echo.survival_s": "s",
    "echo.calls": "count",
    "echo.self_s": "s",
    "limits.time_average_s": "s",
    "limits.samples": "count",
    "limits.self_s": "s",
    "spectrum.enumerate_s": "s",
    "spectrum.merge_s": "s",
    "spectrum.ldos_s": "s",
    "spectrum.walks": "count",
    "spectrum.merge_ratio": "ratio",
    "spectrum.array_bytes": "B-computed",
    "spectrum.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
}

#: Slack for the accounting check beyond the measured tracing overhead.
_ACCOUNTING_SLACK_S = 1e-3

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import spinbath.cli
spinbath.cli.build_parser().parse_args(sys.argv[2:])
print(time.perf_counter() - t0)
"""


@dataclass
class Iteration:
    wall: float
    cpu: float
    problems: list[str]
    rows: int = 0
    bytes_written: int = 0
    digests: dict[str, str] = field(default_factory=dict)


def _check_outputs(
    workload: Workload, argvs: Argvs, dirs: list[Path], expected: dict[str, str] | None
) -> Iteration:
    it = Iteration(0.0, 0.0, [])
    for k, out_dir in enumerate(dirs):
        manifest_path = out_dir / "manifest.json"
        it.bytes_written += manifest_path.stat().st_size
        for entry in json.loads(manifest_path.read_text(encoding="utf-8"))["outputs"]:
            data = (out_dir / entry["file"]).read_bytes()
            key = f"{k}/{entry['file']}"
            it.digests[key] = hashlib.sha256(data).hexdigest()
            it.bytes_written += len(data)
            it.rows += entry.get("rows", 0)
            if it.digests[key] != entry["sha256"]:
                it.problems.append(f"{key}: manifest sha256 does not match the file")
            if expected is not None and expected.get(key) != it.digests[key]:
                it.problems.append(f"{key}: sha256 differs from the recorded seed-{DEFAULT_SEED} digest")
    it.problems += workload.check(dirs, argvs)
    return it


def run_iteration(
    workload: Workload,
    argvs: Argvs,
    seed: int,
    out_root: Path,
    *,
    tracer: Tracer | None = None,
    index: int = 0,
    expected: dict[str, str] | None = None,
) -> Iteration:
    """Run the workload's argv lists once, timed, then check the outputs.

    The timed region runs from the first ``main(argv)`` call until the last
    one returns, i.e. until its manifest is written.
    """
    dirs = [out_root / str(k) for k in range(len(argvs))]
    for out_dir in dirs:
        shutil.rmtree(out_dir, ignore_errors=True)
    problems = []
    with tracer.installed(index) if tracer else contextlib.nullcontext():
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            for argv, out_dir in zip(argvs, dirs):
                full = [*argv, "--seed", str(seed), "--out-dir", str(out_dir), "--quiet"]
                if tracer:
                    code = tracer.call("cli.main", spinbath.cli.main, full)
                else:
                    code = spinbath.cli.main(full)
                if code != 0:
                    problems.append(f"{argv[0]} exited with code {code}")
                    break
        except Exception:  # a crash fails this iteration; the run goes on and reports it
            problems.append(traceback.format_exc())
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    if problems:
        return Iteration(wall, cpu, problems)
    try:
        it = _check_outputs(workload, argvs, dirs, expected)
    except Exception:  # missing or unreadable artifacts fail the iteration too
        it = Iteration(0.0, 0.0, [traceback.format_exc()])
    it.wall, it.cpu = wall, cpu
    return it


def setup_times(argv: tuple[str, ...], samples: int) -> list[float]:
    """Seconds fresh interpreters take to import spinbath and parse ``argv``."""
    src = str(Path(spinbath.__file__).resolve().parents[1])
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, src, *argv],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    return times


def _l3_bytes() -> int | None:
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        sizes[level] = int(size.rstrip("KM")) * scale
    return sizes.get(3)


def cpu_ticks() -> list[int] | None:
    """Machine-wide CPU tick counters (user ... steal) from /proc/stat."""
    try:
        return [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return None


def environment(
    workload: Workload, ticks_at_start: list[int] | None, nproc: int, cpu: int
) -> dict[str, Any]:
    """Machine stamp for one result: cores available and the one the run
    was pinned to, versions, L3, working set, and the share of the CPU
    time the machine wanted that the hypervisor stole while the run
    measured."""
    l3 = _l3_bytes()
    size, what = workload.largest_array(workload.argvs)
    ticks = cpu_ticks()
    steal = None
    if ticks and ticks_at_start:
        delta = [b - a for a, b in zip(ticks_at_start, ticks)]
        wanted = sum(delta) - delta[3] - delta[4]  # all but idle and iowait
        steal = delta[7] / wanted if wanted else 0.0
    return {
        "cpu_steal_share": steal,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "l3_bytes": l3,
        "largest_array_bytes_computed": size,
        "largest_array": what,
        "largest_array_over_l3": size / l3 if l3 else None,
    }


def expected_digests(workload: Workload, seed: int) -> dict[str, str] | None:
    """Recorded sha256 digests for the default seed, if numpy matches."""
    if seed != DEFAULT_SEED:
        return None
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["numpy"] != np.__version__:
        print(
            f"bench: digests were recorded with numpy {recorded['numpy']}, running "
            f"{np.__version__}; skipping the digest comparison",
            file=sys.stderr,
        )
        return None
    return recorded["digests"].get(workload.name, {})


@dataclass
class Result:
    metrics: dict[str, float]
    iterations: list[Iteration]
    #: The samples behind a median, for the metrics that are medians of times.
    samples: dict[str, list[float]] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    #: Unscaled times as the clock read them, for the metrics that are scaled.
    raw: dict[str, list[float]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.iterations)

    @property
    def failed(self) -> int:
        return sum(1 for it in self.iterations if it.problems)


def _loop(seconds: float, body, minimum: int = 1) -> None:
    """Call ``body(i)`` for i = 0, 1, ... until ``minimum`` calls are done
    and the next call, if it took as long as the last one, would end past
    ``seconds``."""
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        start = time.perf_counter()
        body(i)
        i += 1
        now = time.perf_counter()
        if i >= minimum and now + (now - start) > deadline:
            return


def measure(workload: Workload, seed: int, seconds: float, out_root: Path) -> Result:
    """End-to-end metrics, tracing off.

    A warm-up iteration at the workload's tiny sizes runs the same code
    paths untimed.  The reference kernel runs before the first timed
    iteration and after every one, for ``REFERENCE_SHARE`` of the time
    just measured; each time is divided by the mean slowdown measured
    just before and after it (see ``reference.py``).
    """
    argvs = workload.argvs
    expected = expected_digests(workload, seed)
    setup_times(argvs[0], 1)  # untimed: it may write the bytecode caches
    warm = run_iteration(workload, resized(argvs, workload.tiny), seed, out_root)
    setup: list[float] = []
    timed: list[Iteration] = []
    walls: list[float] = []
    cpus: list[float] = []
    raw: dict[str, list[float]] = {"setup_s": [], "run_s": [], "cpu_s": []}
    last = [slowdown(REFERENCE_SHARE)]

    def factor(busy: float) -> float:
        """Mean slowdown before and after ``busy`` seconds that just ran."""
        now = slowdown(REFERENCE_SHARE * busy)
        mean = 0.5 * (last[0] + now)
        last[0] = now
        return mean

    def body(i: int) -> None:
        if i < SETUP_BLOCKS:
            times = setup_times(argvs[0], SETUP_PER_ITERATION)
            f = factor(sum(times))
            setup.extend(t / f for t in times)
            raw["setup_s"].extend(times)
        it = run_iteration(workload, argvs, seed, out_root, expected=expected)
        f = factor(it.wall)
        timed.append(it)
        walls.append(it.wall / f)
        cpus.append(it.cpu / f)
        raw["run_s"].append(it.wall)
        raw["cpu_s"].append(it.cpu)

    _loop(seconds, body, MIN_TIMED)
    run_s = statistics.median(walls)
    result = Result({}, [warm, *timed], {"setup_s": setup, "run_s": walls, "cpu_s": cpus}, raw=raw)
    result.metrics = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "cpu_s": statistics.median(cpus),
        "work_per_s": workload.work(argvs) / run_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (result.attempted - result.failed) / result.attempted,
    }
    return result


def layer_metrics(tracer: Tracer, traced: list[Iteration]) -> list[dict[str, float]]:
    """Per-layer metrics of each traced iteration, in iteration order."""
    by_iteration: dict[int, list[dict[str, Any]]] = defaultdict(list)
    for span in tracer.spans:
        by_iteration[span["iteration"]].append(span)
    out = []
    for index, it in enumerate(traced):
        m = iteration_metrics(by_iteration[index])
        m["runner.rows"] = it.rows
        m["runner.bytes_written"] = it.bytes_written
        m["runner.bytes_per_s"] = it.bytes_written / m["runner.self_s"] if m["runner.self_s"] > 0 else 0.0
        m["trace.run_s"] = it.wall
        m["trace.unaccounted_s"] = it.wall - m["trace.accounted_s"]
        out.append(m)
    return out


def measure_traced(
    workload: Workload, seed: int, seconds: float, out_root: Path, argvs: Argvs | None = None
) -> Result:
    """Per-layer metrics from traced iterations, alternating with untraced
    ones so that the tracing overhead is measured under the same load."""
    argvs = argvs or workload.argvs
    expected = expected_digests(workload, seed) if argvs == workload.argvs else None
    tracer = Tracer()
    warm = run_iteration(workload, argvs, seed, out_root, expected=expected)
    plain: list[Iteration] = []
    traced: list[Iteration] = []

    def pair(i: int) -> None:
        for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if use_tracer:
                traced.append(run_iteration(
                    workload, argvs, seed, out_root, tracer=tracer, index=len(traced), expected=expected
                ))
            else:
                plain.append(run_iteration(workload, argvs, seed, out_root, expected=expected))

    _loop(seconds, pair)
    per_iteration = layer_metrics(tracer, traced)
    overhead = statistics.median(it.wall for it in traced) - statistics.median(it.wall for it in plain)
    for it, m in zip(traced, per_iteration):
        if not 0.0 <= m["trace.unaccounted_s"] <= max(overhead, 0.0) + _ACCOUNTING_SLACK_S:
            it.problems.append(
                f"layer self times sum to {m['trace.accounted_s']!r} s of a {it.wall!r} s iteration"
            )
    return Result(
        {
            name: overhead if name == "trace.overhead_s" else statistics.median(m[name] for m in per_iteration)
            for name in PER_LAYER
        },
        [warm, *plain, *traced],
        {"trace.run_s": [it.wall for it in traced]},
        tracer.spans,
    )
