"""Run one spinbath benchmark workload and print its metrics.

Usage, from the root of a checkout (or anywhere else)::

    python3 bench/run.py --workload ensemble-fig3 [--seed 7] [--seconds 20] [--trace 0]

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a traced run.  Each metric
is printed by name with its unit; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from the ``src`` directory beside
``bench``, never from an installed copy; without it the script exits
with status 2 and prints no result.  Artifacts and span dumps go to
``.bench_out`` beside ``bench``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One thread, fixed before numpy is imported by anything below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name (see README.md)")
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    package = SRC / "spinbath"
    if not (package / "__init__.py").is_file():
        print(f"bench: no spinbath sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinbath

    if Path(spinbath.__file__).resolve().parent != package.resolve():
        print(f"bench: imported spinbath from {spinbath.__file__}, not {package}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_root = OUT / f"{workload.name}-{os.getpid()}"
    # One CPU for the whole run, fresh processes included: the reference
    # kernel then measures the speed of the CPU the workload runs on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    ticks = harness.cpu_ticks()
    try:
        if args.trace:
            result = harness.measure_traced(workload, args.seed, args.seconds, out_root)
            units = harness.PER_LAYER
        else:
            result = harness.measure(workload, args.seed, args.seconds, out_root)
            units = harness.END_TO_END
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    env = harness.environment(workload, ticks, len(cpus), min(cpus))
    if args.trace:
        dump = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        dump.write_text(json.dumps({"env": env, "spans": result.spans}) + "\n", encoding="utf-8")
        print(f"spans written to {dump}")
    for index, it in enumerate(result.iterations):
        for problem in it.problems:
            print(f"bench: iteration {index} failed: {problem}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, value in result.metrics.items():
        line = f"{workload.name} {name} = {value:.6g} {units[name]}"
        if name in result.samples:
            xs = sorted(result.samples[name])
            line += f"  (median of {len(xs)}: min {xs[0]:.4g}, max {xs[-1]:.4g})"
        if name in result.raw:
            line += f"  unscaled median {statistics.median(result.raw[name]):.4g} {units[name]}"
        print(line)
    print(f"{workload.name} error_rate = {result.failed / result.attempted:.6g} "
          f"({result.failed} of {result.attempted} iterations failed)")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
