"""Tests of the benchmark itself, at tiny sizes of the same argv lists.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, resized  # noqa: E402

COUNTS = ("model.values", "model.spin_factors", "spectrum.walks", "runner.rows", "runner.bytes_written")

#: Counts each tiny workload must produce in one iteration.
EXPECTED = {
    "ensemble-fig3": {"model.values": 200 * 31, "model.spin_factors": 200 * 31 * 6, "ensembles.realizations": 200},
    "spectrum-json": {"spectrum.walks": 1 << 10, "runner.rows": 1 << 10, "model.values": 0},
    "ldos-n22": {"spectrum.walks": 1 << 12, "runner.rows": 64, "model.values": 0},
    "echo-average": {"echo.calls": 2 * 201, "limits.samples": 1024, "model.values": 1024},
}


def _tiny(name: str):
    workload = WORKLOADS[name]
    return workload, resized(workload.argvs, workload.tiny)


def _traced_iteration(name: str, out_root: Path) -> dict[str, float]:
    workload, argvs = _tiny(name)
    tracer = Tracer()
    it = harness.run_iteration(workload, argvs, 11, out_root, tracer=tracer)
    assert it.problems == []
    return harness.layer_metrics(tracer, [it])[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_between_traced_runs(name, tmp_path):
    first = _traced_iteration(name, tmp_path / "a")
    second = _traced_iteration(name, tmp_path / "a")
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert {k: first[k] for k in EXPECTED[name]} == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_accounts_for_each_iteration(name, tmp_path):
    workload, argvs = _tiny(name)
    result = harness.measure_traced(workload, 7, 0.2, tmp_path, argvs=argvs)
    assert result.failed == 0, [it.problems for it in result.iterations]
    assert list(result.metrics) == list(harness.PER_LAYER)
    assert abs(result.metrics["trace.unaccounted_s"]) < 1e-3
    roots = [s for s in result.spans if s["parent"] is None]
    assert roots and {s["name"] for s in roots} == {"cli.main"}


@pytest.mark.parametrize("seed", [1, 7, 2024])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_for_any_seed(name, seed, tmp_path):
    workload, argvs = _tiny(name)
    assert harness.run_iteration(workload, argvs, seed, tmp_path).problems == []


def _tamper(path: Path) -> None:
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        payload["weight"][0] += 0.25
        path.write_text(json.dumps(payload))
        return
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 0.25)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_catch_a_corrupted_artifact(name, tmp_path):
    workload, argvs = _tiny(name)
    assert harness.run_iteration(workload, argvs, 7, tmp_path).problems == []
    dirs = [tmp_path / str(k) for k in range(len(argvs))]
    manifest = json.loads((dirs[0] / "manifest.json").read_text())
    _tamper(dirs[0] / manifest["outputs"][0]["file"])
    assert workload.check(dirs, argvs)
    problems = harness._check_outputs(workload, argvs, dirs, None).problems
    assert any("manifest sha256" in p for p in problems)


def test_reference_slowdown_runs_at_least_one_round():
    t0 = time.perf_counter()
    assert reference.slowdown(0.0) > 0.0
    assert time.perf_counter() - t0 > 0.5 * sum(reference.NOMINAL_S.values())


def test_loop_stops_before_a_call_would_overrun():
    calls = []
    harness._loop(0.05, lambda i: (calls.append(i), time.sleep(0.03)), minimum=1)
    assert calls == [0]
    calls.clear()
    harness._loop(0.0, lambda i: calls.append(i), minimum=3)
    assert calls == [0, 1, 2]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_run_prints_every_metric_then_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "echo-average", "--seconds", "0.1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.END_TO_END
    assert "echo-average error_rate = 0" in proc.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "echo-average", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
