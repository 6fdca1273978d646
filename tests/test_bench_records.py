"""The committed benchmark records agree with BENCHMARK.json.

Each ``BENCH_<short-sha>.json`` at the repository root holds, per
workload, the ``env`` line and the final result line of every
``bench/run.py`` run made for that commit, with its int seed, under the
command the README's Benchmark section documents.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def documented_command() -> str:
    """The one-run command in the README's Benchmark section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Benchmark\n")[1]
    return section.split("```\n")[1].strip()


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_covers_every_workload_and_metric(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{record['commit']}.json"
    assert record["command"] == documented_command()
    assert set(record["workloads"]) >= {w["name"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload, runs in record["workloads"].items():
        assert runs, f"{workload} has no runs"
        for run in runs:
            assert type(run["seed"]) is int, workload
            assert isinstance(run["env"], dict) and run["env"], workload
            result = run["result"]
            assert result["correct"] is True, workload
            metrics = result["metrics"]
            for name, unit in units.items():
                assert metrics[name]["unit"] == unit, (workload, name)
                assert isinstance(metrics[name]["value"], (int, float)), (workload, name)
