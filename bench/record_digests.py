"""Record the seed-7 artifact digests that ``run.py`` compares against.

    python3 bench/record_digests.py

Runs every workload once at the default seed and writes
``bench/digests.json`` with the numpy version, Python version and platform
that produced it.  Re-record only for a numpy upgrade or an output change
that CHANGES.md states and explains; never to make a refactor pass.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import harness  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    out_root = ROOT / ".bench_out" / "record-digests"
    digests = {}
    try:
        for workload in WORKLOADS.values():
            it = harness.run_iteration(workload, workload.argvs, DEFAULT_SEED, out_root)
            if it.problems:
                print(f"{workload.name}: {it.problems}", file=sys.stderr)
                return 1
            digests[workload.name] = it.digests
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    record = {
        "seed": DEFAULT_SEED,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "digests": digests,
    }
    harness.DIGESTS.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {harness.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
