"""Golden-digest gate: checked-in sha256 of every numeric artifact.

Each case is a small seed-7 run of one experiment or figure, in csv and
in json.  A refactor that changes a single output bit, or a numpy release
that does, fails here.  The manifest is pinned too, with its
``config.out_dir`` blanked, since that records where the run wrote.

    PYTHONPATH=src python3 tests/test_golden_digests.py    # re-record golden_digests.json

Re-record only for an output change that CHANGES.md states and explains,
or for a numpy upgrade; never to make a refactor pass.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

import spinbath as sb
from spinbath.config import RunConfig
from spinbath.runner import run

GOLDEN = Path(__file__).with_name("golden_digests.json")

SEED = 7

_LORENTZ = sb.CouplingDistribution.lorentzian(0.0, 0.25)
_UNIFORM = sb.CouplingDistribution.uniform(0.5, 2.0)
_RANDOM = sb.AmplitudeRule.random()

#: Case name -> RunConfig fields besides seed, format and out_dir.
CASES = {
    "trace": dict(experiment="trace", n=12, amplitudes=_RANDOM, stop=3.0, steps=41),
    "spectrum": dict(experiment="spectrum", n=10, merge=True),
    "ldos": dict(experiment="ldos", n=10, amplitudes=_RANDOM, bins=16),
    # Two histogram blocks of 2^16 levels, with non-dyadic weights.
    "ldos-merged": dict(experiment="ldos", n=17, amplitudes=_RANDOM, merge=True),
    "ensemble": dict(
        experiment="ensemble", n=8, distribution=_LORENTZ, realizations=5, stop=3.0, steps=21
    ),
    "echo": dict(experiment="echo", n=10, amplitudes=_RANDOM, stop=5.0, steps=41),
    "average-check": dict(
        experiment="average-check", n=8, distribution=_UNIFORM, amplitudes=_RANDOM, samples=1024
    ),
    "fig1": dict(experiment="figure", figure="fig1", n=6),
    "fig2": dict(experiment="figure", figure="fig2", realizations=3, stop=2.0, steps=21),
    "fig3": dict(experiment="figure", figure="fig3", n=8, realizations=3, stop=3.0, steps=21),
}

FORMATS = ("csv", "json")


def run_case(case: str, fmt: str, out_dir: Path) -> Path:
    run(RunConfig(**CASES[case], seed=SEED, format=fmt, out_dir=out_dir, quiet=True))
    return out_dir


def _manifest_text(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """{file name: sha256} of the numeric artifacts of one run, and of
    its manifest as written with ``config.out_dir`` blanked."""
    text = (out_dir / "manifest.json").read_text(encoding="utf-8")
    manifest = json.loads(text)
    assert _manifest_text(manifest) == text  # re-spelling keeps every byte
    digests = {
        entry["file"]: hashlib.sha256((out_dir / entry["file"]).read_bytes()).hexdigest()
        for entry in manifest["outputs"]
    }
    manifest["config"]["out_dir"] = ""
    digests["manifest.json"] = hashlib.sha256(_manifest_text(manifest).encode()).hexdigest()
    return digests


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    """Runs each (case, format) once; the tests below share its output."""
    dirs: dict[tuple[str, str], Path] = {}

    def get(case: str, fmt: str) -> Path:
        if (case, fmt) not in dirs:
            dirs[case, fmt] = run_case(case, fmt, tmp_path_factory.mktemp(f"{case}-{fmt}"))
        return dirs[case, fmt]

    return get


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_digests(case, fmt, case_dir):
    golden = _golden()
    got = artifact_digests(case_dir(case, fmt))
    assert got == golden["digests"][f"{case}/{fmt}"], (
        f"{case} ({fmt}) artifacts changed; numpy here {np.__version__}, "
        f"digests recorded with numpy {golden['numpy']}"
    )


def _reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_json_files_are_strict_json(case, fmt, case_dir):
    # json.loads accepts NaN and Infinity unless told otherwise; other
    # parsers reject them, so no report or table may hold one.
    paths = sorted(case_dir(case, fmt).glob("*.json"))
    assert "manifest.json" in {path.name for path in paths}
    for path in paths:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def test_golden_file_covers_every_case():
    expected = {f"{case}/{fmt}" for case in CASES for fmt in FORMATS}
    assert set(_golden()["digests"]) == expected


def _record() -> None:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for fmt in FORMATS:
                digests[f"{case}/{fmt}"] = artifact_digests(run_case(case, fmt, Path(tmp) / case / fmt))
    record = {
        "seed": SEED,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "digests": digests,
    }
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    _record()
