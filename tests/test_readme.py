"""README's library tour runs against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

from spinbath.config import EXPERIMENTS, SETTINGS

ROOT = Path(__file__).resolve().parents[1]


def test_library_tour_runs(tmp_path):
    # A renamed or deleted name that the tour still shows fails here.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"^## Library tour\n\n```python\n(.*?)^```", readme, re.S | re.M)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", tour],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_cli_settings_table_matches_the_parser():
    # One row per config setting: its file key, its flag and the
    # subcommands that take the flag.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\w+) \| `\[(\w+)\] (\w+)` \| (.+?) \| (.+?) \|$", readme, re.M)[1:]
    want = []
    for name, s in SETTINGS.items():
        takers = [command for command, _help, extra in EXPERIMENTS.values() if name in extra]
        common = s.section in ("run", "model", "grid")
        want.append((name, s.section, s.key, "all" if common else ", ".join(takers)))
    assert [(n, sec, key, cmds) for n, sec, key, _flag, cmds in rows] == want
    for name, _sec, _key, flags, _cmds in rows:
        if SETTINGS[name].help:
            assert flags.startswith(f"`{SETTINGS[name].flag}")
