"""Tests for the command-line surface: overrides, exit codes, script wiring."""

import json
import subprocess
import sys

import pytest

from spinbath import runner
from spinbath.cli import main


def test_trace_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "trace",
            "--n", "4",
            "--couplings", "gaussian(0, 1)",
            "--seed", "7",
            "--stop", "2.0",
            "--steps", "9",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    assert (out / "trace.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_flags_beat_config_values(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[run]\nexperiment = trace\nseed = 1\n[model]\nn = 3\n[grid]\nstop = 1.0\nsteps = 4\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(
        ["trace", "--config", str(config), "--seed", "2", "--out-dir", str(out), "--quiet"]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["seed"] == 2
    assert manifest["config"]["n"] == 3


def test_quiet_silences_progress(tmp_path, capsys):
    code = main(["trace", "--n", "2", "--steps", "3", "--out-dir", str(tmp_path / "q"), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_config_error_exit_code(tmp_path, capsys):
    code = main(["trace", "--config", str(tmp_path / "missing.ini")])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


def test_invalid_distribution_exit_code(capsys):
    code = main(["trace", "--couplings", "gaussian(0, -3)", "--out-dir", "unused"])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


def test_capacity_exit_code(tmp_path, capsys):
    code = main(["spectrum", "--n", "30", "--out-dir", str(tmp_path / "cap")])
    assert code == 3
    err = capsys.readouterr().err
    assert "error[capacity]" in err and "2^30" in err


def test_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("occupied", encoding="utf-8")
    code = main(["trace", "--n", "2", "--steps", "3", "--out-dir", str(blocker)])
    assert code == 4
    assert "error[io]" in capsys.readouterr().err


def test_check_average_subcommand(tmp_path):
    out = tmp_path / "avg"
    code = main(
        [
            "check-average",
            "--n", "4",
            "--seed", "3",
            "--samples", "512",
            "--horizon", "300",
            "--out-dir", str(out),
            "--quiet",
        ]
    )
    assert code == 0
    report = json.loads((out / "average_check.json").read_text(encoding="utf-8"))
    assert report["samples"] == 512


def test_nan_merge_epsilon_exit_code(tmp_path, capsys):
    out = tmp_path / "nan"
    code = main(["spectrum", "--n", "6", "--merge", "--merge-epsilon", "nan", "--out-dir", str(out)])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--n", "4", "--merge-epsilon", "nan"],
        ["spectrum", "--n", "3", "--merge", "--merge-epsilon", "inf"],
        ["spectrum", "--n", "3", "--merge", "--merge-epsilon=-1e-9"],
        ["spectrum", "--n", "3", "--stop", "nan"],
        ["ldos", "--n", "3", "--start=-inf"],
        ["check-average", "--n", "3", "--horizon", "inf"],
        ["check-average", "--n", "3", "--horizon", "0"],
    ],
    ids=[
        "unused-epsilon-nan", "epsilon-inf", "epsilon-negative", "unused-stop-nan",
        "unused-start-inf", "horizon-inf", "horizon-zero",
    ],
)
def test_bad_config_float_exit_code(tmp_path, capsys, args):
    # manifest.json is strict JSON: NaN and Infinity must never reach it.
    out = tmp_path / "bad"
    code = main([*args, "--out-dir", str(out), "--quiet"])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_unused_nan_horizon_in_config_file_exit_code(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[average]\nhorizon = nan\n", encoding="utf-8")
    out = tmp_path / "bad"
    code = main(["spectrum", "--n", "3", "--config", str(config), "--out-dir", str(out)])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "args, config",
    [
        (["ldos", "--n", "4", "--merge", "--bins", "0"], None),
        (["spectrum", "--n", "4", "--bins", "0"], None),
        (["figure", "--which", "fig1", "--bins=-3"], None),
        (["spectrum", "--n", "4"], "[spectrum]\nbins = 0\n"),
    ],
    ids=["ldos-merge", "unused-spectrum", "unused-figure", "unused-config-file"],
)
def test_bins_below_one_exit_code(tmp_path, capsys, args, config):
    # A config error whatever the experiment, raised before the run
    # enumerates a walk or makes its out dir.
    if config is not None:
        path = tmp_path / "run.ini"
        path.write_text(config, encoding="utf-8")
        args = [*args, "--config", str(path)]
    out = tmp_path / "bad"
    code = main([*args, "--out-dir", str(out), "--quiet"])
    assert code == 2
    assert "bins must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args", [["ldos", "--n", "4"], ["figure", "--which", "fig2"]], ids=["ldos", "figure"]
)
def test_bins_above_cap_exit_code(tmp_path, capsys, monkeypatch, args):
    # A capacity error raised before the run enumerates a walk or makes its
    # out dir, and before np.histogram would allocate 2^24 bins.
    def no_walks(*_args, **_kwargs):
        raise AssertionError("a walk was enumerated")

    monkeypatch.setattr(runner, "enumerate_walks", no_walks)
    out = tmp_path / "big"
    code = main([*args, "--bins", str(2**24 + 1), "--out-dir", str(out), "--quiet"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error[capacity]" in err and f"{41 * (2**24 + 1)} bytes" in err
    assert not out.exists()


def test_single_sample_average_check_exit_code(tmp_path, capsys):
    out = tmp_path / "one"
    code = main(["check-average", "--n", "4", "--samples", "1", "--out-dir", str(out)])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err
    assert not (out / "average_check.json").exists()


def test_zero_coupling_average_check_exit_code(tmp_path, capsys):
    # A zero coupling never dephases; the report would hold "n_sigma": Infinity.
    out = tmp_path / "zero"
    code = main(["check-average", "--n", "1", "--couplings", "fixed(0)", "--out-dir", str(out)])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err
    assert not (out / "average_check.json").exists()


def test_figure_subcommand(tmp_path):
    code = main(
        ["figure", "--which", "fig1", "--n", "4", "--out-dir", str(tmp_path / "f"), "--quiet"]
    )
    assert code == 0
    assert (tmp_path / "f" / "fig1_walk_spectrum.csv").exists()


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        [
            sys.executable, "-m", "spinbath.cli",
            "trace", "--n", "2", "--steps", "3",
            "--out-dir", str(tmp_path / "sp"), "--quiet",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "sp" / "trace.csv").exists()
