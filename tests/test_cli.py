"""Tests for the command-line surface: overrides, exit codes, script wiring."""

import json
import re
import subprocess
import sys

import pytest

from spinbath import runner
from spinbath.cli import main
from spinbath.config import SETTINGS, RunConfig


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


@pytest.mark.parametrize(
    "args",
    [
        ["ldos", "--n", "3", "--couplings", "fixed(1e-320)"],
        ["ldos", "--n", "3", "--couplings", "fixed(1e-320)", "--merge"],
        ["figure", "--which", "fig3", "--n", "3", "--couplings", "lorentzian(0, 1e-318)"],
    ],
    ids=["ldos", "ldos-merge", "figure"],
)
def test_bins_too_fine_for_energy_range_exit_code(tmp_path, capsys, args):
    # Subnormal couplings span too few doubles for 10^5 distinct edges.
    code = main([*args, "--bins", "100000", "--out-dir", str(tmp_path / "fine"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error[config]: 100000 bins cannot split the energy range [" in err


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


def test_undephased_average_check_exit_code(tmp_path, capsys):
    # Over a 1e-9 horizon |r|^2 stays near 1, every batch mean is equal and
    # the report would hold "stderr": 0.0 and "n_sigma": Infinity.
    out = tmp_path / "short"
    code = main(
        ["check-average", "--n", "2", "--couplings", "uniform(1, 2)", "--horizon", "1e-9",
         "--out-dir", str(out)]
    )
    assert code == 2
    assert "error[config]" in capsys.readouterr().err
    assert not (out / "average_check.json").exists()


def _reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def test_overflowing_trace_statistics_left_out_of_manifest(tmp_path):
    # g = 1e200 overflows g^2: the manifest would hold "energy_variance":
    # Infinity and a window of 0.0 derived from it.  Warnings are errors
    # in this suite, so the overflow must not warn either.
    out = tmp_path / "huge"
    code = main(
        ["trace", "--n", "3", "--couplings", "fixed(1e200)", "--format", "json",
         "--out-dir", str(out), "--quiet"]
    )
    assert code == 0
    for path in sorted(out.glob("*.json")):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["details"] == {"mean_energy": 0.0}


@pytest.mark.parametrize("command", ["trace", "echo", "ensemble"])
def test_overflowing_phases_exit_2_without_writing(tmp_path, capsys, command):
    # g t overflows to inf, and r(t) would be NaN: no table holds it.
    out = tmp_path / "huge"
    argv = [command, "--n", "2", "--couplings", "fixed(1e308)", "--stop", "10",
            "--format", "json", "--out-dir", str(out), "--quiet"]
    with pytest.warns(RuntimeWarning):
        code = main(argv)
    assert code == 2
    assert "error[config]" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_echo_near_the_float_limit_matches_trace(tmp_path):
    # 2g overflows at g = 1e308, but g t does not at t <= 1e-300.
    model = ["--n", "2", "--couplings", "fixed(1e308)", "--stop", "1e-300", "--steps", "3"]
    assert main(["echo", *model, "--out-dir", str(tmp_path / "echo"), "--quiet"]) == 0
    assert main(["trace", *model, "--out-dir", str(tmp_path / "trace"), "--quiet"]) == 0
    echo = (tmp_path / "echo" / "echo.csv").read_text(encoding="utf-8").splitlines()
    trace = (tmp_path / "trace" / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert [row.rpartition(",")[0] for row in echo] == trace


def test_failing_figure_writes_no_file(tmp_path, capsys):
    # The N = 100 trace overflows after the coupling and energy histograms
    # are computed; none of the figure's tables may be written.
    out = tmp_path / "fig3"
    argv = ["figure", "--which", "fig3", "--couplings", "lorentzian(0, 1e300)", "--n", "4",
            "--realizations", "2", "--stop", "1e8", "--steps", "5", "--out-dir", str(out)]
    with pytest.warns(RuntimeWarning):
        code = main(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert "error[config]: |r| must not exceed 1" in captured.err
    assert "wrote" not in captured.out
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["--which", "fig2", "--couplings", "fixed(1e20)", "--n", "4"],
        ["--which", "fig3", "--couplings", "lorentzian(1e20, 1e-10)"],
        ["--which", "fig2", "--couplings", "fixed(1e308)"],
        ["--which", "fig2", "--couplings", "gaussian(0, 3e307)"],
    ],
    ids=["fixed-1e20", "lorentzian-1e20", "fixed-1e308", "gaussian-3e307"],
)
def test_coupling_range_too_narrow_or_wide_for_histogram_exits_2(tmp_path, capsys, args):
    # numpy would fail with "Too many bins for data range" and a traceback.
    out = tmp_path / "hist"
    argv = ["figure", *args, "--realizations", "2", "--steps", "3", "--out-dir", str(out)]
    assert main([*argv, "--quiet"]) == 2
    assert "error[config]: 100 bins cannot split the coupling range [" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_overflowing_grid_width_exits_2(tmp_path, capsys):
    # np.linspace would sample t = nan, inf, 1e308.
    out = tmp_path / "wide"
    code = main(["trace", "--start=-1e308", "--stop", "1e308", "--steps", "3",
                 "--out-dir", str(out), "--quiet"])
    assert code == 2
    assert "overflows" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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


#: A spelling of every setting with a flag, and a subcommand that takes it.
SAMPLE_TEXT = {
    "seed": ("trace", "11"),
    "out_dir": ("trace", "runs/elsewhere"),
    "format": ("trace", "json"),
    "n": ("trace", "5"),
    "distribution": ("trace", "lorentzian(0, 0.25)"),
    "amplitudes": ("trace", "fixed(0.3)"),
    "realizations": ("trace", "3"),
    "start": ("trace", "0.5"),
    "stop": ("trace", "2.5"),
    "steps": ("trace", "7"),
    "merge_epsilon": ("ldos", "1e-9"),
    "bins": ("spectrum", "12"),
    "horizon": ("check-average", "40"),
    "samples": ("check-average", "64"),
    "figure": ("figure", "fig2"),
}

#: Boolean settings: the flags that spell each file value.
SWITCHES = {
    "quiet": ("trace", {"true": ["--quiet"]}),
    "merge": ("spectrum", {"true": ["--merge"], "false": ["--no-merge"]}),
}


def _resolved(monkeypatch, argv):
    """The RunConfig main builds from argv, without running it."""
    seen = []
    monkeypatch.setattr(runner, "run", lambda cfg: seen.append(cfg) or 0)
    assert main(argv) == 0
    return seen[0]


def test_every_setting_with_a_flag_has_a_sample():
    assert set(SAMPLE_TEXT) | set(SWITCHES) == {n for n, s in SETTINGS.items() if s.help}


@pytest.mark.parametrize("name", sorted(SAMPLE_TEXT))
def test_flag_and_file_key_read_text_alike(tmp_path, monkeypatch, name):
    command, text = SAMPLE_TEXT[name]
    setting = SETTINGS[name]
    config = tmp_path / "run.ini"
    config.write_text(f"[{setting.section}]\n{setting.key} = {text}\n", encoding="utf-8")
    extra = [] if command != "figure" or name == "figure" else ["--which", "fig1"]
    from_file = _resolved(monkeypatch, [command, "--config", str(config), *extra])
    from_flag = _resolved(monkeypatch, [command, setting.flag, text, *extra])
    assert from_file == from_flag
    # The sample is not the default, so the setting was read at all.
    assert getattr(from_flag, name) != RunConfig.__dataclass_fields__[name].default


@pytest.mark.parametrize("name", sorted(SWITCHES))
def test_switch_and_file_key_read_alike(tmp_path, monkeypatch, name):
    command, spellings = SWITCHES[name]
    setting = SETTINGS[name]
    for text, flags in spellings.items():
        config = tmp_path / f"{text}.ini"
        config.write_text(f"[{setting.section}]\n{setting.key} = {text}\n", encoding="utf-8")
        from_file = _resolved(monkeypatch, [command, "--config", str(config)])
        from_flag = _resolved(monkeypatch, [command, *flags])
        assert from_file == from_flag
        assert getattr(from_flag, name) is (text == "true")


def test_no_merge_beats_merge_in_config_file(tmp_path, monkeypatch):
    config = tmp_path / "run.ini"
    config.write_text("[spectrum]\nmerge = true\n", encoding="utf-8")
    assert _resolved(monkeypatch, ["ldos", "--config", str(config)]).merge is True
    assert _resolved(monkeypatch, ["ldos", "--config", str(config), "--no-merge"]).merge is False


@pytest.mark.parametrize(
    "argv, config, where",
    [
        (["trace", "--n", "abc"], None, "--n"),
        (["trace"], "[model]\nn = abc\n", "[model] n"),
        (["spectrum", "--bins", "2.5"], None, "--bins"),
        (["check-average", "--horizon", "long"], None, "--horizon"),
        (["trace", "--couplings", "gaussian(0"], None, "--couplings"),
        (["trace"], "[run]\nquiet = maybe\n", "[run] quiet"),
    ],
    ids=["flag-int", "file-int", "flag-fraction", "flag-float", "flag-distribution", "file-bool"],
)
def test_malformed_value_is_a_config_error(tmp_path, capsys, argv, config, where):
    if config is not None:
        path = tmp_path / "run.ini"
        path.write_text(config, encoding="utf-8")
        argv = [*argv, "--config", str(path)]
    out = tmp_path / "bad"
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert f"error[config]: bad value for {where}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["trace", "--format", "xml"], ["figure", "--which", "fig9"]], ids=["format", "which"]
)
def test_unknown_choice_is_a_config_error(tmp_path, capsys, argv):
    assert main([*argv, "--out-dir", str(tmp_path / "bad")]) == 2
    assert "error[config]" in capsys.readouterr().err


COMMON_FLAGS = {
    "--config", "--seed", "--out-dir", "--format", "--quiet", "--n", "--couplings",
    "--amplitudes", "--realizations", "--start", "--stop", "--steps",
}
EXTRA_FLAGS = {
    "trace": set(),
    "ensemble": set(),
    "echo": set(),
    "spectrum": {"--merge", "--no-merge", "--merge-epsilon", "--bins"},
    "ldos": {"--merge", "--no-merge", "--merge-epsilon", "--bins"},
    "check-average": {"--horizon", "--samples"},
    "figure": {"--which", "--bins"},
}


@pytest.mark.parametrize("command", sorted(EXTRA_FLAGS))
def test_help_lists_every_flag_a_subcommand_takes(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert listed == COMMON_FLAGS | EXTRA_FLAGS[command]
