"""Tests for the command-line surface: overrides, exit codes, script wiring."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinbath import runner
from spinbath.cli import build_parser, main
from spinbath.config import SETTINGS, RunConfig
from spinbath.ensembles import _COUPLING_KINDS


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


def test_config_file_not_utf8_exit_code(tmp_path, capsys):
    # configparser reads the file's lines; bytes that are not UTF-8 raise
    # UnicodeDecodeError, which escaped as a traceback with exit 1.
    path = tmp_path / "bad.ini"
    path.write_bytes(b"[run]\nseed = \xff\xfe7\n")
    out = tmp_path / "out"
    code = main(["trace", "--config", str(path), "--out-dir", str(out), "--quiet"])
    assert code == 2
    assert f"error[config]: cannot parse {path}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_invalid_distribution_exit_code(capsys):
    code = main(["trace", "--couplings", "gaussian(0, -3)", "--out-dir", "unused"])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


def test_capacity_exit_code(tmp_path, capsys):
    code = main(["spectrum", "--n", "30", "--out-dir", str(tmp_path / "cap")])
    assert code == 3
    err = capsys.readouterr().err
    assert "error[capacity]" in err and "2^30" in err


@pytest.mark.parametrize(
    "argv", [["trace", "--steps", str(1 << 59)], ["check-average", "--samples", str(1 << 59)]]
)
def test_size_beyond_the_address_space_is_a_capacity_error(tmp_path, capsys, argv):
    # A 4 EiB array: numpy's MemoryError is raised at once, with nothing
    # allocated, and was a traceback with exit 1.
    out = tmp_path / "huge"
    assert main([*argv, "--out-dir", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "error[capacity]: Unable to allocate 4.00 EiB" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["ensemble"], ["figure", "--which", "fig2"], ["figure", "--which", "fig3"]],
    ids=["ensemble", "fig2", "fig3"],
)
def test_ensemble_beyond_numpy_array_size_is_a_capacity_error(tmp_path, capsys, monkeypatch, argv):
    # 2^59 realizations x 3 steps x 16 bytes overflow numpy's 64-bit
    # index, so np.empty raised ValueError: exit 1 with a traceback.  The
    # figures raise before they enumerate walks; fig2 enumerated 2^24 first.
    def no_walks(*_args, **_kwargs):
        raise AssertionError("a walk was enumerated")

    monkeypatch.setattr(runner, "enumerate_walks", no_walks)
    out = tmp_path / "huge"
    tracemalloc.start()
    try:
        code = main(
            [*argv, "--realizations", str(1 << 59), "--steps", "3", "--out-dir", str(out), "--quiet"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert "error[capacity]" in err and f"= {(1 << 59) * 3 * 16} bytes" in err
    assert list(out.iterdir()) == []
    assert peak < 1 << 23  # fig3's coupling histogram draws; no realization is stored


def test_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("occupied", encoding="utf-8")
    code = main(["trace", "--n", "2", "--steps", "3", "--out-dir", str(blocker)])
    assert code == 4
    assert "error[io]" in capsys.readouterr().err


def test_failed_write_leaves_no_stale_manifest(tmp_path, capsys):
    # The rerun overwrites both histograms, then fails on the traces; the
    # first run's manifest would list the old histograms' hashes.
    out = tmp_path / "fig3"
    argv = ["figure", "--which", "fig3", "--n", "4", "--realizations", "2", "--steps", "5",
            "--out-dir", str(out), "--quiet"]
    assert main(argv) == 0
    (out / "fig3_traces_n4.csv").unlink()
    (out / "fig3_traces_n4.csv").mkdir()
    assert main([*argv, "--seed", "9"]) == 4
    assert "error[io]" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "fig3_couplings_hist.csv", "fig3_energy_hist_n4.csv", "fig3_trace_n100.csv", "fig3_traces_n4.csv"
    ]


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
    # Warnings are errors in this suite, so the overflow must not warn.
    out = tmp_path / "huge"
    argv = [command, "--n", "2", "--couplings", "fixed(1e308)", "--stop", "10",
            "--format", "json", "--out-dir", str(out), "--quiet"]
    assert main(argv) == 2
    assert "error[config]" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_overflowing_walk_energies_name_the_couplings(tmp_path, capsys):
    # Twelve couplings of 1e308 sum past the float range; the run names
    # that sum before it allocates, not the spectrum it would have built.
    out = tmp_path / "huge"
    argv = ["spectrum", "--n", "12", "--couplings", "fixed(1e308)", "--out-dir", str(out), "--quiet"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error[config]: sum of |couplings| overflows to inf; walk energies would too" in err
    assert list(out.iterdir()) == []


def test_echo_near_the_float_limit_matches_trace(tmp_path):
    # 2g overflows at g = 1e308, but g t does not at t <= 1e-300.
    model = ["--n", "2", "--couplings", "fixed(1e308)", "--stop", "1e-300", "--steps", "3"]
    assert main(["echo", *model, "--out-dir", str(tmp_path / "echo"), "--quiet"]) == 0
    assert main(["trace", *model, "--out-dir", str(tmp_path / "trace"), "--quiet"]) == 0
    echo = (tmp_path / "echo" / "echo.csv").read_text(encoding="utf-8").splitlines()
    trace = (tmp_path / "trace" / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert [row.rpartition(",")[0] for row in echo] == trace


@pytest.mark.parametrize("rule", ["equal", "fixed(0.8)", "random", "fixed(1.0)", "fixed(0.0)"])
@pytest.mark.parametrize(
    "dist", ["fixed(0.7)", "gaussian(0.3, 0.5)", "lorentzian(0.4, 0.2)", "uniform(0.5, 2)"]
)
def test_echo_columns_are_the_trace(tmp_path, dist, rule):
    # h1 = -h0 makes the echo amplitude the decoherence factor, bit for bit.
    model = ["--n", "12", "--couplings", dist, "--amplitudes", rule,
             "--start", "-7", "--stop", "30", "--steps", "101", "--quiet"]
    assert main(["echo", *model, "--out-dir", str(tmp_path / "echo")]) == 0
    assert main(["trace", *model, "--out-dir", str(tmp_path / "trace")]) == 0
    echo = (tmp_path / "echo" / "echo.csv").read_text(encoding="utf-8").splitlines()
    trace = (tmp_path / "trace" / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert [row.rpartition(",")[0] for row in echo] == trace
    # survival_p is |r|^2 under branch 1, whose |r| is the trace's: libm's pow.
    assert echo[0].endswith(",abs_r,survival_p")
    cells = [row.split(",")[-2:] for row in echo[1:]]
    assert all(float(p).hex() == (float(a) ** 2).hex() for a, p in cells)


def test_failing_figure_writes_no_file(tmp_path, capsys):
    # The N = 100 trace overflows; none of the figure's tables may be
    # written, and numpy may not warn.
    out = tmp_path / "fig3"
    argv = ["figure", "--which", "fig3", "--couplings", "lorentzian(0, 1e300)", "--n", "4",
            "--realizations", "2", "--stop", "1e8", "--steps", "5", "--out-dir", str(out)]
    assert main(argv) == 2
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


@pytest.mark.parametrize(
    "argv",
    [
        ["ldos", "stray"],
        ["spectrum", "--n", "3", "stray", "--merge"],
        ["figure", "--which", "fig1", "--nope"],
        ["ldos", "--n"],
        ["bogus"],
        [],
        ["--help"],
        ["echo", "--help"],
    ],
    ids=["stray-positional", "stray-between-flags", "unknown-flag", "missing-value",
         "unknown-command", "no-command", "help", "subcommand-help"],
)
def test_parser_of_one_subcommand_speaks_as_the_full_parser(capsys, argv):
    # main builds options for the named subcommand only; what argparse
    # prints, and its exit code, must be those of the full parser.
    def outcome(parse):
        with pytest.raises(SystemExit) as exit_info:
            parse()
        return exit_info.value.code, capsys.readouterr()

    want = outcome(lambda: build_parser().parse_args(argv))
    assert outcome(lambda: main(argv)) == want
    assert want[0] in (0, 2)


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


#: Floats at every scale of the double range, both zeros' neighbours included.
EXTREMES = [
    0.0, 5e-324, -5e-324, 1e-310, 1e-300, 1e-100, 1.0, -1.0,
    1e100, 1e300, 1e308, -1e308, sys.float_info.max, -sys.float_info.max,
]

#: Subcommand argv heads, each with the flags only it takes.  fig2 is left
#: out: it always enumerates 2^24 walks.
_HEADS = {
    "trace": (["trace"], ()),
    "spectrum": (["spectrum", "--bins=7"], ("merge_epsilon",)),
    "ldos": (["ldos", "--bins=7"], ("merge_epsilon",)),
    "ensemble": (["ensemble"], ()),
    "echo": (["echo"], ()),
    "check-average": (["check-average", "--samples=64"], ("horizon",)),
    "fig1": (["figure", "--which=fig1", "--bins=7"], ()),
    "fig3": (["figure", "--which=fig3", "--bins=7"], ()),
}

@st.composite
def extreme_argvs(draw):
    """A CLI argv whose floats come from EXTREMES, at sizes that allocate
    a few MiB at most.  Every value is spelt ``--flag=value``, since
    argparse reads the -1e308 of ``--start -1e308`` as a flag."""
    head, extra = _HEADS[draw(st.sampled_from(sorted(_HEADS)))]
    value = st.sampled_from(EXTREMES)
    kind = draw(st.sampled_from(sorted(_COUPLING_KINDS)))
    params = ", ".join(repr(draw(value)) for _ in range(_COUPLING_KINDS[kind]))
    argv = [
        *head,
        f"--n={draw(st.integers(1, 8))}",
        f"--couplings={kind}({params})",
        f"--amplitudes={draw(st.sampled_from(['equal', 'fixed(0.3)', 'random']))}",
        f"--format={draw(st.sampled_from(['csv', 'json']))}",
        f"--start={draw(value)!r}",
        f"--stop={draw(value)!r}",
        "--steps=3",
        "--realizations=2",
    ]
    if "merge_epsilon" in extra:
        argv += [f"--merge-epsilon={draw(value)!r}", draw(st.sampled_from(["--merge", "--no-merge"]))]
    if "horizon" in extra:
        argv.append(f"--horizon={draw(value)!r}")
    return argv


def _assert_finite_outputs(out: Path) -> None:
    """Every output the manifest lists exists, every JSON file is strict
    JSON and every CSV cell is a finite number."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert all((out / entry["file"]).is_file() for entry in manifest["outputs"])
    for path in sorted(out.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=_reject_constant)
            continue
        for row in text.splitlines()[1:]:
            assert all(math.isfinite(float(cell)) for cell in row.split(",")), (path.name, row)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=extreme_argvs())
@example(argv=["echo", "--n=2", "--couplings=fixed(1e308)", "--stop=10", "--steps=3"])
@example(
    argv=["figure", "--which=fig3", "--couplings=lorentzian(0, 1e300)", "--n=4",
          "--realizations=2", "--stop=1e8", "--steps=5"]
)
@example(argv=["trace", "--start=-1e308", "--stop=1e308"])
def test_extreme_floats_keep_the_exit_contract(argv):
    # Exit 0 with finite, strict outputs, or exit 2 or 3 with nothing
    # written.  Warnings are errors in this suite, so a run that warns
    # fails here: the exit code must not depend on the warnings filter.
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, f"--out-dir={out}", "--quiet"])
        if code == 0:
            _assert_finite_outputs(out)
        else:
            assert code in (2, 3), err.getvalue()
            assert not out.exists() or list(out.iterdir()) == [], err.getvalue()
