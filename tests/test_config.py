"""Tests for config parsing and override merging."""

import numpy as np
import pytest

import spinbath as sb
from spinbath.config import ConfigError, RunConfig, build_config, load_config

FULL = """
[run]
experiment = trace
seed = 7
out_dir = runs/demo
format = json
quiet = true

[model]
n = 12
couplings = gaussian(0, 1)
amplitudes = fixed(0.75)
realizations = 4

[grid]
start = 0
stop = 2.5
steps = 11

[spectrum]
merge = true
merge_epsilon = 1e-8
bins = 16

[average]
horizon = 500
samples = 2048
"""


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_full_config_round_trip(tmp_path):
    values = load_config(write(tmp_path, FULL))
    cfg = build_config(values, {})
    assert cfg.experiment == "trace" and cfg.seed == 7
    assert cfg.format == "json" and cfg.quiet
    assert cfg.n == 12 and cfg.realizations == 4
    assert str(cfg.distribution) == "gaussian(0.0, 1.0)"
    assert cfg.amplitudes.up_weight == 0.75
    assert cfg.merge and cfg.merge_epsilon == 1e-8 and cfg.bins == 16
    assert cfg.horizon == 500.0 and cfg.samples == 2048
    grid = cfg.time_grid()
    assert grid.steps == 11 and grid.stop == 2.5


def test_overrides_beat_file_values(tmp_path):
    values = load_config(write(tmp_path, FULL))
    cfg = build_config(values, {"seed": 99, "n": 3, "experiment": "spectrum"})
    assert cfg.seed == 99 and cfg.n == 3 and cfg.experiment == "spectrum"


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(write(tmp_path, "[mystery]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, "[model]\nspin_count = 4\n"))


def test_bad_value_reports_key(tmp_path):
    with pytest.raises(ConfigError, match="couplings"):
        load_config(write(tmp_path, "[model]\ncouplings = gaussian(0, -1)\n"))
    with pytest.raises(ConfigError, match="steps"):
        load_config(write(tmp_path, "[grid]\nsteps = many\n"))


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("does/not/exist.ini")


def test_experiment_required():
    with pytest.raises(ConfigError, match="no experiment"):
        build_config({}, {})


def test_experiment_name_checked():
    with pytest.raises(ConfigError, match="unknown experiment"):
        build_config({}, {"experiment": "teleport"})


def test_figure_requires_tag():
    with pytest.raises(ConfigError, match="figure"):
        build_config({}, {"experiment": "figure"})
    cfg = build_config({}, {"experiment": "figure", "figure": "fig1"})
    assert cfg.figure == "fig1"
    with pytest.raises(ConfigError):
        build_config({}, {"experiment": "trace", "figure": "fig1"})


def test_bounds_checked():
    with pytest.raises(ConfigError, match="n must be"):
        build_config({}, {"experiment": "trace", "n": 0})
    with pytest.raises(ConfigError, match="format"):
        RunConfig(experiment="trace", format="xml")


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 3.9), ("steps", 4.5), ("seed", 2.9), ("realizations", 1.5), ("samples", 100.5), ("bins", 7.5),
        ("n", True), ("n", np.array(2.5)), ("n", np.array(True)), ("n", np.array([5])),
    ],
)
def test_non_integer_counts_rejected(field, value):
    # int() would store 3, 4, 2, 1, 100, 7 and 1.  A 0-d array is read as
    # the scalar it holds, a 1-d array is no count.
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        RunConfig(experiment="trace", **{field: value})


def test_numpy_and_whole_float_counts_accepted():
    cfg = RunConfig(experiment="ldos", n=np.int64(5), steps=7.0, seed=np.uint64(3), bins=np.int32(9))
    assert (cfg.n, cfg.steps, cfg.seed, cfg.bins) == (5, 7, 3, 9)
    assert all(type(v) is int for v in (cfg.n, cfg.steps, cfg.seed, cfg.bins))
    # 0-d arrays, as _checked_float takes them.
    cfg = RunConfig(experiment="trace", n=np.array(5), steps=np.array(7.0))
    assert (cfg.n, cfg.steps) == (5, 7) and type(cfg.n) is type(cfg.steps) is int


def test_bad_grid_surfaces_as_config_error():
    cfg = build_config({}, {"experiment": "trace", "start": 2.0, "stop": 1.0})
    with pytest.raises(ConfigError, match="grid"):
        cfg.time_grid()


def test_out_dir_that_is_not_a_path_is_a_config_error():
    # Path(5) raises TypeError inside RunConfig; build_config names it.
    with pytest.raises(ConfigError, match="not int"):
        build_config({}, {"experiment": "trace", "out_dir": 5})


def test_validation_error_wrapped():
    with pytest.raises(ConfigError):
        build_config({}, {"experiment": "trace", "distribution": "not-a-distribution", "bogus": 1})


@pytest.mark.parametrize(
    "field, value",
    [
        ("merge", "false"),
        ("merge", 1),
        ("merge", np.bool_(True)),
        ("quiet", "yes"),
        ("quiet", 0),
        ("distribution", "gaussian(0, 1)"),
        ("amplitudes", "equal"),
        ("amplitudes", sb.CouplingDistribution.gaussian(0.0, 1.0)),
    ],
)
def test_field_types_checked(field, value):
    # Config files and flags convert text through SETTINGS; build_config's
    # own callers may pass anything.  The string "false" is truthy, and a
    # distribution given as text would fail only once sampling starts.
    with pytest.raises(ConfigError, match=f"{field} must be a"):
        build_config({}, {"experiment": "spectrum", field: value})
    with pytest.raises(ConfigError, match=f"{field} must be a"):
        RunConfig(experiment="spectrum", **{field: value})


def test_typed_fields_accepted():
    dist = sb.CouplingDistribution.lorentzian(0.0, 0.25)
    rule = sb.AmplitudeRule.random()
    cfg = build_config(
        {}, {"experiment": "ldos", "merge": True, "quiet": False, "distribution": dist, "amplitudes": rule}
    )
    assert (cfg.merge, cfg.quiet, cfg.distribution, cfg.amplitudes) == (True, False, dist, rule)


@pytest.mark.parametrize(
    "field, value",
    [
        ("stop", True),
        ("start", "abc"),
        ("merge_epsilon", False),
        ("merge_epsilon", "1e-9"),
        ("horizon", np.bool_(True)),
        ("horizon", [40.0]),
    ],
)
def test_float_settings_must_be_numbers(field, value):
    # float() would take True as 1.0 and the text "1e-9" as a number;
    # "abc" raised a bare TypeError from math.isfinite.
    with pytest.raises(ConfigError, match=f"{field} must be a number"):
        RunConfig(experiment="trace", **{field: value})
    with pytest.raises(ConfigError, match=f"{field} must be a number"):
        build_config({}, {"experiment": "trace", field: value})


def test_float_settings_stored_as_float(tmp_path):
    # stop=2 wrote "stop": 2 to the manifest where --stop 2 writes 2.0.
    cfg = RunConfig(
        experiment="trace", start=0, stop=2, merge_epsilon=np.float32(0.5), horizon=np.int64(40),
        steps=3, out_dir=tmp_path, quiet=True,
    )
    values = (cfg.start, cfg.stop, cfg.merge_epsilon, cfg.horizon)
    assert values == (0.0, 2.0, 0.5, 40.0)
    assert all(type(v) is float for v in values)
    sb.run(cfg)
    manifest = (tmp_path / "manifest.json").read_text(encoding="utf-8")
    assert '"start": 0.0' in manifest and '"stop": 2.0' in manifest


def test_int_beyond_every_float_is_not_finite():
    with pytest.raises(ConfigError, match="horizon must be finite"):
        RunConfig(experiment="trace", horizon=10**400)
