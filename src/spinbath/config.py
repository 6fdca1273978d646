"""Run configuration: INI-style config files plus CLI overrides.

Config files are plain line-oriented ``key = value`` pairs grouped into
sections; there are no nested structures.  ``SETTINGS`` declares each
key, its flag and how both are read.  Flag overrides always beat file
values.  Example::

    [run]
    experiment = trace
    seed = 7
    out_dir = runs/demo

    [model]
    n = 24
    couplings = gaussian(0, 1)

    [grid]
    stop = 2
    steps = 201
"""

from __future__ import annotations

import argparse
import configparser
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, NamedTuple, get_args, get_type_hints

from .ensembles import AmplitudeRule, CouplingDistribution
from .errors import ValidationError
from .model import TimeGrid, _checked_float, _checked_int, _checked_type

EXPERIMENTS = ("trace", "spectrum", "ldos", "ensemble", "echo", "average-check", "figure")
FIGURES = ("fig1", "fig2", "fig3")
FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """A config file or override set cannot be turned into a RunConfig."""


@dataclass(frozen=True)
class RunConfig:
    """Complete, validated description of one experiment run."""

    experiment: str
    n: int = 8
    distribution: CouplingDistribution = CouplingDistribution.gaussian(0.0, 1.0)
    amplitudes: AmplitudeRule = AmplitudeRule.equal()
    seed: int = 0
    realizations: int = 1
    start: float = 0.0
    stop: float = 1.0
    steps: int = 101
    out_dir: Path = Path("runs/out")
    format: str = "csv"
    bins: int | None = None
    merge: bool = False
    merge_epsilon: float | None = None
    horizon: float | None = None
    samples: int = 4096
    figure: str | None = None
    quiet: bool = False

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; pick from {EXPERIMENTS}")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}")
        if self.experiment == "figure":
            if self.figure not in FIGURES:
                raise ConfigError(f"figure experiment needs figure one of {FIGURES}")
        elif self.figure is not None:
            raise ConfigError("figure key only applies to the figure experiment")
        # The CLI and config files convert text; a caller of build_config or
        # RunConfig may not, and the string "false" is truthy.  Every value
        # lands in manifest.json, whose strict JSON has no NaN or Infinity.
        try:
            for name, (kind, *optional) in _FIELD_TYPES.items():
                value = getattr(self, name)
                if kind in (str, Path) or value is None and optional:
                    continue
                if kind is int:
                    value = _checked_int(value, name, None if name == "seed" else 1)
                else:
                    value = _checked_float(value, name) if kind is float else _checked_type(value, kind, name)
                object.__setattr__(self, name, value)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
        if self.merge_epsilon is not None and self.merge_epsilon < 0.0:
            raise ConfigError("merge_epsilon must be >= 0")
        if self.horizon is not None and self.horizon <= 0.0:
            raise ConfigError("horizon must be > 0")
        object.__setattr__(self, "out_dir", Path(self.out_dir))

    def time_grid(self) -> TimeGrid:
        try:
            return TimeGrid(self.start, self.stop, self.steps)
        except ValidationError as exc:
            raise ConfigError(f"bad time grid: {exc}") from exc


#: Each RunConfig field's declared types, such as (int,) or (float, NoneType):
#: the first picks the field's check, a second allows None.  The str and
#: Path fields are checked in __post_init__ by value.
_FIELD_TYPES = {name: get_args(hint) or (hint,) for name, hint in get_type_hints(RunConfig).items()}


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {text}") from None


class Setting(NamedTuple):
    """Where a RunConfig field is read: a config file key and, with help, a flag."""

    section: str
    key: str
    convert: Callable[[str], Any]
    help: str | None = None
    keywords: dict[str, Any] | None = None  # add_argument's, beside the help

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")

    def read(self, text: str, where: str) -> Any:
        """The value that ``text``, found at ``where``, spells."""
        try:
            return self.convert(text)
        except ValueError as exc:  # ValidationError among them
            raise ConfigError(f"bad value for {where}: {exc}") from exc


#: Every setting, by RunConfig field.  The [run], [model] and [grid] ones have
#: a flag in every subcommand, save the experiment, which the subcommand names.
SETTINGS = {
    "experiment": Setting("run", "experiment", str),
    "seed": Setting("run", "seed", int, "root seed"),
    "out_dir": Setting("run", "out_dir", Path, "output directory", {"metavar": "DIR"}),
    "format": Setting(
        "run", "format", str, "artifact format", {"metavar": "{" + ",".join(FORMATS) + "}"}
    ),
    "quiet": Setting(
        "run", "quiet", _boolean, "suppress progress output", {"action": "store_const", "const": True}
    ),
    "n": Setting("model", "n", int, "environment size"),
    "distribution": Setting(
        "model", "couplings", CouplingDistribution.parse,
        "coupling distribution, e.g. 'gaussian(0, 1)' or 'fixed(1.0)'", {"metavar": "DIST"},
    ),
    "amplitudes": Setting(
        "model", "amplitudes", AmplitudeRule.parse, "amplitude rule: equal, fixed(W) or random",
        {"metavar": "RULE"},
    ),
    "realizations": Setting("model", "realizations", int, "ensemble size M"),
    "start": Setting("grid", "start", float, "grid start time"),
    "stop": Setting("grid", "stop", float, "grid stop time"),
    "steps": Setting("grid", "steps", int, "grid sample count"),
    "merge": Setting(
        "spectrum", "merge", _boolean, "coalesce degenerate energies",
        {"action": argparse.BooleanOptionalAction},
    ),
    "merge_epsilon": Setting("spectrum", "merge_epsilon", float, "degeneracy window"),
    "bins": Setting("spectrum", "bins", int, "histogram bin count"),
    "horizon": Setting("average", "horizon", float, "averaging horizon"),
    "samples": Setting("average", "samples", int, "time samples for the estimator"),
    "figure": Setting(
        "figure", "which", str, "figure tag", {"metavar": "{" + ",".join(FIGURES) + "}"}
    ),
}


def load_config(path: str | Path) -> dict[str, Any]:
    """Read a config file into a flat dict of RunConfig field values."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with path.open("r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    names = {(s.section, s.key): name for name, s in SETTINGS.items()}
    values: dict[str, Any] = {}
    for section in parser.sections():
        if section not in {s.section for s in SETTINGS.values()}:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in names:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name = names[section, key]
            values[name] = SETTINGS[name].read(raw, f"[{section}] {key}")
    return values


def build_config(file_values: dict[str, Any], overrides: dict[str, Any]) -> RunConfig:
    """Merge file values with overrides (overrides win) into a RunConfig."""
    merged = {**file_values, **{k: v for k, v in overrides.items() if v is not None}}
    unknown = set(merged) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "experiment" not in merged:
        raise ConfigError("no experiment selected")
    try:
        return RunConfig(**merged)
    except TypeError as exc:  # an out_dir that is not a path
        raise ConfigError(str(exc)) from exc
