"""Run configuration: INI-style config files plus CLI overrides.

Config files are plain line-oriented ``key = value`` pairs grouped into
sections; there are no nested structures.  Flag overrides always beat
file values.  Example::

    [run]
    experiment = trace
    seed = 7
    out_dir = runs/demo
    format = csv

    [model]
    n = 24
    couplings = gaussian(0, 1)
    amplitudes = equal
    realizations = 1

    [grid]
    start = 0
    stop = 2
    steps = 201
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .ensembles import AmplitudeRule, CouplingDistribution
from .errors import ValidationError
from .model import TimeGrid

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
        for name, lo in (("n", 1), ("realizations", 1), ("steps", 1), ("samples", 1)):
            if int(getattr(self, name)) < lo:
                raise ConfigError(f"{name} must be >= {lo}")
        # Checked whatever the experiment: every value lands in manifest.json,
        # which holds strict JSON (no NaN or Infinity).
        for name in ("start", "stop", "merge_epsilon", "horizon"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.merge_epsilon is not None and self.merge_epsilon < 0.0:
            raise ConfigError("merge_epsilon must be >= 0")
        if self.horizon is not None and self.horizon <= 0.0:
            raise ConfigError("horizon must be > 0")
        if self.bins is not None and int(self.bins) < 1:
            raise ConfigError("bins must be >= 1")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "realizations", int(self.realizations))
        object.__setattr__(self, "steps", int(self.steps))
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "out_dir", Path(self.out_dir))

    def time_grid(self) -> TimeGrid:
        try:
            return TimeGrid(self.start, self.stop, self.steps)
        except ValidationError as exc:
            raise ConfigError(f"bad time grid: {exc}") from exc


# section -> key -> (RunConfig field, converter)
_SCHEMA: dict[str, dict[str, tuple[str, Any]]] = {
    "run": {
        "experiment": ("experiment", str),
        "seed": ("seed", int),
        "out_dir": ("out_dir", Path),
        "format": ("format", str),
        "quiet": ("quiet", None),  # boolean
    },
    "model": {
        "n": ("n", int),
        "couplings": ("distribution", CouplingDistribution.parse),
        "amplitudes": ("amplitudes", AmplitudeRule.parse),
        "realizations": ("realizations", int),
    },
    "grid": {
        "start": ("start", float),
        "stop": ("stop", float),
        "steps": ("steps", int),
    },
    "spectrum": {
        "merge": ("merge", None),
        "merge_epsilon": ("merge_epsilon", float),
        "bins": ("bins", int),
    },
    "average": {
        "horizon": ("horizon", float),
        "samples": ("samples", int),
    },
    "figure": {
        "which": ("figure", str),
    },
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
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    values: dict[str, Any] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field_name, convert = _SCHEMA[section][key]
            try:
                if convert is None:
                    values[field_name] = parser.getboolean(section, key)
                else:
                    values[field_name] = convert(raw)
            except (ValueError, ValidationError) as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    return values


def build_config(
    file_values: dict[str, Any], overrides: dict[str, Any]
) -> RunConfig:
    """Merge file values with overrides (overrides win) into a RunConfig."""
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(RunConfig)}
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "experiment" not in merged:
        raise ConfigError("no experiment selected")
    try:
        return RunConfig(**merged)
    except (ValidationError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
