"""Command-line interface: one subcommand per experiment kind.

Every subcommand accepts ``--config PATH`` plus flag overrides; flags
beat config-file values.  Errors go to stderr as ``spinbath:
error[CODE]: message`` with CODE in {config, capacity, io} and exit
codes 2, 3 and 4 respectively.
"""

from __future__ import annotations

import argparse
import sys

from .config import SETTINGS, ConfigError, build_config, load_config
from .errors import CapacityError, DimensionMismatchError, ValidationError

#: subcommand -> (experiment, help, settings beyond the [run], [model] and
#: [grid] ones that every subcommand takes)
_COMMANDS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "trace": ("trace", "run a trace experiment", ()),
    "ensemble": ("ensemble", "run an ensemble experiment", ()),
    "echo": ("echo", "run an echo experiment", ()),
    "spectrum": ("spectrum", "run a spectrum experiment", ("merge", "merge_epsilon", "bins")),
    "ldos": ("ldos", "run an ldos experiment", ("merge", "merge_epsilon", "bins")),
    "check-average": (
        "average-check", "compare analytic vs empirical long-time average", ("horizon", "samples")
    ),
    "figure": ("figure", "emit data files behind one figure", ("figure", "bins")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbath",
        description="Spin-bath dephasing experiments: traces, spectra, ensembles, echoes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [name for name, s in SETTINGS.items() if s.section in ("run", "model", "grid") and s.help]
    for command, (experiment, summary, extra) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.set_defaults(experiment=experiment)
        p.add_argument("--config", metavar="PATH", help="config file (key = value sections)")
        for name in (*common, *extra):
            s = SETTINGS[name]
            p.add_argument(s.flag, dest=name, help=s.help, **(s.keywords or {}))
    return parser


def _fail(code: str, exc: Exception, status: int) -> int:
    print(f"spinbath: error[{code}]: {exc}", file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Imported at call time, so that a replacement of runner.run, such as a
    # tracer's wrapper, is the one called; bound at module top, cli would call
    # the original and the runner.run span would count as cli's own time.
    from .runner import run

    try:
        file_values = load_config(args.config) if args.config else {}
        flags = {
            name: SETTINGS[name].read(value, SETTINGS[name].flag) if isinstance(value, str) else value
            for name, value in vars(args).items() if name in SETTINGS and value is not None
        }
        return run(build_config(file_values, flags))
    except (ConfigError, ValidationError, DimensionMismatchError) as exc:
        return _fail("config", exc, 2)
    except (CapacityError, MemoryError) as exc:  # numpy's, for an array beyond memory
        return _fail("capacity", exc, 3)
    except OSError as exc:
        return _fail("io", exc, 4)


if __name__ == "__main__":
    sys.exit(main())
