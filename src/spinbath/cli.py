"""Command-line interface: one subcommand per experiment kind.

Every subcommand accepts ``--config PATH`` plus flag overrides; flags
beat config-file values.  Errors go to stderr as ``spinbath:
error[CODE]: message`` with CODE in {config, capacity, io} and exit
codes 2, 3 and 4 respectively.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from .config import ConfigError, FIGURES, build_config, load_config
from .errors import CapacityError, DimensionMismatchError, ValidationError

#: The one subcommand whose experiment has another name.
_RENAMED = {"check-average": "average-check"}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="config file (key = value sections)")
    parser.add_argument("--seed", type=int, help="root seed")
    parser.add_argument("--out-dir", dest="out_dir", metavar="DIR", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), help="artifact format")
    parser.add_argument("--quiet", action="store_const", const=True, help="suppress progress output")
    parser.add_argument("--n", type=int, help="environment size")
    parser.add_argument(
        "--couplings", metavar="DIST",
        help="coupling distribution, e.g. 'gaussian(0, 1)' or 'fixed(1.0)'",
    )
    parser.add_argument(
        "--amplitudes", metavar="RULE", help="amplitude rule: equal, fixed(W) or random"
    )
    parser.add_argument("--realizations", type=int, help="ensemble size M")
    parser.add_argument("--start", type=float, help="grid start time")
    parser.add_argument("--stop", type=float, help="grid stop time")
    parser.add_argument("--steps", type=int, help="grid sample count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbath",
        description="Spin-bath dephasing experiments: traces, spectra, ensembles, echoes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("trace", "ensemble", "echo"):
        p = sub.add_parser(name, help=f"run a {name} experiment")
        _add_common(p)

    for name in ("spectrum", "ldos"):
        p = sub.add_parser(name, help=f"run a {name} experiment")
        _add_common(p)
        p.add_argument("--merge", action=argparse.BooleanOptionalAction, help="coalesce degenerate energies")
        p.add_argument("--merge-epsilon", dest="merge_epsilon", type=float, help="degeneracy window")
        p.add_argument("--bins", type=int, help="histogram bin count")

    p = sub.add_parser("check-average", help="compare analytic vs empirical long-time average")
    _add_common(p)
    p.add_argument("--horizon", type=float, help="averaging horizon")
    p.add_argument("--samples", type=int, help="time samples for the estimator")

    p = sub.add_parser("figure", help="emit data files behind one figure")
    _add_common(p)
    p.add_argument("--which", choices=FIGURES, help="figure tag")
    p.add_argument("--bins", type=int, help="histogram bin count")
    return parser


def _overrides(args: argparse.Namespace) -> dict[str, Any]:
    from .ensembles import AmplitudeRule, CouplingDistribution

    out: dict[str, Any] = {"experiment": _RENAMED.get(args.command, args.command)}
    direct = (
        "seed", "out_dir", "format", "quiet", "n", "realizations",
        "start", "stop", "steps", "merge", "merge_epsilon", "bins", "horizon", "samples",
    )
    for name in direct:
        value = getattr(args, name, None)
        if value is not None:
            out[name] = value
    if args.couplings is not None:
        out["distribution"] = CouplingDistribution.parse(args.couplings)
    if args.amplitudes is not None:
        out["amplitudes"] = AmplitudeRule.parse(args.amplitudes)
    if getattr(args, "which", None) is not None:
        out["figure"] = args.which
    return out


def _fail(code: str, exc: Exception, status: int) -> int:
    print(f"spinbath: error[{code}]: {exc}", file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .runner import run

    try:
        file_values = load_config(args.config) if args.config else {}
        cfg = build_config(file_values, _overrides(args))
        return run(cfg)
    except (ConfigError, ValidationError, DimensionMismatchError) as exc:
        return _fail("config", exc, 2)
    except CapacityError as exc:
        return _fail("capacity", exc, 3)
    except OSError as exc:
        return _fail("io", exc, 4)


if __name__ == "__main__":
    sys.exit(main())
