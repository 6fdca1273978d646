"""Experiment orchestration and artifact persistence.

Every run writes its artifacts plus a ``manifest.json`` recording the
fully resolved configuration, the seed/stream layout, the library
version, and one checksummed entry per output file.  Numeric cells are
written with shortest round-trip formatting, so identical configs
reproduce byte-identical files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .config import RunConfig
from .echo import DiagonalBranchHamiltonian, echo_amplitude, survival_probability
from .ensembles import (
    CouplingDistribution,
    EnsembleSpec,
    ensemble_average_trace,
    realization_model,
    sample_couplings,
)
from .limits import check_time_average, gaussian_validity_window, summarize
from .model import DecoherenceTrace, decoherence_trace
from .spectrum import (
    _CHUNK_ROWS,
    _checked_bins,
    default_merge_epsilon,
    enumerate_walks,
    ldos,
    merge_degenerate,
)

#: Stream reserved for figure coupling histograms; realization streams are
#: 2i and 2i+1, so a huge constant cannot collide.
_HIST_STREAM = 1 << 62

_HIST_DRAWS = 10_000


def _write_hashed(path: Path, blocks: Iterable[str]) -> str:
    """Write text blocks to path as UTF-8; return the sha256 of the bytes written."""
    digest = hashlib.sha256()
    with path.open("wb") as fh:
        for text in blocks:
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _write_json(path: Path, payload: dict[str, Any]) -> str:
    return _write_hashed(path, [json.dumps(payload, indent=2, sort_keys=True), "\n"])


def _json_repr(value: float) -> str:
    # repr spells non-finite floats nan, inf and -inf, which no finite
    # cell contains; json spells them NaN, Infinity and -Infinity.
    return repr(value).replace("nan", "NaN").replace("inf", "Infinity")


def _cells(
    col: np.ndarray, rows: int, nonfinite_repr: Callable[[Any], str]
) -> Iterator[Iterable[str]]:
    """The text of each value of a column, one chunk of rows at a time.

    ``tolist`` yields Python ints and floats, whose ``repr`` is the
    shortest round-trip form, in CSV cells and JSON numbers alike.  A
    chunk that holds a NaN or an infinity is spelt by ``nonfinite_repr``
    instead.  A chunk whose rows all have the same bits, such as a
    repeated walk weight, is formatted once; comparing bits, not values,
    keeps -0.0 and 0.0 apart.  Columns are float64 or int64, whose bits
    view as int64.
    """
    for start in range(0, rows, _CHUNK_ROWS):
        chunk = col[start : start + _CHUNK_ROWS]
        bits = chunk.view(np.int64)
        if (bits == bits[0]).all():
            value = chunk[0].item()
            spell = repr if math.isfinite(value) else nonfinite_repr
            yield itertools.repeat(spell(value), chunk.size)
        else:
            spell = repr if np.isfinite(chunk).all() else nonfinite_repr
            yield map(spell, chunk.tolist())


def _csv_blocks(columns: dict[str, np.ndarray], rows: int) -> Iterator[str]:
    yield ",".join(columns) + "\n"
    for chunk in zip(*(_cells(col, rows, repr) for col in columns.values())):
        yield "\n".join(map(",".join, zip(*chunk)))
        yield "\n"


def _json_blocks(columns: dict[str, np.ndarray], rows: int) -> Iterator[str]:
    """The bytes of ``json.dump({header: col.tolist()}, indent=2)`` plus a newline."""
    opening = "{"
    for header, col in columns.items():
        yield f"{opening}\n  {json.dumps(header)}: ["
        opening = ","
        separator = "\n    "
        for chunk in _cells(col, rows, _json_repr):
            yield separator
            yield ",\n    ".join(chunk)
            separator = ",\n    "
        yield "\n  ]" if rows else "]"
    yield "\n}\n"


def _write_table(path: Path, columns: dict[str, np.ndarray]) -> tuple[int, str]:
    """Write equal-length named columns, in order, as CSV or JSON by suffix.

    The file is streamed in chunks of rows and hashed as it is written.
    Returns the column length and the sha256 of the file.
    """
    (rows,) = {len(col) for col in columns.values()}  # unpacking fails on ragged columns
    blocks = _csv_blocks if path.suffix == ".csv" else _json_blocks
    return rows, _write_hashed(path, blocks(columns, rows))


def _r_columns(times: np.ndarray, values: np.ndarray) -> dict[str, np.ndarray]:
    # np.hypot matches scalar abs() of a complex bit for bit; the array
    # np.abs does not, and the published abs_r cells come from abs().
    return {
        "t": times,
        "re_r": values.real,
        "im_r": values.imag,
        "abs_r": np.hypot(values.real, values.imag),
    }


def _histogram_columns(edges: np.ndarray, masses: np.ndarray) -> dict[str, np.ndarray]:
    return {"bin_lo": edges[:-1], "bin_hi": edges[1:], "mass": masses}


class _Artifacts:
    """Collects output files and their manifest entries for one run."""

    def __init__(self, out_dir: Path, fmt: str, quiet: bool) -> None:
        self.out_dir = out_dir
        self.fmt = fmt
        self.quiet = quiet
        self.entries: list[dict[str, Any]] = []

    def _register(self, path: Path, role: str, digest: str, rows: int | None) -> None:
        entry: dict[str, Any] = {"file": path.name, "role": role, "sha256": digest}
        if rows is not None:
            entry["rows"] = rows
        self.entries.append(entry)
        if not self.quiet:
            print(f"wrote {path}")

    def table(self, name: str, role: str, columns: dict[str, np.ndarray]) -> None:
        path = self.out_dir / f"{name}.{self.fmt}"
        rows, digest = _write_table(path, columns)
        self._register(path, role, digest, rows)

    def json_report(self, name: str, role: str, payload: dict[str, Any]) -> None:
        path = self.out_dir / f"{name}.json"
        self._register(path, role, _write_json(path, payload), None)


def _ensemble_table(
    art: _Artifacts,
    name: str,
    role: str,
    traces: Sequence[DecoherenceTrace],
    labels: Sequence[int],
    floor: float | None,
) -> None:
    """Stack traces on one time grid, each row tagged with its entry of ``labels``."""
    steps = len(traces[0])
    columns = {"realization": np.repeat(labels, steps)}
    columns.update(
        _r_columns(
            np.concatenate([trace.times for trace in traces]),
            np.concatenate([trace.values for trace in traces]),
        )
    )
    if floor is not None:
        columns["floor"] = np.full(steps * len(traces), floor)
    art.table(name, role, columns)


def _spec(cfg: RunConfig, dist=None, n: int | None = None, realizations: int = 1):
    return EnsembleSpec(
        distribution=cfg.distribution if dist is None else dist,
        amplitudes=cfg.amplitudes,
        n=cfg.n if n is None else n,
        realizations=realizations,
        seed=cfg.seed,
    )


def _model(cfg: RunConfig, dist=None, n: int | None = None):
    """Couplings and amplitudes of a single-model run: realization 0."""
    return realization_model(_spec(cfg, dist, n), 0)


def _spectrum_for(cfg: RunConfig):
    couplings, amps = _model(cfg)
    spec = enumerate_walks(couplings, amps)
    epsilon = None
    if cfg.merge:
        epsilon = (
            cfg.merge_epsilon
            if cfg.merge_epsilon is not None
            else default_merge_epsilon(couplings)
        )
        spec = merge_degenerate(spec, epsilon)
    return couplings, amps, spec, epsilon


def _run_trace(cfg: RunConfig, art: _Artifacts) -> dict[str, Any]:
    couplings, amps = _model(cfg)
    trace = decoherence_trace(couplings, amps, cfg.time_grid())
    art.table("trace", "trace", _r_columns(trace.times, trace.values))
    summary = summarize(couplings, amps)
    info: dict[str, Any] = {
        "mean_energy": summary.mean,
        "energy_variance": summary.variance,
    }
    if summary.variance > 0.0:
        info["gaussian_window"] = gaussian_validity_window(summary)
    return info


def _run_spectrum(cfg: RunConfig, art: _Artifacts) -> dict[str, Any]:
    _, _, spec, epsilon = _spectrum_for(cfg)
    art.table("spectrum", "spectrum", {"energy": spec.energies, "weight": spec.weights})
    info: dict[str, Any] = {"entries": len(spec), "merged": spec.merged}
    if epsilon is not None:
        info["merge_epsilon"] = epsilon
    return info


def _run_ldos(cfg: RunConfig, art: _Artifacts) -> dict[str, Any]:
    _, _, spec, epsilon = _spectrum_for(cfg)
    hist = ldos(spec, cfg.bins)
    art.table("ldos", "ldos", _histogram_columns(hist.edges, hist.masses))
    info: dict[str, Any] = {"bins": hist.masses.size, "merged": spec.merged}
    if epsilon is not None:
        info["merge_epsilon"] = epsilon
    return info


def _run_ensemble(cfg: RunConfig, art: _Artifacts) -> dict[str, Any]:
    _ensemble_artifact(cfg, art, "ensemble", "ensemble-traces", cfg.distribution, cfg.n, None)
    return {"realizations": cfg.realizations}


def _run_echo(cfg: RunConfig, art: _Artifacts) -> dict[str, Any]:
    couplings, amps = _model(cfg)
    h0 = DiagonalBranchHamiltonian.from_couplings(couplings)
    h1 = -h0
    times = cfg.time_grid().samples
    values = np.array([echo_amplitude(h0, h1, amps, t) for t in times])
    columns = _r_columns(times, values)
    columns["survival_p"] = np.array([survival_probability(h1, amps, t) for t in times])
    art.table("echo", "echo-trace", columns)
    return {"branches": "h0 = (+g, -g); h1 = -h0"}


def _run_average_check(cfg: RunConfig, art: _Artifacts) -> dict[str, Any]:
    couplings, amps = _model(cfg)
    check = check_time_average(couplings, amps, horizon=cfg.horizon, samples=cfg.samples)
    art.json_report(
        "average_check",
        "average-check",
        {
            "analytic": check.analytic,
            "empirical": check.empirical,
            "stderr": check.stderr,
            "n_sigma": check.n_sigma,
            "horizon": check.horizon,
            "samples": check.samples,
        },
    )
    return {"horizon": check.horizon, "samples": check.samples}


def _coupling_histogram(cfg: RunConfig, art: _Artifacts, name: str, dist) -> None:
    draws = sample_couplings(dist, _HIST_DRAWS, cfg.seed, stream=_HIST_STREAM).couplings
    bins = math.ceil(math.sqrt(_HIST_DRAWS))
    counts, edges = np.histogram(draws, bins=bins)
    art.table(name, "coupling-histogram", _histogram_columns(edges, counts / draws.size))


def _energy_histogram(cfg: RunConfig, art: _Artifacts, name: str, dist, n: int) -> None:
    couplings, amps = _model(cfg, dist, n)
    hist = ldos(enumerate_walks(couplings, amps), cfg.bins)
    art.table(name, f"energy-histogram-n{n}", _histogram_columns(hist.edges, hist.masses))


def _ensemble_artifact(
    cfg: RunConfig, art: _Artifacts, name: str, role: str, dist, n: int, floor: float | None
) -> None:
    spec = _spec(cfg, dist, n, cfg.realizations)
    result = ensemble_average_trace(spec, cfg.time_grid(), keep_realizations=True)
    traces = [*result.realizations, result.mean]
    _ensemble_table(art, name, role, traces, [*range(len(traces) - 1), -1], floor)


def _emit_fig1(cfg: RunConfig, art: _Artifacts) -> dict[str, Any]:
    equal_dist = (
        cfg.distribution
        if cfg.distribution.kind == "fixed"
        else CouplingDistribution.fixed(1.0)
    )
    walk_dist = (
        cfg.distribution
        if cfg.distribution.kind != "fixed"
        else CouplingDistribution.gaussian(0.0, 1.0)
    )
    couplings, amps = _model(cfg, equal_dist)
    merged = merge_degenerate(
        enumerate_walks(couplings, amps), default_merge_epsilon(couplings)
    )
    art.table(
        "fig1_equal_spectrum",
        "equal-couplings",
        {"energy": merged.energies, "weight": merged.weights},
    )
    walk_couplings, _ = _model(cfg, walk_dist)
    walk_spec = enumerate_walks(walk_couplings, amps)
    art.table(
        "fig1_walk_spectrum",
        "distinct-couplings",
        {"energy": walk_spec.energies, "weight": walk_spec.weights},
    )
    return {"equal_distribution": str(equal_dist), "walk_distribution": str(walk_dist)}


def _emit_fig2(cfg: RunConfig, art: _Artifacts) -> dict[str, Any]:
    dist = cfg.distribution
    _coupling_histogram(cfg, art, "fig2_couplings_hist", dist)
    for n in (6, 24):
        _energy_histogram(cfg, art, f"fig2_energy_hist_n{n}", dist, n)
    _ensemble_artifact(cfg, art, "fig2_traces_n6", "traces-dashed-n6", dist, 6, None)
    _ensemble_artifact(cfg, art, "fig2_traces_n24", "traces-thin-n24", dist, 24, None)
    return {"distribution": str(dist), "mean_role": "rows with realization = -1 (bold)"}


def _emit_fig3(cfg: RunConfig, art: _Artifacts) -> dict[str, Any]:
    dist = (
        cfg.distribution
        if cfg.distribution.kind == "lorentzian"
        else CouplingDistribution.lorentzian(0.0, 0.25)
    )
    _coupling_histogram(cfg, art, "fig3_couplings_hist", dist)
    _energy_histogram(cfg, art, f"fig3_energy_hist_n{cfg.n}", dist, cfg.n)
    floor = 2.0 ** (-cfg.n / 2.0)
    _ensemble_artifact(cfg, art, f"fig3_traces_n{cfg.n}", f"traces-n{cfg.n}", dist, cfg.n, floor)
    couplings, amps = _model(cfg, dist, 100)
    trace = decoherence_trace(couplings, amps, cfg.time_grid())
    _ensemble_table(art, "fig3_trace_n100", "trace-thin-n100", [trace], [0], 2.0**-50)
    return {"distribution": str(dist), "saturation_floor": floor}


_EXPERIMENT_RUNNERS = {
    "trace": _run_trace,
    "spectrum": _run_spectrum,
    "ldos": _run_ldos,
    "ensemble": _run_ensemble,
    "echo": _run_echo,
    "average-check": _run_average_check,
}

_FIGURE_EMITTERS = {"fig1": _emit_fig1, "fig2": _emit_fig2, "fig3": _emit_fig3}


def _config_dict(cfg: RunConfig) -> dict[str, Any]:
    return {
        "experiment": cfg.experiment,
        "n": cfg.n,
        "couplings": str(cfg.distribution),
        "amplitudes": str(cfg.amplitudes),
        "seed": cfg.seed,
        "realizations": cfg.realizations,
        "grid": {"start": cfg.start, "stop": cfg.stop, "steps": cfg.steps},
        "out_dir": str(cfg.out_dir),
        "format": cfg.format,
        "bins": cfg.bins,
        "merge": cfg.merge,
        "merge_epsilon": cfg.merge_epsilon,
        "horizon": cfg.horizon,
        "samples": cfg.samples,
        "figure": cfg.figure,
    }


def run(cfg: RunConfig) -> int:
    """Execute one experiment, writing artifacts and a manifest.

    Returns 0 on success; validation, capacity and I/O problems raise and
    are mapped to exit codes by the CLI.
    """
    if cfg.bins is not None:
        _checked_bins(cfg.bins)  # before any walk is enumerated
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    art = _Artifacts(out_dir, cfg.format, cfg.quiet)
    if cfg.experiment == "figure":
        info = _FIGURE_EMITTERS[cfg.figure](cfg, art)
    else:
        info = _EXPERIMENT_RUNNERS[cfg.experiment](cfg, art)
    manifest = {
        "version": __version__,
        "config": _config_dict(cfg),
        "seed_streams": "realization i: couplings stream 2i, amplitudes stream 2i+1",
        "details": info,
        "outputs": art.entries,
    }
    _write_json(out_dir / "manifest.json", manifest)
    if not cfg.quiet:
        print(f"wrote {out_dir / 'manifest.json'}")
    return 0
