"""Experiment orchestration and artifact persistence.

Each experiment and figure is a plain computation from the config to its
outputs (a file stem, a role and the table columns) and the manifest
details; it opens no file.  ``run`` alone writes: once every output is
computed, it writes each one, then a ``manifest.json`` recording the
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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

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
from .errors import ValidationError
from .limits import TimeAverageCheck, check_time_average, gaussian_validity_window, summarize
from .model import decoherence_trace
from .spectrum import (
    _CHUNK_ROWS,
    EnergySpectrum,
    _checked_bins,
    _uniform_edges,
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
    # Strict JSON: a NaN or infinity raises ValueError before path is opened.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    return _write_hashed(path, [text, "\n"])


@dataclass(frozen=True)
class _Tiled:
    """A column holding ``reps`` copies of the 1-d array ``tile`` end to end."""

    tile: np.ndarray
    reps: int

    def __len__(self) -> int:
        return self.tile.size * self.reps


_Column = np.ndarray | _Tiled


def _pieces(col: _Column, rows: int) -> Iterator[np.ndarray | Iterable[str]]:
    """A column one chunk of rows at a time: an array chunk, or the text
    of a ``_Tiled`` chunk, whose tile is spelt once per table."""
    if isinstance(col, _Tiled):
        text = [repr(value) for value in col.tile.tolist()]
        for start in range(0, rows, _CHUNK_ROWS):
            offset = start % len(text)
            size = min(_CHUNK_ROWS, rows - start)
            yield itertools.islice(itertools.cycle(text), offset, offset + size)
        return
    for start in range(0, rows, _CHUNK_ROWS):
        yield col[start : start + _CHUNK_ROWS]


#: The text of +0.0 and -0.0, indexed by the sign bit.
_ZEROS = ("0.0", "-0.0")


def _spelt(chunk: np.ndarray) -> Iterable[str]:
    """The text of one array chunk of ``_cells``."""
    bits = chunk.view(np.int64)
    if (bits == bits[0]).all():
        return itertools.repeat(repr(chunk[0].item()), chunk.size)
    if chunk.dtype == np.float64 and chunk[0] == 0.0 and not chunk.any():
        return map(_ZEROS.__getitem__, np.signbit(chunk).tolist())
    return map(repr, chunk.tolist())


def _cells(col: _Column, rows: int) -> Iterator[Iterable[str]]:
    """The text of each value of a column, one chunk of rows at a time.

    ``tolist`` yields Python ints and floats, whose ``repr`` is the
    shortest round-trip form, in CSV cells and JSON numbers alike, since
    every value is finite (``_write_table`` checks).  Columns are float64
    or int64, whose bits view as int64.  Three kinds of chunk skip
    ``repr`` per row, with the same text:

    - every row has the same bits, such as a repeated walk weight: the
      value is formatted once.  Comparing bits, not values, keeps -0.0
      and 0.0 apart;
    - a float64 chunk of zeros only (``not chunk.any()``), such as the
      imaginary part of a real r(t): ``repr`` of a zero is ``0.0`` or
      ``-0.0``, so its sign bit picks the text;
    - a ``_Tiled`` column: the tile is formatted once per table.

    ``_csv_blocks`` adds one rule across columns.
    """
    for piece in _pieces(col, rows):
        yield _spelt(piece) if isinstance(piece, np.ndarray) else piece


def _is_abs(chunk: np.ndarray, source: np.ndarray) -> bool:
    """Whether chunk holds the bits of np.abs(source), a float64 chunk."""
    return (
        chunk.dtype == np.float64
        and abs(source[0]) == chunk[0]  # one cell rules out most columns
        and np.array_equal(np.abs(source).view(np.int64), chunk.view(np.int64))
    )


def _csv_blocks(columns: dict[str, _Column], rows: int) -> Iterator[str]:
    """The CSV lines of the columns, one chunk of rows per block.

    Cells are spelt as by ``_cells``, with one more rule: a float64
    chunk with the bits of ``np.abs`` of an earlier float64 column's
    chunk, such as ``abs_r`` beside the ``re_r`` of a real r(t), takes
    that column's cells with any leading ``-`` dropped.  This is exact:
    for finite x, the only kind a table holds, ``repr(abs(x))`` is
    ``repr(x)`` without its sign, and -0.0 gives 0.0.  Only the earlier
    chunk's text is held as a list, and only while its chunk is written.
    JSON writes column after column, so sharing text there would hold a
    whole column; it spells such a column itself.
    """
    yield ",".join(columns) + "\n"
    for pieces in zip(*(_pieces(col, rows) for col in columns.values())):
        cells: list[Iterable[str]] = []
        sources: list[int] = []  # indices of float64 chunks
        for piece in pieces:
            if not isinstance(piece, np.ndarray):
                cells.append(piece)
                continue
            i = next((i for i in sources if _is_abs(piece, pieces[i])), None)
            if i is None:
                text = _spelt(piece)
                if piece.dtype == np.float64:
                    sources.append(len(cells))
            else:
                cells[i] = list(cells[i])
                text = map(str.removeprefix, cells[i], itertools.repeat("-"))
            cells.append(text)
        yield "\n".join(map(",".join, zip(*cells)))
        yield "\n"


def _json_blocks(columns: dict[str, _Column], rows: int) -> Iterator[str]:
    """The bytes of ``json.dump({header: col.tolist()}, indent=2)`` plus a newline."""
    opening = "{"
    for header, col in columns.items():
        yield f"{opening}\n  {json.dumps(header)}: ["
        opening = ","
        separator = "\n    "
        for chunk in _cells(col, rows):
            yield separator
            yield ",\n    ".join(chunk)
            separator = ",\n    "
        yield "\n  ]" if rows else "]"
    yield "\n}\n"


def _write_table(path: Path, columns: dict[str, _Column]) -> tuple[int, str]:
    """Write equal-length named columns, in order, as CSV or JSON by suffix.

    The file is streamed in chunks of rows and hashed as it is written.
    Returns the column length and the sha256 of the file.  Every cell
    must be a finite number: a column holding a NaN or an infinity raises
    ValidationError before path is opened.
    """
    (rows,) = {len(col) for col in columns.values()}  # unpacking fails on ragged columns
    for name, col in columns.items():
        chunks = [col.tile] if isinstance(col, _Tiled) else _pieces(col, rows)
        if not all(np.isfinite(chunk).all() for chunk in chunks):
            raise ValidationError(f"table column {name!r} holds a non-finite value")
    blocks = _csv_blocks if path.suffix == ".csv" else _json_blocks
    return rows, _write_hashed(path, blocks(columns, rows))


def _r_columns(times: _Column, values: np.ndarray) -> dict[str, _Column]:
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


def _spectrum_columns(spec: EnergySpectrum) -> dict[str, np.ndarray]:
    return {"energy": spec.energies, "weight": spec.weights}


#: One output of a run: its file stem, its manifest role, and its table
#: columns, or for average-check the TimeAverageCheck written as JSON.
_Output = tuple[str, str, dict[str, _Column] | TimeAverageCheck]

#: What an experiment returns: its outputs, in order, and manifest details.
_Run = tuple[list[_Output], dict[str, Any]]


def _ensemble_table(
    times: np.ndarray, values: np.ndarray, labels: Sequence[int], floor: float | None
) -> dict[str, _Column]:
    """The columns of each row of ``values``, r(t) on the grid ``times``,
    as a block of table rows tagged with its entry of ``labels``.  The
    time column is ``times`` tiled, which the writer spells once."""
    columns = {"realization": np.repeat(labels, times.size)}
    columns.update(_r_columns(_Tiled(times, len(values)), values.reshape(-1)))
    if floor is not None:
        columns["floor"] = np.full(values.size, floor)
    return columns


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


def _spectrum_for(cfg: RunConfig) -> tuple[EnergySpectrum, dict[str, Any]]:
    """The walk spectrum of a single-model run, merged if ``cfg.merge``,
    and the manifest details that say how."""
    couplings, amps = _model(cfg)
    spec = enumerate_walks(couplings, amps)
    if not cfg.merge:
        return spec, {"merged": spec.merged}
    epsilon = (
        cfg.merge_epsilon if cfg.merge_epsilon is not None else default_merge_epsilon(couplings)
    )
    spec = merge_degenerate(spec, epsilon)
    return spec, {"merged": spec.merged, "merge_epsilon": epsilon}


def _run_trace(cfg: RunConfig) -> _Run:
    couplings, amps = _model(cfg)
    trace = decoherence_trace(couplings, amps, cfg.time_grid())
    # Couplings near the float limit overflow g^2; statistics that are
    # not finite, and the window derived from them, are left out.
    with np.errstate(over="ignore", invalid="ignore"):
        summary = summarize(couplings, amps)
    stats = {"mean_energy": summary.mean, "energy_variance": summary.variance}
    info: dict[str, Any] = {name: v for name, v in stats.items() if math.isfinite(v)}
    if 0.0 < summary.variance < math.inf:
        info["gaussian_window"] = gaussian_validity_window(summary)
    return [("trace", "trace", _r_columns(trace.times, trace.values))], info


def _run_spectrum(cfg: RunConfig) -> _Run:
    spec, details = _spectrum_for(cfg)
    return [("spectrum", "spectrum", _spectrum_columns(spec))], {"entries": len(spec), **details}


def _run_ldos(cfg: RunConfig) -> _Run:
    spec, details = _spectrum_for(cfg)
    hist = ldos(spec, cfg.bins)
    columns = _histogram_columns(hist.edges, hist.masses)
    return [("ldos", "ldos", columns)], {"bins": hist.masses.size, **details}


def _run_ensemble(cfg: RunConfig) -> _Run:
    output = _ensemble_artifact(cfg, "ensemble", "ensemble-traces", cfg.distribution, cfg.n, None)
    return [output], {"realizations": cfg.realizations}


def _run_echo(cfg: RunConfig) -> _Run:
    couplings, amps = _model(cfg)
    h0 = DiagonalBranchHamiltonian.from_couplings(couplings)
    h1 = -h0
    times = cfg.time_grid().samples
    values = np.array([echo_amplitude(h0, h1, amps, t) for t in times])
    columns = _r_columns(times, values)
    columns["survival_p"] = np.array([survival_probability(h1, amps, t) for t in times])
    return [("echo", "echo-trace", columns)], {"branches": "h0 = (+g, -g); h1 = -h0"}


def _run_average_check(cfg: RunConfig) -> _Run:
    couplings, amps = _model(cfg)
    check = check_time_average(couplings, amps, horizon=cfg.horizon, samples=cfg.samples)
    details = {"horizon": check.horizon, "samples": check.samples}
    return [("average_check", "average-check", check)], details


def _coupling_histogram(cfg: RunConfig, name: str, dist) -> _Output:
    draws = sample_couplings(dist, _HIST_DRAWS, cfg.seed, stream=_HIST_STREAM).couplings
    bins = math.ceil(math.sqrt(_HIST_DRAWS))
    # np.histogram's own edges, checked as ldos checks its energy edges.
    _uniform_edges(float(draws.min()), float(draws.max()), bins, "coupling")
    counts, edges = np.histogram(draws, bins=bins)
    return name, "coupling-histogram", _histogram_columns(edges, counts / draws.size)


def _energy_histogram(cfg: RunConfig, name: str, dist, n: int) -> _Output:
    couplings, amps = _model(cfg, dist, n)
    hist = ldos(enumerate_walks(couplings, amps), cfg.bins)
    return name, f"energy-histogram-n{n}", _histogram_columns(hist.edges, hist.masses)


def _ensemble_artifact(
    cfg: RunConfig, name: str, role: str, dist, n: int, floor: float | None
) -> _Output:
    spec = _spec(cfg, dist, n, cfg.realizations)
    result = ensemble_average_trace(spec, cfg.time_grid())
    values = np.concatenate([result.values, result.mean.values[np.newaxis]])
    labels = [*range(spec.realizations), -1]
    return name, role, _ensemble_table(result.mean.times, values, labels, floor)


def _emit_fig1(cfg: RunConfig) -> _Run:
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
    merged = merge_degenerate(enumerate_walks(couplings, amps), default_merge_epsilon(couplings))
    walk_couplings, _ = _model(cfg, walk_dist)
    walk_spec = enumerate_walks(walk_couplings, amps)
    outputs = [
        ("fig1_equal_spectrum", "equal-couplings", _spectrum_columns(merged)),
        ("fig1_walk_spectrum", "distinct-couplings", _spectrum_columns(walk_spec)),
    ]
    return outputs, {"equal_distribution": str(equal_dist), "walk_distribution": str(walk_dist)}


def _emit_fig2(cfg: RunConfig) -> _Run:
    dist = cfg.distribution
    outputs = [
        _coupling_histogram(cfg, "fig2_couplings_hist", dist),
        *(_energy_histogram(cfg, f"fig2_energy_hist_n{n}", dist, n) for n in (6, 24)),
        _ensemble_artifact(cfg, "fig2_traces_n6", "traces-dashed-n6", dist, 6, None),
        _ensemble_artifact(cfg, "fig2_traces_n24", "traces-thin-n24", dist, 24, None),
    ]
    return outputs, {"distribution": str(dist), "mean_role": "rows with realization = -1 (bold)"}


def _emit_fig3(cfg: RunConfig) -> _Run:
    dist = (
        cfg.distribution
        if cfg.distribution.kind == "lorentzian"
        else CouplingDistribution.lorentzian(0.0, 0.25)
    )
    floor = 2.0 ** (-cfg.n / 2.0)
    couplings, amps = _model(cfg, dist, 100)
    trace = decoherence_trace(couplings, amps, cfg.time_grid())
    n100 = _ensemble_table(trace.times, trace.values[np.newaxis], [0], 2.0**-50)
    outputs = [
        _coupling_histogram(cfg, "fig3_couplings_hist", dist),
        _energy_histogram(cfg, f"fig3_energy_hist_n{cfg.n}", dist, cfg.n),
        _ensemble_artifact(cfg, f"fig3_traces_n{cfg.n}", f"traces-n{cfg.n}", dist, cfg.n, floor),
        ("fig3_trace_n100", "trace-thin-n100", n100),
    ]
    return outputs, {"distribution": str(dist), "saturation_floor": floor}


#: Each experiment, and each figure by its tag: cfg -> (outputs, details).
_EXPERIMENTS = {
    "trace": _run_trace,
    "spectrum": _run_spectrum,
    "ldos": _run_ldos,
    "ensemble": _run_ensemble,
    "echo": _run_echo,
    "average-check": _run_average_check,
    "fig1": _emit_fig1,
    "fig2": _emit_fig2,
    "fig3": _emit_fig3,
}


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
    """Execute one experiment: compute every output, then write each one
    and a manifest.

    The output directory is created first, but no file is opened until
    every output is computed, so a run that raises writes no file.
    Returns 0 on success; validation, capacity and I/O problems raise and
    are mapped to exit codes by the CLI.
    """
    if cfg.bins is not None:
        _checked_bins(cfg.bins)  # before any walk is enumerated
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs, details = _EXPERIMENTS[cfg.figure or cfg.experiment](cfg)
    entries: list[dict[str, Any]] = []
    for stem, role, data in outputs:
        if isinstance(data, TimeAverageCheck):
            path = out_dir / f"{stem}.json"
            entry = {"file": path.name, "role": role, "sha256": _write_json(path, asdict(data))}
        else:
            path = out_dir / f"{stem}.{cfg.format}"
            rows, digest = _write_table(path, data)
            entry = {"file": path.name, "role": role, "sha256": digest, "rows": rows}
        entries.append(entry)
        if not cfg.quiet:
            print(f"wrote {path}")
    manifest = {
        "version": __version__,
        "config": _config_dict(cfg),
        "seed_streams": "realization i: couplings stream 2i, amplitudes stream 2i+1",
        "details": details,
        "outputs": entries,
    }
    _write_json(out_dir / "manifest.json", manifest)
    if not cfg.quiet:
        print(f"wrote {out_dir / 'manifest.json'}")
    return 0
