"""End-to-end tests for experiment runs, artifacts and manifests."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import spinbath as sb
from spinbath.config import RunConfig
from spinbath import runner
from spinbath._spell import spell
from spinbath.runner import run
from helpers import every_spectrum_rebuilt, random_model  # the fixture is used through pytestmark

# Every spectrum these runs produce is also rebuilt through the public
# constructor, which runs the weight checks that producers skip.
pytestmark = pytest.mark.usefixtures("every_spectrum_rebuilt")


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def check_manifest(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    produced = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
    listed = [entry["file"] for entry in manifest["outputs"]]
    assert sorted(listed) == sorted(produced)
    assert len(set(listed)) == len(listed)
    for entry in manifest["outputs"]:
        path = out_dir / entry["file"]
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == entry["sha256"]
        if "rows" not in entry:
            continue
        if path.suffix == ".csv":
            assert len(path.read_text(encoding="utf-8").splitlines()) - 1 == entry["rows"]
        else:
            columns = json.loads(path.read_text(encoding="utf-8"))
            assert {len(col) for col in columns.values()} == {entry["rows"]}
    return manifest


def test_hypot_matches_scalar_abs_bit_for_bit():
    # The abs_r column is np.hypot(re, im); it must equal the scalar abs()
    # of each complex value, which the array np.abs does not guarantee.
    rng = np.random.default_rng(20031207)
    size = 100_000
    z = np.exp(-rng.uniform(0.0, 70.0, size) + 1j * rng.uniform(-np.pi, np.pi, size))
    columns = np.hypot(z.real, z.imag).view(np.uint64)
    assert np.array_equal(columns, np.array([abs(v) for v in z]).view(np.uint64))
    assert np.array_equal(columns, np.array([abs(complex(v)) for v in z]).view(np.uint64))


def _reference_table(path, columns):
    """The whole-list writers the streaming writer must match byte for byte."""
    if path.suffix == ".csv":
        lines = zip(*(map(repr, col.tolist()) for col in columns.values()))
        return ",".join(columns) + "\n" + "".join(",".join(line) + "\n" for line in lines)
    return json.dumps({h: col.tolist() for h, col in columns.items()}, indent=2) + "\n"


#: The finite extremes: +-max, the smallest normal and +-the smallest subnormal.
_MAX = 1.7976931348623157e308
_EXTREMES = [_MAX, -_MAX, 2.2250738585072014e-308, 5e-324, -5e-324]


def _writer_cases():
    rows = 3 * runner._CHUNK_ROWS + 5
    rng = np.random.default_rng(20031207)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    floats[[0, 1, 2, runner._CHUNK_ROWS, rows - 1]] = [5e-324, _MAX, -_MAX, -0.0, -5e-324]
    chunk = runner._CHUNK_ROWS
    sizes = [chunk, chunk, chunk, 5]
    signed_zeros = np.zeros(chunk)
    signed_zeros[chunk // 3] = -0.0
    last_differs = np.full(chunk, 2.0**-17)
    last_differs[-1] = 0.5
    return {
        "chunks": {
            "label": np.arange(rows, dtype=np.int64) - rows // 2,
            "value": floats,
            "strided": (floats[::-1] + 1j).real,
        },
        "repeats": {
            "zeros": np.repeat([0.0, -0.0, 5e-324, _MAX], sizes),
            "mixed": np.concatenate(
                [np.full(chunk, -_MAX), signed_zeros, last_differs, np.full(5, 1.5)]
            ),
            "label": np.repeat(np.array([-1, 0, 2**62, 7], dtype=np.int64), sizes),
            "weight": np.broadcast_to(np.array([2.0**-17]), (rows,)),
        },
        "empty": {"t": np.array([], dtype=np.float64), "n": np.array([], dtype=np.int64)},
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", ["chunks", "repeats", "empty"])
def test_streaming_writer_matches_whole_list_writers(tmp_path, case, fmt):
    # The golden cases all fit in one chunk; these tables span four, with
    # subnormals, +-max and -0.0 on chunk edges, and one-value chunks of
    # signed zeros, extremes, ints and a 0-stride column, beside chunks
    # that are one value save for one row.
    columns = _writer_cases()[case]
    path = tmp_path / f"table.{fmt}"
    rows, digest = runner._write_table(path, columns)
    data = path.read_bytes()
    expected = _reference_table(path, columns).encode("utf-8")
    assert data == expected
    assert rows == len(next(iter(columns.values())))
    assert digest == hashlib.sha256(expected).hexdigest() == hashlib.sha256(data).hexdigest()


def _non_finite_table(where, value):
    """A four-chunk table with one non-finite cell, or chunk, at ``where``;
    returns the table and the name of the column that holds it."""
    chunk = runner._CHUNK_ROWS
    rows = 4 * chunk
    floats = np.random.default_rng(20031207).standard_normal(rows)
    columns = {"label": np.arange(rows, dtype=np.int64), "value": floats}
    if where == "tile":
        columns["t"] = runner._Tiled(np.array([0.0, 0.5, value, 1.0]), rows // 4)
        return columns, "t"
    if where == "r-column":
        values = floats + 0j
        values.imag[chunk] = value
        columns.update(runner._r_columns(np.linspace(0.0, 1.0, rows), values))
        return columns, "im_r"
    at = {"first-row": 0, "chunk-edge": chunk, "last-row": -1, "whole-chunk": slice(chunk, 2 * chunk)}
    floats[at[where]] = value
    return columns, "value"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "where", ["first-row", "chunk-edge", "last-row", "whole-chunk", "tile", "r-column"]
)
def test_non_finite_cell_is_refused_before_opening(tmp_path, where, value, fmt):
    # A table holds finite numbers only; like _write_json, the writer
    # raises before the path is opened, naming the column.
    columns, name = _non_finite_table(where, value)
    path = tmp_path / f"table.{fmt}"
    with pytest.raises(sb.ValidationError, match=f"column {name!r}"):
        runner._write_table(path, columns)
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writer_memory_is_bounded_by_chunks(tmp_path, fmt, monkeypatch):
    # A 16-chunk table at 1/16 of the real chunk size keeps the test fast;
    # the bound scales with it.  Two whole-column lists of 2^16 floats alone
    # would take 4 MiB; one list of either column already exceeds the bound.
    monkeypatch.setattr(runner, "_CHUNK_ROWS", 1 << 12)
    rng = np.random.default_rng(7)
    columns = {"energy": rng.standard_normal(1 << 16), "weight": rng.random(1 << 16)}
    tracemalloc.start()
    try:
        runner._write_table(tmp_path / f"table.{fmt}", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_shared_abs_text_memory_is_bounded_by_chunks(tmp_path, fmt, monkeypatch):
    # As above, for a real r(t): CSV holds re_r's text of one chunk as a
    # list for abs_r, which a whole column's text would far exceed.
    monkeypatch.setattr(runner, "_CHUNK_ROWS", 1 << 12)
    re = np.random.default_rng(7).standard_normal(1 << 16)
    columns = {"re_r": re, "im_r": np.zeros(re.size), "abs_r": np.abs(re)}
    tracemalloc.start()
    try:
        runner._write_table(tmp_path / f"table.{fmt}", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def _spelt_values(monkeypatch):
    """The list of every value the writer hands its speller, from now on."""
    calls = []

    def counting_spell(values):
        calls.extend(values.tolist())
        return spell(values)

    monkeypatch.setattr(runner, "spell", counting_spell)
    return calls


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_one_value_chunks_are_formatted_once(tmp_path, fmt, monkeypatch):
    calls = _spelt_values(monkeypatch)
    monkeypatch.setattr(runner, "_CHUNK_ROWS", 1 << 10)
    column = np.broadcast_to(np.array([0.25]), (3 << 10,))
    runner._write_table(tmp_path / f"table.{fmt}", {"weight": column})
    assert 1 <= len(calls) <= 3


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
def test_abs_text_is_text_without_its_sign(x):
    # The CSV writer spells an abs_r chunk from re_r's cells on this rule.
    assert repr(abs(x)) == repr(x).removeprefix("-")


def _r_table():
    """r(t) columns over six 2^10-row chunks and a 7-row tail, each chunk
    of another kind: real with signed zeros, subnormals and +-max,
    complex, real save one row, real with extremes inside the chunk,
    zero only with both signs, and negative reals."""
    chunk = 1 << 10
    size = 6 * chunk + 7
    rng = np.random.default_rng(20031207)
    # Parts are set one by one: complex arithmetic would lose -0.0.
    values = np.empty(size, dtype=complex)
    values.real = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    values.imag = np.where(rng.random(size) < 0.5, -0.0, 0.0)
    values.real[:6] = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0]
    values.imag[chunk : 2 * chunk] = rng.standard_normal(chunk)
    values[3 * chunk - 1] = 0.25 + 0.5j
    values.real[[3 * chunk + 5, 3 * chunk + 9, 4 * chunk - 1]] = [_MAX, -5e-324, -_MAX]
    values.real[4 * chunk : 5 * chunk] = np.where(rng.random(chunk) < 0.5, -0.0, 0.0)
    values.real[5 * chunk : 6 * chunk] = -np.abs(values.real[5 * chunk : 6 * chunk])
    columns = {"realization": np.arange(values.size, dtype=np.int64) % 3}
    columns.update(runner._r_columns(np.linspace(0.0, 1.0, values.size), values))
    return columns


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_r_columns_match_whole_list_writers(tmp_path, fmt, monkeypatch):
    # abs_r is re_r's text without signs where the chunk is real; im_r
    # is spelt from sign bits where it holds only zeros.
    monkeypatch.setattr(runner, "_CHUNK_ROWS", 1 << 10)
    columns = _r_table()
    path = tmp_path / f"table.{fmt}"
    rows, digest = runner._write_table(path, columns)
    expected = _reference_table(path, columns).encode("utf-8")
    assert path.read_bytes() == expected
    assert (rows, digest) == (len(columns["t"]), hashlib.sha256(expected).hexdigest())


def test_real_trace_spells_only_t_and_re_r(tmp_path, monkeypatch):
    calls = _spelt_values(monkeypatch)
    monkeypatch.setattr(runner, "_CHUNK_ROWS", 1 << 10)
    dist = sb.CouplingDistribution.lorentzian(0.0, 0.25)
    spec = sb.EnsembleSpec(dist, sb.AmplitudeRule.equal(), n=40, realizations=1, seed=7)
    trace = sb.decoherence_trace(*sb.realization_model(spec, 0), sb.TimeGrid(0.0, 20.0, 3001))
    re, im = trace.values.real, trace.values.imag
    assert not im.any() and np.signbit(im).any() and not np.signbit(im).all()
    runner._write_table(tmp_path / "trace.csv", runner._r_columns(trace.times, trace.values))
    assert sorted(calls) == sorted(trace.times.tolist() + re.tolist())


def _ensemble_cases():
    rng = np.random.default_rng(20031207)
    c, a = random_model(rng, 5)
    signed = sb.decoherence_trace(c, a, np.array([-0.0, 0.25, -1.5, 3.0]))
    seven = sb.decoherence_trace(c, a, sb.TimeGrid(0.0, 2.0, 7))
    reps = runner._CHUNK_ROWS // 7 + 2  # 65,536 = 7 * 9362 + 2
    # A last row unlike the others, as an ensemble's mean row is.
    crossing = np.vstack([np.tile(seven.values, (reps, 1)), np.conj(seven.values)])
    extremes = np.array([-0.0, 1e-300, *_EXTREMES])
    nonfinite = np.array([-0.0, 1e-300, np.inf, -np.inf, np.nan])
    # The shape of fig3_trace_n100: one N = 100 trace.
    dist = sb.CouplingDistribution.lorentzian(0.0, 0.25)
    spec = sb.EnsembleSpec(dist, sb.AmplitudeRule.equal(), n=100, realizations=1, seed=9)
    n100 = sb.decoherence_trace(*sb.realization_model(spec, 0), sb.TimeGrid(0.0, 10.0, 201))
    return {
        "signed-zero": (signed.times, np.tile(signed.values, (3, 1)), [0, 1, -1], None),
        "chunk-crossing": (seven.times, crossing, [*range(reps), -1], 2.0**-3),
        "extremes": (extremes, np.tile([1, 0.5, 0, 0, 0, 0, 0], (2, 1)) + 0j, [0, -1], None),
        "nonfinite": (nonfinite, np.tile([1, 0.5, 0, 0, 0], (2, 1)) + 0j, [0, -1], None),
        "fig3-trace-n100": (n100.times, n100.values[np.newaxis], [0], 2.0**-50),
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "case", ["signed-zero", "chunk-crossing", "extremes", "nonfinite", "fig3-trace-n100"]
)
def test_ensemble_table_matches_flat_time_column(tmp_path, case, fmt):
    # The tiled time column must give the bytes of the concatenated one,
    # including -0.0 cells, chunk boundaries inside a tile (steps = 7) and
    # the finite extremes.  A non-finite time is refused through the tile
    # before the file is opened, as it is in a flat column.
    times, values, labels, floor = _ensemble_cases()[case]
    columns = runner._ensemble_table(times, values, labels, floor)
    path = tmp_path / f"table.{fmt}"
    if case == "nonfinite":
        with pytest.raises(sb.ValidationError, match="column 't'"):
            runner._write_table(path, columns)
        assert not path.exists()
        return
    written_rows, digest = runner._write_table(path, columns)
    rows = values.shape[0]
    flat = {"realization": np.repeat(labels, times.size)}
    flat.update(runner._r_columns(np.tile(times, rows), np.concatenate(list(values))))
    if floor is not None:
        flat["floor"] = np.full(len(flat["realization"]), floor)
    data = path.read_bytes()
    assert data == _reference_table(path, flat).encode("utf-8")
    assert digest == hashlib.sha256(data).hexdigest()
    assert written_rows == len(flat["t"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tiled_time_column_is_formatted_once(tmp_path, fmt, monkeypatch):
    calls = _spelt_values(monkeypatch)
    tile = np.linspace(0.0, 3.0, 7)
    runner._write_table(tmp_path / f"table.{fmt}", {"t": runner._Tiled(tile, 3 * runner._CHUNK_ROWS)})
    assert calls == tile.tolist()


def test_trace_run_writes_contracted_columns(tmp_path):
    cfg = RunConfig(
        experiment="trace", n=24, seed=7, stop=2.0, steps=33, out_dir=tmp_path, quiet=True
    )
    assert run(cfg) == 0
    header, rows = read_csv(tmp_path / "trace.csv")
    assert header == ["t", "re_r", "im_r", "abs_r"]
    assert len(rows) == 33
    assert rows[0] == ["0.0", "1.0", "0.0", "1.0"]
    manifest = check_manifest(tmp_path)
    assert manifest["config"]["seed"] == 7
    assert manifest["version"] == sb.__version__
    assert "gaussian_window" in manifest["details"]


def test_trace_values_round_trip_through_csv(tmp_path):
    cfg = RunConfig(
        experiment="trace", n=6, seed=3, stop=1.0, steps=9, out_dir=tmp_path, quiet=True
    )
    run(cfg)
    _, rows = read_csv(tmp_path / "trace.csv")
    couplings = sb.sample_couplings(cfg.distribution, 6, 3, stream=0)
    amps = sb.sample_amplitudes(cfg.amplitudes, 6, 3, stream=1)
    for row in rows:
        t, re_r = float(row[0]), float(row[1])
        assert complex(re_r, float(row[2])) == sb.decoherence_factor(couplings, amps, t)


def test_spectrum_run_merged_binomial(tmp_path):
    cfg = RunConfig(
        experiment="spectrum",
        n=6,
        distribution=sb.CouplingDistribution.fixed(1.0),
        merge=True,
        out_dir=tmp_path,
        quiet=True,
    )
    run(cfg)
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["energy", "weight"]
    assert len(rows) == 7
    weights = [float(r[1]) for r in rows]
    np.testing.assert_allclose(weights, [math.comb(6, l) / 64 for l in range(7)], atol=1e-12)
    check_manifest(tmp_path)


def test_ldos_run(tmp_path):
    cfg = RunConfig(experiment="ldos", n=8, seed=5, bins=12, out_dir=tmp_path, quiet=True)
    run(cfg)
    header, rows = read_csv(tmp_path / "ldos.csv")
    assert header == ["bin_lo", "bin_hi", "mass"]
    assert len(rows) == 12
    assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-10)


def test_ensemble_run_marks_mean_rows(tmp_path):
    cfg = RunConfig(
        experiment="ensemble", n=4, seed=2, realizations=3, steps=5, out_dir=tmp_path, quiet=True
    )
    run(cfg)
    header, rows = read_csv(tmp_path / "ensemble.csv")
    assert header == ["realization", "t", "re_r", "im_r", "abs_r"]
    assert len(rows) == (3 + 1) * 5
    tags = [int(r[0]) for r in rows]
    assert tags[:5] == [0] * 5 and tags[-5:] == [-1] * 5
    mean_rows = [list(map(float, r[1:])) for r in rows if int(r[0]) == -1]
    member_rows = {
        idx: [list(map(float, r[1:])) for r in rows if int(r[0]) == idx] for idx in range(3)
    }
    for j, mean_row in enumerate(mean_rows):
        stacked = np.array([member_rows[idx][j] for idx in range(3)])
        assert complex(mean_row[0], mean_row[1]) == pytest.approx(
            complex(stacked[:, 0].mean(), stacked[:, 1].mean()), abs=1e-12
        )


def test_echo_run_columns(tmp_path):
    cfg = RunConfig(experiment="echo", n=5, seed=4, steps=9, out_dir=tmp_path, quiet=True)
    run(cfg)
    header, rows = read_csv(tmp_path / "echo.csv")
    assert header == ["t", "re_r", "im_r", "abs_r", "survival_p"]
    for row in rows:
        assert float(row[4]) == pytest.approx(float(row[3]) ** 2, abs=1e-12)


def test_average_check_report(tmp_path):
    cfg = RunConfig(
        experiment="average-check",
        n=6,
        seed=8,
        samples=1024,
        horizon=400.0,
        out_dir=tmp_path,
        quiet=True,
    )
    run(cfg)
    report = json.loads((tmp_path / "average_check.json").read_text(encoding="utf-8"))
    assert set(report) == {"analytic", "empirical", "stderr", "n_sigma", "horizon", "samples"}
    assert report["analytic"] == pytest.approx(2.0**-6, abs=1e-12)
    check_manifest(tmp_path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_rejects_non_finite_before_opening(tmp_path, value):
    # Manifests and reports are strict JSON, which has no NaN or Infinity.
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        runner._write_json(path, {"details": {"values": [1.0, value]}})
    assert not path.exists()


def test_json_format_artifacts(tmp_path):
    cfg = RunConfig(
        experiment="trace", n=3, seed=1, steps=5, format="json", out_dir=tmp_path, quiet=True
    )
    run(cfg)
    payload = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
    assert list(payload) == ["t", "re_r", "im_r", "abs_r"]
    assert payload["re_r"][0] == 1.0
    check_manifest(tmp_path)


def test_rerun_is_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        cfg = RunConfig(
            experiment="ensemble",
            n=6,
            seed=11,
            realizations=4,
            steps=17,
            out_dir=out,
            quiet=True,
        )
        run(cfg)
    assert (first / "ensemble.csv").read_bytes() == (second / "ensemble.csv").read_bytes()


def test_fig1_emits_both_spectra(tmp_path):
    cfg = RunConfig(experiment="figure", figure="fig1", n=6, seed=5, out_dir=tmp_path, quiet=True)
    run(cfg)
    _, equal_rows = read_csv(tmp_path / "fig1_equal_spectrum.csv")
    _, walk_rows = read_csv(tmp_path / "fig1_walk_spectrum.csv")
    assert len(equal_rows) == 7
    assert len(walk_rows) == 64
    check_manifest(tmp_path)


def test_fig3_traces_carry_saturation_floor(tmp_path):
    cfg = RunConfig(
        experiment="figure",
        figure="fig3",
        n=8,
        seed=9,
        realizations=3,
        stop=4.0,
        steps=21,
        out_dir=tmp_path,
        quiet=True,
    )
    run(cfg)
    header, rows = read_csv(tmp_path / "fig3_traces_n8.csv")
    assert header == ["realization", "t", "re_r", "im_r", "abs_r", "floor"]
    assert {float(r[5]) for r in rows} == {2.0**-4}
    header100, rows100 = read_csv(tmp_path / "fig3_trace_n100.csv")
    assert header100 == ["realization", "t", "re_r", "im_r", "abs_r", "floor"]
    assert len(rows100) == 21
    assert {r[0] for r in rows100} == {"0"}
    assert {float(r[5]) for r in rows100} == {2.0**-50}
    manifest = check_manifest(tmp_path)
    assert manifest["details"]["distribution"] == "lorentzian(0.0, 0.25)"


@pytest.mark.slow
def test_fig2_emits_both_sizes(tmp_path):
    cfg = RunConfig(
        experiment="figure",
        figure="fig2",
        seed=3,
        realizations=3,
        stop=1.5,
        steps=16,
        out_dir=tmp_path,
        quiet=True,
    )
    run(cfg)
    names = {p.name for p in tmp_path.iterdir()}
    assert {
        "fig2_couplings_hist.csv",
        "fig2_energy_hist_n6.csv",
        "fig2_energy_hist_n24.csv",
        "fig2_traces_n6.csv",
        "fig2_traces_n24.csv",
        "manifest.json",
    } <= names
    check_manifest(tmp_path)


def test_capacity_error_propagates(tmp_path):
    cfg = RunConfig(experiment="spectrum", n=30, out_dir=tmp_path, quiet=True)
    with pytest.raises(sb.CapacityError):
        run(cfg)
