"""End-to-end tests for experiment runs, artifacts and manifests."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import spinbath as sb
from spinbath.config import RunConfig
from spinbath import runner
from spinbath.runner import run


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


def _writer_cases():
    rows = 3 * runner._CHUNK_ROWS + 5
    rng = np.random.default_rng(20031207)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    floats[[0, 1, 2, runner._CHUNK_ROWS, rows - 1]] = [np.nan, np.inf, -np.inf, -0.0, np.nan]
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
            "zeros": np.repeat([0.0, -0.0, np.nan, np.inf], sizes),
            "mixed": np.concatenate(
                [np.full(chunk, -np.inf), signed_zeros, last_differs, np.full(5, 1.5)]
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
    # non-finite floats and -0.0 on chunk edges, and one-value chunks of
    # signed zeros, non-finite floats, ints and a 0-stride column, beside
    # chunks that are one value save for one row.
    columns = _writer_cases()[case]
    path = tmp_path / f"table.{fmt}"
    rows, digest = runner._write_table(path, columns)
    data = path.read_bytes()
    expected = _reference_table(path, columns).encode("utf-8")
    assert data == expected
    assert rows == len(next(iter(columns.values())))
    assert digest == hashlib.sha256(expected).hexdigest() == hashlib.sha256(data).hexdigest()


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
def test_one_value_chunks_are_formatted_once(tmp_path, fmt, monkeypatch):
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(runner, "repr", counting_repr, raising=False)
    monkeypatch.setattr(runner, "_CHUNK_ROWS", 1 << 10)
    column = np.broadcast_to(np.array([0.25]), (3 << 10,))
    runner._write_table(tmp_path / f"table.{fmt}", {"weight": column})
    assert 1 <= len(calls) <= 3


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
