import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from graphprop import (
    DenseTensor,
    EdgeSet,
    ObservationSet,
    OverlapSpec,
    graphprop,
    load_tensor,
    matricize,
    node_ids,
    partial_overlap_masks,
    refold,
    save_edge_list,
    save_tensor,
    smooth_raster_pair,
    two_block_graph,
)
from graphprop import graph, harness, propagation
from graphprop.bounds import BoundReport, evaluate_bounds
from graphprop.cli import main
from graphprop.errors import ConfigError, DataError, MaxItersExceeded, SingularSystemWarning
from graphprop.harness import (
    ExperimentConfig,
    config_from_dict,
    convert_raster,
    load_config,
    load_labels,
    load_observation_set,
    run_blogs,
    run_bound_report,
    run_complete,
    run_missing_sweep,
    run_overlap_sim,
    run_rank_sweep,
    save_observation_set,
)
from graphprop.tensor import FORMAT_DTYPE, FORMAT_LAYOUT, load_fibers


def tiny_rank_cfg(out_dir, **extra):
    data = dict(
        kind="rank-sweep", seed=1, repeats=2, rank_grid=[2, 6], i1=12, i2=12,
        i3=2, k=3, out_dir=str(out_dir),
    )
    data.update(extra)
    return config_from_dict(data)


def test_config_defaults_and_unknown_keys():
    cfg = config_from_dict({"kind": "rank-sweep"})
    assert cfg.k == 10 and cfg.repeats == 3 and cfg.i1 == 60
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "rank-sweep", "mystery": 1})
    with pytest.raises(ConfigError):
        config_from_dict({})


# A grid with a repeated value, per kind and key: each point would run twice.
REPEATED_GRIDS = (
    ("rank-sweep", "rank_grid", [2, 2]),
    ("missing-sweep", "rank_tiles", [5, 30, 5]),
    ("missing-sweep", "missing_grid", [0.15, 0.15]),
    ("overlap-sim", "area_grid", [0.3, 0.3]),
    ("blogs", "label_fracs", [0.1, 0.2, 0.1]),
)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "nope"})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "rank-sweep", "rank_grid": []})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "rank-sweep", "k": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "missing-sweep", "missing_grid": [0.5]})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "rank-sweep", "missing_frac": 0.5})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "bound-report", "missing_frac": -0.1})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "blogs"})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "overlap-sim", "area_grid": [0.8]})
    for bad in ({"height": 0}, {"width": -1}, {"bands": 0}):
        with pytest.raises(ConfigError, match="must be positive"):
            config_from_dict({"kind": "overlap-sim", **bad})
    for size in (1, -3):
        with pytest.raises(ConfigError, match="two_block_size"):
            config_from_dict({"kind": "blogs", "two_block_size": size})
    for repeats in (0, -2):
        with pytest.raises(ConfigError, match="repeats"):
            config_from_dict({"kind": "blogs", "two_block_size": 10, "repeats": repeats})
    for kind in ("bound-report", "overlap-sim", "blogs"):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"kind": kind, "two_block_size": 10, "seed": -1})
    with pytest.raises(ConfigError, match="missing_frac"):
        config_from_dict({"kind": "rank-sweep", "missing_frac": 0.0})
    # a rank beyond min(i1, i2) = 8, or below 1, in each synthetic kind
    for kind, bad in (("rank-sweep", {"rank_grid": [2, 9]}),
                      ("missing-sweep", {"rank_tiles": [0]}),
                      ("bound-report", {"rank": 9})):
        with pytest.raises(ConfigError, match="rank must lie in 1..8"):
            config_from_dict({"kind": kind, "i1": 8, "i2": 10, **bad})
    # removed: the dense solver, the solver tolerance and the HaLRTC block
    for removed in ({"solver": {"method": "cholesky"}}, {"solver": {"tol": 1e-8}},
                    {"halrtc": {"max_iters": 10}}):
        with pytest.raises(ConfigError):
            config_from_dict({"kind": "rank-sweep", **removed})
    # removed: the blogs-only repeat count, complete's bound-report flag
    # (now set truth_files) and the mpsnr variant (results.csv always
    # reports "maxerr")
    for removed, value in (("blogs_repeats", 2), ("emit_bound_report", True),
                           ("mpsnr_variant", "maxerr")):
        with pytest.raises(ConfigError, match=rf"unknown config keys: \['{removed}'\]"):
            config_from_dict({"kind": "blogs", "two_block_size": 10, removed: value})
    # a repeated value in any grid the kind reads
    for kind, key, grid in REPEATED_GRIDS:
        with pytest.raises(ConfigError, match=f"{key} repeats a value"):
            config_from_dict({"kind": kind, "two_block_size": 10, key: grid})


@pytest.mark.parametrize("kind", ["bound-report", "rank-sweep"])
@pytest.mark.parametrize("frac", [float("nan"), float("inf")])
def test_config_rejects_non_finite_missing_fraction(kind, frac):
    with pytest.raises(ConfigError, match="missing fraction must be a finite number"):
        config_from_dict({"kind": kind, "missing_frac": frac})


def test_cli_rejects_json_nan_missing_fraction(tmp_path, caplog):
    cfg_path = tmp_path / "cfg.json"
    # json.dumps writes a NaN float as the bare literal NaN, as json.loads reads it
    cfg_path.write_text(json.dumps({"missing_frac": float("nan"),
                                    "out_dir": str(tmp_path / "never")}))
    assert "NaN" in cfg_path.read_text()
    assert main(["bound-report", "--config", str(cfg_path)]) == 2
    assert "missing fraction must be a finite number" in caplog.text
    assert not (tmp_path / "never").exists()


def test_missing_sweep_ignores_its_unused_missing_frac():
    # missing-sweep scores the fractions of missing_grid only
    cfg = config_from_dict({"kind": "missing-sweep", "missing_frac": 0.6})
    assert cfg.missing_frac == 0.6
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "bound-report", "missing_frac": 0.6})


# One wrongly typed value per annotation kind of ExperimentConfig.
WRONG_TYPES = [
    {"k": "3"}, {"k": True}, {"k": 2.0}, {"rank": 2.0}, {"repeats": 2.5},  # int
    {"i1": "12", "i2": 12, "i3": 2, "k": 3},
    {"missing_frac": "0.3"}, {"missing_frac": True},  # float
    {"labels_file": 3}, {"graph_file": None},  # str
    {"rank_grid": "2"}, {"rank_grid": 2}, {"rank_grid": [2, True]},  # tuple[int, ...]
    {"area_grid": "0.4"}, {"area_grid": [0.4, "0.5"]},  # tuple[float, ...]
    {"inputs": "a.tenb"}, {"truth_files": [1]},  # tuple[str, ...]
    {"solver": "cg"}, {"solver": {"method": 3}}, {"solver": ["cg"]},  # SolverSettings
]


@pytest.mark.parametrize("bad", WRONG_TYPES, ids=lambda bad: json.dumps(bad))
def test_config_type_rule(bad, tmp_path, caplog):
    key = next(iter(bad))
    with pytest.raises(ConfigError, match=key):
        config_from_dict({"kind": "bound-report", **bad})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**bad, "out_dir": str(tmp_path / "never")}))
    assert main(["bound-report", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "never").exists()
    assert "configuration error: " + key in caplog.text
    assert all(rec.exc_info is None for rec in caplog.records)


def test_config_type_rule_converts():
    cfg = config_from_dict({"kind": "overlap-sim", "area_grid": [0, 0.5], "missing_frac": 1,
                            "inputs": ("a.tenb", "b.tenb"), "solver": {"method": "splu"}})
    assert cfg.area_grid == (0.0, 0.5) and type(cfg.area_grid[0]) is float
    assert cfg.missing_frac == 1.0 and type(cfg.missing_frac) is float
    assert cfg.inputs == ("a.tenb", "b.tenb")
    assert cfg.solver == harness.SolverSettings("splu")


def test_load_config_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "rank-sweep", "seed": 9}))
    cfg = load_config(path, out_dir=str(tmp_path / "out"))
    assert cfg.seed == 9 and cfg.kind == "rank-sweep"
    path.write_text("{bad json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_rank_sweep_outputs_and_determinism(tmp_path):
    cfg = tiny_rank_cfg(tmp_path / "a")
    rows = run_rank_sweep(cfg)
    assert {row.method for row in rows} == {"graphprop", "halrtc"}
    assert len(rows) == 2 * 2 * 2  # grid x repeats x methods
    first = (tmp_path / "a" / "results.csv").read_bytes()
    assert first.startswith(b"# schema=graphprop.results.v1\n")
    # identical rerun into another directory is byte-identical
    run_rank_sweep(tiny_rank_cfg(tmp_path / "b"))
    second = (tmp_path / "b" / "results.csv").read_bytes()
    assert first == second
    summary = (tmp_path / "a" / "summary.csv").read_text().splitlines()
    assert len(summary) == 2 + 2 * 2  # schema + header + (grid x methods)
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["kind"] == "rank-sweep"
    assert manifest["config"]["seed"] == 1
    timings = (tmp_path / "a" / "timings.csv").read_text().splitlines()
    assert len(timings) == 2 + 2 * 2 * 2


NUMERIC_RESULT_COLUMNS = ("seed", "r", "missing_frac", "area_frac", "label_frac",
                          "repeat", "value")


def numeric_result_cells(path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]  # after the schema line
    rows = list(csv.DictReader(lines))
    assert rows
    return [row[c] for row in rows for c in NUMERIC_RESULT_COLUMNS if row[c] != ""]


def test_results_csv_cells_parse_as_numbers(tmp_path):
    run_rank_sweep(tiny_rank_cfg(tmp_path / "rank", rank_grid=[2], repeats=1))
    run_overlap_sim(config_from_dict(
        dict(kind="overlap-sim", height=20, width=20, bands=2, k=3,
             area_grid=[0.3], out_dir=str(tmp_path / "overlap"))))
    for run in ("rank", "overlap"):
        values = [float(cell) for cell in numeric_result_cells(tmp_path / run / "results.csv")]
        assert np.isfinite(values).all()
    assert harness._cell(np.float64(0.25)) == "0.25"


def test_output_headers_and_unset_coordinates(tmp_path):
    # literal headers: a change to the point's columns must show up here
    point = "experiment,seed,r,missing_frac,area_frac,label_frac,repeat,method"
    headers = {
        "results.csv": point + ",metric,variant,value",
        "summary.csv": "experiment,r,missing_frac,area_frac,label_frac,method,metric,variant,"
                       "mean,std,count",
        "timings.csv": point + ",runtime_seconds",
    }
    # a result row holds exactly the results.csv columns and its runtime
    assert [f.name for f in dataclasses.fields(harness.ResultRow)] == [
        *harness.RESULT_COLUMNS, "runtime"]
    run_rank_sweep(tiny_rank_cfg(tmp_path / "rank", rank_grid=[2], repeats=1))
    run_overlap_sim(config_from_dict(
        dict(kind="overlap-sim", height=20, width=20, bands=2, k=3,
             area_grid=[0.3], out_dir=str(tmp_path / "overlap"))))
    # a coordinate the kind does not vary is an empty cell, repeat 0
    first_cells = {"rank": "rank-sweep,1,2,,,,0,graphprop",
                   "overlap": "overlap-sim,0,,,0.3,,0,graphprop"}
    for run, point_cells in first_cells.items():
        for name, header in headers.items():
            lines = (tmp_path / run / name).read_text(encoding="utf-8").splitlines()
            assert lines[1] == header, (run, name)
        results = (tmp_path / run / "results.csv").read_text(encoding="utf-8").splitlines()
        assert results[2].startswith(point_cells + ","), results[2]


def test_rank_sweep_workers_match_serial(tmp_path):
    serial = run_rank_sweep(tiny_rank_cfg(tmp_path / "s"))
    parallel = run_rank_sweep(tiny_rank_cfg(tmp_path / "p", workers=2))
    assert [
        (r.r, r.repeat, r.method, r.value) for r in sorted(serial, key=str)
    ] == [(r.r, r.repeat, r.method, r.value) for r in sorted(parallel, key=str)]
    for name in ("results.csv", "summary.csv"):
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()

    def timings_without_seconds(out_dir):
        lines = (out_dir / "timings.csv").read_text(encoding="utf-8").splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]
    assert timings_without_seconds(tmp_path / "s") == timings_without_seconds(tmp_path / "p")


def test_overlap_sim_zero_area_notes(tmp_path):
    rasters = smooth_raster_pair(20, 20, 2, seed=0)
    inputs = [str(tmp_path / f"raster{i}.tenb") for i in (1, 2)]
    for raster, path in zip(rasters, inputs):
        save_tensor(raster, path)
    cfg = config_from_dict(
        dict(kind="overlap-sim", k=3, area_grid=[0.0, 0.3], inputs=inputs,
             out_dir=str(tmp_path / "out"))
    )
    rows = run_overlap_sim(cfg)
    # area 0.0 has no missing entry to score, so no row of any metric;
    # area 0.3 scores every method
    assert not [row for row in rows if row.area_frac == 0.0]
    assert {(row.area_frac, row.method) for row in rows if row.metric == "rmse"} == {
        (0.3, "graphprop"), (0.3, "halrtc"), (0.3, "gtvm")}
    notes = json.loads((tmp_path / "out" / "manifest.json").read_text())["notes"]
    for method in ("graphprop", "halrtc", "gtvm"):
        assert notes["area=0.0"][method] == "NoMissingEntries"
        assert method not in notes["area=0.3"]
    # at area 0.0 every completed raster is its input file, byte for byte
    for lam, path in enumerate(inputs, start=1):
        for method in ("graphprop", "halrtc", "gtvm"):
            out = tmp_path / "out" / f"completed_{method}_acq{lam}_area00.tenb"
            assert out.read_bytes() == Path(path).read_bytes(), (method, lam)
    # at area 0.3 every method completes both rasters, and the corners
    # cropped from both are flagged
    assert len(list((tmp_path / "out").glob("completed_*_area30.tenb"))) == 6
    flag = matricize(load_tensor(tmp_path / "out" / "never_observed_area30.tenb"), 3)
    never = np.flatnonzero(flag.values[:, 0]).tolist()
    assert never and notes["area=0.3"]["never_observed"] == len(never)
    # each area records the excluded nodes and SolverStats of its
    # graphprop() call, per acquisition
    fibers = [matricize(raster, 3).values for raster in rasters]
    for area in (0.0, 0.3):
        omegas = [ObservationSet(400, node_ids(m))
                  for m in partial_overlap_masks(OverlapSpec(20, 20, area))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            direct = graphprop([(f[om.observed], om) for f, om in zip(fibers, omegas)], 3)
        assert notes[f"area={area}"]["excluded_per_acquisition"] == [
            res.excluded_ids.tolist() for res in direct]
        assert notes[f"area={area}"]["solver_stats_per_acquisition"] == [
            dataclasses.asdict(res.stats) for res in direct]
    # at area 0.3 each acquisition mean-fills the corners observed nowhere
    assert notes["area=0.3"]["excluded_per_acquisition"] == [never, never]


def test_overlap_sim_rows_and_artifacts(tmp_path):
    cfg = config_from_dict(
        dict(kind="overlap-sim", height=24, width=24, bands=2, k=3,
             area_grid=[0.3], out_dir=str(tmp_path), seed=3)
    )
    rows = run_overlap_sim(cfg)
    methods = {row.method for row in rows}
    assert methods == {"graphprop", "halrtc", "gtvm"}
    metrics = {row.metric for row in rows}
    assert metrics == {"mse", "rmse", "mae", "mpsnr"}
    flag = load_tensor(tmp_path / "never_observed_area30.tenb")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["notes"]["area=0.3"]["never_observed"] == int(flag.values.sum())
    # six completed tensors and the flag tensor, each listed in the manifest
    tensors = sorted([f"completed_{method}_acq{lam}_area30.tenb"
                      for method in ("graphprop", "halrtc", "gtvm") for lam in (1, 2)]
                     + ["never_observed_area30.tenb"])
    assert manifest["artifacts"] == tensors
    assert sorted(p.name for p in tmp_path.glob("*.tenb")) == tensors


def _warning_first(fn):
    def wrapper(*args, **kwargs):
        warnings.warn("iteration cap hit", MaxItersExceeded)
        return fn(*args, **kwargs)
    return wrapper


def test_overlap_sim_records_solver_warnings(tmp_path, monkeypatch):
    def cfg(out):
        return config_from_dict(
            dict(kind="overlap-sim", height=20, width=20, bands=2, k=3,
                 area_grid=[0.0, 0.3], out_dir=str(tmp_path / out), seed=3)
        )
    run_overlap_sim(cfg("plain"))
    for name in ("graphprop", "gtvm_inpaint", "halrtc_complete"):
        monkeypatch.setattr(harness, name, _warning_first(getattr(harness, name)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", MaxItersExceeded)
        warnings.simplefilter("error", SingularSystemWarning)
        run_overlap_sim(cfg("warned"))
    notes = json.loads((tmp_path / "warned" / "manifest.json").read_text())["notes"]
    for area in ("area=0.0", "area=0.3"):
        recorded = notes[area]["warnings"]
        # GTVM runs per acquisition, HaLRTC once on the stacked pair
        for method, count in (("graphprop", 1), ("gtvm", 2), ("halrtc", 1)):
            assert recorded.count({"method": method, "category": "MaxItersExceeded",
                                   "message": "iteration cap hit"}) == count
    # at area 0.3 graphprop() reports the corners observed nowhere, and GTVM
    # the missing nodes whose component has no node observed in that acquisition
    raised = {(w["method"], w["category"]) for w in notes["area=0.3"]["warnings"]}
    assert {("graphprop", "CoverageViolationWarning"), ("gtvm", "SingularSystemWarning")} <= raised
    assert ((tmp_path / "warned" / "results.csv").read_bytes()
            == (tmp_path / "plain" / "results.csv").read_bytes())


def test_blogs_records_solver_warnings(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "solve_steady_state",
                        _warning_first(harness.solve_steady_state))
    cfg = config_from_dict(
        dict(kind="blogs", two_block_size=10, label_fracs=[0.2, 0.5], repeats=2,
             out_dir=str(tmp_path), seed=5)
    )
    run_blogs(cfg)
    recorded = json.loads((tmp_path / "manifest.json").read_text())["notes"]["warnings"]
    assert [(w["label_frac"], w["repeat"]) for w in recorded if w["method"] == "graphprop"] == [
        (0.2, 0), (0.2, 1), (0.5, 0), (0.5, 1)]
    assert all(w["category"] == "MaxItersExceeded" for w in recorded
               if w["method"] == "graphprop")


def test_missing_sweep_records_warnings_serial_and_parallel(tmp_path):
    def cfg(out, workers):
        return config_from_dict(
            dict(kind="missing-sweep", i1=12, i2=12, i3=2, k=2, rank_tiles=[2],
                 missing_grid=[0.45], repeats=3, workers=workers, out_dir=str(tmp_path / out))
        )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # recorded, not re-issued
        rows = run_missing_sweep(cfg("serial", 1))
    assert {(row.method, row.metric) for row in rows} == {("graphprop", "rmse"),
                                                         ("halrtc", "rmse")}
    run_missing_sweep(cfg("parallel", 2))
    notes = [json.loads((tmp_path / out / "manifest.json").read_text())["notes"]
             for out in ("serial", "parallel")]
    assert notes[0] == notes[1]
    recorded = notes[0]["warnings"]
    assert [(w["method"], w["category"], w["r"], w["missing_frac"]) for w in recorded] == [
        ("graphprop", "UnreachableComponent", 2, 0.45)] * 2
    assert [w["repeat"] for w in recorded] == [1, 2]


def test_blogs_two_block_stand_in(tmp_path):
    cfg = config_from_dict(
        dict(kind="blogs", two_block_size=30, label_fracs=[0.1], repeats=2,
             out_dir=str(tmp_path), seed=5)
    )
    rows = run_blogs(cfg)
    assert {row.method for row in rows} == {"graphprop", "gtvm"}
    assert all(row.metric == "accuracy" and 0.0 <= row.value <= 1.0 for row in rows)
    gp_rows = [row for row in rows if row.method == "graphprop"]
    assert np.mean([row.value for row in gp_rows]) >= 0.9


def test_blogs_from_files(tmp_path):
    edges, labels = two_block_graph(15, seed=2)
    graph_path = tmp_path / "graph.txt"
    labels_path = tmp_path / "labels.txt"
    save_edge_list(edges, graph_path)
    labels_path.write_text("\n".join(str(int(v)) for v in labels) + "\n")
    # the same file listing every edge twice, once reversed
    header, *lines = graph_path.read_text().splitlines()
    doubled_path = tmp_path / "doubled.txt"
    doubled_path.write_text("\n".join([header, *lines, *(" ".join(line.split()[::-1])
                                                         for line in lines)]) + "\n")

    def cfg(path, out):
        return config_from_dict(
            dict(kind="blogs", graph_file=str(path), labels_file=str(labels_path),
                 label_fracs=[0.2], repeats=2, out_dir=str(tmp_path / out), seed=1)
        )
    rows = run_blogs(cfg(graph_path, "plain"))
    assert len(rows) == 4
    run_blogs(cfg(doubled_path, "doubled"))
    assert ((tmp_path / "doubled" / "results.csv").read_bytes()
            == (tmp_path / "plain" / "results.csv").read_bytes())


def test_blogs_scores_both_methods_by_one_median_rule(tmp_path, monkeypatch):
    # Two 15-node blocks plus three stranded pairs and two isolated nodes.
    # Excluded, mean-filled nodes must not move either method's threshold:
    # with GTVM swapped for the steady-state solve, both methods score alike.
    edges, labels = two_block_graph(15, seed=2)
    pairs = [tuple(e) for e in edges.edges] + [(30, 31), (32, 33), (34, 35)]
    graph_path = tmp_path / "graph.txt"
    labels_path = tmp_path / "labels.txt"
    save_edge_list(EdgeSet(38, pairs), graph_path)
    extra = [1, 1, 0, 1, 1, 0, 1, 0]
    labels_path.write_text("\n".join(str(int(v)) for v in list(labels) + extra) + "\n")
    monkeypatch.setattr(harness, "gtvm_inpaint",
                        lambda g, om, f: harness.solve_steady_state(g, om, f).completed)
    cfg = config_from_dict(
        dict(kind="blogs", graph_file=str(graph_path), labels_file=str(labels_path),
             label_fracs=[0.1, 0.3], repeats=3, out_dir=str(tmp_path / "out"), seed=1)
    )
    rows = run_blogs(cfg)
    assert ([row.value for row in rows if row.method == "graphprop"]
            == [row.value for row in rows if row.method == "gtvm"])
    notes = json.loads((tmp_path / "out" / "manifest.json").read_text())["notes"]
    assert any(w["method"] == "graphprop" and w["category"] == "UnreachableComponent"
               for w in notes["warnings"])


def test_load_labels_validation(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n1\nmaybe\n")
    with pytest.raises(DataError):
        load_labels(path, 3)
    path.write_text("0\n1\n")
    with pytest.raises(DataError):
        load_labels(path, 3)
    path.write_text("0\n2\n1\n")
    with pytest.raises(DataError):
        load_labels(path, 3)


def test_observation_set_file_roundtrip(tmp_path):
    om = ObservationSet(6, [0, 2, 5])
    path = tmp_path / "om.json"
    save_observation_set(om, path)
    data = json.loads(path.read_text())
    assert data == {"n": 6, "observed": [1, 3, 6]}
    back = load_observation_set(path, 6)
    assert np.array_equal(back.observed, om.observed)
    with pytest.raises(DataError):
        load_observation_set(path, 7)
    path.write_text(json.dumps({"n": 3, "observed": [True, 3]}))
    with pytest.raises(DataError, match="integers"):
        load_observation_set(path, 3)


@pytest.mark.parametrize("bad", [True, 1.5, 0, 7, 2**70, "2", None])
def test_observation_set_file_rejects_ids_that_are_not_nodes(tmp_path, bad):
    # 2**70 overflows int64: it must surface as DataError, not OverflowError
    path = tmp_path / "om.json"
    path.write_text(json.dumps({"n": 6, "observed": [1, bad, 3]}))
    with pytest.raises(DataError, match=r"observed ids must be integers in 1\.\.6"):
        load_observation_set(path, 6)


def make_complete_inputs(tmp_path, seed=0, n_side=8, channels=2):
    rng = np.random.default_rng(seed)
    shape = (n_side, n_side, channels)
    truth = DenseTensor.from_array(rng.standard_normal(shape))
    scaled = DenseTensor.from_array(truth.values * np.array([0.5, 2.0]))
    n = n_side * n_side
    missing = rng.permutation(n)
    omegas = [
        ObservationSet(n, np.setdiff1d(np.arange(n), missing[:20])),
        ObservationSet(n, np.setdiff1d(np.arange(n), missing[20:40])),
    ]
    paths = {}
    for i, (t, om) in enumerate(zip((truth, scaled), omegas), start=1):
        t_path = tmp_path / f"acq{i}.tenb"
        o_path = tmp_path / f"acq{i}.omega.json"
        save_tensor(t, t_path)
        save_observation_set(om, o_path)
        paths[i] = (t_path, o_path)
    return (truth, scaled), omegas, paths


def written_files(out_dir) -> list[str]:
    return sorted(path.name for path in Path(out_dir).iterdir())


def test_run_complete_matches_library(tmp_path):
    tensors, omegas, paths = make_complete_inputs(tmp_path)
    cfg = config_from_dict(
        dict(kind="complete", k=4,
             inputs=[str(paths[1][0]), str(paths[2][0])],
             observation_files=[str(paths[1][1]), str(paths[2][1])],
             out_dir=str(tmp_path / "out"))
    )
    results, reports = run_complete(cfg)
    assert reports is None
    fibers = [matricize(t, 3).values for t in tensors]
    direct = graphprop(
        [(f[om.observed], om) for f, om in zip(fibers, omegas)], 4
    )
    for i, (res, ref) in enumerate(zip(results, direct), start=1):
        assert np.array_equal(res.completed.values, ref.completed.values)
        written = load_tensor(tmp_path / "out" / f"completed_acq{i}.tenb")
        expected = refold(ref.completed, tensors[0].shape, 3)
        assert np.array_equal(written.values, expected.values)
    # the manifest records each acquisition's SolverStats; with no result
    # rows, no CSV file is written
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["notes"]["solver_stats_per_acquisition"] == [
        dataclasses.asdict(ref.stats) for ref in direct]
    assert written_files(tmp_path / "out") == [
        "completed_acq1.tenb", "completed_acq2.tenb", "manifest.json"]


def test_run_complete_all_observed_identity(tmp_path):
    rng = np.random.default_rng(1)
    t = DenseTensor.from_array(rng.standard_normal((5, 5, 2)))
    save_tensor(t, tmp_path / "t.tenb")
    save_observation_set(ObservationSet(25, np.arange(25)), tmp_path / "om.json")
    cfg = config_from_dict(
        dict(kind="complete", k=3, inputs=[str(tmp_path / "t.tenb")],
             observation_files=[str(tmp_path / "om.json")],
             out_dir=str(tmp_path / "out"))
    )
    run_complete(cfg)
    out = load_tensor(tmp_path / "out" / "completed_acq1.tenb")
    assert np.array_equal(out.values, t.values)


def test_run_complete_flags_never_observed(tmp_path):
    rng = np.random.default_rng(2)
    t = DenseTensor.from_array(rng.standard_normal((6, 6, 2)))
    n = 36
    save_tensor(t, tmp_path / "t.tenb")
    omega = ObservationSet(n, np.arange(1, n))  # node 0 observed nowhere
    save_observation_set(omega, tmp_path / "om.json")
    cfg = config_from_dict(
        dict(kind="complete", k=3, inputs=[str(tmp_path / "t.tenb")],
             observation_files=[str(tmp_path / "om.json")],
             truth_files=[str(tmp_path / "t.tenb")], out_dir=str(tmp_path / "out"))
    )
    # the bound scalars run over the positive-degree nodes, so node 0 does
    # not stop the bound report
    _, reports = run_complete(cfg)
    assert len(reports) == 1
    for report in reports:
        if report.applicable:
            assert report.measured_error <= report.bound, report
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["notes"]["never_observed"] == [0]
    assert [(w["method"], w["category"]) for w in manifest["notes"]["warnings"]] == [
        ("graphprop", "CoverageViolationWarning")]
    assert 0 in manifest["notes"]["excluded_per_acquisition"][0]


def test_run_complete_bound_holds_with_never_observed_corners(tmp_path):
    """A 20x20x2 raster pair cropped from opposing corners leaves both
    corners observed nowhere; each report that applies keeps its error
    within the bound taken over the positive-degree nodes."""
    masks = partial_overlap_masks(OverlapSpec(20, 20, 0.3))
    inputs, observed = [], []
    for i, (t, m) in enumerate(zip(smooth_raster_pair(20, 20, 2, seed=0), masks), start=1):
        om = ObservationSet(400, node_ids(m))
        inputs.append(str(tmp_path / f"t{i}.tenb"))
        observed.append(str(tmp_path / f"om{i}.json"))
        save_tensor(t, inputs[-1])
        save_observation_set(om, observed[-1])
    cfg = config_from_dict(
        dict(kind="complete", k=3, inputs=inputs, observation_files=observed,
             truth_files=inputs, out_dir=str(tmp_path / "out"))
    )
    _, reports = run_complete(cfg)
    notes = json.loads((tmp_path / "out" / "manifest.json").read_text())["notes"]
    assert notes["never_observed"]
    assert len(reports) == 2
    for report in reports:
        if report.applicable:
            assert report.measured_error <= report.bound, report


def test_run_complete_bound_report(tmp_path):
    tensors, omegas, paths = make_complete_inputs(tmp_path, seed=5)
    cfg = config_from_dict(
        dict(kind="complete", k=4,
             inputs=[str(paths[1][0]), str(paths[2][0])],
             observation_files=[str(paths[1][1]), str(paths[2][1])],
             truth_files=[str(paths[1][0]), str(paths[2][0])],
             out_dir=str(tmp_path / "out"))
    )
    results, reports = run_complete(cfg)
    assert len(reports) == 2
    for report in reports:
        if report.applicable:
            assert report.measured_error <= report.bound, report
    payload = json.loads((tmp_path / "out" / "bound_report.json").read_text())
    assert {"psi", "phi", "bound", "measured_error", "applicable"} <= set(payload[0])
    assert written_files(tmp_path / "out") == [
        "bound_report.json", "completed_acq1.tenb", "completed_acq2.tenb", "manifest.json"]


def test_run_complete_releases_its_inputs_before_graphprop(tmp_path, monkeypatch):
    """Only the observed rows reach graphprop(): no loaded payload and no
    view of a file's full fiber rows is alive by then, and the truth files
    load after it."""
    _, omegas, paths = make_complete_inputs(tmp_path, seed=3)
    refs = []
    real_load, real_graphprop = harness.load_fibers, harness.graphprop

    def load(path):
        shape, rows = real_load(path)
        view = rows
        while view is not None:  # the rows, the payload array, its memoryview
            refs.append(weakref.ref(view))
            view = getattr(view, "base", None)
        return shape, rows

    seen = []

    def propagate(acquisitions, *args, **kwargs):
        seen.append(([ref() is None for ref in refs],
                     [(rows.base is None, len(rows)) for rows, _ in acquisitions]))
        return real_graphprop(acquisitions, *args, **kwargs)

    monkeypatch.setattr(harness, "load_fibers", load)
    monkeypatch.setattr(harness, "graphprop", propagate)
    inputs = [str(paths[1][0]), str(paths[2][0])]
    results, reports = run_complete(config_from_dict(
        dict(kind="complete", k=4, inputs=inputs, truth_files=inputs,
             observation_files=[str(paths[1][1]), str(paths[2][1])],
             out_dir=str(tmp_path / "out"))
    ))
    assert seen == [([True] * 6, [(True, om.observed.size) for om in omegas])]
    assert len(refs) == 12  # the truth files loaded after graphprop()
    assert len(results) == len(reports) == 2


def test_run_bound_report_file_matches_the_library(tmp_path):
    """bound-report passes graphprop() the observed rows and keeps the
    full fiber arrays as truths; its file holds, byte for byte, what
    graphprop() and evaluate_bounds give on the instance."""
    cfg = config_from_dict(dict(kind="bound-report", i1=12, i2=12, i3=2, k=3,
                                out_dir=str(tmp_path)))
    run_bound_report(cfg)
    tensors, omegas = harness._synth_instance(cfg, cfg.rank, cfg.missing_frac,
                                              harness._KIND_TAGS["bound-report"])
    fibers = [matricize(t, 3).values for t in tensors]
    results = graphprop([(f[om.observed], om) for f, om in zip(fibers, omegas)], cfg.k)
    reports = [dataclasses.asdict(evaluate_bounds(res.graph, om, f, res.completed))
               for res, om, f in zip(results, omegas, fibers)]
    expected = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "bound_report.json").read_bytes() == expected.encode("utf-8")
    # on this instance every report applies: phi < 2, the error within the bound
    for report in reports:
        assert report["applicable"] is True and report["phi"] < 2, report
        assert report["measured_error"] <= report["bound"], report


def count_knn_calls(monkeypatch):
    """Count kNN searches: graphprop() and knn_edges both search through
    graph._knn_observed."""
    calls = []
    real = graph._knn_observed

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (graph, propagation):
        monkeypatch.setattr(module, "_knn_observed", counted)
    return calls


def test_bound_reports_reuse_the_completion_graph(tmp_path, monkeypatch):
    calls = count_knn_calls(monkeypatch)
    run_bound_report(config_from_dict(
        dict(kind="bound-report", i1=10, i2=10, i3=2, rank=2, k=4,
             missing_frac=0.3, out_dir=str(tmp_path / "bound"), seed=2)
    ))
    assert len(calls) == 2  # one search per acquisition

    calls.clear()
    _, _, paths = make_complete_inputs(tmp_path, seed=5)
    run_complete(config_from_dict(
        dict(kind="complete", k=4,
             inputs=[str(paths[1][0]), str(paths[2][0])],
             observation_files=[str(paths[1][1]), str(paths[2][1])],
             truth_files=[str(paths[1][0]), str(paths[2][0])],
             out_dir=str(tmp_path / "complete"))
    ))
    assert len(calls) == 2


def test_run_bound_report(tmp_path):
    cfg = config_from_dict(
        dict(kind="bound-report", i1=14, i2=14, i3=2, rank=3, k=4,
             missing_frac=0.3, out_dir=str(tmp_path), seed=2)
    )
    reports = run_bound_report(cfg)
    assert len(reports) == 2
    for rep in reports:
        if rep.applicable:
            assert rep.measured_error <= rep.bound
    assert written_files(tmp_path) == ["bound_report.json", "manifest.json"]


def test_convert_raster_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.random((5, 4, 3)).astype("<f4")
    raw_path = tmp_path / "img.bin"
    data.tofile(raw_path)
    sidecar = tmp_path / "img.json"
    sidecar.write_text(json.dumps({"height": 5, "width": 4, "bands": 3, "dtype": "f32"}))
    out_path = tmp_path / "img.tenb"
    tensor = convert_raster(raw_path, sidecar, out_path)
    assert tensor.shape == (5, 4, 3)
    back = load_tensor(out_path)
    assert np.allclose(back.values, data.astype(np.float64), atol=0)
    sidecar.write_text(json.dumps({"height": 9, "width": 4, "bands": 3, "dtype": "f32"}))
    with pytest.raises(DataError):
        convert_raster(raw_path, sidecar, out_path)


def test_cli_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"kind": "rank-sweep", "rank_grid": []}))
    assert main(["rank-sweep", "--config", str(bad_cfg)]) == 2
    missing_inputs = tmp_path / "c.json"
    missing_inputs.write_text(json.dumps({
        "kind": "complete", "inputs": [str(tmp_path / "nope.tenb")],
        "observation_files": [str(tmp_path / "nope.json")],
        "out_dir": str(tmp_path / "out"),
    }))
    assert main(["complete", "--config", str(missing_inputs)]) == 3
    for kind, bad in (("overlap-sim", {"height": 0}), ("overlap-sim", {"bands": 0}),
                      ("blogs", {"two_block_size": 1}), ("blogs", {"two_block_size": -3}),
                      ("blogs", {"two_block_size": 10, "repeats": 0}),
                      ("blogs", {"two_block_size": 10, "seed": -1}),
                      ("rank-sweep", {"i1": 10, "i2": 10, "i3": 2, "missing_frac": 0.0}),
                      ("bound-report", {"i1": 12, "i2": 12, "i3": 2, "k": 3,
                                        "missing_frac": 0.5}),  # infeasible
                      *((kind, {"two_block_size": 10, key: grid})
                        for kind, key, grid in REPEATED_GRIDS)):
        bad_cfg.write_text(json.dumps({"kind": kind, **bad,
                                       "out_dir": str(tmp_path / "never")}))
        assert main([kind, "--config", str(bad_cfg)]) == 2
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("measured_error", [1.0, np.nextafter(0.1 / 1.5, np.inf)],
                         ids=["far_above", "one_ulp_above"])
def test_cli_bound_violation_exit_code(tmp_path, monkeypatch, caplog, measured_error):
    # the check is strict: an error one ulp above the bound is a violation
    violated = BoundReport(psi=0.1, phi=0.5, bound=0.1 / 1.5, measured_error=measured_error,
                           gtvm_eta=0.0, gtvm_q=0.0, gtvm_bound=None, applicable=True)
    monkeypatch.setattr(harness, "evaluate_bounds", lambda *args, **kwargs: violated)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": "bound-report", "i1": 14, "i2": 14, "i3": 2, "rank": 3, "k": 4,
        "missing_frac": 0.3, "seed": 2,
    }))
    code = main(["bound-report", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "bound violated" in caplog.text
    assert all(rec.exc_info is None for rec in caplog.records)


def test_cli_complete_bound_violation_exit_code(tmp_path, monkeypatch, caplog):
    # complete with truth files checks its bounds as bound-report does, and
    # before it writes anything
    violated = BoundReport(psi=0.1, phi=0.5, bound=0.1 / 1.5, measured_error=1.0,
                           gtvm_eta=0.0, gtvm_q=0.0, gtvm_bound=None, applicable=True)
    monkeypatch.setattr(harness, "evaluate_bounds", lambda *args, **kwargs: violated)
    _, _, paths = make_complete_inputs(tmp_path, seed=5)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": "complete", "k": 4,
        "inputs": [str(paths[1][0]), str(paths[2][0])],
        "observation_files": [str(paths[1][1]), str(paths[2][1])],
        "truth_files": [str(paths[1][0]), str(paths[2][0])],
    }))
    code = main(["complete", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "bound violated" in caplog.text
    assert all(rec.exc_info is None for rec in caplog.records)
    assert not (tmp_path / "out").exists()


def test_cli_spectral_norm_non_convergence_exit_code(tmp_path, monkeypatch, caplog):
    def no_convergence(operator, k, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0),
                                       np.empty((operator.shape[0], 0)))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": "bound-report", "i1": 14, "i2": 14, "i3": 2, "rank": 3, "k": 4,
        "missing_frac": 0.3, "seed": 2,
    }))
    code = main(["bound-report", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "ARPACK" in caplog.text
    assert not (tmp_path / "out" / "bound_report.json").exists()


def test_cli_rank_sweep_runs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": "rank-sweep", "repeats": 1, "rank_grid": [2], "i1": 10,
        "i2": 10, "i3": 2, "k": 3,
    }))
    out_dir = tmp_path / "out"
    code = main(["rank-sweep", "--config", str(cfg_path), "--seed", "3",
                 "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "results.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 3


def test_cli_runs_as_a_process(tmp_path):
    """``python -m graphprop.cli``: a tiny bound report exits 0; a config
    with a string where an integer belongs exits 2 with one error line on
    stderr, no traceback and no output."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def run(name, config):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "graphprop.cli", "bound-report", "--config", str(path),
             "--out-dir", str(tmp_path / name)],
            env=env, capture_output=True, text=True, timeout=120)

    ok = run("ok", {"i1": 12, "i2": 12, "i3": 2, "k": 3})
    assert ok.returncode == 0, ok.stderr
    assert len(json.loads((tmp_path / "ok" / "bound_report.json").read_text())) == 2
    bad = run("bad", {"i1": "12", "i2": 12, "i3": 2, "k": 3})
    assert bad.returncode == 2, bad.stderr
    assert [line for line in bad.stderr.splitlines() if line.startswith("ERROR")] == [
        "ERROR graphprop: configuration error: i1 must be an integer, got '12'"]
    assert "Traceback" not in bad.stderr
    assert not (tmp_path / "bad").exists()


def test_cli_convert_raster(tmp_path, caplog):
    data = np.arange(24, dtype="<f8")
    raw = tmp_path / "r.bin"
    data.tofile(raw)
    sidecar = tmp_path / "r.json"
    sidecar.write_text(json.dumps({"height": 2, "width": 3, "bands": 4, "dtype": "f64"}))
    out = tmp_path / "r.tenb"
    assert main(["convert-raster", str(raw), str(sidecar), str(out)]) == 0
    tensor = load_tensor(out)
    assert tensor.shape == (2, 3, 4)
    # band-interleaved-by-pixel: first four values are pixel (0, 0)
    assert np.array_equal(tensor.values[0, 0], [0.0, 1.0, 2.0, 3.0])
    for height in (2.9, "2", True):
        sidecar.write_text(json.dumps({"height": height, "width": 3, "bands": 4,
                                       "dtype": "f64"}))
        assert main(["convert-raster", str(raw), str(sidecar), str(out)]) == 3
    assert "JSON integers" in caplog.text
    sidecar.write_text(json.dumps({"height": 2, "width": 3, "bands": 4, "dtype": "f64"}))
    data[5] = np.nan
    data.tofile(raw)
    assert main(["convert-raster", str(raw), str(sidecar), str(out)]) == 3
    assert str(raw) in caplog.text


def _write(path, content):
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return str(path)


def _tensor_file(path, shape):
    save_tensor(DenseTensor.from_array(np.arange(float(np.prod(shape))).reshape(shape)), path)
    return str(path)


def _header_file(path, header):
    return _write(path, json.dumps(header) + "\n")


def _complete_with(tmp_path, tensor, observed='{"n": 9, "observed": [1, 2]}'):
    """A complete config on one input tensor and one observation file."""
    return {"kind": "complete", "inputs": [tensor],
            "observation_files": [_write(tmp_path / "om.json", observed)]}


def _overlap_with(tmp_path, *shapes):
    return {"kind": "overlap-sim", "k": 3, "inputs": [
        _tensor_file(tmp_path / f"r{i}.tenb", shape) for i, shape in enumerate(shapes)]}


_SHAPE_HEADER = {"shape": [3, 3, 2], "dtype": FORMAT_DTYPE, "layout": FORMAT_LAYOUT}
# A JSON integer of 5,000 digits: beyond the 4,300 digits that json.loads
# converts on Python builds with the integer digit limit, which reject the
# file as invalid JSON; on builds without the limit it loads, and each use
# below fails the file's own checks instead. Either way the file is named.
_HUGE_INT = "1" + "0" * 4999

# (function of the test's tmp_path returning the experiment config or the
# convert-raster sidecar, exit code, message fragment).
REJECTED_INPUTS = {
    "config-not-an-object": (lambda t: [1, 2], 2, "config must be a JSON object"),
    "config-not-utf8": (lambda t: b'{"kind": "bound-report"}\xff', 2, "not valid JSON"),
    "config-float-out-of-range": (lambda t: {"kind": "bound-report", "i1": 12, "i2": 12, "i3": 2,
                                             "k": 3, "missing_frac": 10**400}, 2,
                                  "missing_frac must be a number within float range"),
    "workers-zero": (lambda t: {"kind": "bound-report", "workers": 0}, 2,
                     "workers must be at least 1"),
    "full-scale-preset-removed": (lambda t: {"kind": "bound-report", "full_scale": True}, 2,
                                  "unknown config keys: ['full_scale']"),
    "empty-area-grid": (lambda t: {"kind": "overlap-sim", "area_grid": []}, 2,
                        "area_grid must be nonempty"),
    "three-overlap-inputs": (lambda t: {"kind": "overlap-sim", "inputs": ["a", "b", "c"]}, 2,
                             "exactly two input rasters"),
    "empty-label-fracs": (lambda t: {"kind": "blogs", "two_block_size": 10, "label_fracs": []},
                          2, "label_fracs must be nonempty"),
    "label-frac-above-one": (lambda t: {"kind": "blogs", "two_block_size": 10,
                                        "label_fracs": [1.5]}, 2, "must lie in (0, 1]"),
    "complete-without-inputs": (lambda t: {"kind": "complete"}, 2,
                                "at least one input tensor"),
    "complete-observation-count": (lambda t: {"kind": "complete", "inputs": ["a", "b"],
                                              "observation_files": ["a"]}, 2,
                                   "one observation file per input"),
    "complete-truth-count": (lambda t: {"kind": "complete", "inputs": ["a"],
                                        "observation_files": ["a"], "truth_files": ["a", "b"]},
                             2, "one truth tensor per input"),
    "observation-set-invalid-json": (
        lambda t: _complete_with(t, _tensor_file(t / "x.tenb", (3, 3, 2)), "{"), 3,
        "not valid JSON"),
    "observation-set-wrong-keys": (
        lambda t: _complete_with(t, _tensor_file(t / "x.tenb", (3, 3, 2)), '{"n": 9}'), 3,
        "exactly the keys"),
    "observation-set-huge-id": (
        lambda t: _complete_with(t, _tensor_file(t / "x.tenb", (3, 3, 2)),
                                 f'{{"n": 9, "observed": [{_HUGE_INT}]}}'), 3, "om.json"),
    "observation-set-duplicate-ids": (
        lambda t: _complete_with(t, _tensor_file(t / "x.tenb", (3, 3, 2)),
                                 '{"n": 9, "observed": [1, 1, 2]}'), 3, "must be unique"),
    "tensor-without-header-line": (
        lambda t: _complete_with(t, _write(t / "x.tenb", b"no newline")), 3,
        "missing header line"),
    "tensor-extra-header-key": (
        lambda t: _complete_with(t, _header_file(t / "x.tenb", {**_SHAPE_HEADER, "extra": 1})),
        3, "exactly shape/dtype/layout"),
    "tensor-huge-dtype": (
        lambda t: _complete_with(t, _write(t / "x.tenb", json.dumps(_SHAPE_HEADER).replace(
            f'"{FORMAT_DTYPE}"', _HUGE_INT) + "\n")), 3, "x.tenb"),
    "tensor-truncated-payload": (
        lambda t: _complete_with(t, _write(t / "x.tenb", json.dumps(_SHAPE_HEADER).encode()
                                           + b"\n" + bytes(8 * 17))), 3,
        "payload holds 136 bytes, header implies 144"),
    "tensor-non-finite": (
        lambda t: _complete_with(t, _write(t / "x.tenb", json.dumps(_SHAPE_HEADER).encode()
                                           + b"\n" + np.full(18, np.inf).tobytes())), 3,
        "values must be finite"),
    "tensor-unknown-layout": (
        lambda t: _complete_with(t, _header_file(t / "x.tenb", {**_SHAPE_HEADER,
                                                                "layout": "rows"})),
        3, "unsupported layout"),
    "overlap-order-2-rasters": (lambda t: _overlap_with(t, (4, 5), (4, 5)), 3,
                                "rasters must be (height, width, bands)"),
    "overlap-mismatched-rasters": (lambda t: _overlap_with(t, (4, 5, 2), (4, 6, 2)), 3,
                                   "does not match"),
    "sidecar-invalid-json": (lambda t: "{", 3, "not valid JSON"),
    "sidecar-missing-keys": (lambda t: {"height": 4, "width": 5}, 3, "needs keys"),
    "sidecar-huge-dtype": (
        lambda t: f'{{"height": 4, "width": 5, "bands": 2, "dtype": {_HUGE_INT}}}', 3,
        "input.json"),
    "sidecar-array-dtype": (lambda t: {"height": 4, "width": 5, "bands": 2, "dtype": ["f64"]},
                            3, "dtype must be one of"),
}


@pytest.mark.parametrize("case", [c for c in REJECTED_INPUTS if c.startswith("tensor-")])
def test_load_fibers_rejects_bad_tensor_files(case, tmp_path):
    # the tensor cases the CLI rejects with exit 3 fail in load_fibers itself
    make, code, fragment = REJECTED_INPUTS[case]
    assert code == 3
    with pytest.raises(DataError, match="x.tenb") as raised:
        load_fibers(make(tmp_path)["inputs"][0])
    assert fragment in str(raised.value)


@pytest.mark.parametrize("case", REJECTED_INPUTS)
def test_cli_rejects_bad_input(case, tmp_path, caplog, capsys):
    # one error line, the exit code of its class, no traceback, no output
    make, code, fragment = REJECTED_INPUTS[case]
    content = make(tmp_path)
    text = content if isinstance(content, (str, bytes)) else json.dumps(content)
    path = _write(tmp_path / "input.json", text)
    if case.startswith("sidecar"):
        argv = ["convert-raster", str(tmp_path / "r.bin"), path, str(tmp_path / "r.tenb")]
    else:
        kind = content["kind"] if isinstance(content, dict) else "bound-report"
        argv = [kind, "--config", path, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == code
    prefix = "configuration error: " if code == 2 else "data error: "
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith(prefix), errors
    assert fragment in errors[0]
    assert all(r.exc_info is None for r in caplog.records)
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "r.tenb").exists()
