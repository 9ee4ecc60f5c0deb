"""Smoke tests of the benchmark at its tiny size. They check metric names,
units and output checks, never timing values.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Layers each workload exists to exercise; their figures must be nonzero.
MAIN_LAYERS = {
    "synth-48": ("graph.knn_s", "graph.union_s", "bounds.phi_s", "bounds.gtvm_bound_s",
                 "baselines.gtvm_s"),
    "overlap-96": ("propagation.cg_iters", "propagation.excluded_nodes"),
    "sweep-100": ("baselines.halrtc_s", "baselines.halrtc_iters", "tensor.unfold_s"),
    "hyper-96": ("graph.knn_s", "tensor.io_s", "tensor.io_bytes", "datagen.s"),
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric_and_passes_checks(workload, trace):
    result = last_json(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert result["metrics"]["harness.self_s"]["value"] >= 0
        assert result["metrics"]["propagation.solves"]["value"] >= 1
        for name in MAIN_LAYERS[workload]:
            assert result["metrics"][name]["value"] > 0, name


def info_line(proc) -> dict:
    line = next(l for l in proc.stdout.splitlines() if l.startswith("info "))
    return json.loads(line[len("info "):])


def test_same_seed_gives_same_inputs_and_quality():
    first = info_line(run_bench("overlap-96", 0))
    second = info_line(run_bench("overlap-96", 0))
    other = info_line(run_bench("overlap-96", 0, seed=4))
    for name in ("rmse_graphprop", "rmse_baseline"):
        assert first[name] == second[name]
        assert first[name] != other[name]
    assert first["env"]["seed"] == 3
    assert set(first["env"]) >= {"python", "numpy", "scipy", "cpu_count", "blas", "seed"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def import_bench():
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import graphprop
    import spans
    import workloads

    return graphprop, spans, workloads


def _scaled_gtvm(gp):
    real = gp.gtvm_inpaint
    return lambda g, om, f: gp.FiberMatrix(real(g, om, f).values * 1e4)


def _raising(gp):
    def broken(*args, **kwargs):
        raise gp.errors.UnreachableComponent("injected")
    return broken


def _warning(gp):
    real = gp.graphprop

    def warns(*args, **kwargs):
        warnings.warn("injected", gp.errors.MaxItersExceeded)
        return real(*args, **kwargs)
    return warns


@pytest.mark.parametrize("name, attr, sabotage, expected", [
    ("synth-48", "gtvm_inpaint", _scaled_gtvm, "observed rows changed"),
    ("synth-48", "gtvm_inpaint", _scaled_gtvm, "outside reference range"),
    ("overlap-96", "graphprop", _raising, "raised UnreachableComponent"),
    ("overlap-96", "graphprop", _warning, "warning MaxItersExceeded"),
])
def test_checks_fail_an_op_with_wrong_outputs(monkeypatch, tmp_path, name, attr, sabotage,
                                              expected):
    gp, _, workloads = import_bench()
    workload = workloads.WORKLOADS[name]("tiny")
    state = workload.setup(0, tmp_path)[0]
    capture = workloads.Capture()
    capture.install()
    try:
        _, good = workloads.run_op(workload, state, capture, contextlib.nullcontext())
        assert good.failures == []
        monkeypatch.setattr(gp, attr, sabotage(gp))
        _, bad = workloads.run_op(workload, state, capture, contextlib.nullcontext())
    finally:
        capture.uninstall()
    assert any(expected in msg for msg in bad.failures), bad.failures


def test_tracer_restores_functions_and_nests_spans():
    import numpy as np

    gp, spans, _ = import_bench()
    from graphprop import propagation

    original = propagation.knn_edges
    rng = np.random.default_rng(0)
    values = rng.standard_normal((30, 2))
    first, second = gp.ObservationSet(30, np.arange(20)), gp.ObservationSet(30, np.arange(10, 30))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert propagation.knn_edges is not original
        with tracer.root("op") as root:
            gp.graphprop([(values[:20], first), (values[10:], second)], 3)
    finally:
        tracer.uninstall()
    assert propagation.knn_edges is original
    tracer.check_nesting()
    figures = spans.layer_metrics(tracer, root.index)
    assert figures["graph.knn_calls"] == 2
    assert figures["graph.builds"] == 1
    assert figures["propagation.solves"] == 2
    assert figures["harness.self_s"] >= 0
