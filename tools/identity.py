"""Byte-identity listing of graphprop's outputs on a fixed set of configs.

    PYTHONPATH=src python tools/identity.py > listing.txt

Run from the repository root. Each config runs in this process through
``graphprop.cli.main``, in a temporary directory that is removed on exit.
Standard output gets one ``sha256  run/file`` line per output file:
``results.csv`` and ``summary.csv`` (the runs with result rows), every
``.tenb``, ``bound_report.json``, and ``manifest.json`` with the config
echo's path keys dropped (the paths name the temporary directory); its
notes hold the ``SolverStats`` and excluded nodes of each ``complete``,
``bound-report`` and overlap-sim acquisition.
``timings.csv`` is never hashed.

The listing is meant to be compared, never checked in: the hashes follow
the numpy and scipy versions. Two uses:

* the same tree under one BLAS thread on one CPU
  (``OPENBLAS_NUM_THREADS=1 taskset -c 0``), one BLAS thread on every CPU
  (one lane per CPU) and the default BLAS threads must give one listing;
* a change that keeps outputs unchanged gives the listing of its parent:
  run this file with ``PYTHONPATH`` set to each tree's ``src/`` and
  ``diff`` the two listings.

Every size stays below about 10,000 unknowns per solve: above that, CG's
row dots follow the BLAS thread count.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from graphprop import (
    DenseTensor,
    EdgeSet,
    FiberMatrix,
    ObservationSet,
    matricize,
    refold,
    save_edge_list,
    save_tensor,
    smooth_raster_pair,
    two_block_graph,
)
from graphprop.cli import main as cli_main
from graphprop.datagen import (
    OverlapSpec,
    SynthSpec,
    generate_acquisitions,
    partial_overlap_masks,
    sample_observation_sets,
)
from graphprop import graph
from graphprop.harness import save_observation_set
from graphprop.propagation import LANE_MIN_WORK

# Config keys that hold a path; the manifest's config echo is hashed
# without them.
PATH_KEYS = ("out_dir", "inputs", "observation_files", "truth_files",
             "graph_file", "labels_file")
# Informational runtimes, different on every run.
UNHASHED = "timings.csv"


def _synth_inputs(inputs: Path, name: str, shape, acquisitions: int, frac: float,
                  seed: int, **config) -> dict:
    """A ``complete`` config with truth files on ``acquisitions`` rank-4
    Tucker tensors of ``shape``, each missing ``frac`` of its fibers in
    disjoint sets, written under ``inputs``."""
    spec = SynthSpec(*shape, r=4, lambda_count=acquisitions, missing_frac=frac, seed=seed)
    omegas = sample_observation_sets(spec.n, frac, acquisitions, seed=seed + 1)
    return _complete_inputs(inputs, name, generate_acquisitions(spec), omegas, **config)


def _corner_inputs(inputs: Path, name: str) -> dict:
    """A ``complete`` config on a 20x20x2 raster pair cropped from opposing
    corners, so the corners are observed in neither acquisition."""
    masks = partial_overlap_masks(OverlapSpec(20, 20, 0.3))
    omegas = [ObservationSet(400, np.flatnonzero(matricize(
        DenseTensor.from_array(m[..., None]), 3).values)) for m in masks]
    return _complete_inputs(inputs, name, smooth_raster_pair(20, 20, 2, seed=0), omegas, k=3)


def _tie_inputs(inputs: Path, name: str) -> dict:
    """A ``complete`` config on a 32x32x20 pair whose fibers take three
    levels per channel, 200 of them copies of others, so exact distance
    ties and duplicates reach the brute-force search's exact selection and
    its smaller-id tie-break."""
    rng = np.random.default_rng(9)
    tensors = []
    for _ in range(2):
        fibers = rng.integers(-1, 2, size=(32 * 32, 20)).astype(np.float64)
        copies = rng.choice(32 * 32, size=(2, 200), replace=False)
        fibers[copies[1]] = fibers[copies[0]]
        tensors.append(refold(FiberMatrix(fibers), (32, 32, 20), 3))
    omegas = sample_observation_sets(32 * 32, 0.4, 2, seed=10)
    return _complete_inputs(inputs, name, tensors, omegas, k=5)


def _raster_files(inputs: Path) -> dict:
    """An overlap-sim config that reads its raster pair, 16x18x3, from
    tensor files written under ``inputs``."""
    paths = [str(inputs / f"raster{i}.tenb") for i in (1, 2)]
    for t, path in zip(smooth_raster_pair(16, 18, 3, seed=5), paths):
        save_tensor(t, path)
    return {"inputs": paths, "k": 3, "area_grid": [0.3]}


def _complete_inputs(inputs: Path, name: str, tensors, omegas, **config) -> dict:
    """A ``complete`` config on ``tensors`` observed at ``omegas``, each
    tensor its own truth file, written under ``inputs``."""
    paths, observed = [], []
    for i, (t, om) in enumerate(zip(tensors, omegas), start=1):
        paths.append(str(inputs / f"{name}_t{i}.tenb"))
        observed.append(str(inputs / f"{name}_om{i}.json"))
        save_tensor(t, paths[-1])
        save_observation_set(om, observed[-1])
    return {"inputs": paths, "observation_files": observed,
            "truth_files": paths, **config}


def _stranded_blogs(inputs: Path) -> dict:
    """A blogs config on an edge-list file: two 30-node blocks, the pair
    60-61 joined to nothing else, and nodes 62 and 63 isolated."""
    edges, labels = two_block_graph(30, seed=3)
    graph_file, labels_file = inputs / "stranded_graph.txt", inputs / "stranded_labels.txt"
    save_edge_list(EdgeSet(64, [*map(tuple, edges.edges), (60, 61)]), graph_file)
    labels_file.write_text("\n".join(str(int(v)) for v in [*labels, 0, 1, 1, 0]) + "\n",
                           encoding="utf-8")
    return {"graph_file": str(graph_file), "labels_file": str(labels_file),
            "label_fracs": [0.1, 0.2], "repeats": 2}


def configs(inputs: Path) -> dict[str, tuple[str, dict]]:
    """Run name to (kind, config), with the input files written under
    ``inputs``."""
    if min(48 * 48 * 7, 48 * 48 * 20, 32 * 32 * 20) < LANE_MIN_WORK:
        raise SystemExit("a 48x48x7, 48x48x20 or 32x32x20 run no longer passes the lane gate")
    if graph.KDTREE_MAX_CHANNELS >= 20:
        raise SystemExit("the 20-channel completes no longer take the brute-force kNN path")
    # each of the 2,458 observed rows of a 64x64x20 acquisition shortlists
    # at least k = 10 pairs, so the blocks before the last reach the budget
    # (a tree without the budget runs one exact selection per block)
    rows = 64 * 64 - math.floor(0.4 * 64 * 64)
    if (rows - graph._BRUTE_BLOCK // rows) * 10 < getattr(graph, "_BRUTE_BATCH", 0):
        raise SystemExit("the 64x64x20 searches no longer take more than one exact selection")
    return {
        # HaLRTC's mode shrinks on lanes
        "rank-sweep-30x30x3": ("rank-sweep", {"i1": 30, "i2": 30, "i3": 3, "k": 5,
                                              "rank_grid": [3, 8], "repeats": 1}),
        "rank-sweep-splu": ("rank-sweep", {"i1": 12, "i2": 12, "i3": 2, "k": 3,
                                           "rank_grid": [2], "repeats": 1,
                                           "solver": {"method": "splu"}}),
        # k = 2 at 45% missing strands components (UnreachableComponent)
        "missing-sweep-stranded": ("missing-sweep", {"i1": 12, "i2": 12, "i3": 2, "k": 2,
                                                     "rank_tiles": [2], "missing_grid": [0.45],
                                                     "repeats": 3}),
        # area 0.0 returns every input; 0.3 leaves corners observed nowhere
        "overlap-sim-20x20x2": ("overlap-sim", {"height": 20, "width": 20, "bands": 2, "k": 3,
                                                "area_grid": [0.0, 0.3]}),
        # past LANE_MIN_WORK: each acquisition's search and solve on a lane
        "overlap-sim-48x48x7": ("overlap-sim", {"height": 48, "width": 48, "bands": 7,
                                                "k": 10, "area_grid": [0.4]}),
        # the rasters read from tensor files
        "overlap-sim-files": ("overlap-sim", _raster_files(inputs)),
        "blogs-two-block": ("blogs", {"two_block_size": 30, "label_fracs": [0.1, 0.2],
                                      "repeats": 1}),
        "blogs-stranded": ("blogs", _stranded_blogs(inputs)),
        "complete-10x10x2": ("complete", _synth_inputs(inputs, "small", (10, 10, 2), 2, 0.4,
                                                       4, k=3)),
        # past LANE_MIN_WORK: each acquisition's brute-force kNN search on a
        # lane; bound scalars at the largest size here
        "complete-48x48x20": ("complete", _synth_inputs(inputs, "brute", (48, 48, 20), 2, 0.4,
                                                        6, k=5)),
        # past LANE_MIN_WORK: brute-force kNN on acquisition lanes, each
        # search's exact selections in more than one batch
        "complete-64x64x20": ("complete", _synth_inputs(inputs, "batches", (64, 64, 20), 2,
                                                        0.4, 12, k=10)),
        # past LANE_MIN_WORK: brute-force kNN on acquisition lanes, on
        # quantised fibers with duplicates (exact ties)
        "complete-ties": ("complete", _tie_inputs(inputs, "ties")),
        "complete-L3-splu": ("complete", _synth_inputs(inputs, "three", (12, 12, 3), 3, 0.3,
                                                       8, k=4, solver={"method": "splu"})),
        "complete-corners": ("complete", _corner_inputs(inputs, "corners")),
        "bound-report": ("bound-report", {"i1": 12, "i2": 12, "i3": 2, "k": 3}),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    """The SHA-256 of an output file; a manifest is hashed without the
    path keys of its config echo."""
    if path.name != "manifest.json":
        return _sha256(path.read_bytes())
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for key in PATH_KEYS:
        del manifest["config"][key]
    return _sha256(json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"))


def listing(work: Path) -> list[str]:
    """Run every config with its inputs under ``work / "in"`` and its
    outputs under ``work / "out" / <run>``; return the listing's lines."""
    inputs, outputs = work / "in", work / "out"
    inputs.mkdir(parents=True)
    runs = configs(inputs)
    lines = []
    for run, (kind, config) in runs.items():
        path = inputs / f"{run}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = cli_main([kind, "--config", str(path), "--out-dir", str(outputs / run)])
        if code != 0:
            raise SystemExit(f"{run}: graphprop exited {code}")
        for out in sorted((outputs / run).iterdir()):
            if out.name != UNHASHED:
                lines.append(f"{file_digest(out)}  {run}/{out.name}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="graphprop-identity-") as work:
        print("\n".join(listing(Path(work))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
