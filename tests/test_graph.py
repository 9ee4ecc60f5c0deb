import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphprop import (
    EdgeSet,
    FiberMatrix,
    ObservationSet,
    SynthSpec,
    build_graph,
    generate_acquisitions,
    knn_edges,
    load_edge_list,
    load_tensor,
    matricize,
    partition_blocks,
    sample_observation_sets,
    save_edge_list,
    save_tensor,
    union_edges,
)
from graphprop import graph
from graphprop.errors import DataError, NonFiniteInput, TooFewObserved
from graphprop.harness import save_observation_set
from graphprop.lanes import lane_cpus, run_lanes
from oracles import (
    canonical_adjacency,
    coo_graph,
    edge_degrees,
    edge_pairs,
    setdiff_complement,
)


def exact_distance(a, b):
    """The library's distance: squared differences summed channel by
    channel, left to right, then the square root."""
    total = 0.0
    for x, y in zip(a, b):
        diff = float(x) - float(y)
        total += diff * diff
    return float(np.sqrt(total))


def brute_force_knn(points, k):
    """O(n^2) directed kNN with (distance, id) tie-break, union-symmetrised."""
    n = len(points)
    edges = set()
    for i in range(n):
        dists = sorted(
            (exact_distance(points[j], points[i]), j)
            for j in range(n) if j != i
        )
        for _, j in dists[:k]:
            edges.add((min(i, j), max(i, j)))
    return edges


def all_observed(n):
    return ObservationSet(n, np.arange(n))


def assert_same_adjacency(got, want):
    """Equal CSR arrays, dtypes included."""
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_knn_line_features():
    feats = FiberMatrix(np.array([[0.0], [1.0], [10.0]]))
    e = knn_edges(feats, all_observed(3), 1)
    assert edge_pairs(e) == {(0, 1), (1, 2)}


def test_knn_two_components():
    feats = FiberMatrix(np.array([[0.0], [1.0], [10.0], [11.0]]))
    e = knn_edges(feats, all_observed(4), 1)
    assert edge_pairs(e) == {(0, 1), (2, 3)}


def test_knn_complete_graph_when_k_saturates():
    rng = np.random.default_rng(0)
    feats = FiberMatrix(rng.standard_normal((6, 2)))
    e = knn_edges(feats, all_observed(6), 5)
    assert len(edge_pairs(e)) == 15


def test_knn_restricted_to_observed():
    feats = FiberMatrix(np.array([[0.0], [0.5], [1.0], [10.0]]))
    omega = ObservationSet(4, [0, 2, 3])
    e = knn_edges(feats, omega, 1)
    assert 1 not in set(e.edges.ravel())
    assert edge_pairs(e) == {(0, 2), (2, 3)}


def test_knn_duplicate_rows_rank_first():
    feats = FiberMatrix(np.array([[0.0], [0.0], [0.0], [5.0]]))
    e = knn_edges(feats, all_observed(4), 1)
    # ids 0,1,2 coincide; ties break towards smaller id, node 3 attaches to 0
    assert edge_pairs(e) == {(0, 1), (0, 2), (1, 2), (0, 3)} & brute_force_knn(feats.values, 1)
    assert edge_pairs(e) == brute_force_knn(feats.values, 1)


def test_knn_preconditions():
    feats = FiberMatrix(np.zeros((3, 1)))
    with pytest.raises(TooFewObserved):
        knn_edges(feats, ObservationSet(3, [0, 1]), 2)
    masked = FiberMatrix(np.array([[0.0], [1.0], [2.0]]))
    nonfinite = masked.values.copy()
    nonfinite[1, 0] = np.inf
    with pytest.raises(ValueError):
        FiberMatrix(nonfinite)
    with pytest.raises(NonFiniteInput):
        object.__setattr__(masked, "values", nonfinite)
        knn_edges(masked, all_observed(3), 1)


def tie_points(seed, k, channels, quantize, duplicate):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k + 1, 40))
    points = rng.standard_normal((n, channels))
    if quantize:
        # integer grids force exact distance ties
        points = np.floor(points * 2.0)
    if duplicate:
        # exact copies tie at distance zero; the dyadic scale and offset
        # move them off the integer grid while keeping every tie exact
        copies = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
        points = np.concatenate([points, points[copies]]) * 0.75 + 0.5
    return points


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 4),
    st.one_of(st.integers(1, 3), st.integers(17, 24)),
    st.booleans(),
    st.booleans(),
)
@example(seed=5, k=2, channels=20, quantize=False, duplicate=True)
@settings(max_examples=60, deadline=None)
def test_knn_matches_brute_force(seed, k, channels, quantize, duplicate):
    points = tie_points(seed, k, channels, quantize, duplicate)
    n = len(points)
    e = knn_edges(FiberMatrix(points), all_observed(n), k)
    assert edge_pairs(e) == brute_force_knn(points, k)


@pytest.mark.parametrize("seed", range(4, 10))
def test_knn_tree_and_brute_force_paths_agree(monkeypatch, seed):
    points = tie_points(seed, 2, 20, quantize=seed % 2 == 1, duplicate=True)
    feats, omega = FiberMatrix(points), all_observed(len(points))
    # 20 channels take the tree path under a limit of 20, brute force under 19
    monkeypatch.setattr(graph, "KDTREE_MAX_CHANNELS", 20)
    tree = knn_edges(feats, omega, 2)
    monkeypatch.setattr(graph, "KDTREE_MAX_CHANNELS", 19)
    brute = knn_edges(feats, omega, 2)
    assert edge_pairs(tree) == edge_pairs(brute)


@pytest.mark.parametrize("limit", [20, 19], ids=["tree", "brute-force"])
@pytest.mark.parametrize("k", [1, 2, 4, 7])
def test_knn_k_plus_one_observed_matches_oracle(monkeypatch, limit, k):
    # with k + 1 observed fibers every other one is among the k nearest;
    # integer grids (ties) and exact duplicates on both search paths
    monkeypatch.setattr(graph, "KDTREE_MAX_CHANNELS", limit)
    rng = np.random.default_rng(k)
    for points in (rng.standard_normal((k + 1, 20)),
                   np.floor(rng.standard_normal((k + 1, 20)) * 2.0),
                   np.zeros((k + 1, 20))):
        e = knn_edges(FiberMatrix(points), all_observed(k + 1), k)
        assert edge_pairs(e) == brute_force_knn(points, k)
        assert len(edge_pairs(e)) == k * (k + 1) // 2
    # observed subset of a larger node set
    feats = FiberMatrix(rng.standard_normal((k + 4, 20)))
    omega = ObservationSet(k + 4, np.arange(1, k + 2))
    expected = {(int(omega.observed[i]), int(omega.observed[j]))
                for i, j in brute_force_knn(feats.values[omega.observed], k)}
    assert edge_pairs(knn_edges(feats, omega, k)) == expected


def test_knn_brute_force_path_high_dim():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((50, 20))  # channels > 16: blocked path
    e = knn_edges(FiberMatrix(points), all_observed(50), 3)
    assert edge_pairs(e) == brute_force_knn(points, 3)


def test_knn_larger_instance_matches_oracle():
    rng = np.random.default_rng(21)
    points = rng.standard_normal((500, 3))
    e = knn_edges(FiberMatrix(points), all_observed(500), 10)
    assert edge_pairs(e) == brute_force_knn(points, 10)


@pytest.mark.parametrize("limit", [20, 19], ids=["tree", "brute-force"])
@pytest.mark.parametrize("exponent", [-540, 540, 510])
def test_knn_edges_unchanged_by_power_of_two_feature_scales(monkeypatch, limit, exponent):
    # at 2**-540 every squared difference underflows, at 2**510 it
    # overflows, unless the features are rescaled before the search
    monkeypatch.setattr(graph, "KDTREE_MAX_CHANNELS", limit)
    for seed in range(3):
        points = tie_points(seed, 3, 20, quantize=seed == 1, duplicate=seed == 2)
        omega = all_observed(len(points))
        want = knn_edges(FiberMatrix(points), omega, 3)
        assert edge_pairs(want) == brute_force_knn(points, 3)
        got = knn_edges(FiberMatrix(np.ldexp(points, exponent)), omega, 3)
        assert edge_pairs(got) == edge_pairs(want)


@pytest.mark.parametrize("seed", range(4))
def test_knn_brute_force_near_ties_below_float32_resolution(seed):
    # clusters of copies perturbed by about 2**-30 relative: float32 cannot
    # tell the copies apart, float64 can, so the float32 filter must hand
    # every copy on to the exact selection
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((6, 20)) + 3.0
    copies = np.repeat(centres, 6, axis=0)
    copies *= 1.0 + np.ldexp(rng.standard_normal(copies.shape), -30)
    points = np.concatenate([copies, rng.standard_normal((10, 20)) + 3.0])
    rounded = points.astype(np.float32).astype(np.float64)
    assert len(np.unique(rounded, axis=0)) < len(np.unique(points, axis=0))
    for k in (1, 3, 7):
        e = knn_edges(FiberMatrix(points), all_observed(len(points)), k)
        assert edge_pairs(e) == brute_force_knn(points, k)


@pytest.mark.parametrize("budget", [1, 10, graph._BRUTE_BATCH],
                         ids=["pass-per-block", "budget-10", "default-budget"])
@pytest.mark.parametrize("block", [1, 97, 400])
def test_knn_brute_force_across_blocks(monkeypatch, block, budget):
    # row blocks of one row, of a few rows, and of ragged sizes, each
    # batch of exact selections one block (budget 1), a few one-row blocks
    # but less than a four-row block's shortlist (11 to 24 pairs here), or
    # the whole search
    rng = np.random.default_rng(block)
    points = np.concatenate([rng.standard_normal((60, 20)),
                             np.floor(rng.standard_normal((20, 20)) * 2.0)])
    points = np.concatenate([points, points[:10]])  # exact duplicates
    omega = all_observed(len(points))
    whole = knn_edges(FiberMatrix(points), omega, 4)
    monkeypatch.setattr(graph, "_BRUTE_BLOCK", block)
    monkeypatch.setattr(graph, "_BRUTE_BATCH", budget)
    blocked = knn_edges(FiberMatrix(points), omega, 4)
    # the same arrays, row order and dtype included, at any block size and
    # budget
    assert blocked.edges.dtype == whole.edges.dtype
    assert np.array_equal(blocked.edges, whole.edges)
    assert edge_pairs(blocked) == brute_force_knn(points, 4)


def test_knn_brute_force_batch_memory_on_duplicates(monkeypatch):
    # 300 copies of one fiber in blocks of 10 rows, each row shortlisting
    # the 299 others (2,990 pairs a block, 89,700 in all): the pending
    # batch holds at most the budget plus one block's shortlist, so the
    # exact selection never works on the whole search's pairs at once
    points = np.ones((300, 20))
    monkeypatch.setattr(graph, "_BRUTE_BLOCK", 3000)
    monkeypatch.setattr(graph, "_BRUTE_BATCH", 4000)
    tracemalloc.start()
    try:
        e = knn_edges(FiberMatrix(points), all_observed(300), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    batch_pairs = 4000 + 2990
    assert peak <= 2 * graph._DISTANCE_CHUNK * 8 + 8 * 8 * batch_pairs + 8 * points.nbytes
    want = np.array([[j for j in range(4) if j != i][:3] for i in range(300)])
    assert np.array_equal(e.edges, np.column_stack([np.repeat(np.arange(300), 3), want.ravel()]))


def channel_running_sum(pts, rows, cands):
    """Squared distances summed one channel at a time, left to right."""
    total = np.zeros(rows.size)
    for ch in range(pts.shape[1]):
        diff = pts[cands, ch] - pts[rows, ch]
        total += diff * diff
    return total


@pytest.mark.parametrize("channels", [1, 7, 8, 9, 24, 100])
def test_knn_brute_force_squared_distances_are_the_channel_running_sum(monkeypatch, channels):
    # a pairwise sum over the channels (np.add.reduce) rounds differently
    # from 8 channels on; a 1,000-value chunk splits the 3,000 pairs into
    # chunks of every width here, the last one ragged
    rng = np.random.default_rng(channels)
    pts = rng.standard_normal((50, channels))
    rows, cands = rng.integers(0, 50, (2, 3000))
    want = channel_running_sum(pts, rows, cands)
    for chunk in (graph._DISTANCE_CHUNK, 1000):
        monkeypatch.setattr(graph, "_DISTANCE_CHUNK", chunk)
        got = graph._squared_distances(pts, rows, cands)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("channels", [20, 40, 400])
def test_knn_brute_force_nearest_k_memory_on_duplicates(channels):
    # 300 copies of one fiber, each the candidate of every other (89,700
    # pairs at distance zero): the differences go in chunks, never as one
    # (channels, pairs) array, and the ties go to the smaller ids
    pts = np.ones((300, channels))
    rows, cands = np.nonzero(~np.eye(300, dtype=bool))
    tracemalloc.start()
    try:
        got_rows, got_cands = graph._nearest_k(pts, rows, cands, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * graph._DISTANCE_CHUNK * 8 + 6 * rows.nbytes
    want = np.array([[j for j in range(4) if j != i][:3] for i in range(300)])
    assert np.array_equal(got_rows, np.repeat(np.arange(300), 3))
    assert np.array_equal(got_cands, want.ravel())


def tied_points(seed):
    """Integer-grid points, each given twice 45 rows apart, so exact
    distance ties (zero among the copies, equal lattice distances among the
    rest) straddle row blocks of every size below 45."""
    rng = np.random.default_rng(seed)
    base = np.floor(rng.standard_normal((45, 20)) * 2.0)
    return np.concatenate([base, base])


def test_run_lanes_runs_each_piece_once():
    # eight lanes, more than the CPUs, over 90 pieces with the interpreter
    # switching threads as often as it can: a piece claimed twice would run
    # twice, one never claimed would be missing
    ran = []

    def work(i, lane):
        ran.append((i, sum(range(200))))  # some bytecode, so lanes switch mid-piece

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(7) as pool:
            run_lanes(pool, 8, 90, work)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(i for i, _ in ran) == list(range(90))


def test_run_lanes_raises_the_lowest_failing_pieces_error():
    # every piece but 0 fails, at once on lane 0 (the calling thread) and
    # 50 ms later on a pool lane, so on four lanes the calling thread's
    # error comes first unless it holds piece 1; piece 1's error is raised
    # all the same, as on one lane, and after a failure no lane claims
    # more than the piece it holds
    ran = []

    def work(i, lane):
        ran.append(i)
        if lane:
            time.sleep(0.05)
        if i:
            raise ValueError(f"piece {i}")

    for lanes in (1, 4):
        ran.clear()
        with ThreadPoolExecutor(lanes) as pool, pytest.raises(ValueError, match="^piece 1$"):
            run_lanes(pool, lanes, 12, work)
        assert 1 in ran and max(ran) <= lanes


def test_knn_brute_force_lanes_only_on_single_threaded_blas(monkeypatch):
    # lanes whose GEMMs each start BLAS threads oversubscribe the CPUs
    cpus = len(os.sched_getaffinity(0))
    for openblas, omp, want in ((None, None, 1), ("1", None, cpus), (None, "1", cpus),
                                ("2", "1", 1), (None, "4", 1)):
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert lane_cpus() == want


@pytest.mark.parametrize("block", [None, 90], ids=["one-block", "one-row-blocks"])
def test_knn_brute_force_starts_no_thread(monkeypatch, block):
    # every row block and every batch of exact selections runs on the
    # calling thread, one block or many, even where the lane rule grants
    # every CPU: graphprop() gives each acquisition's search its lane, and
    # no search starts lanes of its own
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    budget = graph._BRUTE_BATCH
    if block is not None:
        budget = 50
        monkeypatch.setattr(graph, "_BRUTE_BLOCK", block)
        monkeypatch.setattr(graph, "_BRUTE_BATCH", budget)
    points = tied_points(0)
    caller, threads = threading.get_ident(), threading.active_count()
    seen, batches = [], []
    nearest_k = graph._nearest_k

    def recording(pts, rows, cands, k):
        seen.append((threading.get_ident(), threading.active_count()))
        batches.append(rows)
        return nearest_k(pts, rows, cands, k)

    monkeypatch.setattr(graph, "_nearest_k", recording)
    e = knn_edges(FiberMatrix(points), all_observed(len(points)), 3)
    # one call per pass: a pass closes once its blocks shortlist the budget
    # and at the last block, and a one-row block shortlists its row's pairs
    per_block = (np.bincount(np.concatenate(batches)) if block is not None
                 else [sum(map(len, batches))])
    passes, pending = [], 0
    for i, pairs in enumerate(per_block):
        pending += pairs
        if pending >= budget or i == len(per_block) - 1:
            passes.append(pending)
            pending = 0
    assert [len(rows) for rows in batches] == passes
    assert len(passes) > 1 or block is None
    assert seen == [(caller, threads)] * len(passes)
    assert threading.active_count() == threads
    assert edge_pairs(e) == brute_force_knn(points, 3)


def test_knn_brute_force_past_the_certified_channel_count():
    # beyond about 1.09 million channels the float32 filter certifies
    # nothing and keeps every other column; a node is still never its own
    # neighbour (k = n - 1 leaves exactly the other two)
    points = np.zeros((3, 1_089_431))
    points[1, ::2] = 1.0
    points[2, 1::3] = -1.0
    e = knn_edges(FiberMatrix(points), all_observed(3), 2)
    assert edge_pairs(e) == {(0, 1), (0, 2), (1, 2)}


def test_knn_brute_force_never_loads_the_kd_tree(tmp_path):
    """scipy.spatial is loaded only by a kd-tree search: a fresh process
    whose searches all take the brute-force path never imports it, the
    CLI's ``complete`` on a 20-channel pair included. That run writes the
    observed fibers back bit for bit."""
    spec = SynthSpec(12, 12, 20, r=4, lambda_count=2, missing_frac=0.4, seed=6)
    omegas = sample_observation_sets(spec.n, 0.4, 2, seed=7)
    tensors = generate_acquisitions(spec)
    config = {"k": 5, "inputs": [], "observation_files": []}
    for i, (t, om) in enumerate(zip(tensors, omegas), start=1):
        config["inputs"].append(str(tmp_path / f"t{i}.tenb"))
        config["observation_files"].append(str(tmp_path / f"om{i}.json"))
        save_tensor(t, config["inputs"][-1])
        save_observation_set(om, config["observation_files"][-1])
    (tmp_path / "complete.json").write_text(json.dumps(config), encoding="utf-8")
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from graphprop import FiberMatrix, ObservationSet, knn_edges",
        "from graphprop.cli import main",
        "from graphprop.graph import KDTREE_MAX_CHANNELS",
        "rng = np.random.default_rng(0)",
        "omega = ObservationSet(40, np.arange(0, 40, 2))",
        "for channels in (KDTREE_MAX_CHANNELS + 1, 24):",
        "    knn_edges(FiberMatrix(rng.standard_normal((40, channels))), omega, 3)",
        "assert main(['complete', '--config', sys.argv[1], '--out-dir', sys.argv[2]]) == 0",
        "assert 'scipy.spatial' not in sys.modules",
        "knn_edges(FiberMatrix(rng.standard_normal((40, 3))), omega, 3)",
        "assert 'scipy.spatial' in sys.modules",
    ])
    src = str(Path(graph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "complete.json"),
                           str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for i, (t, om) in enumerate(zip(tensors, omegas), start=1):
        written = matricize(load_tensor(tmp_path / "out" / f"completed_acq{i}.tenb"), 3).values
        given_rows = matricize(t, 3).values
        assert written[om.observed].tobytes() == given_rows[om.observed].tobytes(), i


def test_component_labels_computed_once(monkeypatch):
    calls = []
    original = graph.connected_components

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(graph, "connected_components", counting)
    g = build_graph(EdgeSet(6, [(0, 1), (1, 2), (3, 4)]))
    first = graph.split_reachable(g, ObservationSet(6, [0]))
    second = graph.split_reachable(g, ObservationSet(6, [3, 5]))
    assert len(calls) == 1
    assert np.array_equal(g.component_labels, original(g.adjacency, directed=False)[1])
    assert not g.component_labels.flags.writeable
    assert [a.tolist() for a in first] == [[1, 2], [3, 4, 5]]
    assert [a.tolist() for a in second] == [[4], [0, 1, 2]]


def test_union_idempotent():
    e = EdgeSet(4, [(0, 1), (2, 3)])
    assert edge_pairs(union_edges([e, e])) == edge_pairs(e)


def test_union_merges():
    a = EdgeSet(3, [(0, 1)])
    b = EdgeSet(3, [(1, 2)])
    assert edge_pairs(union_edges([a, b])) == {(0, 1), (1, 2)}


def test_union_rejects_mismatched_n():
    with pytest.raises(ValueError):
        union_edges([EdgeSet(3, []), EdgeSet(4, [])])


def test_union_degree_guarantee():
    # each node observed in at least one acquisition; union degree >= k
    rng = np.random.default_rng(3)
    n, k = 60, 4
    feats1 = rng.standard_normal((n, 2))
    feats2 = feats1 * np.array([2.0, 0.5])
    om1 = ObservationSet(n, np.arange(0, n, 2))
    om2 = ObservationSet(n, np.setdiff1d(np.arange(n), np.arange(4, n, 2)))
    assert np.union1d(om1.observed, om2.observed).size == n
    e1 = knn_edges(FiberMatrix(feats1), om1, k)
    e2 = knn_edges(FiberMatrix(feats2), om2, k)
    union = union_edges([e1, e2])
    assert (edge_degrees(union) >= k).all()


def test_build_graph_path():
    g = build_graph(EdgeSet(3, [(0, 1), (1, 2)]))
    assert np.array_equal(g.degrees, [1.0, 2.0, 1.0])
    assert np.array_equal(g.adjacency.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert np.count_nonzero(g.degrees == 0) == 0


def test_build_graph_int32_indices():
    for pairs in ([(0, 1), (1, 2)], []):
        g = build_graph(EdgeSet(3, pairs))
        assert g.adjacency.indices.dtype == np.int32
        assert g.adjacency.indptr.dtype == np.int32


def test_build_graph_empty_edges():
    g = build_graph(EdgeSet(3, []))
    assert g.adjacency.nnz == 0
    assert np.array_equal(np.flatnonzero(g.degrees == 0), [0, 1, 2])


@pytest.mark.parametrize("channels", [2, 20], ids=["tree", "brute-force"])
def test_build_graph_of_several_sets_is_their_union(channels):
    rng = np.random.default_rng(8)
    n, k = 300, 6
    feats = rng.standard_normal((n, channels))
    first = knn_edges(FiberMatrix(feats), ObservationSet(n, np.arange(0, 200)), k)
    second = knn_edges(FiberMatrix(feats * 1.5 + 0.25),
                       ObservationSet(n, np.arange(100, n)), k)
    assert edge_pairs(first) & edge_pairs(second)  # the sets overlap
    got = build_graph(first, second)
    want = build_graph(union_edges([first, second]))
    assert_same_adjacency(got.adjacency, want.adjacency)
    assert_same_adjacency(got.adjacency, canonical_adjacency(first, second))
    assert got.degrees.dtype == want.degrees.dtype
    assert np.array_equal(got.degrees, want.degrees)


@pytest.mark.parametrize("channels", [3, 20], ids=["tree", "brute-force"])
def test_build_graph_of_knn_pairs_matches_canonical_oracle(channels):
    # knn_edges hands over directed pairs, mutual ones in both orientations;
    # exact duplicates and integer grids add tie rows on both search paths
    rng = np.random.default_rng(channels)
    points = np.concatenate([rng.standard_normal((150, channels)),
                             np.floor(rng.standard_normal((100, channels)) * 2.0)])
    points = np.concatenate([points, points[:30]])
    n = len(points) + 20  # the last 20 nodes are never observed
    feats = np.zeros((n, channels))
    feats[:len(points)] = points
    for k in (1, 5, 10):
        e = knn_edges(FiberMatrix(feats), ObservationSet(n, np.arange(len(points))), k)
        assert len(e.edges) > len(edge_pairs(e))  # mutual pairs come twice
        g = build_graph(e)
        assert_same_adjacency(g.adjacency, canonical_adjacency(e))
        assert np.array_equal(g.degrees, edge_degrees(e))


def _messy_edge_sets(rng, n: int, count: int) -> list[EdgeSet]:
    """``count`` random edge sets over ``n`` nodes, each with repeated and
    reversed rows, in random order, and the edge between the two highest
    ids (the largest pair key)."""
    sets = []
    for _ in range(count):
        size = int(rng.integers(1, 400))
        pairs = rng.integers(0, n, size=(size, 2))
        pairs = np.concatenate([pairs[pairs[:, 0] != pairs[:, 1]], [[n - 1, n - 2]]])
        pairs = np.concatenate([pairs, pairs[: size // 3, ::-1], pairs[: size // 4]])
        sets.append(EdgeSet(n, rng.permutation(pairs)))
    return sets


@pytest.mark.parametrize("n", [2, 7, 300, 46_340, 46_341])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_build_graph_matches_the_coo_construction(n, count):
    # n = 46,340 is the last node count whose pair keys fit int32
    sets = _messy_edge_sets(np.random.default_rng([n, count]), n, count)
    g = build_graph(*sets)
    adjacency, degrees = coo_graph(*sets)
    for got, want in ((g.adjacency.indptr, adjacency.indptr),
                      (g.adjacency.indices, adjacency.indices),
                      (g.adjacency.data, adjacency.data), (g.degrees, degrees)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert g.adjacency.has_canonical_format


def test_complements_match_setdiff():
    rng = np.random.default_rng(11)
    for n in (1, 2, 9, 9216):
        for ids in (np.array([], dtype=np.int64), np.arange(n),
                    rng.choice(n, n // 2, replace=False), rng.choice(n, n - 1, replace=False)):
            want = setdiff_complement(n, ids)
            missing = ObservationSet(n, ids).missing
            assert missing.dtype == want.dtype and np.array_equal(missing, want)
            assert np.array_equal(graph.complement(n, ids), want)


def test_build_graph_rejects_mismatched_node_counts():
    with pytest.raises(ValueError, match="mismatched node counts"):
        build_graph(EdgeSet(3, [(0, 1)]), EdgeSet(4, [(0, 1)]))
    with pytest.raises(ValueError, match="at least one edge set"):
        build_graph()


def test_build_graph_k4_spectrum():
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    g = build_graph(EdgeSet(4, pairs))
    assert np.allclose(g.degrees, 3.0)
    eigvals = np.linalg.eigvalsh(np.diag(g.degrees) - g.adjacency.toarray())
    assert abs(eigvals[-1] - 4.0) <= 1e-12


def split(omega):
    return omega.observed, omega.missing


def test_partition_all_observed():
    g = build_graph(EdgeSet(3, [(0, 1), (1, 2)]))
    blocks = partition_blocks(g, *split(all_observed(3)))
    assert blocks.a_cc.shape == (0, 0)
    assert blocks.a_co.shape == (0, 3)
    assert blocks.d_cc.shape == (0,)


def test_partition_path_example():
    g = build_graph(EdgeSet(3, [(0, 1), (1, 2)]))
    blocks = partition_blocks(g, *split(ObservationSet(3, [0, 2])))
    assert np.array_equal(np.diag(blocks.d_cc) - blocks.a_cc.toarray(), [[2.0]])
    assert np.array_equal(blocks.a_co.toarray(), [[1.0, 1.0]])
    assert np.array_equal(blocks.d_cc, [2.0])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_partition_roundtrip_exact(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    m = int(rng.integers(1, 3 * n))
    pairs = rng.integers(0, n, size=(3 * m, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]][:m]
    if len(pairs) == 0:
        return
    g = build_graph(EdgeSet(n, pairs))
    n_obs = int(rng.integers(1, n + 1))
    omega = ObservationSet(n, np.sort(rng.choice(n, size=n_obs, replace=False)))
    blocks = partition_blocks(g, *split(omega))
    # the same split seen from the observed side gives A_oc and A_oo
    swapped = partition_blocks(g, omega.missing, omega.observed)
    assert np.array_equal(swapped.a_co.toarray(), blocks.a_co.toarray().T)
    # reassemble the permuted Laplacian from the four blocks
    perm = np.concatenate([omega.observed, omega.missing])
    lap_perm = np.diag(g.degrees[perm]) - g.adjacency[perm][:, perm].toarray()
    n_o = omega.observed.size
    rebuilt = np.zeros_like(lap_perm)
    rebuilt[n_o:, n_o:] = np.diag(blocks.d_cc) - blocks.a_cc.toarray()
    rebuilt[n_o:, :n_o] = -blocks.a_co.toarray()
    rebuilt[:n_o, n_o:] = -blocks.a_co.toarray().T
    rebuilt[:n_o, :n_o] = np.diag(swapped.d_cc) - swapped.a_cc.toarray()
    assert np.array_equal(rebuilt, lap_perm)
    assert np.max(np.abs(lap_perm.sum(axis=1))) <= 1e-12


def test_edge_set_canonicalisation():
    # reversed and repeated rows are the same edges as the canonical form
    e = EdgeSet(4, np.array([[2, 1], [1, 2], [0, 3], [3, 0], [2, 1]]))
    assert_same_adjacency(build_graph(e).adjacency,
                          build_graph(EdgeSet(4, [[0, 3], [1, 2]])).adjacency)
    assert edge_pairs(e) == {(0, 3), (1, 2)}
    with pytest.raises(ValueError):
        EdgeSet(4, np.array([[1, 1]]))
    with pytest.raises(ValueError):
        EdgeSet(2, np.array([[0, 5]]))
    with pytest.raises(ValueError):
        EdgeSet(4, np.array([0, 1, 2]))


def test_edge_set_leaves_the_input_writable():
    arr = np.array([[1, 0], [2, 3]])
    e = EdgeSet(4, arr)
    assert arr.flags.writeable and not e.edges.flags.writeable
    arr[0, 0] = 3
    assert e.edges.tolist() == [[1, 0], [2, 3]]


def test_observation_set_validation():
    om = ObservationSet(5, [3, 0])
    assert np.array_equal(om.observed, [0, 3])
    assert np.array_equal(om.missing, [1, 2, 4])
    with pytest.raises(ValueError):
        ObservationSet(5, [0, 0])
    with pytest.raises(ValueError):
        ObservationSet(5, [5])


def test_save_edge_list_bytes_ignore_orientation_and_repeats(tmp_path):
    canonical = EdgeSet(6, [(0, 1), (0, 5), (1, 2), (3, 4)])
    messy = EdgeSet(6, [(4, 3), (1, 0), (2, 1), (0, 1), (5, 0), (3, 4), (1, 2)])
    save_edge_list(canonical, tmp_path / "canonical.txt")
    save_edge_list(messy, tmp_path / "messy.txt")
    text = (tmp_path / "canonical.txt").read_bytes()
    assert text == b"# n=6\n1 2\n1 6\n2 3\n4 5\n"
    assert (tmp_path / "messy.txt").read_bytes() == text


def test_edge_list_roundtrip(tmp_path):
    e = EdgeSet(5, [(0, 1), (2, 4)])
    path = tmp_path / "graph.txt"
    save_edge_list(e, path)
    text = path.read_text()
    assert text.splitlines()[0] == "# n=5"
    assert "1 2" in text and "3 5" in text
    back = load_edge_list(path)
    assert back.n == 5 and edge_pairs(back) == edge_pairs(e)


def test_edge_list_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n")
    with pytest.raises(DataError):
        load_edge_list(path)
    path.write_text("# n=3\n1 2 3\n")
    with pytest.raises(DataError):
        load_edge_list(path)
    path.write_text("# n=3\n1 9\n")
    with pytest.raises(DataError):
        load_edge_list(path)
