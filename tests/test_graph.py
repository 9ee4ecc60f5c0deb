import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphprop import (
    EdgeSet,
    FiberMatrix,
    ObservationSet,
    build_graph,
    knn_edges,
    load_edge_list,
    partition_blocks,
    save_edge_list,
    union_edges,
)
from graphprop import graph
from graphprop.errors import DataError, NonFiniteInput, TooFewObserved
from graphprop.lanes import lane_cpus, run_lanes
from oracles import canonical_adjacency, edge_degrees, edge_pairs


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


@pytest.mark.parametrize("block", [1, 97, 400])
def test_knn_brute_force_across_blocks(monkeypatch, block):
    # row blocks of one row, of a few rows, and of ragged sizes
    rng = np.random.default_rng(block)
    points = np.concatenate([rng.standard_normal((60, 20)),
                             np.floor(rng.standard_normal((20, 20)) * 2.0)])
    points = np.concatenate([points, points[:10]])  # exact duplicates
    omega = all_observed(len(points))
    whole = knn_edges(FiberMatrix(points), omega, 4)
    monkeypatch.setattr(graph, "_BRUTE_BLOCK", block)
    blocked = knn_edges(FiberMatrix(points), omega, 4)
    assert edge_pairs(blocked) == edge_pairs(whole)
    assert edge_pairs(blocked) == brute_force_knn(points, 4)


def lane_points(seed):
    """Integer-grid points, each given twice 45 rows apart, so exact
    distance ties (zero among the copies, equal lattice distances among the
    rest) straddle row blocks of every size below 45."""
    rng = np.random.default_rng(seed)
    base = np.floor(rng.standard_normal((45, 20)) * 2.0)
    return np.concatenate([base, base])


class CountingPool(ThreadPoolExecutor):
    submits = 0

    def submit(self, *args, **kwargs):
        CountingPool.submits += 1
        return super().submit(*args, **kwargs)


@pytest.mark.parametrize("seed", range(3))
def test_knn_brute_force_lanes_give_identical_arrays(monkeypatch, seed):
    # 500 entries per block in flight: 5, 2 and 1 rows per block at 1, 2
    # and 3 lanes, so every lane count cuts the rows differently
    points = lane_points(seed)
    omega = all_observed(len(points))
    monkeypatch.setattr(graph, "_BRUTE_BLOCK", 500)
    monkeypatch.setattr(graph, "ThreadPoolExecutor", CountingPool)
    for k in (1, 3, 5):
        arrays = []
        for lanes in (1, 2, 3):
            monkeypatch.setattr(graph, "lane_cpus", lambda lanes=lanes: lanes)
            CountingPool.submits = 0
            arrays.append(knn_edges(FiberMatrix(points), omega, k).edges)
            assert CountingPool.submits == lanes - 1
        for other in arrays[1:]:
            assert other.dtype == arrays[0].dtype and np.array_equal(other, arrays[0])
        assert edge_pairs(EdgeSet(len(points), arrays[0])) == brute_force_knn(points, k)


def test_knn_brute_force_lanes_claim_each_block_once(monkeypatch):
    # eight lanes (cap lifted), more than the CPUs, over 90 one-row blocks
    # with the interpreter switching threads as often as it can: a block
    # claimed twice would select twice, one never claimed would be missing
    points = lane_points(1)
    omega = all_observed(len(points))
    monkeypatch.setattr(graph, "lane_cpus", lambda: 1)
    want = knn_edges(FiberMatrix(points), omega, 3).edges
    selected = []

    def counting(pts, rows, cands, k):
        selected.append(rows[0])
        return nearest_k(pts, rows, cands, k)

    nearest_k = graph._nearest_k
    monkeypatch.setattr(graph, "_nearest_k", counting)
    monkeypatch.setattr(graph, "lane_cpus", lambda: 8)
    monkeypatch.setattr(graph, "_BRUTE_MAX_LANES", 8)
    monkeypatch.setattr(graph, "_BRUTE_BLOCK", 8 * len(points))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = knn_edges(FiberMatrix(points), omega, 3).edges
    finally:
        sys.setswitchinterval(interval)
    assert sorted(selected) == list(range(len(points)))
    assert np.array_equal(got, want)


def test_knn_brute_force_lanes_capped(monkeypatch):
    # sixteen CPUs and 90 blocks still make only _BRUTE_MAX_LANES lanes
    points = lane_points(2)
    monkeypatch.setattr(graph, "_BRUTE_BLOCK", len(points))
    monkeypatch.setattr(graph, "lane_cpus", lambda: 16)
    monkeypatch.setattr(graph, "ThreadPoolExecutor", CountingPool)
    CountingPool.submits = 0
    e = knn_edges(FiberMatrix(points), all_observed(len(points)), 3)
    assert CountingPool.submits == graph._BRUTE_MAX_LANES - 1
    assert edge_pairs(e) == brute_force_knn(points, 3)


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


def test_knn_brute_force_one_block_starts_no_pool_thread(monkeypatch):
    points = lane_points(0)
    monkeypatch.setattr(graph, "lane_cpus", lambda: 3)
    monkeypatch.setattr(graph, "ThreadPoolExecutor", CountingPool)
    CountingPool.submits = 0
    e = knn_edges(FiberMatrix(points), all_observed(len(points)), 3)
    assert len(points) ** 2 <= graph._BRUTE_BLOCK and CountingPool.submits == 0
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
