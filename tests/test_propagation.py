import functools
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from graphprop import (
    DenseTensor,
    EdgeSet,
    FiberMatrix,
    ObservationSet,
    OverlapSpec,
    SynthSpec,
    build_graph,
    generate_acquisitions,
    graphprop,
    gtvm_inpaint,
    knn_edges,
    matricize,
    partial_overlap_masks,
    partition_blocks,
    rmse,
    sample_observation_sets,
    smooth_raster_pair,
    solve_steady_state,
    union_edges,
)
from graphprop import graph, harness, propagation
from graphprop.errors import (
    AllMissing,
    CoverageViolationWarning,
    MaxItersExceeded,
    NonFiniteInput,
    SingularSystemWarning,
    UnreachableComponent,
)
from graphprop.graph import KDTREE_MAX_CHANNELS
from graphprop.metrics import ErrorField
from graphprop.propagation import jacobi_cg, median_threshold
from oracles import scipy_jacobi_cg


def path3():
    return build_graph(EdgeSet(3, [(0, 1), (1, 2)]))


def random_connected_instance(seed, n_lo=8, n_hi=60, channels=2):
    """Random graph + observation set where every missing node can reach an
    observed one."""
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(n_lo, n_hi))
        m = int(rng.integers(n, 4 * n))
        pairs = rng.integers(0, n, size=(3 * m, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]][:m]
        if len(pairs) == 0:
            continue
        g = build_graph(EdgeSet(n, pairs))
        n_obs = int(rng.integers(1, n))
        obs = np.sort(rng.choice(n, size=n_obs, replace=False))
        omega = ObservationSet(n, obs)
        _, labels = connected_components(g.adjacency, directed=False)
        observed_comps = set(labels[obs])
        reachable = [labels[i] in observed_comps and g.degrees[i] > 0 for i in omega.missing]
        if omega.missing.size and all(reachable):
            f_obs = rng.standard_normal((n_obs, channels))
            return g, omega, f_obs


def test_path_midpoint_is_average():
    res = solve_steady_state(path3(), ObservationSet(3, [0, 2]), np.array([[0.0], [1.0]]))
    assert abs(res.completed.values[1, 0] - 0.5) <= 1e-12
    assert np.array_equal(res.filled_ids, [1])


def test_all_observed_identity():
    f = np.array([[1.0], [2.0], [3.0]])
    res = solve_steady_state(path3(), ObservationSet(3, [0, 1, 2]), f)
    assert np.array_equal(res.completed.values, f)
    assert res.filled_ids.size == 0


def test_star_centre_is_leaf_mean():
    d = 5
    pairs = [(0, i) for i in range(1, d + 1)]
    g = build_graph(EdgeSet(d + 1, pairs))
    leaf_values = np.arange(1.0, d + 1.0)[:, None]
    res = solve_steady_state(g, ObservationSet(d + 1, np.arange(1, d + 1)), leaf_values)
    assert abs(res.completed.values[0, 0] - leaf_values.mean()) <= 1e-12


def test_observed_rows_bit_identical():
    g, omega, f_obs = random_connected_instance(2)
    res = solve_steady_state(g, omega, f_obs)
    assert np.array_equal(res.completed.values[omega.observed], f_obs)


def test_unreachable_component_warns_and_excludes():
    # two components: 0-1 observed anchors only in the first
    g = build_graph(EdgeSet(4, [(0, 1), (2, 3)]))
    omega = ObservationSet(4, [0])
    f = np.array([[4.0]])
    with pytest.warns(UnreachableComponent, match="2 missing node"):
        res = solve_steady_state(g, omega, f)
    assert set(res.excluded_ids) == {2, 3}
    assert np.array_equal(res.filled_ids, [1])
    # fill policy: per-channel mean of the observed fibers
    assert np.allclose(res.completed.values[[2, 3]], 4.0)


def test_zero_degree_node_always_excluded():
    # a node with no edge is excluded without a warning
    g = build_graph(EdgeSet(3, [(0, 1)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_steady_state(g, ObservationSet(3, [0]), np.array([[1.0]]))
    assert np.array_equal(res.excluded_ids, [2])


def test_nonfinite_observed_rejected():
    with pytest.raises(NonFiniteInput):
        solve_steady_state(path3(), ObservationSet(3, [0, 2]), np.array([[np.nan], [1.0]]))
    # graphprop() checks every acquisition before any graph is built
    om = ObservationSet(6, [0, 1, 2, 3])
    clean = np.arange(8.0).reshape(4, 2)
    for bad in (np.nan, np.inf):
        dirty = clean.copy()
        dirty[2, 1] = bad
        with pytest.raises(NonFiniteInput):
            graphprop([(clean, om), (dirty, ObservationSet(6, [1, 2, 4, 5]))], k=2)


def test_no_observed_node_rejected():
    # the fill rule needs an observed mean; GTVM shares the check
    empty = ObservationSet(3, [])
    with pytest.raises(AllMissing):
        solve_steady_state(path3(), empty, np.empty((0, 1)))
    with pytest.raises(AllMissing):
        gtvm_inpaint(path3(), empty, np.empty((0, 1)))


def test_solver_methods_agree():
    g, omega, f_obs = random_connected_instance(5, n_lo=30, n_hi=80)
    # dense oracle: (diag(d_kk) - A_kk) F_k = A_ko F_o over all missing nodes
    mis, obs = omega.missing, omega.observed
    a = g.adjacency.toarray()
    l_kk = np.diag(g.degrees[mis]) - a[np.ix_(mis, mis)]
    expected = np.linalg.solve(l_kk, a[np.ix_(mis, obs)] @ f_obs)
    for method, atol in (("cg", 1e-8), ("splu", 1e-10)):
        res = solve_steady_state(g, omega, f_obs, method=method)
        assert np.array_equal(res.filled_ids, mis)
        assert np.allclose(res.completed.values[mis], expected, atol=atol)


def test_cg_iteration_cap_warns_and_flags(monkeypatch):
    g, omega, f_obs = random_connected_instance(9)
    full = solve_steady_state(g, omega, f_obs, method="cg")
    assert full.stats.converged and full.stats.iterations > 1
    # 1.5 iterations per unknown over all the unknowns is a cap of 1
    monkeypatch.setattr(propagation, "CG_ITERS_PER_UNKNOWN", 1.5 / full.filled_ids.size)
    with pytest.warns(MaxItersExceeded, match="hit the 1-iteration cap"):
        res = solve_steady_state(g, omega, f_obs, method="cg")
    assert res.stats.converged is False
    assert res.stats.iterations == 1


@pytest.mark.parametrize("solve, stranded, capped", [
    (solve_steady_state, UnreachableComponent, MaxItersExceeded),
    (gtvm_inpaint, SingularSystemWarning, SingularSystemWarning),
], ids=["steady_state", "gtvm"])
def test_one_acquisition_warns_stranded_then_capped(monkeypatch, solve, stranded, capped):
    # path 0-1-2 observed at 0, and a pair 3-4 no observed node reaches
    g = build_graph(EdgeSet(5, [(0, 1), (1, 2), (3, 4)]))
    omega = ObservationSet(5, [0])
    f = np.array([[1.0, 2.0]])

    def capped_solve(matrix, rhs):
        return np.zeros_like(rhs), 7, False

    def failing_solve(matrix, rhs):
        raise ArithmeticError("solve failed")

    monkeypatch.setattr(propagation, "jacobi_cg", capped_solve)
    with warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        solve(g, omega, f)
    assert [(w.category, str(w.message).split()[0]) for w in raised] == [
        (stranded, "2"), (capped, "conjugate")]
    monkeypatch.setattr(propagation, "jacobi_cg", failing_solve)
    with warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        with pytest.raises(ArithmeticError, match="^solve failed$"):
            solve(g, omega, f)
    assert [(w.category, str(w.message).split()[0]) for w in raised] == [(stranded, "2")]


def grid_laplacian(side=16, observed_cols=4):
    """Grounded Laplacian of a side x side grid graph whose first
    ``observed_cols`` columns are observed: CG needs tens of iterations."""
    ids = np.arange(side * side).reshape(side, side)
    pairs = np.concatenate([np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]),
                            np.column_stack([ids[:-1].ravel(), ids[1:].ravel()])])
    g = build_graph(EdgeSet(side * side, pairs))
    omega = ObservationSet(side * side, ids[:, :observed_cols].ravel())
    blocks = partition_blocks(g, omega.observed, omega.missing)
    return (sp.diags_array(blocks.d_cc, format="csr") - blocks.a_cc).tocsr()


@pytest.mark.parametrize("capped", [False, True], ids=["converged", "capped"])
@pytest.mark.parametrize("columns", [1, 3, 7, 24])
def test_jacobi_cg_matches_scipy_reference(monkeypatch, columns, capped):
    l_kk = grid_laplacian()
    n = l_kk.shape[0]
    rng = np.random.default_rng(columns)
    rhs = rng.standard_normal((n, columns))
    if columns > 1:
        # D^(1/2) times two eigenvectors of D^(-1/2) L D^(-1/2): that column
        # converges in about two steps, well before the others
        d_half = np.sqrt(l_kk.diagonal())
        _, vecs = np.linalg.eigh(l_kk.toarray() / np.outer(d_half, d_half))
        rhs[:, 0] = d_half * (vecs[:, 3] + vecs[:, 40])
        rhs[:, -1] = 0.0
    if capped:
        monkeypatch.setattr(propagation, "CG_ITERS_PER_UNKNOWN", 5.5 / n)
    want, want_iters, want_converged = scipy_jacobi_cg(l_kk, rhs)
    got, iters, converged = jacobi_cg(l_kk, rhs)
    assert iters == want_iters
    assert converged is want_converged is (not capped)
    assert iters == 5 if capped else iters > 20
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
    if columns > 1:
        assert not got[:, -1].any()
        assert jacobi_cg(l_kk, rhs[:, :1])[1] <= 4
        # columns freeze at different steps and are compacted away; each
        # still takes the steps it takes alone
        for j in range(columns):
            alone, _, _ = jacobi_cg(l_kk, rhs[:, j:j + 1])
            assert np.array_equal(alone[:, 0], got[:, j]), j


@pytest.mark.parametrize("columns", [7, 24])
def test_jacobi_cg_working_set_is_six_blocks(columns):
    """Peak traced memory of one solve, in blocks of the right-hand side's
    size: the solution, r, x, p, one scratch block and the product's
    result, plus a few vectors of the unknown count."""
    l_kk = grid_laplacian(side=48)
    rhs = np.random.default_rng(columns).standard_normal((l_kk.shape[0], columns))
    tracemalloc.start()
    try:
        _, iterations, converged = jacobi_cg(l_kk, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert converged and iterations > 20
    assert peak <= 6.5 * rhs.nbytes, peak / rhs.nbytes


def test_jacobi_cg_zero_right_hand_side():
    l_kk = grid_laplacian()
    solution, iterations, converged = jacobi_cg(l_kk, np.zeros((l_kk.shape[0], 3)))
    assert not solution.any() and iterations == 0 and converged is True


def test_unknown_solver_method_rejected():
    with pytest.raises(ValueError, match="cholesky"):
        solve_steady_state(path3(), ObservationSet(3, [0, 2]), np.array([[0.0], [1.0]]),
                           method="cholesky")


def test_graphprop_rejects_unknown_method_before_knn(monkeypatch):
    calls = []
    real = propagation.knn_edges
    monkeypatch.setattr(propagation, "knn_edges", lambda *a: calls.append(1) or real(*a))
    rng = np.random.default_rng(2)
    f = rng.standard_normal((12, 2))
    omegas = [ObservationSet(12, np.arange(0, 8)), ObservationSet(12, np.arange(4, 12))]
    with pytest.raises(ValueError, match="'chol'"):
        graphprop([(f[om.observed], om) for om in omegas], k=3, method="chol")
    assert calls == []


def test_graphprop_checks_every_acquisition_before_knn(monkeypatch):
    # each acquisition goes through check_observed; across acquisitions only
    # the node and channel counts must match
    calls = []
    real = propagation.knn_edges
    monkeypatch.setattr(propagation, "knn_edges", lambda *a: calls.append(1) or real(*a))
    f = np.random.default_rng(4).standard_normal((12, 2))
    full = ObservationSet(12, np.arange(12))
    with pytest.raises(AllMissing):
        graphprop([(f, full), (np.empty((0, 2)), ObservationSet(12, []))], k=3)
    with pytest.raises(ValueError, match="channel count"):
        graphprop([(f, full), (f[:, :1], full)], k=3)
    with pytest.raises(ValueError, match="node count"):
        graphprop([(f, full), (f[:6], ObservationSet(13, np.arange(6)))], k=3)
    with pytest.raises(ValueError, match=r"\(6, channels\)"):
        graphprop([(f, full), (f, ObservationSet(12, np.arange(6)))], k=3)
    assert calls == []


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_harmonic_and_maximum_principle(seed):
    g, omega, f_obs = random_connected_instance(seed)
    res = solve_steady_state(g, omega, f_obs, method="splu")
    values = res.completed.values
    # harmonic property: each solved node is the mean of its neighbours
    for i in res.filled_ids:
        row = g.adjacency[[int(i)]]
        mean = (row @ values) / g.degrees[i]
        assert np.max(np.abs(values[i] - mean)) <= 1e-8
    # maximum principle per connected component, per channel
    _, labels = connected_components(g.adjacency, directed=False)
    for comp in np.unique(labels[res.filled_ids]):
        o_in = omega.observed[labels[omega.observed] == comp]
        k_in = res.filled_ids[labels[res.filled_ids] == comp]
        lo = values[o_in].min(axis=0) - 1e-10
        hi = values[o_in].max(axis=0) + 1e-10
        assert (values[k_in] >= lo).all() and (values[k_in] <= hi).all()


def test_relabelling_invariance():
    g, omega, f_obs = random_connected_instance(13)
    rng = np.random.default_rng(0)
    perm = rng.permutation(g.n)
    # relabel: node i becomes perm[i]
    relabelled_edges = EdgeSet(g.n, perm[np.asarray(build_order_edges(g))])
    g2 = build_graph(relabelled_edges)
    omega2 = ObservationSet(g.n, np.sort(perm[omega.observed]))
    order = np.argsort(perm[omega.observed])
    res1 = solve_steady_state(g, omega, f_obs, method="splu")
    res2 = solve_steady_state(g2, omega2, f_obs[order], method="splu")
    unpermuted = res2.completed.values[perm]
    assert np.allclose(unpermuted, res1.completed.values, atol=1e-9)


def build_order_edges(g):
    coo = g.adjacency.tocoo()
    mask = coo.row < coo.col
    return np.column_stack([coo.row[mask], coo.col[mask]])


def test_graphprop_single_acquisition_identity():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((12, 2))
    omega = ObservationSet(12, np.arange(12))
    results = graphprop([(f, omega)], k=3)
    assert np.array_equal(results[0].completed.values, f)


def test_graphprop_results_share_the_union_graph():
    rng = np.random.default_rng(6)
    n = 30
    f = rng.standard_normal((n, 2))
    omegas = [ObservationSet(n, np.arange(0, 22)), ObservationSet(n, np.arange(8, n))]
    features = [FiberMatrix(f * scale) for scale in (1.0, 2.0)]
    results = graphprop([(x.values[om.observed], om) for x, om in zip(features, omegas)], k=3)
    assert all(r.graph is results[0].graph for r in results)
    union = build_graph(union_edges([knn_edges(x, om, 3) for x, om in zip(features, omegas)]))
    assert np.array_equal(results[0].graph.adjacency.toarray(), union.adjacency.toarray())


def test_graphprop_node_missing_everywhere():
    rng = np.random.default_rng(8)
    n = 20
    f = rng.standard_normal((n, 2))
    omega = ObservationSet(n, np.arange(n - 1))  # node 19 never observed
    with pytest.warns(CoverageViolationWarning):
        results = graphprop([(f[:-1], omega), (f[:-1], omega)], k=3)
    for res in results:
        assert 19 in set(res.excluded_ids)


@given(st.data(), st.integers(1, 3), st.integers(1, 4),
       st.sampled_from([3, KDTREE_MAX_CHANNELS + 4]))
@settings(max_examples=60, deadline=None)
def test_graphprop_zero_degree_nodes_are_the_never_observed(data, count, k, channels):
    # every observed node has k >= 1 kNN neighbours, so the union graph's
    # zero-degree nodes are the nodes missing in every acquisition, on the
    # kd-tree path and on the brute-force path alike; the coverage warning
    # counts them
    n = data.draw(st.integers(k + 1, 30), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
    omegas = [ObservationSet(n, np.sort(rng.choice(
        n, data.draw(st.integers(k + 1, n), label="observed"), replace=False)))
        for _ in range(count)]
    never = functools.reduce(np.intersect1d, [om.missing for om in omegas])
    acquisitions = [(rng.standard_normal((om.observed.size, channels)), om) for om in omegas]
    with warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        results = graphprop(acquisitions, k)
    assert np.array_equal(np.flatnonzero(results[0].graph.degrees == 0), never)
    coverage = [str(w.message) for w in raised
                if issubclass(w.category, CoverageViolationWarning)]
    assert [int(m.split()[0]) for m in coverage] == ([never.size] if never.size else [])


def overlap_pair(side=24, channels=7, seed=0):
    """A smooth raster pair with partial-overlap masks (never-observed
    corners included), as ``(f_obs, omega)`` acquisitions."""
    masks = partial_overlap_masks(OverlapSpec(side, side, 0.4))
    acquisitions = []
    for t, m in zip(smooth_raster_pair(side, side, channels, seed=seed), masks):
        flags = matricize(DenseTensor((side, side, 1), m[:, :, None].astype(float)), 3)
        omega = ObservationSet(side * side, np.flatnonzero(flags.values[:, 0]))
        acquisitions.append((matricize(t, 3).values[omega.observed], omega))
    return acquisitions


def synthetic_acquisitions(count, channels=3, side=12, seed=0):
    spec = SynthSpec(side, side, channels, r=3, lambda_count=count, missing_frac=0.2,
                     seed=seed)
    omegas = sample_observation_sets(spec.n, 0.2, count, seed=seed + 1)
    return [(matricize(t, 3).values[om.observed], om)
            for t, om in zip(generate_acquisitions(spec), omegas)]


def counting_pool(submits: list):
    """A ThreadPoolExecutor class that appends the submitting thread's id
    to ``submits`` on every submit."""
    class Pool(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submits.append(threading.get_ident())
            return super().submit(*args, **kwargs)
    return Pool


def graphprop_on_lanes(monkeypatch, lanes, acquisitions, k, *, gate=0, **kwargs):
    """``graphprop`` with the lane rule granting ``lanes`` CPUs and the work
    gate at ``gate``, and the submits to its own pool."""
    submits = []
    with monkeypatch.context() as patch:
        patch.setattr(propagation, "lane_cpus", lambda: lanes)
        patch.setattr(propagation, "LANE_MIN_WORK", gate)
        patch.setattr(propagation, "ThreadPoolExecutor", counting_pool(submits))
        return graphprop(acquisitions, k, **kwargs), submits


@pytest.mark.parametrize("method", ["cg", "splu"])
@pytest.mark.parametrize("instance", ["overlap-24", "synthetic-L3"])
def test_graphprop_lanes_give_identical_results(monkeypatch, method, instance):
    # every acquisition takes the same steps on any lane, so completions are
    # byte-identical and the solver stats equal at 1, 2 and 4 lanes; 4
    # lanes exceed the acquisitions and the CPUs of most machines, and the
    # interpreter switches threads as often as it can
    acquisitions = (overlap_pair() if instance == "overlap-24"
                    else synthetic_acquisitions(3))
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageViolationWarning)
        one_lane, _ = graphprop_on_lanes(monkeypatch, 1, acquisitions, 5, method=method)
        for lanes in (2, 4):
            sys.setswitchinterval(1e-6)
            try:
                results, submits = graphprop_on_lanes(monkeypatch, lanes, acquisitions, 5,
                                                      method=method)
            finally:
                sys.setswitchinterval(interval)
            assert threading.active_count() == threads
            # a pool lane per phase, searches and solves
            assert len(submits) == 2 * (min(lanes, len(acquisitions)) - 1)
            assert len(results) == len(one_lane)
            for got, want in zip(results, one_lane):
                assert got.completed.values.tobytes() == want.completed.values.tobytes()
                assert np.array_equal(got.filled_ids, want.filled_ids)
                assert np.array_equal(got.excluded_ids, want.excluded_ids)
                assert got.stats == want.stats
                assert got.graph is results[0].graph
            assert (results[0].graph.adjacency != one_lane[0].graph.adjacency).nnz == 0
    assert one_lane[0].stats.method == method
    if instance == "overlap-24":
        assert one_lane[0].excluded_ids.size  # the corners nobody observes


def test_graphprop_brute_force_searches_run_on_acquisition_lanes(monkeypatch):
    # above KDTREE_MAX_CHANNELS each acquisition's search takes its own
    # lane, as a kd-tree search does: at 2 and 4 lanes the two searches are
    # in flight at once on two threads, the calling one among them, the
    # completions byte-identical and the solver stats equal to one lane's
    acquisitions = synthetic_acquisitions(2, channels=24)
    assert acquisitions[0][0].shape[1] > KDTREE_MAX_CHANNELS
    searches = []
    meet = [lambda: None]  # on lanes, each search waits until both are in flight
    real = graph._knn_neighbors_brute

    def recording(pts, k):
        searches.append(threading.get_ident())
        meet[0]()
        return real(pts, k)

    monkeypatch.setattr(graph, "_knn_neighbors_brute", recording)
    # one row per block, so every search runs many blocks on its lane
    monkeypatch.setattr(graph, "_BRUTE_BLOCK", max(f.shape[0] for f, _ in acquisitions))
    one_lane, submits = graphprop_on_lanes(monkeypatch, 1, acquisitions, 4)
    caller = threading.get_ident()
    assert searches == [caller, caller] and submits == []
    for lanes in (2, 4):
        searches.clear()
        meet[0] = threading.Barrier(2, timeout=10).wait
        results, submits = graphprop_on_lanes(monkeypatch, lanes, acquisitions, 4)
        assert len(set(searches)) == 2 and caller in searches
        assert submits == [caller, caller]  # a pool lane per phase
        for got, want in zip(results, one_lane):
            assert got.completed.values.tobytes() == want.completed.values.tobytes()
            assert got.stats == want.stats


def test_graphprop_below_the_work_gate_submits_nothing(monkeypatch):
    acquisitions = overlap_pair()  # 576 nodes x 7 channels
    assert 576 * 7 < propagation.LANE_MIN_WORK
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageViolationWarning)
        _, submits = graphprop_on_lanes(monkeypatch, 4, acquisitions, 5,
                                        gate=propagation.LANE_MIN_WORK)
    assert submits == []


def test_graphprop_lanes_record_the_same_stage_notes(monkeypatch):
    # three clusters of 4, 5 and 6 nodes, far apart, and a lone node 15
    # observed by no acquisition; each acquisition misses one cluster,
    # which it cannot reach, so each warns with its own count
    rng = np.random.default_rng(3)
    sizes = (4, 5, 6)
    cluster = np.repeat(np.arange(3), sizes)
    f = np.vstack([rng.standard_normal((15, 2)) + 100.0 * cluster[:, None],
                   [[1e4, 1e4]]])
    acquisitions = []
    for skip in (2, 1, 0):
        omega = ObservationSet(16, np.flatnonzero(cluster != skip))
        acquisitions.append((f[omega.observed], omega))
    # the first acquisition's split is the slowest, so a split on a lane
    # would warn after the others
    real = propagation.split_reachable

    def slow_first(g, omega):
        if omega is acquisitions[0][1]:
            time.sleep(0.05)
        return real(g, omega)

    notes = {}
    for lanes in (1, 2, 4):
        caught = []
        with monkeypatch.context() as patch:
            patch.setattr(propagation, "lane_cpus", lambda lanes=lanes: lanes)
            patch.setattr(propagation, "LANE_MIN_WORK", 0)
            patch.setattr(propagation, "split_reachable", slow_first)
            harness._stage(caught, {"method": "graphprop"}, graphprop, acquisitions, 2)
        notes[lanes] = caught
    assert [(w["category"], w["message"].split()[0]) for w in notes[1]] == [
        ("CoverageViolationWarning", "1"), ("UnreachableComponent", "6"),
        ("UnreachableComponent", "5"), ("UnreachableComponent", "4")]
    assert notes[2] == notes[1] and notes[4] == notes[1]


def test_graphprop_lanes_raise_and_warn_in_acquisition_order(monkeypatch):
    # every solve fails; the first acquisition's fails last, after its
    # lane sleeps, yet its error is the one raised, as on one lane
    f = np.random.default_rng(5).standard_normal((144, 3))
    omegas = [ObservationSet(144, np.arange(30, 144)), ObservationSet(144, np.arange(104))]
    acquisitions = [(f[om.observed], om) for om in omegas]
    kept = [r.filled_ids.size for r in graphprop(acquisitions, 4)]
    assert kept == [30, 40]

    def failing(matrix, rhs):
        if rhs.shape[0] == kept[0]:
            time.sleep(0.05)
        raise ArithmeticError(f"{rhs.shape[0]} unknowns")

    monkeypatch.setattr(propagation, "jacobi_cg", failing)
    for lanes in (1, 2, 4):
        with pytest.raises(ArithmeticError, match=f"^{kept[0]} unknowns$"):
            graphprop_on_lanes(monkeypatch, lanes, acquisitions, 4)

    # every solve hits its cap; the warnings come in acquisition order
    def capped(matrix, rhs):
        if rhs.shape[0] == kept[0]:
            time.sleep(0.05)
        return np.zeros_like(rhs), rhs.shape[0], False

    monkeypatch.setattr(propagation, "jacobi_cg", capped)
    for lanes in (1, 2, 4):
        with pytest.warns(MaxItersExceeded) as raised:
            results, _ = graphprop_on_lanes(monkeypatch, lanes, acquisitions, 4)
        assert [str(w.message).split("-")[0] for w in raised] == [
            f"conjugate gradient hit the {size}" for size in kept]
        assert [r.stats.converged for r in results] == [False, False]


def test_graphprop_lanes_interleave_each_acquisitions_warnings(monkeypatch):
    # clusters of 6, 7 and 8 nodes, far apart, and a lone node 21 observed
    # by no acquisition; acquisition i skips one cluster, which it cannot
    # reach, and misses i + 1 nodes of a cluster it observes, which it
    # solves; every solve hits its cap, and the second one fails if asked
    rng = np.random.default_rng(6)
    sizes = (6, 7, 8)
    cluster = np.repeat(np.arange(3), sizes)
    f = np.vstack([rng.standard_normal((21, 2)) + 100.0 * cluster[:, None],
                   [[1e4, 1e4]]])
    acquisitions = []
    for skip, solved in ((2, [0]), (1, [13, 14]), (0, [6, 7, 8])):
        seen = (cluster != skip) & ~np.isin(np.arange(21), solved)
        omega = ObservationSet(22, np.flatnonzero(seen))
        acquisitions.append((f[omega.observed], omega))
    fail_second = [False]

    def capped(matrix, rhs):
        if rhs.shape[0] == 1:
            time.sleep(0.05)  # the first acquisition's solve ends last
        if fail_second[0] and rhs.shape[0] == 2:
            raise ArithmeticError("second")
        return np.zeros_like(rhs), rhs.shape[0], False

    monkeypatch.setattr(propagation, "jacobi_cg", capped)
    for fail in (False, True):
        fail_second[0] = fail
        notes = {}
        for lanes in (1, 2, 4):
            with warnings.catch_warnings(record=True) as raised:
                warnings.simplefilter("always")
                if fail:
                    with pytest.raises(ArithmeticError, match="^second$"):
                        graphprop_on_lanes(monkeypatch, lanes, acquisitions, 2)
                else:
                    graphprop_on_lanes(monkeypatch, lanes, acquisitions, 2)
            notes[lanes] = [(w.category.__name__, str(w.message).split()[0]) for w in raised]
        stranded = [("UnreachableComponent", str(size)) for size in (8, 7, 6)]
        hit = ("MaxItersExceeded", "conjugate")
        want = [("CoverageViolationWarning", "1"), stranded[0], hit, stranded[1]]
        want += [] if fail else [hit, stranded[2], hit]
        assert notes[1] == want
        assert notes[2] == want and notes[4] == want


def test_graphprop_calls_the_public_functions_only_on_one_lane(monkeypatch):
    # one lane runs knn_edges and solve_steady_state per acquisition on the
    # calling thread, where a wrapper of either (perfbench's tracer) sees
    # every call; lanes run their private parts and call neither
    acquisitions = synthetic_acquisitions(3)
    calls = []
    for name in ("knn_edges", "solve_steady_state"):
        real = getattr(propagation, name)

        def recording(*args, name=name, real=real, **kwargs):
            calls.append((name, threading.get_ident()))
            return real(*args, **kwargs)

        monkeypatch.setattr(propagation, name, recording)
    one_lane, submits = graphprop_on_lanes(monkeypatch, 1, acquisitions, 5)
    caller = threading.get_ident()
    assert submits == []
    assert calls == [("knn_edges", caller)] * 3 + [("solve_steady_state", caller)] * 3
    calls.clear()
    results, submits = graphprop_on_lanes(monkeypatch, 2, acquisitions, 5)
    assert calls == [] and len(submits) == 2
    for got, want in zip(results, one_lane):
        assert got.completed.values.tobytes() == want.completed.values.tobytes()


def test_graphprop_desk_scale_low_rank_rmse():
    # Calibrated against this pipeline: mean over 3 fixed seeds is ~0.30
    # (unit-variance synthesis); freeze a safe upper bound.
    values = []
    for seed in range(3):
        spec = SynthSpec(60, 60, 3, r=5, lambda_count=2, missing_frac=0.4, seed=seed)
        tensors = generate_acquisitions(spec)
        omegas = sample_observation_sets(3600, 0.4, 2, seed=100 + seed)
        fibers = [matricize(t, 3).values for t in tensors]
        results = graphprop(
            [(f[om.observed], om) for f, om in zip(fibers, omegas)], k=10
        )
        ef = ErrorField.from_completions(
            fibers, [r.completed.values for r in results], omegas
        )
        values.append(rmse(ef))
    assert np.mean(values) < 0.40


def scale_pair():
    spec = SynthSpec(12, 12, 2, r=2, lambda_count=2, missing_frac=0.3, seed=4)
    full = [matricize(t, 3).values for t in generate_acquisitions(spec)]
    omegas = sample_observation_sets(spec.n, spec.missing_frac, 2, spec.seed)
    return [(f[om.observed], om) for f, om in zip(full, omegas)]


def solve_at_scale(solver, acquisitions, exponent):
    scaled = [(np.ldexp(f, exponent), om) for f, om in acquisitions]
    if solver == "graphprop-cg":
        return [(res.completed.values, res.stats) for res in graphprop(scaled, 3)]
    g = graphprop(acquisitions, 3)[0].graph
    (f, om), _ = scaled
    if solver == "gtvm":
        return [(gtvm_inpaint(g, om, f).values, None)]
    res = solve_steady_state(g, om, f, method="splu")
    return [(res.completed.values, res.stats)]


@pytest.mark.parametrize("exponent", [-560, 520, -1000])
@pytest.mark.parametrize("solver", ["graphprop-cg", "gtvm", "splu"])
def test_solves_scale_with_the_observed_values(solver, exponent):
    # observed values times a power of two give the completion times that
    # power, bit for bit and in as many iterations: unscaled, CG's stopping
    # norms underflowed at 2**-560 (every solved row 0.0 after 0 iterations,
    # reported as converged) and overflowed at 2**520 (the cap, then a
    # non-finite completion); the direct solve has no such norm
    acquisitions = scale_pair()
    unit = solve_at_scale(solver, acquisitions, 0)
    for (values, stats), (want, want_stats) in zip(
            solve_at_scale(solver, acquisitions, exponent), unit):
        assert values.tobytes() == np.ldexp(want, exponent).tobytes()
        if stats is not None:
            assert stats.iterations == want_stats.iterations and stats.converged


@pytest.mark.parametrize("exponent", [-560, 520])
@pytest.mark.parametrize("solver", ["graphprop-cg", "splu"])
def test_residual_norms_scale_with_the_observed_values(solver, exponent):
    # the residual norm is taken at unit scale and scaled back: unscaled,
    # its squares underflowed to 5e-324 or overflowed to inf
    acquisitions = scale_pair()
    for (_, stats), (_, want) in zip(solve_at_scale(solver, acquisitions, exponent),
                                     solve_at_scale(solver, acquisitions, 0)):
        assert want.residual_norm > 0.0
        assert stats.residual_norm == np.ldexp(want.residual_norm, exponent)


def test_median_threshold_basic():
    g = build_graph(EdgeSet(4, [(0, 1), (1, 2), (2, 3)]))
    omega = ObservationSet(4, [0, 3])
    res = solve_steady_state(g, omega, np.array([[0.0], [1.0]]))
    labels = median_threshold(res.completed.values[:, 0], omega.missing, res.filled_ids)
    # solved values 1/3 and 2/3, median 0.5
    assert labels.tolist() == [0, 1]


def test_median_threshold_ignores_excluded_nodes():
    # path 0-1-2-3 with 0 and 3 observed, a stranded pair 4-5 and an
    # isolated labelled node 6: the excluded nodes get the observed mean 2/3.
    # The median over the solved nodes (1/3, 2/3) is 0.5; over every missing
    # node it would be 2/3, which labels node 2 and the pair 0 instead.
    g = build_graph(EdgeSet(7, [(0, 1), (1, 2), (2, 3), (4, 5)]))
    omega = ObservationSet(7, [0, 3, 6])
    with pytest.warns(UnreachableComponent):
        res = solve_steady_state(g, omega, np.array([[0.0], [1.0], [1.0]]))
    assert np.array_equal(res.excluded_ids, [4, 5])
    labels = median_threshold(res.completed.values[:, 0], omega.missing, res.filled_ids)
    assert labels.tolist() == [0, 1, 1, 1]


def test_median_threshold_without_solved_nodes():
    values = np.array([0.0, 0.2, 0.5, 0.9])
    missing = np.array([1, 2, 3])
    empty = np.array([], dtype=np.int64)
    assert median_threshold(values, missing, empty).tolist() == [0, 0, 1]
    assert median_threshold(values, empty, empty).tolist() == []


def test_classify_all_equal_goes_low():
    g = build_graph(EdgeSet(3, [(0, 1), (1, 2)]))
    res = solve_steady_state(g, ObservationSet(3, [0, 2]), np.array([[1.0], [1.0]]))
    labels = median_threshold(res.completed.values[:, 0], np.array([1]), res.filled_ids)
    assert labels.tolist() == [0]


def test_two_clique_classification():
    # two 50-node cliques joined by one edge, one label observed per block
    size = 50
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    pairs += [(size + i, size + j) for i in range(size) for j in range(i + 1, size)]
    pairs.append((0, size))
    g = build_graph(EdgeSet(2 * size, pairs))
    truth = np.repeat([0, 1], size)
    omega = ObservationSet(2 * size, [1, size + 1])
    res = solve_steady_state(g, omega, truth[[1, size + 1]].astype(float)[:, None])
    labels = median_threshold(res.completed.values[:, 0], omega.missing, res.filled_ids)
    assert (labels == truth[omega.missing]).sum() >= 98
