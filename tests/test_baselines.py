import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from graphprop import (
    DenseTensor,
    EdgeSet,
    ObservationSet,
    OverlapSpec,
    SynthSpec,
    build_graph,
    evaluate_bounds,
    generate_acquisitions,
    graphprop,
    gtvm_inpaint,
    halrtc_complete,
    matricize,
    node_ids,
    partial_overlap_masks,
    sample_observation_sets,
    smooth_raster_pair,
    solve_steady_state,
)
from graphprop import baselines, bounds, harness, propagation
from graphprop.errors import (
    AllMissing,
    CoverageViolationWarning,
    EmptyGraph,
    SingularSystemWarning,
    UnreachableComponent,
)
from graphprop.harness import _halrtc_fibers
from halrtc_reference import halrtc_svd_reference, nuclear_objective, svd_shrink
from oracles import gtvm_objective


def path3():
    return build_graph(EdgeSet(3, [(0, 1), (1, 2)]))


def test_gtvm_all_observed_identity():
    f = np.array([[1.0], [2.0], [3.0]])
    out = gtvm_inpaint(path3(), ObservationSet(3, [0, 1, 2]), f)
    assert np.array_equal(out.values, f)


def test_gtvm_path_closed_form():
    # minimise over f2: ||(I - A/sqrt(2)) (0, f2, 1)||^2 has optimum sqrt(2)/2
    out = gtvm_inpaint(path3(), ObservationSet(3, [0, 2]), np.array([[0.0], [1.0]]))
    assert abs(out.values[1, 0] - np.sqrt(2.0) / 2.0) <= 1e-10


def test_gtvm_path_matches_dense_oracle():
    g = path3()
    omega = ObservationSet(3, [0, 2])
    t_obs = np.array([[0.3], [-1.2]])
    adjacency = g.adjacency.toarray()
    lam = np.max(np.abs(np.linalg.eigvalsh(adjacency)))
    b = np.eye(3) - adjacency / lam
    expected = np.linalg.lstsq(b[:, [1]], -b[:, [0, 2]] @ t_obs, rcond=None)[0]
    out = gtvm_inpaint(g, omega, t_obs)
    assert abs(out.values[1, 0] - expected[0, 0]) <= 1e-10


# The second size is above 300 nodes: GTVM's solve must not depend on the
# graph size.
@pytest.mark.parametrize("n", [20, 320])
def test_gtvm_eigenvector_recovered_exactly(n):
    rng = np.random.default_rng(2)
    tri = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
    g = build_graph(EdgeSet(n, tri[rng.random(len(tri)) < 0.4]))
    vals, vecs = np.linalg.eigh(g.adjacency.toarray())
    top = vecs[:, [np.argmax(np.abs(vals))]]
    omega = ObservationSet(n, np.sort(rng.choice(n, size=2 * n // 5, replace=False)))
    out = gtvm_inpaint(g, omega, top[omega.observed])
    assert np.allclose(out.values, top, atol=1e-8)


def test_gtvm_observed_rows_bit_exact():
    rng = np.random.default_rng(5)
    g = path3()
    t_obs = rng.standard_normal((2, 3))
    out = gtvm_inpaint(g, ObservationSet(3, [0, 2]), t_obs)
    assert np.array_equal(out.values[[0, 2]], t_obs)


@pytest.mark.parametrize("n", [15, 301])
def test_gtvm_local_optimality_spot_check(n):
    rng = np.random.default_rng(9)
    tri = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
    g = build_graph(EdgeSet(n, tri[rng.random(len(tri)) < 0.5]))
    omega = ObservationSet(n, np.arange(0, n, 2))
    t_obs = rng.standard_normal((omega.observed.size, 2))
    out = gtvm_inpaint(g, omega, t_obs)
    base = gtvm_objective(g, out.values)
    for _ in range(100):
        perturbed = out.values.copy()
        perturbed[omega.missing] += 1e-3 * rng.standard_normal(
            (omega.missing.size, 2)
        )
        assert gtvm_objective(g, perturbed) >= base - 1e-12


@pytest.mark.parametrize("n", [4, 301])
def test_gtvm_disconnected_observed_component_flagged(n):
    # second component has no observed node: the quadratic is singular there;
    # nodes 4.. are isolated and missing, which is not singular. Both get the
    # observed mean; node 1 solves to the observed value.
    g = build_graph(EdgeSet(n, [(0, 1), (2, 3)]))
    omega = ObservationSet(n, [0])
    with pytest.warns(SingularSystemWarning, match="2 missing node"):
        out = gtvm_inpaint(g, omega, np.array([[2.0]]))
    assert np.array_equal(out.values, np.full((n, 1), 2.0))


def test_gtvm_and_steady_state_fill_excluded_nodes_alike():
    # nodes 0-2 form a path with two observed nodes, 3-5 a triangle with
    # none (stranded), node 6 has no edge (zero degree)
    g = build_graph(EdgeSet(7, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]))
    omega = ObservationSet(7, [0, 2])
    t_obs = np.array([[1.0, -2.0], [4.0, 3.5]])
    with pytest.warns(SingularSystemWarning, match="3 missing node"):
        gtvm = gtvm_inpaint(g, omega, t_obs)
    with pytest.warns(UnreachableComponent, match="3 missing node"):
        res = solve_steady_state(g, omega, t_obs)
    assert np.array_equal(res.excluded_ids, [3, 4, 5, 6])
    assert np.array_equal(gtvm.values[res.excluded_ids],
                          res.completed.values[res.excluded_ids])
    assert np.array_equal(gtvm.values[res.excluded_ids],
                          np.tile(t_obs.mean(axis=0), (4, 1)))


def test_gtvm_iteration_cap_warns(monkeypatch):
    rng = np.random.default_rng(3)
    n = 40
    tri = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
    g = build_graph(EdgeSet(n, tri[rng.random(len(tri)) < 0.3]))
    omega = ObservationSet(n, np.arange(0, n, 4))
    t_obs = rng.standard_normal((omega.observed.size, 2))
    # every missing node is solved; 1.5 iterations per unknown is a cap of 1
    monkeypatch.setattr(propagation, "CG_ITERS_PER_UNKNOWN", 1.5 / omega.missing.size)
    with pytest.warns(SingularSystemWarning, match="hit the 1-iteration cap"):
        out = gtvm_inpaint(g, omega, t_obs)
    assert np.array_equal(out.values[omega.observed], t_obs)
    assert np.all(np.isfinite(out.values))


def test_lam_max_computed_once_per_graph(monkeypatch):
    # one lambda_max per graph, then phi and q per acquisition: the bound
    # scalars never rebuild the graph, not even around the zero-degree
    # corners that the overlap pair observes in neither acquisition
    spec = SynthSpec(12, 12, 2, r=2, lambda_count=2, missing_frac=0.3, seed=4)
    synthetic = ([matricize(t, 3).values for t in generate_acquisitions(spec)],
                 sample_observation_sets(144, 0.3, 2, seed=5))
    masks = partial_overlap_masks(OverlapSpec(16, 16, 0.3))
    assert not (masks[0] | masks[1]).all()
    overlap = ([matricize(t, 3).values for t in smooth_raster_pair(16, 16, 2, seed=2)],
               [ObservationSet(256, node_ids(m)) for m in masks])
    real = bounds.spectral_norm
    for fibers, omegas in (synthetic, overlap):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoverageViolationWarning)
            results = graphprop([(f[om.observed], om) for f, om in zip(fibers, omegas)], k=4)
        graph = results[0].graph
        on_adjacency = []

        def counted(matrix):
            on_adjacency.append(matrix is graph.adjacency)
            return real(matrix)

        for module in (bounds, baselines):
            monkeypatch.setattr(module, "spectral_norm", counted, raising=False)
        for f, om, res in zip(fibers, omegas, results):
            evaluate_bounds(graph, om, f, res.completed)
        for f, om in zip(fibers, omegas):
            gtvm_inpaint(graph, om, f[om.observed])
        assert sum(on_adjacency) == 1
        assert len(on_adjacency) == 1 + 2 * len(omegas)


def test_gtvm_needs_edges():
    g = build_graph(EdgeSet(2, []))
    with pytest.raises(EmptyGraph):
        gtvm_inpaint(g, ObservationSet(2, [0]), np.array([[1.0]]))


def test_halrtc_fully_observed_unchanged():
    rng = np.random.default_rng(1)
    t = DenseTensor.from_array(rng.standard_normal((5, 4, 3)))
    out = halrtc_complete(t, np.ones(t.shape, dtype=bool))
    assert np.array_equal(out.values, t.values)


def test_halrtc_zeros_fixed_point():
    t = DenseTensor.from_array(np.zeros((6, 5, 2)))
    mask = np.zeros(t.shape, dtype=bool)
    mask[::2] = True
    out = halrtc_complete(t, mask)
    assert np.array_equal(out.values, np.zeros(t.shape))


def test_halrtc_rank1_recovery():
    rng = np.random.default_rng(0)
    m = np.outer(rng.standard_normal(100), rng.standard_normal(100))
    t = DenseTensor.from_array(m[:, :, None])
    mask = rng.random((100, 100, 1)) > 0.3
    out = halrtc_complete(t, mask)
    rel = np.linalg.norm(out.values - t.values) / np.linalg.norm(t.values)
    assert rel <= 1e-3


def test_halrtc_matches_nuclear_norm_reference():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(4)
    m = np.outer(rng.standard_normal(20), rng.standard_normal(20))
    mask2d = rng.random((20, 20)) > 0.3
    x = cvxpy.Variable((20, 20))
    problem = cvxpy.Problem(
        cvxpy.Minimize(cvxpy.normNuc(x)),
        [x[mask2d] == m[mask2d]],
    )
    problem.solve(solver=cvxpy.SCS, eps=1e-8)
    reference = np.asarray(x.value)
    assert np.linalg.norm(reference - m) / np.linalg.norm(m) <= 1e-3

    t = DenseTensor.from_array(m[:, :, None])
    out = halrtc_complete(t, mask2d[:, :, None])
    ours = out.values[:, :, 0]
    assert np.linalg.norm(ours - reference) / np.linalg.norm(m) <= 2e-3


def objective_history(t, mask, monkeypatch) -> list[float]:
    """Weighted nuclear objective of every ADMM iterate, from one pass of
    the SVD reference loop. The library's first, middle and last iterates
    (runs capped at k iterations) are checked against the reference's."""
    iterates = []
    halrtc_svd_reference(t, mask, iterates=iterates)
    for k in {1, (len(iterates) + 1) // 2, len(iterates)}:
        with monkeypatch.context() as patch:
            patch.setattr(baselines, "HALRTC_MAX_ITERS", k)
            ours = halrtc_complete(t, mask).values
        ref = iterates[k - 1]
        assert np.linalg.norm(ours - ref) <= 1e-10 * np.linalg.norm(ref), k
    alphas = (1.0 / t.order,) * t.order
    return [nuclear_objective(DenseTensor(t.shape, x), alphas) for x in iterates]


def test_halrtc_objective_non_increasing(monkeypatch):
    # Strict per-step monotonicity is not a theorem for ADMM with a growing
    # penalty; it holds on this instance and is asserted at the tight slack,
    # while other seeds only get the bounded-transient check below.
    rng = np.random.default_rng(0)
    low = rng.standard_normal((12, 2)) @ rng.standard_normal((2, 10))
    t = DenseTensor.from_array(np.stack([low, 1.5 * low], axis=-1))
    mask = rng.random(t.shape) > 0.4
    history = objective_history(t, mask, monkeypatch)
    diffs = np.diff(history)
    assert diffs.size > 0
    assert diffs.max() <= 1e-6 * max(1.0, history[0])


def test_halrtc_objective_descends_with_bounded_transients(monkeypatch):
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        low = rng.standard_normal((12, 2)) @ rng.standard_normal((2, 10))
        t = DenseTensor.from_array(np.stack([low, 1.5 * low], axis=-1))
        mask = rng.random(t.shape) > 0.4
        history = np.asarray(objective_history(t, mask, monkeypatch))
        assert history[-1] <= history[0]
        assert np.diff(history).max(initial=0.0) <= 1e-2 * max(1.0, history[0])


def test_halrtc_observed_bit_exact():
    rng = np.random.default_rng(8)
    t = DenseTensor.from_array(rng.standard_normal((8, 7, 2)))
    mask = rng.random(t.shape) > 0.5
    out = halrtc_complete(t, mask)
    assert np.array_equal(out.values[mask], t.values[mask])


def spectrum_matrix(rng, rows, cols, smallest=1e-12, largest=1e2):
    """rows x cols matrix with singular values log-spaced from ``smallest``
    to ``largest``."""
    rank = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, rank)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, rank)))
    return (u * np.geomspace(smallest, largest, rank)) @ v.T


# (tensor shape, 0-based mode): the unfoldings of the stacked 100x100x3x2
# tensor the rank sweep completes (600x100, 20000x3, 30000x2 as fiber rows),
# one whose mode extent exceeds its fiber count, and a 3-way tensor.
SHRINK_CASES = [((100, 100, 3, 2), m) for m in range(4)] + [((40, 100), 1),
                                                             ((12, 10, 2), 0)]


@pytest.mark.parametrize("shape, mode", SHRINK_CASES)
def test_halrtc_shrinkage_matches_svd_within_bound(shape, mode):
    rng = np.random.default_rng(sum(shape) + mode)
    extent = shape[mode]
    m = spectrum_matrix(rng, int(np.prod(shape)) // extent, extent)
    sv = np.linalg.svd(m, compute_uv=False)
    # alpha / rho_cap of a 4-way uniform HaLRTC up to ||M||_2 / 100, plus
    # thresholds 1e-10 either side of the largest singular value below 1
    taus = [2.5e-4, 1e-2, 1.0]
    near = sv[sv <= 1.0][0]
    if near > 1e-9:
        taus += [near - 1e-10, near + 1e-10]
    for tau in taus:
        err = np.linalg.norm(baselines._shrink_mode(m, tau) - svd_shrink(m, tau))
        assert err <= extent * np.finfo(float).eps * sv[0] ** 2 / tau, (tau, err)


def halrtc_input(fibers, omegas, shape):
    """The stacked tensor and mask that ``_halrtc_fibers`` hands to
    ``halrtc_complete`` for these acquisitions."""
    handed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "halrtc_complete",
                      lambda t, mask: handed.append((t, mask)) or t)
        _halrtc_fibers(fibers, omegas, shape)
    return handed[0]


def stacked_fiber_instance(seed, order=4):
    """A 20x20x3 two-acquisition instance stacked and masked to observed
    fibers, as the harness hands it to HaLRTC; with ``order`` 3, its first
    acquisition alone."""
    spec = SynthSpec(20, 20, 3, r=4, lambda_count=2, missing_frac=0.4, seed=seed)
    omegas = sample_observation_sets(spec.n, 0.4, 2, seed=seed + 1)
    fibers = [matricize(t, 3).values for t in generate_acquisitions(spec)]
    stacked, mask = halrtc_input(fibers, omegas, (20, 20, 3))
    if order == 3:
        return DenseTensor.from_array(stacked.values[..., 0]), mask[..., 0]
    return stacked, mask


class CountingPool(ThreadPoolExecutor):
    submits = 0

    def submit(self, *args, **kwargs):
        CountingPool.submits += 1
        return super().submit(*args, **kwargs)


def halrtc_on_lanes(monkeypatch, lanes, t, mask):
    """``halrtc_complete(t, mask)`` with the lane rule granting ``lanes``
    CPUs, and the pool submits it made."""
    with monkeypatch.context() as patch:
        patch.setattr(baselines, "lane_cpus", lambda: lanes)
        patch.setattr(baselines, "ThreadPoolExecutor", CountingPool)
        CountingPool.submits = 0
        return halrtc_complete(t, mask), CountingPool.submits


@pytest.mark.parametrize("lanes", [1, 2, 4])
@pytest.mark.parametrize("seed, order", [(0, 4), (1, 4), (0, 3)])
def test_halrtc_matches_svd_reference_loop(seed, order, lanes, monkeypatch):
    # 4 lanes exceed the CPUs of most machines; on the 3-way tensor they
    # are capped at the order, 3
    stacked, mask = stacked_fiber_instance(seed, order)
    reference, ref_iters = halrtc_svd_reference(stacked, mask)
    one_lane, _ = halrtc_on_lanes(monkeypatch, 1, stacked, mask)
    calls = []
    real = baselines._shrink_mode
    monkeypatch.setattr(baselines, "_shrink_mode", lambda *a: calls.append(1) or real(*a))
    out, submits = halrtc_on_lanes(monkeypatch, lanes, stacked, mask)
    assert out.values.tobytes() == one_lane.values.tobytes()
    assert submits == (min(lanes, order) - 1) * ref_iters
    assert len(calls) == stacked.order * ref_iters
    assert np.linalg.norm(out.values - reference.values) <= 1e-10 * np.linalg.norm(
        reference.values)
    assert np.array_equal(out.values[mask], stacked.values[mask])


@pytest.mark.parametrize("bad, where", [(np.nan, "FiberMatrix: values must be finite"),
                                        (1e308, "working tensor")])
def test_halrtc_non_finite_raises(bad, where, monkeypatch):
    stacked, mask = stacked_fiber_instance(0)
    monkeypatch.setattr(baselines, "_shrink_mode",
                        lambda fibers, tau: np.full(fibers.shape, bad))
    for lanes in (1, 2, 4):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=where):
            halrtc_on_lanes(monkeypatch, lanes, stacked, mask)


def test_halrtc_raises_the_lowest_failing_modes_error(monkeypatch):
    # the surrogates of modes 0, 1 and 3 are NaN and mode 2's shrink (the
    # one with fibers of length 3) raises, sooner than mode 0's on four
    # lanes; mode 0's error is raised, as on one
    stacked, mask = stacked_fiber_instance(0)

    def shrink(fibers, tau):
        if fibers.shape[1] == 3:
            raise ValueError("mode 2 failed")
        time.sleep(0.01)
        return np.full(fibers.shape, np.nan)

    monkeypatch.setattr(baselines, "_shrink_mode", shrink)
    for lanes in (1, 2, 4):
        with pytest.raises(ValueError, match="FiberMatrix: values must be finite"):
            halrtc_on_lanes(monkeypatch, lanes, stacked, mask)


def test_halrtc_raises_a_pool_lanes_other_errors(monkeypatch):
    # an error other than ValueError in mode 2's shrink (the one with
    # fibers of length 3), which runs on a pool lane on four lanes, ends
    # the call with that error
    stacked, mask = stacked_fiber_instance(0)
    real = baselines._shrink_mode

    def shrink(fibers, tau):
        if fibers.shape[1] == 3:
            raise ZeroDivisionError("mode 2 failed")
        time.sleep(0.01)
        return real(fibers, tau)

    monkeypatch.setattr(baselines, "_shrink_mode", shrink)
    for lanes in (1, 2, 4):
        with pytest.raises(ZeroDivisionError, match="mode 2 failed"):
            halrtc_on_lanes(monkeypatch, lanes, stacked, mask)


def test_halrtc_lanes_keep_refold_on_the_calling_thread(monkeypatch):
    # four lanes, more than the CPUs of most machines, with the interpreter
    # switching threads as often as it can
    stacked, mask = stacked_fiber_instance(1)
    one_lane, _ = halrtc_on_lanes(monkeypatch, 1, stacked, mask)
    refolds, shrinks = [], []
    real_refold, real_shrink = baselines.refold, baselines._shrink_mode

    def recording_refold(f, shape, mode):
        refolds.append((threading.get_ident(), mode))
        return real_refold(f, shape, mode)

    def recording_shrink(fibers, threshold):
        shrinks.append(threading.get_ident())
        return real_shrink(fibers, threshold)

    monkeypatch.setattr(baselines, "refold", recording_refold)
    monkeypatch.setattr(baselines, "_shrink_mode", recording_shrink)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out, submits = halrtc_on_lanes(monkeypatch, 4, stacked, mask)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert out.values.tobytes() == one_lane.values.tobytes()
    iters = len(refolds) // stacked.order
    assert iters > 1 and submits == 3 * iters
    assert refolds == [(threading.get_ident(), mode) for _ in range(iters)
                       for mode in range(1, stacked.order + 1)]
    assert len(shrinks) == len(refolds) and len(set(shrinks)) > 1


def test_halrtc_validation():
    t = DenseTensor.from_array(np.zeros((3, 3)))
    with pytest.raises(AllMissing):
        halrtc_complete(t, np.zeros((3, 3), dtype=bool))
    with pytest.raises(ValueError):
        halrtc_complete(t, np.ones((3, 2), dtype=bool))


def test_nuclear_objective_matches_svd():
    rng = np.random.default_rng(11)
    t = DenseTensor.from_array(rng.standard_normal((4, 5, 3)))
    alphas = (0.2, 0.3, 0.5)
    expected = 0.0
    for mode, alpha in enumerate(alphas):
        # the column order of an unfolding leaves its singular values alone
        others = [m for m in range(t.order) if m != mode]
        unfolded = np.transpose(t.values, [mode, *others]).reshape(t.shape[mode], -1)
        expected += alpha * np.linalg.svd(unfolded, compute_uv=False).sum()
    assert abs(nuclear_objective(t, alphas) - expected) <= 1e-10


def halrtc_pair(observed):
    """Two 5x4x3 acquisitions with different values, and their observation
    sets over the 20 fibers."""
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 4, 3))
    tensors = [DenseTensor.from_array(a), DenseTensor.from_array(10.0 - 3.0 * a[::-1])]
    return tensors, [ObservationSet(20, ids) for ids in observed]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_halrtc_fibers_stack_and_mask_match_the_index_map(count):
    # entry (a, b, c, l) of the stack is fibers[l][a + I1*b, c], and the
    # mask is true there iff node a + I1*b is observed in acquisition l
    rng = np.random.default_rng(count)
    fibers = [rng.standard_normal((20, 3)) for _ in range(count)]
    omegas = [ObservationSet(20, np.sort(rng.choice(20, size, replace=False)))
              for size in (7, 20, 13)[:count]]
    stacked, mask = halrtc_input(fibers, omegas, (5, 4, 3))
    assert stacked.shape == mask.shape == (5, 4, 3, count) and mask.dtype == bool
    for a, b, c, lam in np.ndindex(stacked.shape):
        node = a + 5 * b
        assert stacked.values[a, b, c, lam] == fibers[lam][node, c]
        assert mask[a, b, c, lam] == (node in omegas[lam].observed)


def test_halrtc_fibers_fully_observed_returns_each_input():
    tensors, omegas = halrtc_pair([np.arange(20), np.arange(20)])
    blocks = _halrtc_fibers([matricize(t, 3).values for t in tensors], omegas, (5, 4, 3))
    assert len(blocks) == 2
    for block, t in zip(blocks, tensors):
        assert block.tobytes() == matricize(t, 3).values.tobytes()


def test_halrtc_fibers_keep_each_acquisitions_observed_rows():
    tensors, omegas = halrtc_pair([np.arange(0, 14), np.arange(6, 20)])
    blocks = _halrtc_fibers([matricize(t, 3).values for t in tensors], omegas, (5, 4, 3))
    assert len(blocks) == 2
    for block, t, om in zip(blocks, tensors, omegas):
        assert block.shape == (20, 3)
        given = matricize(t, 3).values
        assert block[om.observed].tobytes() == given[om.observed].tobytes()
