import functools
import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprop import (
    EdgeSet,
    ObservationSet,
    build_graph,
    compute_phi,
    compute_psi,
    evaluate_bounds,
    graphprop,
    graphprop_bound,
    gtvm_bound,
    gtvm_inpaint,
    solve_steady_state,
    spectral_norm,
)
from graphprop.datagen import SynthSpec, generate_acquisitions, sample_observation_sets
from graphprop.errors import EmptyGraph, SpectralNormNotConverged
from graphprop.graph import partition_blocks
from graphprop.tensor import matricize
from oracles import bound_matrices, report_from_dict, report_to_json


def path3():
    return build_graph(EdgeSet(3, [(0, 1), (1, 2)]))


def random_instance(seed, n_lo=5, n_hi=40, channels=2, require_missing=True):
    """Random connected-enough instance with no zero-degree nodes."""
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(n_lo, n_hi))
        tri = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
        keep = rng.random(len(tri)) < rng.uniform(0.15, 0.6)
        if not keep.any():
            continue
        g = build_graph(EdgeSet(n, tri[keep]))
        if (g.degrees == 0).any():
            continue
        n_obs = int(rng.integers(1, n))
        omega = ObservationSet(n, np.sort(rng.choice(n, size=n_obs, replace=False)))
        if require_missing and omega.missing.size == 0:
            continue
        f0 = rng.standard_normal((n, channels))
        return g, omega, f0


def test_matrices_with_no_missing_adjacency():
    # two missing nodes, no edges between them
    g = build_graph(EdgeSet(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))
    omega = ObservationSet(4, [0, 1])
    m = bound_matrices(g, omega)
    assert np.array_equal(m.u, np.eye(2))
    assert np.array_equal(m.v, np.eye(2))


def test_matrices_path_example():
    m = bound_matrices(path3(), ObservationSet(3, [0, 2]))
    assert np.array_equal(m.u, [[1.0]])
    assert np.array_equal(m.v, [[1.0]])
    assert np.array_equal(m.y, [[0.5, 0.5]])


def test_matrices_require_degrees():
    g = build_graph(EdgeSet(3, [(0, 1)]))
    with pytest.raises(ValueError, match="degree zero"):
        bound_matrices(g, ObservationSet(3, [0]))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_p_plus_q_collapses_to_missing_selector(seed):
    g, omega, _ = random_instance(seed)
    m = bound_matrices(g, omega)
    rng = np.random.default_rng(seed + 1)
    w = rng.standard_normal((g.n, 3))
    w[: omega.observed.size] = 0.0  # reordered basis: observed rows first
    lhs = np.linalg.norm((m.p + m.q) @ w)
    rhs = 2.0 * np.linalg.norm(w[omega.observed.size :])
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_block_identities(seed):
    g, omega, _ = random_instance(seed)
    m = bound_matrices(g, omega)
    blocks = partition_blocks(g, omega.observed, omega.missing)
    d_inv = 1.0 / blocks.d_cc[:, None]
    l_cc = np.diag(blocks.d_cc) - blocks.a_cc.toarray()
    assert np.max(np.abs(m.v - d_inv * l_cc)) <= 1e-12
    assert np.max(np.abs(m.y - d_inv * blocks.a_co.toarray())) <= 1e-12


def test_psi_constant_signal_is_zero():
    g, omega, _ = random_instance(11)
    f0 = np.ones((g.n, 2)) * 3.7
    assert compute_psi(g, omega, f0) <= 1e-12


def test_psi_all_observed_is_zero():
    g, _, f0 = random_instance(12, require_missing=False)
    omega = ObservationSet(g.n, np.arange(g.n))
    assert compute_psi(g, omega, f0) == 0.0


def test_psi_path_example():
    f0 = np.array([[0.0], [0.9], [1.0]])
    assert abs(compute_psi(path3(), ObservationSet(3, [0, 2]), f0) - 0.4) <= 1e-12


def test_psi_matches_dense_p():
    g, omega, f0 = random_instance(13)
    m = bound_matrices(g, omega)
    perm = np.concatenate([omega.observed, omega.missing])
    dense = np.linalg.norm(m.p @ f0[perm])
    assert abs(compute_psi(g, omega, f0) - dense) <= 1e-10


def test_phi_identity_when_no_missing_edges():
    g = build_graph(EdgeSet(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))
    assert abs(compute_phi(g, ObservationSet(4, [0, 1])) - 1.0) <= 1e-9
    with pytest.raises(ValueError):
        compute_phi(g, ObservationSet(5, [0, 1]))


def test_phi_pair_example():
    # two missing nodes joined to each other and one observed node each
    g = build_graph(EdgeSet(4, [(0, 1), (0, 2), (1, 3)]))
    omega = ObservationSet(4, [2, 3])
    assert abs(compute_phi(g, omega) - 1.5) <= 1e-8


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_phi_matches_dense_svd(seed):
    g, omega, _ = random_instance(seed)
    m = bound_matrices(g, omega)
    dense = np.linalg.svd(m.u, compute_uv=False)[0] if m.u.size else 0.0
    assert abs(compute_phi(g, omega) - dense) <= 1e-7 * max(1.0, dense)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_row_normalised_adjacency_spectrum_in_unit_interval(seed):
    g, omega, _ = random_instance(seed)
    blocks = partition_blocks(g, omega.observed, omega.missing)
    scaled = blocks.a_cc.toarray() / blocks.d_cc[:, None]
    eigvals = np.linalg.eigvals(scaled)
    assert np.all(np.abs(eigvals) <= 1.0 + 1e-12)


def test_bound_zero_psi():
    assert graphprop_bound(0.0, 1.3) == 0.0


def test_bound_inapplicable_guard():
    assert graphprop_bound(1.0, 2.0) is None
    assert graphprop_bound(1.0, 2.0 - 1e-12) is None
    assert graphprop_bound(0.4, 1.0) == pytest.approx(0.4)


def test_single_missing_node_bound_is_tight():
    g = path3()
    omega = ObservationSet(3, [0, 2])
    f0 = np.array([[0.0], [0.9], [1.0]])
    res = solve_steady_state(g, omega, f0[omega.observed], method="splu")
    psi = compute_psi(g, omega, f0)
    phi = compute_phi(g, omega)
    bound = graphprop_bound(psi, phi)
    measured = float(np.linalg.norm(f0[1] - res.completed.values[1]))
    assert abs(measured - bound) <= 1e-12


def test_zero_energy_and_stationarity():
    g, omega, f0 = random_instance(17)
    res = solve_steady_state(g, omega, f0[omega.observed], method="splu")
    fhat = res.completed.values
    assert compute_psi(g, omega, fhat) <= 1e-8 * max(1.0, np.linalg.norm(fhat))
    m = bound_matrices(g, omega)
    grad = 2.0 * m.v.T @ (-m.y @ f0[omega.observed] + m.v @ fhat[omega.missing])
    assert np.max(np.abs(grad)) <= 1e-8


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_bound_validity_sampled(seed):
    g, omega, f0 = random_instance(seed)
    try:
        res = solve_steady_state(g, omega, f0[omega.observed], method="splu")
    except Exception:
        return
    psi = compute_psi(g, omega, f0)
    phi = compute_phi(g, omega)
    bound = graphprop_bound(psi, phi)
    if bound is None:
        return
    measured = float(np.linalg.norm(f0[omega.missing] - res.completed.values[omega.missing]))
    assert measured <= bound + 1e-9


def test_gtvm_bound_eigenvector_signal():
    g, omega, _ = random_instance(23)
    vals, vecs = np.linalg.eigh(g.adjacency.toarray())
    top = vecs[:, [np.argmax(np.abs(vals))]]
    out = gtvm_bound(g, omega, top)
    assert out.eta <= 1e-9
    assert out.bound is not None and out.bound <= 1e-8


def test_gtvm_bound_all_observed_degenerate():
    g, _, f0 = random_instance(29, require_missing=False)
    omega = ObservationSet(g.n, np.arange(g.n))
    out = gtvm_bound(g, omega, f0)
    assert out.q == 0.0
    measured = 0.0  # nothing missing
    assert measured <= out.bound


def test_gtvm_bound_path_numeric():
    g = path3()
    omega = ObservationSet(3, [0, 2])
    f0 = np.array([[0.0], [0.9], [1.0]])
    adjacency = g.adjacency.toarray()
    lam = np.max(np.abs(np.linalg.eigvalsh(adjacency)))
    assert abs(lam - np.sqrt(2.0)) <= 1e-12
    scaled = adjacency / lam
    eta_dense = np.linalg.norm(f0 - scaled @ f0)
    stack = np.vstack([scaled[np.ix_([0, 2], [1])], np.eye(1) + scaled[np.ix_([1], [1])]])
    q_dense = np.linalg.svd(stack, compute_uv=False)[0]
    out = gtvm_bound(g, omega, f0)
    assert abs(out.eta - eta_dense) <= 1e-10
    assert abs(out.q - q_dense) <= 1e-8
    est = gtvm_inpaint(g, omega, f0[omega.observed])
    measured = float(np.linalg.norm(f0[1] - est.values[1]))
    assert measured <= out.bound + 1e-9


def test_gtvm_bound_needs_edges():
    g = build_graph(EdgeSet(3, []))
    with pytest.raises(EmptyGraph):
        gtvm_bound(g, ObservationSet(3, [0]), np.zeros((3, 1)))


def test_spectral_norm_matches_dense():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 7))
    dense = np.linalg.svd(m, compute_uv=False)[0]
    assert abs(spectral_norm(sp.csr_array(m)) - dense) <= 1e-8 * dense


def test_spectral_norm_one_column_never_below_exact():
    # a one-column matrix's norm is the root of its sum of squares; summed
    # in floating point and rooted with no allowance it fell below the
    # exact root about half the time, so compare with the exact rational
    # sum: the result squared is at least it, and at most a few eps above
    rng = np.random.default_rng(35)
    for _ in range(2000):
        rows = int(rng.integers(1, 60))
        col = rng.standard_normal(rows) * 10.0 ** rng.integers(-3, 4, rows)
        col[rng.random(rows) < 0.3] = 0.0
        value = spectral_norm(sp.csr_array(col[:, None]))
        exact = sum(Fraction(float(v)) ** 2 for v in col)
        assert Fraction(value) ** 2 >= exact
        assert value <= np.sqrt(float(exact)) * (1.0 + 1e-13)


def test_graphprop_bound_holds_when_error_equals_psi():
    # No two missing nodes are adjacent, so U = I and the steady state is
    # each missing node's neighbour mean: the error equals psi in exact
    # arithmetic. Rounding can put the measured error a few eps above psi
    # (the offset of 16 widens that gap); psi's own rounding allowance must
    # keep the bound above it, even at the exact phi of 1.
    rng = np.random.default_rng(27)
    n_obs, n = 12, 20
    pairs = {(i, i + 1) for i in range(n_obs - 1)}
    for c in range(n_obs, n):
        for o in rng.choice(n_obs, size=int(rng.integers(2, 5)), replace=False):
            pairs.add((int(o), c))
    g = build_graph(EdgeSet(n, sorted(pairs)))
    omega = ObservationSet(n, np.arange(n_obs))
    f0 = rng.standard_normal((n, 2)) + 16.0
    assert partition_blocks(g, omega.observed, omega.missing).a_cc.nnz == 0
    res = solve_steady_state(g, omega, f0[omega.observed])
    report = evaluate_bounds(g, omega, f0, res.completed)
    assert report.phi > 1.0
    assert report.measured_error <= report.bound
    assert report.measured_error <= graphprop_bound(report.psi, 1.0)


@given(
    side=st.integers(6, 16),
    k=st.integers(2, 6),
    missing_frac=st.floats(0.1, 0.45),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_bound_scalars_on_the_safe_side(side, k, missing_frac, seed):
    """phi, lambda_max and q on kNN instances never fall below the dense
    norm, stay within 1e-7 of it, and the graphprop bound holds as is."""
    spec = SynthSpec(side, side, 3, r=min(3, side), missing_frac=missing_frac, seed=seed)
    fibers = [matricize(t, 3).values for t in generate_acquisitions(spec)]
    omegas = sample_observation_sets(spec.n, missing_frac, 2, seed=seed + 1)
    results = graphprop([(f[om.observed], om) for f, om in zip(fibers, omegas)], k=k)
    g = results[0].graph
    adjacency = g.adjacency.toarray()

    def safe_and_close(value, dense_matrix):
        dense = np.linalg.norm(dense_matrix, 2)
        assert value >= dense
        assert value - dense <= 1e-7 * dense

    safe_and_close(g.lam_max, adjacency)
    for f, om, res in zip(fibers, omegas, results):
        phi = compute_phi(g, om)
        safe_and_close(phi, bound_matrices(g, om).u)
        scaled = adjacency / g.lam_max
        mis, obs = om.missing, om.observed
        stacked = np.vstack([scaled[np.ix_(obs, mis)],
                             np.eye(mis.size) + scaled[np.ix_(mis, mis)]])
        safe_and_close(gtvm_bound(g, om, f).q, stacked)
        report = evaluate_bounds(g, om, f, res.completed)
        assert report.phi == phi
        if report.applicable:
            assert report.measured_error <= report.bound


def test_spectral_norm_reproducible_on_scaled_identity():
    # every vector is a top eigenvector here; the result must not depend on
    # which one, nor on earlier calls
    values = {spectral_norm(2.0 * sp.eye_array(200, format="csr")) for _ in range(5)}
    assert len(values) == 1
    assert 2.0 <= values.pop() <= 2.0 * (1.0 + 1e-12)


def test_spectral_norm_non_convergence_is_typed(monkeypatch):
    # one Lanczos restart cannot resolve a top singular value this clustered
    monkeypatch.setattr(spla, "eigsh", functools.partial(spla.eigsh, maxiter=1))
    with pytest.raises(SpectralNormNotConverged):
        spectral_norm(sp.diags_array(np.linspace(1.0, 0.5, 400)).tocsr())


def test_bound_report_serialisation():
    g, omega, f0 = random_instance(31)
    res = solve_steady_state(g, omega, f0[omega.observed], method="splu")
    report = evaluate_bounds(g, omega, f0, res.completed.values)
    data = json.loads(report_to_json(report))
    assert set(data) == {
        "psi", "phi", "bound", "measured_error",
        "gtvm_eta", "gtvm_q", "gtvm_bound", "applicable",
    }
    assert report_from_dict(data) == report
    if report.applicable:
        assert report.measured_error <= report.bound + 1e-9


def test_evaluate_bounds_drops_zero_degree_nodes():
    # node 3 isolated: bounds computed on the remaining subgraph
    g = build_graph(EdgeSet(4, [(0, 1), (1, 2)]))
    omega = ObservationSet(4, [0, 2])
    f0 = np.array([[0.0], [0.9], [1.0], [5.0]])
    fhat = f0.copy()
    fhat[1, 0] = 0.5
    report = evaluate_bounds(g, omega, f0, fhat)
    assert abs(report.psi - 0.4) <= 1e-12
    assert abs(report.measured_error - 0.4) <= 1e-12
