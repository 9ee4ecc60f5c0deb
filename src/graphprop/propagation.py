"""Masked diffusion over the unified graph: the steady-state solve, the
end-to-end multi-acquisition pipeline, and median thresholding for label
tasks. :func:`solve_reachable` is the one solve over the missing nodes an
observed node can reach, of one acquisition or several on lanes
(:mod:`graphprop.lanes`): input check (:func:`check_observed`), conjugate
gradient (:func:`jacobi_cg`, every channel's recurrence in one loop with
one sparse product per iteration) or sparse LU, warnings and fill rule.
:func:`solve_steady_state`, :func:`graphprop` and total-variation
inpainting in :mod:`graphprop.baselines` all solve through it.
:func:`graphprop` runs the acquisitions' kNN searches, on lanes once the
input passes a work gate, then on the calling thread builds the union
graph in one :func:`~graphprop.graph.build_graph` call and warns on its
coverage, and then solves. Every warning comes from the calling thread, in
the order one lane gives it.

The steady state pins observed fibers and drives every missing fiber to
the arithmetic mean of its neighbours' fibers, i.e. it solves the grounded
Laplacian system

    (D_cc - A_cc) F_c = A_co F_o

where c/o index missing/observed nodes. The system is symmetric positive
definite once it is restricted to the missing nodes that share a component
with an observed node. Every other missing node is excluded and gets the
per-channel mean of the observed fibers: a zero-degree node silently, a
node in a component with edges but no observed node with an
:class:`~graphprop.errors.UnreachableComponent` warning.
"""
from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bounds import frobenius_norm
from .errors import (
    AllMissing,
    CoverageViolationWarning,
    MaxItersExceeded,
    NonFiniteInput,
    UnreachableComponent,
)
from .graph import (
    ObservationSet,
    SparseGraph,
    _knn_observed,
    build_graph,
    knn_edges,
    partition_blocks,
    peak_exponent,
    split_reachable,
)
from .lanes import lane_cpus, run_lanes
from .tensor import FiberMatrix

DEFAULT_TOL = 1e-10
# jacobi_cg stops each column after this many iterations per unknown
# (the product with the unknown count, rounded down).
CG_ITERS_PER_UNKNOWN = 10
# The steady-state solve methods (see solve_steady_state).
SOLVE_METHODS = ("cg", "splu")
# graphprop() gives the acquisitions lanes of their own only when nodes
# times channels reaches this: below it, lanes contend for the interpreter
# lock more than they share work. Two acquisitions, k = 10, on 2 CPUs with
# one BLAS thread, one lane against two: synthetic 48x48x3 (6,912) took
# 22.9 ms against 26.2 ms and 100x100x3 (30,000) 82.1 ms against 63.0 ms.
# Interleaved medians of 21 calls: synthetic 56x56x3 (9,408) 34.7 against
# 34.5 ms and 64x64x3 (12,288) 52.8 against 45.3 ms; smooth raster pairs
# with 40% overlap 40x40x7 (11,200) 26.1 against 36.7 ms and 48x48x7
# (16,128) 50.4 against 49.4 ms. The gate sits at the raster pairs'
# break-even, so no input measured slower on two lanes passes it.
LANE_MIN_WORK = 16_000


def _check_method(method: str) -> None:
    if method not in SOLVE_METHODS:
        raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class SolverStats:
    method: str
    iterations: int
    residual_norm: float
    converged: bool


@dataclass(frozen=True, eq=False)
class CompletionResult:
    """Completed fiber matrix plus bookkeeping.

    Rows of ``completed`` at observed ids equal the inputs bit for bit.
    ``filled_ids`` are the missing nodes actually solved; ``excluded_ids``
    are zero-degree or unreachable missing nodes, filled with the
    per-channel mean of the observed fibers. ``graph`` is the graph the
    completion was solved on; results of one :func:`graphprop` call share
    one graph object.
    """

    completed: FiberMatrix
    filled_ids: np.ndarray
    excluded_ids: np.ndarray
    stats: SolverStats
    graph: SparseGraph


def check_observed(omega: ObservationSet, f_obs) -> np.ndarray:
    """Observed values as a float64 ``(n_observed, channels)`` array.

    Raises ``ValueError`` unless ``f_obs`` has one row per observed id,
    :class:`AllMissing` when no node is observed (the fill rule needs an
    observed mean), and :class:`NonFiniteInput` for NaN or infinite values.
    """
    f_obs = np.asarray(f_obs, dtype=np.float64)
    if f_obs.ndim != 2 or f_obs.shape[0] != omega.observed.size:
        raise ValueError(
            f"observed values must be ({omega.observed.size}, channels), got {f_obs.shape}"
        )
    if omega.observed.size == 0:
        raise AllMissing("at least one node must be observed")
    if not np.all(np.isfinite(f_obs)):
        raise NonFiniteInput("observed fiber values must be finite")
    return f_obs


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``: a
    stacked (1, n) by (n, 1) matmul, one BLAS ``dot`` per row, so every row
    rounds as a lone vector does at the same BLAS thread count. Above about
    10,000 entries per row OpenBLAS splits a ``dot`` over its threads, so
    the last bits then follow the thread count."""
    return np.matmul(a[:, None], b[:, :, None])[:, 0, 0]


def jacobi_cg(matrix: sp.csr_array, rhs: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Solve the symmetric positive definite ``matrix X = rhs`` with one
    independent Jacobi-preconditioned conjugate gradient per column, every
    column advanced in the same loop.

    Each iteration makes one sparse product over the live columns. Before
    each step a column whose residual norm is below ``DEFAULT_TOL`` times
    the norm of its right-hand side stops and is frozen; a zero column
    takes no step and is solved by 0. The iteration cap is
    ``CG_ITERS_PER_UNKNOWN`` times the unknown count. These are the stopping
    rules of ``scipy.sparse.linalg.cg`` applied column by column, and each
    column's recurrence takes the same floating-point steps as that call,
    alone or among other columns, at one BLAS thread count (above about
    10,000 unknowns the row dot products follow the thread count, see
    :func:`_row_dots`).

    The working set is six blocks of ``rhs``'s size: the solution, the
    residual, iterate and search direction of the live columns, one
    scratch block, and the sparse product's result, which is the only
    block allocated per iteration. The scratch serves z, then the
    product's C-ordered operand, then q and alpha q, then alpha p.

    Returns the solution, the largest iteration count over the columns,
    and whether every column converged (otherwise the last iterate of each
    live column is kept and the count is the cap).
    """
    n = rhs.shape[0]
    cap = int(CG_ITERS_PER_UNKNOWN * n)
    inv_diag = 1.0 / matrix.diagonal()
    solution = np.zeros_like(rhs)
    # One row per column, so the vector updates run over contiguous rows.
    # Always a copy: r is updated in place, and a one-column rhs.T is
    # already C-ordered.
    r = np.array(rhs.T, order="C")
    tol = DEFAULT_TOL * np.sqrt(_row_dots(r, r))
    live = np.flatnonzero(tol > 0)
    if live.size < tol.size:
        tol, r = tol[live], r[live]
    x = np.zeros_like(r)
    p = np.zeros_like(r)
    scratch = np.empty(r.size)
    rho_prev = np.ones(live.size)  # p is 0, so the first step sets p = z
    iterations = 0
    for step in range(cap):
        done = np.sqrt(_row_dots(r, r)) < tol
        if done.any():
            solution[:, live[done]] = x[done].T
            iterations = step
            keep = ~done
            live, tol, rho_prev = live[keep], tol[keep], rho_prev[keep]
            # one array at a time, so one block at most is held twice
            r = r[keep]
            x = x[keep]
            p = p[keep]
        if not live.size:
            return solution, iterations, True
        block = scratch[:r.size]
        z = np.multiply(r, inv_diag, out=block.reshape(r.shape))
        rho = _row_dots(r, z)
        p *= (rho / rho_prev)[:, None]
        p += z
        operand = block.reshape(n, live.size)
        np.copyto(operand, p.T)
        q = block.reshape(r.shape)
        np.copyto(q, (matrix @ operand).T)
        alpha = (rho / _row_dots(p, q))[:, None]
        r -= np.multiply(alpha, q, out=q)
        x += np.multiply(alpha, p, out=q)
        rho_prev = rho
    solution[:, live] = x.T
    return solution, cap, not live.size


def solve_reachable(g: SparseGraph, acquisitions, system, method: str,
                    stranded: type[Warning], capped: type[Warning], *,
                    pool=None, lanes: int = 1) -> list[CompletionResult]:
    """Solve, for each acquisition of ``g``, one symmetric positive definite
    system over the missing nodes that share a component with an observed
    node, and fill every row. Returns one result per acquisition, in order.

    ``acquisitions`` is a list of ``(f_obs, omega)`` pairs over ``g``'s
    nodes. ``system(kept, blocks, f_obs)`` returns an acquisition's
    ``(matrix, rhs)`` over its ``kept`` missing ids, given their
    :func:`~graphprop.graph.partition_blocks` slices and its checked
    observed values. ``method`` is 'cg' (:func:`jacobi_cg`; hitting its
    iteration cap warns ``capped`` and sets ``stats.converged`` to False)
    or 'splu' (sparse direct); ``stats.residual_norm`` is
    ``||matrix @ solution - rhs||_F``. The other missing nodes are
    excluded and get the per-channel mean of the observed rows; those in a
    component with edges (not zero-degree) are reported with ``stranded``.
    Observed rows are returned bit for bit.

    The solves are scale-invariant: ``system`` gets the observed values
    scaled by the power of two that brings their largest magnitude into
    [0.5, 1) (:func:`~graphprop.graph.peak_exponent`), and the solution
    and its residual norm are scaled back. Every step of the conjugate
    gradient (its stopping norms included) and of the LU solve commutes
    with that exact scale, so observed values times any power of two give
    the completion times that power, bit for bit and in as many
    iterations, barring underflow of the solved values themselves; without
    the scale, the stopping norms' squares would underflow or overflow far
    from unit scale.

    The calling thread checks each acquisition (:func:`check_observed`)
    and splits its missing nodes (:func:`~graphprop.graph.split_reachable`
    labels the graph's components before any lane reads them). The
    numeric solves run on ``lanes`` lanes (:func:`~graphprop.lanes.run_lanes`,
    lanes past the first on ``pool``), each writing only its own slot, so
    each takes the same floating-point steps at any lane count. Then the
    calling thread warns as one lane would, each acquisition's
    ``stranded`` then ``capped``, up to the first failing solve, whose
    error follows.
    """
    checked = []
    for f_obs, omega in acquisitions:
        if g.n != omega.n:
            raise ValueError(f"graph has {g.n} nodes, observation set {omega.n}")
        checked.append((check_observed(omega, f_obs), omega))
    splits = [split_reachable(g, omega) for _, omega in checked]
    solved = [None] * len(checked)

    def solve(i, _lane):
        (f_obs, omega), (kept, _) = checked[i], splits[i]
        if not kept.size:
            solved[i] = np.empty((0, f_obs.shape[1])), SolverStats(method, 0, 0.0, True)
            return
        e = peak_exponent(f_obs)
        matrix, rhs = system(kept, partition_blocks(g, omega.observed, kept), np.ldexp(f_obs, -e))
        if method == "cg":
            solution, iterations, converged = jacobi_cg(matrix, rhs)
        else:
            solution = spla.splu(matrix.tocsc()).solve(rhs)
            iterations, converged = 0, True
        residual = float(np.ldexp(frobenius_norm(matrix @ solution - rhs), e))
        solved[i] = (np.ldexp(solution, e, out=solution),
                     SolverStats(method, iterations, residual, converged))

    try:
        run_lanes(pool, lanes, len(checked), solve)
    finally:
        # every solve below the first failing one has run
        for (_, excluded), done in zip(splits, solved):
            unreached = int(np.count_nonzero(g.degrees[excluded] > 0))
            if unreached:
                warnings.warn(
                    f"{unreached} missing node(s) lie in components with no observed "
                    "node; they are excluded and mean-filled",
                    stranded,
                )
            if done is None:
                break
            if not done[1].converged:
                warnings.warn(
                    f"conjugate gradient hit the {done[1].iterations}-iteration cap; "
                    "last iterate kept",
                    capped,
                )
    results = []
    for (f_obs, omega), (kept, excluded), (solution, stats) in zip(checked, splits, solved):
        values = np.empty((omega.n, f_obs.shape[1]), dtype=np.float64)
        values[omega.observed] = f_obs
        values[kept] = solution
        values[excluded] = f_obs.mean(axis=0)
        results.append(CompletionResult(FiberMatrix(values), kept, excluded, stats, g))
    return results


def _grounded_laplacian(kept, blocks, f_obs):
    """``L_kk = D_kk - A_kk`` and ``b = A_ko F_o`` over the kept missing ids."""
    l_kk = (sp.diags_array(blocks.d_cc, format="csr") - blocks.a_cc).tocsr()
    return l_kk, blocks.a_co @ f_obs


def solve_steady_state(
    g: SparseGraph,
    omega: ObservationSet,
    f_obs: np.ndarray,
    *,
    method: str = "cg",
) -> CompletionResult:
    """Solve the grounded Laplacian system for the missing fibers.

    Parameters
    ----------
    g, omega : graph and observation set over the same nodes.
    f_obs : (n_observed, channels) observed fiber values, row order
        matching ``omega.observed``.
    method : 'cg' (:func:`jacobi_cg`, the default; hitting its iteration
        cap warns :class:`MaxItersExceeded` and sets ``stats.converged`` to
        False) or 'splu' (sparse direct).

    Missing nodes with no path to an observed node are excluded and get
    the per-channel mean of the observed rows; those in a component with
    edges (not zero-degree) are reported with :class:`UnreachableComponent`.
    See :func:`solve_reachable`.
    """
    _check_method(method)
    return solve_reachable(g, [(f_obs, omega)], _grounded_laplacian, method,
                           UnreachableComponent, MaxItersExceeded)[0]


def graphprop(acquisitions, k: int, *, method: str = "cg") -> list[CompletionResult]:
    """Complete every acquisition over one unified kNN graph.

    ``acquisitions`` is a list of ``(f_obs, omega)`` pairs: per-acquisition
    observed fiber values (rows matching ``omega.observed``) and
    observation sets sharing the node count. Per-acquisition kNN edge sets
    are built over the observed fibers only, their union defines a single
    graph, and one steady-state solve (``method``, see
    :func:`solve_steady_state`) runs per acquisition. This is the
    only place the union graph is composed: the returned results, one per
    acquisition in input order, all carry that graph as ``result.graph``.

    The acquisitions' kNN searches run first; then the calling thread
    builds the union graph in one :func:`~graphprop.graph.build_graph`
    call and warns on never-observed nodes; last, each acquisition is
    solved. An acquisition gets its own lane (:mod:`graphprop.lanes`), one
    per CPU that :func:`~graphprop.lanes.lane_cpus` grants, only when
    nodes times channels reaches ``LANE_MIN_WORK``. On one lane the call
    runs the public per-acquisition functions,
    :func:`~graphprop.graph.knn_edges` and :func:`solve_steady_state`, one
    after another on the calling thread, where perfbench's tracer times
    each call; on lanes it runs :func:`~graphprop.graph._knn_observed` on
    the observed rows and one :func:`solve_reachable`, the one solve, over
    every acquisition. Kd-tree and brute-force searches alike run on these
    lanes, and no search starts a thread of its own: one level of lanes
    per call. Each acquisition takes the same floating-point steps at any
    lane count, so the results are byte-identical; the warnings come in
    the order one lane gives them (each acquisition's
    :class:`UnreachableComponent`, then its :class:`MaxItersExceeded`),
    and a failure raises the error of the first failing acquisition.

    Nodes observed in no acquisition, which are the zero-degree nodes of
    the union graph, trigger a :class:`CoverageViolationWarning` once the
    graph is built and end up excluded with the mean fill policy; so do
    missing nodes cut off from every node observed in their acquisition,
    with an :class:`UnreachableComponent` warning for that acquisition. An
    unknown ``method``, an acquisition that fails :func:`check_observed`,
    or node or channel counts that differ between acquisitions raise
    before any graph work.
    """
    _check_method(method)
    acquisitions = [(check_observed(om, f), om) for f, om in acquisitions]
    if not acquisitions:
        raise ValueError("need at least one acquisition")
    n = acquisitions[0][1].n
    channels = acquisitions[0][0].shape[1]
    for f, om in acquisitions:
        if om.n != n:
            raise ValueError("acquisitions must share the node count")
        if f.shape[1] != channels:
            raise ValueError("acquisitions must share the channel count")
    count = len(acquisitions)
    lanes = min(lane_cpus(), count) if n * channels >= LANE_MIN_WORK else 1

    with ThreadPoolExecutor(max(lanes - 1, 1)) as pool:
        if lanes == 1:
            edge_sets = []
            for f, om in acquisitions:
                features = np.zeros((n, channels), dtype=np.float64)
                features[om.observed] = f
                edge_sets.append(knn_edges(FiberMatrix(features), om, k))
        else:
            edge_sets = [None] * count

            def search(i, _lane):
                f, om = acquisitions[i]
                edge_sets[i] = _knn_observed(f, om, k)

            run_lanes(pool, lanes, count, search)
        graph = build_graph(*edge_sets)
        del edge_sets[:]  # not held through the solves
        # every observed node has k >= 1 neighbours in its acquisition's kNN
        # graph, so a node has zero degree exactly when no acquisition observes it
        never = int(np.count_nonzero(graph.degrees == 0))
        if never:
            warnings.warn(
                f"{never} node(s) observed in no acquisition; "
                "they will be excluded and mean-filled",
                CoverageViolationWarning,
            )
        if lanes == 1:
            return [solve_steady_state(graph, om, f, method=method) for f, om in acquisitions]

        return solve_reachable(graph, acquisitions, _grounded_laplacian, method,
                               UnreachableComponent, MaxItersExceeded,
                               pool=pool, lanes=lanes)


def median_threshold(values: np.ndarray, missing: np.ndarray,
                     solved: np.ndarray) -> np.ndarray:
    """0/1 labels for the ``missing`` ids: 1 where the value exceeds the
    median of the values at ``solved``, 0 at or below it.

    ``solved`` are the missing ids a solve reached (``filled_ids``), so
    mean-filled excluded nodes never move the threshold; when it is empty
    the median is taken over ``missing``.
    """
    pool = solved if solved.size else missing
    if pool.size == 0:
        return np.zeros(0, dtype=np.int64)
    med = float(np.median(values[pool]))
    return (values[missing] > med).astype(np.int64)
