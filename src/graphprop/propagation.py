"""Masked diffusion over the unified graph: the steady-state solve, the
end-to-end multi-acquisition pipeline, and median thresholding for label
tasks. The solve's input check (:func:`check_observed`), conjugate
gradient (:func:`jacobi_cg`, every channel's recurrence in one loop with
one sparse product per iteration) and fill rule (:func:`fill_rows`) are
shared with total-variation inpainting in :mod:`graphprop.baselines`.
:func:`graphprop` assembles the union graph of its acquisitions' kNN edge
sets in one :func:`~graphprop.graph.build_graph` call.

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
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    build_graph,
    knn_edges,
    partition_blocks,
    split_reachable,
)
from .tensor import FiberMatrix

DEFAULT_TOL = 1e-10
# jacobi_cg stops each column after this many iterations per unknown
# (the product with the unknown count, rounded down).
CG_ITERS_PER_UNKNOWN = 10
# The steady-state solve methods (see solve_steady_state).
SOLVE_METHODS = ("cg", "splu")


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


def check_observed(g: SparseGraph, omega: ObservationSet, f_obs) -> np.ndarray:
    """Observed values as a float64 ``(n_observed, channels)`` array.

    Raises ``ValueError`` unless the graph and the observation set share
    their node count and ``f_obs`` has one row per observed id,
    :class:`AllMissing` when no node is observed (the fill rule needs an
    observed mean), and :class:`NonFiniteInput` for NaN or infinite values.
    """
    if g.n != omega.n:
        raise ValueError(f"graph has {g.n} nodes, observation set {omega.n}")
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
    rounds as a lone vector does."""
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
    column's recurrence takes the same floating-point steps as that call.

    Returns the solution, the largest iteration count over the columns,
    and whether every column converged (otherwise the last iterate of each
    live column is kept and the count is the cap).
    """
    cap = int(CG_ITERS_PER_UNKNOWN * rhs.shape[0])
    inv_diag = 1.0 / matrix.diagonal()
    solution = np.zeros_like(rhs)
    # One row per column, so the vector updates run over contiguous rows.
    r = np.ascontiguousarray(rhs.T)
    tol = DEFAULT_TOL * np.sqrt(_row_dots(r, r))
    live = np.flatnonzero(tol > 0)
    tol, r = tol[live], r[live]
    x = np.zeros_like(r)
    p = np.zeros_like(r)
    rho_prev = np.ones(live.size)  # p is 0, so the first step sets p = z
    iterations = 0
    for step in range(cap):
        done = np.sqrt(_row_dots(r, r)) < tol
        if done.any():
            solution[:, live[done]] = x[done].T
            iterations = step
            keep = ~done
            live, tol, rho_prev, r, x, p = (a[keep] for a in (live, tol, rho_prev, r, x, p))
        if not live.size:
            return solution, iterations, True
        z = r * inv_diag
        rho = _row_dots(r, z)
        p *= (rho / rho_prev)[:, None]
        p += z
        q = np.ascontiguousarray((matrix @ p.T).T)
        alpha = (rho / _row_dots(p, q))[:, None]
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    solution[:, live] = x.T
    return solution, cap, not live.size


def fill_rows(omega: ObservationSet, f_obs: np.ndarray, solved: np.ndarray,
              solution: np.ndarray, excluded: np.ndarray) -> FiberMatrix:
    """The completed fiber matrix: observed rows bit for bit, ``solution``
    at the ``solved`` missing ids, and the per-channel mean of the observed
    rows at the ``excluded`` missing ids."""
    values = np.empty((omega.n, f_obs.shape[1]), dtype=np.float64)
    values[omega.observed] = f_obs
    values[solved] = solution
    values[excluded] = f_obs.mean(axis=0)
    return FiberMatrix(values)


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
    """
    f_obs = check_observed(g, omega, f_obs)
    _check_method(method)

    kept, excluded = split_reachable(g, omega)
    stranded = excluded[g.degrees[excluded] > 0]
    if stranded.size:
        warnings.warn(
            f"{stranded.size} missing node(s) lie in components with no observed "
            "node; they are excluded and mean-filled",
            UnreachableComponent,
        )
    if kept.size == 0:
        completed = fill_rows(omega, f_obs, kept, np.empty((0, f_obs.shape[1])), excluded)
        return CompletionResult(completed, kept, excluded,
                                SolverStats(method, 0, 0.0, True), g)

    # L_kk = D_kk - A_kk and b = A_ko F_o over the kept missing ids
    blocks = partition_blocks(g, omega.observed, kept)
    l_kk = (sp.diags_array(blocks.d_cc, format="csr") - blocks.a_cc).tocsr()
    b = blocks.a_co @ f_obs

    if method == "cg":
        solution, iterations, converged = jacobi_cg(l_kk, b)
        if not converged:
            warnings.warn(
                f"conjugate gradient hit the {iterations}-iteration cap",
                MaxItersExceeded,
            )
    else:
        lu = spla.splu(l_kk.tocsc())
        solution = lu.solve(b)
        iterations, converged = 0, True

    residual = float(np.linalg.norm(l_kk @ solution - b))
    completed = fill_rows(omega, f_obs, kept, solution, excluded)
    stats = SolverStats(method, iterations, residual, converged)
    return CompletionResult(completed, kept, excluded, stats, g)


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

    Nodes observed in no acquisition trigger a
    :class:`CoverageViolationWarning` and end up excluded with the mean
    fill policy; so do missing nodes cut off from every node observed in
    their acquisition, with an :class:`UnreachableComponent` warning from
    that acquisition's solve. An unknown ``method`` raises ``ValueError``
    before any graph work.
    """
    _check_method(method)
    acquisitions = [(np.asarray(f, dtype=np.float64), om) for f, om in acquisitions]
    if not acquisitions:
        raise ValueError("need at least one acquisition")
    n = acquisitions[0][1].n
    channels = acquisitions[0][0].shape[1]
    for f, om in acquisitions:
        if om.n != n:
            raise ValueError("acquisitions must share the node count")
        if f.ndim != 2 or f.shape != (om.observed.size, channels):
            raise ValueError(
                f"observed values must be ({om.observed.size}, {channels}), got {f.shape}"
            )
        if not np.all(np.isfinite(f)):
            raise NonFiniteInput("observed fiber values must be finite")

    covered = np.zeros(n, dtype=bool)
    for _, om in acquisitions:
        covered[om.observed] = True
    if not covered.all():
        warnings.warn(
            f"{int((~covered).sum())} node(s) observed in no acquisition; "
            "they will be excluded and mean-filled",
            CoverageViolationWarning,
        )

    edge_sets = []
    for f, om in acquisitions:
        features = np.zeros((n, channels), dtype=np.float64)
        features[om.observed] = f
        edge_sets.append(knn_edges(FiberMatrix(features), om, k))
    graph = build_graph(*edge_sets)

    return [
        solve_steady_state(graph, om, f, method=method)
        for f, om in acquisitions
    ]


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
