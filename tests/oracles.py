"""Dense and set-valued oracles used by the tests only.

``bound_matrices`` materialises the block shorthands of the bound
machinery (see the ``graphprop.bounds`` module docstring) as dense arrays;
the library computes its bound scalars from sparse blocks instead.
``scipy_jacobi_cg`` is the column-by-column reference for
``graphprop.propagation.jacobi_cg``, and ``canonical_adjacency`` the
dedup-first reference for ``graphprop.build_graph``. ``coo_graph`` and the
``setdiff_*`` functions keep the constructions the library used before
its key sort and mask complements, and ``matricized_mask_ids`` the one
before ``graphprop.node_ids``, as references for those.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from graphprop import (
    BoundReport,
    DenseTensor,
    EdgeSet,
    ObservationSet,
    SparseGraph,
    matricize,
    partition_blocks,
)
from graphprop import propagation


def edge_pairs(e: EdgeSet) -> set[tuple[int, int]]:
    """The distinct edges of ``e`` as a set of (u, v) pairs with u < v."""
    return {(int(min(u, v)), int(max(u, v))) for u, v in e.edges}


def edge_degrees(e: EdgeSet) -> np.ndarray:
    """Per-node counts of the distinct edges of ``e``."""
    pairs = np.array(sorted(edge_pairs(e)), dtype=np.int64).reshape(-1, 2)
    return np.bincount(pairs.ravel(), minlength=e.n).astype(np.int64)


def canonical_adjacency(*edge_sets: EdgeSet) -> sp.csr_array:
    """The union adjacency assembled dedup first: every row made (u, v) with
    u < v, the rows sorted and made unique by ``np.unique``, then both
    orientations of each unique edge put into a ``csr_array`` with value 1
    and int32 indices."""
    n = edge_sets[0].n
    arr = np.concatenate([e.edges for e in edge_sets])
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    # hi < n, so sorting lo * n + hi sorts (lo, hi) lexicographically
    lo, hi = np.divmod(np.unique(lo * n + hi), n)
    rows = np.concatenate([lo, hi]).astype(np.int32)
    cols = np.concatenate([hi, lo]).astype(np.int32)
    return sp.csr_array((np.ones(rows.size), (rows, cols)), shape=(n, n))


def coo_graph(*edge_sets: EdgeSet) -> tuple[sp.csr_array, np.ndarray]:
    """The union adjacency and degrees as scipy assembles them: both
    orientations of every row stacked as boolean COO entries with int32
    ids, summed into a CSR (a logical or), cast to float64, and the
    degrees as row sums."""
    n = edge_sets[0].n
    heads = [e.edges[:, 0] for e in edge_sets]
    tails = [e.edges[:, 1] for e in edge_sets]
    rows = np.concatenate(heads + tails, dtype=np.int32)
    cols = np.concatenate(tails + heads, dtype=np.int32)
    adjacency = sp.csr_array(
        (np.ones(rows.size, dtype=bool), (rows, cols)), shape=(n, n)
    ).astype(np.float64)
    return adjacency, np.asarray(adjacency.sum(axis=1)).ravel()


def matricized_mask_ids(mask) -> np.ndarray:
    """The node ids of a 2-D mask's True entries, read off the mask
    wrapped as a one-band tensor and matricized."""
    return np.flatnonzero(matricize(DenseTensor.from_array(mask[..., None]), 3).values)


def setdiff_complement(n: int, ids) -> np.ndarray:
    """The ids of ``range(n)`` not in ``ids``, by ``np.setdiff1d``."""
    return np.setdiff1d(np.arange(n, dtype=np.int64), ids)


def setdiff_observation_sets(n: int, missing_frac: float, lambda_count: int,
                             seed: int) -> list[ObservationSet]:
    """``graphprop.sample_observation_sets`` with each observed set the
    ``np.setdiff1d`` of its sorted missing ids."""
    n_missing = math.floor(missing_frac * n)
    perm = np.random.default_rng(seed).permutation(n)
    return [ObservationSet(n, setdiff_complement(
        n, np.sort(perm[lam * n_missing:(lam + 1) * n_missing])))
        for lam in range(lambda_count)]


def setdiff_error_rows(truth, estimates, omegas, never_observed=()) -> np.ndarray:
    """``ErrorField.from_completions``' error array, each acquisition's
    rows the ``np.setdiff1d`` of its missing ids and the sorted
    never-observed ids."""
    drop = np.asarray(sorted(never_observed), dtype=np.int64)
    blocks = []
    for t, e, om in zip(truth, estimates, omegas):
        rows = np.setdiff1d(om.missing, drop)
        blocks.append(t[rows] - e[rows])
    return np.concatenate(blocks, axis=0)


def gtvm_objective(g: SparseGraph, values: np.ndarray) -> float:
    """Objective ``||F - A' F||_F^2`` of the inpainting quadratic."""
    return float(np.linalg.norm(values - (g.adjacency @ values) / g.lam_max) ** 2)


def scipy_jacobi_cg(matrix: sp.csr_array, rhs: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """``jacobi_cg`` as one ``scipy.sparse.linalg.cg`` call per column, with
    the library's tolerance and iteration cap: the solution, the largest
    iteration count over the columns, and whether every column converged."""
    solution = np.empty_like(rhs)
    precond = sp.diags_array(1.0 / matrix.diagonal(), format="csr")
    cap = int(propagation.CG_ITERS_PER_UNKNOWN * rhs.shape[0])
    iterations = 0
    converged = True
    for j in range(rhs.shape[1]):
        count = 0

        def _cb(_xk):
            nonlocal count
            count += 1

        solution[:, j], info = spla.cg(
            matrix, rhs[:, j], rtol=propagation.DEFAULT_TOL, atol=0.0, maxiter=cap,
            M=precond, callback=_cb,
        )
        iterations = max(iterations, count)
        converged = converged and info == 0
    return solution, iterations, converged


def report_to_json(report: BoundReport) -> str:
    return json.dumps(asdict(report), sort_keys=True)


def report_from_dict(data: dict) -> BoundReport:
    return BoundReport(**data)


@dataclass(frozen=True, eq=False)
class BoundMatrices:
    """Dense block shorthands in the (observed, missing) node ordering."""

    p: np.ndarray
    q: np.ndarray
    u: np.ndarray
    v: np.ndarray
    y: np.ndarray


def bound_matrices(g: SparseGraph, omega: ObservationSet) -> BoundMatrices:
    """Materialise P, Q, U, V, Y as dense arrays; every node needs an edge,
    since D must be invertible."""
    zero_degree = np.count_nonzero(g.degrees == 0)
    if zero_degree:
        raise ValueError(f"{zero_degree} node(s) have degree zero")
    if omega.n != g.n:
        raise ValueError(f"observation set is over {omega.n} nodes, graph has {g.n}")
    perm = np.concatenate([omega.observed, omega.missing])
    a = g.adjacency[perm][:, perm].toarray()
    d = g.degrees[perm]
    scaled = a / d[:, None]
    eye = np.eye(g.n)
    selector = np.zeros((g.n, 1))
    selector[omega.observed.size :] = 1.0
    p = selector * (eye - scaled)
    q = selector * (eye + scaled)
    blocks = partition_blocks(g, omega.observed, omega.missing)
    n_mis = omega.missing.size
    a_cc = blocks.a_cc.toarray()
    a_co = blocks.a_co.toarray()
    d_cc = blocks.d_cc[:, None] if n_mis else np.empty((0, 1))
    u = np.eye(n_mis) + (a_cc / d_cc if n_mis else a_cc)
    v = np.eye(n_mis) - (a_cc / d_cc if n_mis else a_cc)
    y = a_co / d_cc if n_mis else a_co
    return BoundMatrices(p, q, u, v, y)
