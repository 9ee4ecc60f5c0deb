"""Comparison methods: total-variation graph inpainting (its normal
equations over the reachable missing nodes, solved by conjugate gradient
in :func:`~graphprop.propagation.solve_reachable`, the steady-state
solve's one solve, input check and fill rule) and low-rank tensor
completion via mode-wise singular-value thresholding (HaLRTC, an ADMM
with uniform mode weights ``1 / order`` and the fixed ``HALRTC_*``
schedule). Each thresholding step takes ``eigh`` of the small Gram of a
mode unfolding M instead of a full SVD, shrinks M through its eigenvectors
and refolds it; it agrees with the SVD thresholding of M at threshold
tau to about ``I_m eps ||M||_2^2 / tau`` in Frobenius norm, with I_m the
mode's extent (for tau up to ``||M||_2 / 100``; see ``_shrink_mode``).

An ADMM iteration's mode shrinks are independent and run on lanes
(:mod:`graphprop.lanes`), one per CPU that :func:`~graphprop.lanes.lane_cpus`
grants, up to the tensor's order, each in its mode's fiber layout
(:func:`~graphprop.tensor.fiber_axes`). The refolds, the consensus iterate,
the dual updates and the stopping test stay on the calling thread, in mode
order, so HaLRTC's output is byte-identical at any lane count."""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

from .errors import AllMissing, EmptyGraph, SingularSystemWarning
from .graph import ObservationSet, SparseGraph
from .lanes import lane_cpus, run_lanes
from .propagation import solve_reachable
from .tensor import DenseTensor, FiberMatrix, fiber_axes, refold

# HaLRTC's ADMM penalty: starts at HALRTC_RHO, grows by HALRTC_RHO_GROWTH
# per iteration up to HALRTC_RHO_CAP; HALRTC_TOL is the stopping tolerance
# and HALRTC_MAX_ITERS caps the iterations.
HALRTC_RHO = 1e-3
HALRTC_RHO_GROWTH = 1.05
HALRTC_RHO_CAP = 1e3
HALRTC_TOL = 1e-5
HALRTC_MAX_ITERS = 300

# Entries per chunk of HaLRTC's consensus step (64 KB of float64).
_HALRTC_CHUNK = 8192


def gtvm_inpaint(
    g: SparseGraph,
    omega: ObservationSet,
    t_obs: np.ndarray,
) -> FiberMatrix:
    """Graph total-variation inpainting.

    Minimises ``||F - A' F||_F^2`` subject to ``F_o = t_obs``, where A' is
    the adjacency scaled by ``g.lam_max``. The normal equations of the
    quadratic over the missing nodes that share a component with an
    observed node are solved by :func:`~graphprop.propagation.solve_reachable`
    with conjugate gradient, as the steady-state solve is; the other
    missing nodes get the per-channel mean of the observed rows. Both of
    that solve's warnings are :class:`SingularSystemWarning` here: missing
    nodes in a component with edges but no observed node (the system is
    singular there), and the iteration cap (the last iterate is kept).
    """
    if g.adjacency.nnz == 0:
        raise EmptyGraph("adjacency has no edges")

    def normal_equations(kept, blocks, t_obs):
        lam_max = g.lam_max
        b_kk = sp.eye_array(kept.size, format="csr") - blocks.a_cc / lam_max
        gram = (b_kk @ b_kk + (blocks.a_co @ blocks.a_co.T) / lam_max**2).tocsr()
        # B is symmetric, so B_k^T B_o F_o = (B B x)_k with x the observed
        # values padded with zeros (no edge joins k to the other missing nodes).
        x = np.zeros((g.n, t_obs.shape[1]), dtype=np.float64)
        x[omega.observed] = t_obs
        b_x = x - (g.adjacency @ x) / lam_max
        return gram, ((g.adjacency @ b_x) / lam_max - b_x)[kept]

    return solve_reachable(g, omega, t_obs, normal_equations, "cg",
                           SingularSystemWarning, SingularSystemWarning).completed


def _shrink_mode(fibers: np.ndarray, threshold: float) -> np.ndarray:
    """Singular-value shrinkage by ``threshold`` of the fiber matrix
    ``fibers`` (one mode's fibers as rows, in the layout that
    :func:`~graphprop.tensor.fiber_axes` states), returned as fiber rows of
    the same shape.

    With M the fiber matrix, whose columns are indexed by the mode, and
    ``M = U diag(s) V^T``, the shrinkage ``U diag(max(s - t, 0)) V^T`` equals
    ``M P`` with ``P = V_k diag((s_k - t) / s_k) V_k^T`` over the singular
    values ``s_k > t``. V and ``s = sqrt(max(w, 0))`` come from ``eigh`` of
    the ``I_m x I_m`` Gram ``M^T M``, whose rounding error is of order
    ``I_m eps ||M||_2^2``. Above the threshold ``s - t = sqrt(w) - t`` has
    slope ``1 / (2 sqrt(w)) < 1 / (2 t)`` in w, so the result is within
    about ``I_m eps ||M||_2^2 / t`` of the SVD shrinkage in Frobenius norm.
    That bound is checked for ``t <= ||M||_2 / 100``; nearer the top of the
    spectrum the rounding of the eigenvectors themselves, a few tens of
    ``eps ||M||_2``, can exceed it.
    """
    w, v = np.linalg.eigh(fibers.T @ fibers)
    s = np.sqrt(np.maximum(w, 0.0))
    keep = s > threshold
    if not keep.any():
        return np.zeros_like(fibers)
    v = v[:, keep]
    return fibers @ ((v * ((s[keep] - threshold) / s[keep])) @ v.T)


def halrtc_complete(t: DenseTensor, mask: np.ndarray) -> DenseTensor:
    """Low-rank tensor completion by ADMM over mode-unfolding nuclear norms.

    ``mask`` is boolean with True at observed entries; those entries are
    returned exactly. Stops once both the relative change of the iterate
    and the consensus gap between the mode surrogates and the iterate drop
    to ``HALRTC_TOL`` (the gap term keeps the cold-start phase, where the
    shrinkage still annihilates every surrogate, from stopping the loop),
    or after ``HALRTC_MAX_ITERS`` iterations.

    Each iteration thresholds the singular values of every mode unfolding
    M of the working tensor at ``tau = (1 / order) / rho``, from ``eigh`` of
    the ``I_m x I_m`` Gram of M rather than an SVD of M; the surrogate is within
    about ``I_m eps ||M||_2^2 / tau`` in Frobenius norm of the SVD
    thresholding (for tau up to ``||M||_2 / 100``). Raises ``ValueError`` if
    a working tensor or a surrogate is not finite.

    The modes are independent within an iteration and run on lanes
    (:func:`~graphprop.lanes.run_lanes`), one per CPU that
    :func:`~graphprop.lanes.lane_cpus` grants but no more than the order.
    For its mode, a lane forms the working tensor ``x + Y_m / rho``
    straight in the mode's fiber layout, in a buffer the calling thread
    allocated, checks it, shrinks it and puts the shrunk fibers back in
    that buffer. The calling thread then refolds the surrogates, forms the
    consensus iterate, updates the duals and tests for convergence, in mode
    order. Every mode takes the same floating-point steps at any lane
    count, so the result is byte-identical across lane counts, and a
    failure raises the error of the lowest failing mode, as one lane would.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != t.shape:
        raise ValueError(f"mask shape {mask.shape} does not match tensor {t.shape}")
    if not mask.any():
        raise AllMissing("at least one entry must be observed")
    if mask.all():
        return DenseTensor(t.shape, t.values.copy())

    x = np.zeros_like(t.values)
    np.putmask(x, mask, t.values)
    duals = [np.zeros_like(x) for _ in range(t.order)]
    alpha = 1.0 / t.order
    rho = HALRTC_RHO
    lanes = min(lane_cpus(), t.order)
    # Each mode's buffer, allocated in the calling thread (see
    # graphprop.lanes), then its shrunk fibers.
    shrunk = [None] * t.order
    chunk = np.empty(_HALRTC_CHUNK)

    def shrink(mode, _lane):
        # x + Y_m / rho, written in the buffer's memory order, which is the
        # layout of the mode's fiber matrix: _shrink_mode reads its rows in
        # place. The shrunk fibers then take their place, so no lane holds
        # a result of its own past its piece.
        axes = fiber_axes(t.order, mode + 1)
        work = shrunk[mode].reshape([t.shape[axis] for axis in axes])
        np.divide(duals[mode].transpose(axes), rho, out=work, order="C")
        np.add(x.transpose(axes), work, out=work, order="C")
        rows = shrunk[mode].reshape(-1, t.shape[mode])
        if not np.isfinite(rows).all():
            raise ValueError(f"HaLRTC mode-{mode + 1} working tensor is not finite")
        np.copyto(rows, _shrink_mode(rows, alpha / rho))
        # FiberMatrix rejects a non-finite surrogate with ValueError.
        shrunk[mode] = FiberMatrix(rows)

    def surrogate(mode):
        fibers, shrunk[mode] = shrunk[mode], None
        return refold(fibers, t.shape, mode + 1).values

    with ThreadPoolExecutor(max(lanes - 1, 1)) as pool:
        for _ in range(HALRTC_MAX_ITERS):
            shrunk[:] = (np.empty(x.size) for _ in range(t.order))
            run_lanes(pool, lanes, t.order, shrink)
            surrogates = [surrogate(mode) for mode in range(t.order)]
            # x_new = (sum of m - y / rho over the modes) / order, one chunk
            # of entries at a time so that no term needs a full-size
            # temporary; the first term is added to 0.0, so a -0.0 entry of
            # it becomes +0.0.
            x_new = np.empty_like(x)
            for lo in range(0, x.size, chunk.size):
                part = x_new.reshape(-1)[lo:lo + chunk.size]
                term = chunk[:part.size]
                for mode, (m, y) in enumerate(zip(surrogates, duals)):
                    np.divide(y.reshape(-1)[lo:lo + term.size], rho, out=term)
                    np.subtract(m.reshape(-1)[lo:lo + term.size], term, out=term)
                    np.add(part if mode else 0.0, term, out=part)
            x_new /= t.order
            np.putmask(x_new, mask, t.values)
            # x is spent once its norm is taken: x_new - x goes in its place.
            x_norm = np.linalg.norm(x)
            change = np.linalg.norm(np.subtract(x_new, x, out=x)) / max(x_norm, 1e-300)
            # Each surrogate becomes its gap m - x_new, then the dual step.
            gap = 0.0
            for m, y in zip(surrogates, duals):
                np.subtract(m, x_new, out=m)
                gap = max(gap, np.linalg.norm(m))
                m *= rho
                y -= m
            # The surrogates are spent; free them before the lanes run.
            del surrogates, m
            x = x_new
            if change <= HALRTC_TOL and gap <= HALRTC_TOL * max(1.0, np.linalg.norm(x)):
                break
            rho = min(rho * HALRTC_RHO_GROWTH, HALRTC_RHO_CAP)
    return DenseTensor(t.shape, x)
