"""Comparison methods: total-variation graph inpainting and low-rank
tensor completion via mode-wise singular-value thresholding (ADMM)."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bounds import spectral_norm
from .errors import AllMissing, EmptyGraph, SingularSystemWarning
from .graph import ObservationSet, SparseGraph
from .tensor import DenseTensor, FiberMatrix, matricize, refold

GTVM_DENSE_CUTOFF = 300
GTVM_TOL = 1e-10
GTVM_RESIDUAL_TOL = 1e-8


def gtvm_inpaint(
    g: SparseGraph,
    omega: ObservationSet,
    t_obs: np.ndarray,
) -> FiberMatrix:
    """Graph total-variation inpainting.

    Minimises ``||F - A' F||_F^2`` subject to ``F_o = t_obs``, where A' is
    the adjacency scaled by its largest eigenvalue magnitude. Solved through
    the normal equations of the quadratic in the missing rows: dense
    least squares up to ``GTVM_DENSE_CUTOFF`` nodes, Jacobi-preconditioned
    conjugate gradient above (relative tolerance ``GTVM_TOL``, at most 10x
    the missing count iterations). A singular system is reported with
    :class:`SingularSystemWarning` and a least-norm solution is returned.
    """
    if g.adjacency.nnz == 0:
        raise EmptyGraph("adjacency has no edges")
    if omega.n != g.n:
        raise ValueError(f"observation set is over {omega.n} nodes, graph has {g.n}")
    t_obs = np.asarray(t_obs, dtype=np.float64)
    if t_obs.ndim != 2 or t_obs.shape[0] != omega.observed.size:
        raise ValueError(
            f"observed values must be ({omega.observed.size}, channels), got {t_obs.shape}"
        )
    if not np.all(np.isfinite(t_obs)):
        raise ValueError("observed values must be finite")

    obs = omega.observed
    mis = omega.missing
    channels = t_obs.shape[1]
    values = np.empty((g.n, channels), dtype=np.float64)
    values[obs] = t_obs
    if mis.size == 0:
        return FiberMatrix(values)

    lam_max = spectral_norm(g.adjacency)
    b_full = (sp.eye_array(g.n, format="csr") - g.adjacency / lam_max).tocsc()
    b_mis = b_full[:, mis].tocsr()
    b_obs = b_full[:, obs].tocsr()
    rhs_cols = -(b_obs @ t_obs)

    if g.n <= GTVM_DENSE_CUTOFF:
        solution, _, rank, _ = np.linalg.lstsq(b_mis.toarray(), rhs_cols, rcond=None)
        if rank < mis.size:
            warnings.warn(
                f"inpainting system is rank deficient ({rank} < {mis.size}); "
                "least-norm solution returned",
                SingularSystemWarning,
            )
    else:
        gram = (b_mis.T @ b_mis).tocsr()
        precond = sp.diags_array(1.0 / gram.diagonal(), format="csr")
        rhs = b_mis.T @ rhs_cols
        solution = np.empty_like(rhs)
        fell_back = False
        for j in range(channels):
            xj, info = spla.cg(
                gram, rhs[:, j], rtol=GTVM_TOL, atol=0.0, maxiter=10 * mis.size, M=precond
            )
            rhs_norm = np.linalg.norm(rhs[:, j])
            res = np.linalg.norm(gram @ xj - rhs[:, j])
            if info != 0 or res > GTVM_RESIDUAL_TOL * max(rhs_norm, 1e-300):
                fell_back = True
                xj = spla.lsqr(b_mis, rhs_cols[:, j], atol=1e-12, btol=1e-12)[0]
            solution[:, j] = xj
        if fell_back:
            warnings.warn(
                "inpainting normal equations did not converge; least-norm "
                "solution substituted",
                SingularSystemWarning,
            )
    values[mis] = solution
    values[obs] = t_obs
    return FiberMatrix(values)


def gtvm_objective(g: SparseGraph, values: np.ndarray) -> float:
    """Objective ``||F - A' F||_F^2`` of the inpainting quadratic."""
    lam_max = spectral_norm(g.adjacency)
    return float(np.linalg.norm(values - (g.adjacency @ values) / lam_max) ** 2)


@dataclass(frozen=True)
class HalrtcParams:
    """ADMM settings for low-rank completion; ``alphas`` weight the
    mode-unfolding nuclear norms and must sum to one."""

    alphas: tuple[float, ...]
    rho: float = 1e-3
    rho_growth: float = 1.05
    rho_cap: float = 1e3
    max_iters: int = 300
    tol: float = 1e-5

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        if not alphas or any(a < 0 for a in alphas):
            raise ValueError("alphas must be nonnegative")
        if abs(sum(alphas) - 1.0) > 1e-12:
            raise ValueError(f"alphas must sum to 1, got {sum(alphas)}")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.rho_growth < 1.0 or self.rho_cap < self.rho:
            raise ValueError("rho schedule must be non-decreasing")
        if self.max_iters < 1 or self.tol <= 0:
            raise ValueError("max_iters must be >= 1 and tol > 0")
        object.__setattr__(self, "alphas", alphas)

    @classmethod
    def uniform(cls, order: int, **overrides) -> "HalrtcParams":
        return cls(alphas=(1.0 / order,) * order, **overrides)


def _shrink_singular_values(matrix: np.ndarray, threshold: float) -> np.ndarray:
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    s = np.maximum(s - threshold, 0.0)
    keep = s > 0
    return (u[:, keep] * s[keep]) @ vt[keep]


def nuclear_objective(t: DenseTensor, alphas) -> float:
    """Weighted sum of mode-unfolding nuclear norms."""
    total = 0.0
    for mode, alpha in enumerate(alphas, start=1):
        if alpha == 0.0:
            continue
        sv = np.linalg.svd(matricize(t, mode).values, compute_uv=False)
        total += alpha * float(sv.sum())
    return total


def halrtc_complete(
    t: DenseTensor,
    mask: np.ndarray,
    params: HalrtcParams | None = None,
    *,
    history: list | None = None,
) -> DenseTensor:
    """Low-rank tensor completion by ADMM over mode-unfolding nuclear norms.

    ``mask`` is boolean with True at observed entries; those entries are
    returned exactly. Stops once both the relative change of the iterate
    and the consensus gap between the mode surrogates and the iterate drop
    to ``params.tol`` (the gap term keeps the cold-start phase, where the
    shrinkage still annihilates every surrogate, from stopping the loop),
    or at ``params.max_iters``. When ``history`` is a list, the weighted
    nuclear objective of each iterate is appended to it.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != t.shape:
        raise ValueError(f"mask shape {mask.shape} does not match tensor {t.shape}")
    if not mask.any():
        raise AllMissing("at least one entry must be observed")
    if params is None:
        params = HalrtcParams.uniform(t.order)
    if len(params.alphas) != t.order:
        raise ValueError(f"need {t.order} alphas, got {len(params.alphas)}")
    if mask.all():
        return DenseTensor(t.shape, t.values.copy())

    observed = t.values[mask]
    x = np.zeros_like(t.values)
    x[mask] = observed
    duals = [np.zeros_like(x) for _ in range(t.order)]
    rho = params.rho

    for _ in range(params.max_iters):
        surrogates = []
        for mode in range(t.order):
            alpha = params.alphas[mode]
            work = DenseTensor(t.shape, x + duals[mode] / rho)
            unfolded = matricize(work, mode + 1)
            shrunk = _shrink_singular_values(unfolded.values, alpha / rho)
            surrogates.append(refold(FiberMatrix(shrunk), t.shape, mode + 1).values)
        x_new = sum(m - y / rho for m, y in zip(surrogates, duals)) / t.order
        x_new[mask] = observed
        for mode in range(t.order):
            duals[mode] -= rho * (surrogates[mode] - x_new)
        change = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-300)
        gap = max(np.linalg.norm(m - x_new) for m in surrogates)
        x = x_new
        if history is not None:
            history.append(nuclear_objective(DenseTensor(t.shape, x), params.alphas))
        if change <= params.tol and gap <= params.tol * max(1.0, np.linalg.norm(x)):
            break
        rho = min(rho * params.rho_growth, params.rho_cap)
    return DenseTensor(t.shape, x)


def stack_acquisitions(tensors) -> DenseTensor:
    """Stack same-shape acquisitions along a new trailing mode."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("need at least one tensor")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ValueError(f"shape mismatch: {t.shape} != {shape}")
    stacked = np.stack([t.values for t in tensors], axis=-1)
    return DenseTensor(tuple(stacked.shape), stacked)


def unstack_acquisitions(t: DenseTensor) -> list[DenseTensor]:
    """Inverse of :func:`stack_acquisitions`."""
    return [
        DenseTensor(t.shape[:-1], np.ascontiguousarray(t.values[..., i]))
        for i in range(t.shape[-1])
    ]
