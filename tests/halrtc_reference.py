"""SVD references for the HaLRTC baseline, used by the tests only.

``halrtc_svd_reference`` is the ADMM loop of ``halrtc_complete`` written
with a full SVD of every mode unfolding and a ``matricize``/``refold``
round trip per mode; the library computes the same shrinkage from the
small Gram of each unfolding instead.
"""
from __future__ import annotations

import numpy as np

from graphprop import DenseTensor, FiberMatrix, baselines, matricize, refold
from graphprop.baselines import HALRTC_RHO, HALRTC_RHO_CAP, HALRTC_RHO_GROWTH, HALRTC_TOL


def nuclear_objective(t: DenseTensor, alphas) -> float:
    """Weighted sum of mode-unfolding nuclear norms."""
    total = 0.0
    for mode, alpha in enumerate(alphas, start=1):
        if alpha == 0.0:
            continue
        sv = np.linalg.svd(matricize(t, mode).values, compute_uv=False)
        total += alpha * float(sv.sum())
    return total


def svd_shrink(matrix: np.ndarray, threshold: float) -> np.ndarray:
    """Singular-value shrinkage ``U diag(max(s - threshold, 0)) V^T``."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    s = np.maximum(s - threshold, 0.0)
    keep = s > 0
    return (u[:, keep] * s[keep]) @ vt[keep]


def halrtc_svd_reference(t: DenseTensor, mask: np.ndarray,
                         iterates: list | None = None) -> tuple[DenseTensor, int]:
    """The HaLRTC ADMM loop with SVD shrinkage; returns the completion and
    the number of iterations run. Same weights, schedule and stopping rule
    as the library, including its current ``baselines.HALRTC_MAX_ITERS``.
    When ``iterates`` is a list, every iterate's values are appended to
    it."""
    mask = np.asarray(mask, dtype=bool)
    observed = t.values[mask]
    x = np.zeros_like(t.values)
    x[mask] = observed
    duals = [np.zeros_like(x) for _ in range(t.order)]
    rho = HALRTC_RHO
    iters = 0
    for iters in range(1, baselines.HALRTC_MAX_ITERS + 1):
        surrogates = []
        for mode in range(t.order):
            work = DenseTensor(t.shape, x + duals[mode] / rho)
            shrunk = svd_shrink(matricize(work, mode + 1).values, (1.0 / t.order) / rho)
            surrogates.append(refold(FiberMatrix(shrunk), t.shape, mode + 1).values)
        x_new = sum(m - y / rho for m, y in zip(surrogates, duals)) / t.order
        x_new[mask] = observed
        for mode in range(t.order):
            duals[mode] -= rho * (surrogates[mode] - x_new)
        change = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-300)
        gap = max(np.linalg.norm(m - x_new) for m in surrogates)
        x = x_new
        if iterates is not None:
            iterates.append(x.copy())
        if change <= HALRTC_TOL and gap <= HALRTC_TOL * max(1.0, np.linalg.norm(x)):
            break
        rho = min(rho * HALRTC_RHO_GROWTH, HALRTC_RHO_CAP)
    return DenseTensor(t.shape, x), iters
