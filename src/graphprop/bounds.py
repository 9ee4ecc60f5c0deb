"""Error-bound quantities for masked-diffusion completion.

With D, A the degree/adjacency matrices and c/o indexing missing/observed
nodes, the bound machinery works with the block shorthands

    P = [[0, 0], [0, I]] (I - D^-1 A)        (rows at observed nodes zeroed)
    Q = [[0, 0], [0, I]] (I + D^-1 A)
    U = I + D_cc^-1 A_cc
    V = I - D_cc^-1 A_cc
    Y = D_cc^-1 A_co

and the two scalars

    psi = ||P F0||_F      (diffusion-objective cost of the true signal)
    phi = ||U||_2         (spectral norm; in (0, 2) when every missing
                           node has an edge leaving the missing set)

The completion error over missing nodes satisfies
``||W_c||_F <= psi / (2 - phi)`` whenever ``phi < 2``. The analogous bound
for total-variation inpainting uses ``eta = ||F0 - A' F0||_F`` and
``q = || [A'_oc ; I + A'_cc] ||_2`` with A' the adjacency scaled by its
largest eigenvalue magnitude, giving ``2 |eta| / (2 - q)``.

Zero-degree nodes (observed in no acquisition, so on no kNN edge) make D
singular and are out of propagation's reach: every scalar and the measured
error run over the nodes of positive degree of the graph as given.

Every spectral norm here (phi, q and the graph's lambda_max, which scales
A') comes from :func:`spectral_norm`: an ARPACK Ritz value of the Gram
operator plus its residual norm, which certifies a value at or above the
true norm. psi and eta carry a rounding allowance and each quotient is
rounded up, so every bound errs on the safe (pessimistic) side; an
underestimated lambda_max would let ``||A'||_2`` exceed 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EmptyGraph, SpectralNormNotConverged
from .graph import ObservationSet, SparseGraph, partition_blocks

EPS = np.finfo(np.float64).eps
PHI_GUARD = 1e-9
SPECTRAL_TOL = 1e-9


def spectral_norm(matrix) -> float:
    """Largest singular value of the sparse ``matrix``, never below the
    true value.

    One ARPACK Lanczos run (``eigsh``, ``which="LA"``, relative tolerance
    ``SPECTRAL_TOL``) on the Gram operator ``G = M^T M``, started from a
    vector seeded with 0 so results are reproducible, gives a Ritz pair
    (theta, x). The returned value is ``sqrt(theta + r)`` with
    ``r = ||G x - theta x||`` for unit ``x``, plus the rounding allowance
    below, rounded up with ``np.nextafter``.

    Why this is an upper bound: for symmetric G, any unit x and any
    scalar theta, some eigenvalue of G lies within ``||G x - theta x||`` of
    theta (the residual bound; Parlett, *The Symmetric Eigenvalue
    Problem*, Thm 4.5.1). Here theta is the Rayleigh quotient ``x^T G x``,
    so it never exceeds the top eigenvalue ``sigma_max^2``, and adding the
    residual moves it past the eigenvalue that the Ritz pair approximates.
    This assumes that Lanczos from the seeded start found the top pair, not
    a lower one; that fails only if the start is (numerically) orthogonal
    to the top eigenvector. ARPACK stops at ``r`` of about
    ``SPECTRAL_TOL * theta``, so the result exceeds ``sigma_max`` by about
    half that, relative.

    The rounding allowance covers the floating-point error of the computed
    ``G x``: a product whose rows hold at most ``a`` terms is accurate to
    ``a * eps`` times ``|M| |x|`` elementwise, ``|| |M^T| |M| |x| ||`` is
    at most ``||M||_F^2``, and two more ``eps * ||M||_F^2`` cover forming
    ``theta x`` and the difference; the residual's norm gets a relative
    ``cols * eps``.

    A start vector that already meets the tolerance (G a multiple of I) is
    its own Ritz pair and ARPACK is not called: ARPACK would restart from
    its internal random vector, whose state persists across calls, so the
    result would depend on earlier calls. A single column (ARPACK needs
    two) has the norm ``sqrt(||M||_F^2)``, with the sum of squares' own
    rounding allowance and the root rounded up. Raises
    :class:`SpectralNormNotConverged` when ARPACK does not converge.

    The result is reproducible at one BLAS thread count. ``m.data @
    m.data``, the Rayleigh quotient's dot and norms, and ARPACK's own
    vector operations are BLAS calls, which OpenBLAS splits over its
    threads above about 10,000 entries; from there on the last digits
    follow the thread count. The bound argument above holds in any
    summation order, so the result is an upper bound at any count.
    """
    rows, cols = matrix.shape
    if cols == 0 or rows == 0:
        return 0.0
    m = matrix.tocsr()
    mt = m.T.tocsr()
    per_row = np.diff(m.indptr).max() + np.diff(mt.indptr).max()
    fro2 = float(m.data @ m.data)
    if fro2 == 0.0:
        return 0.0
    if cols == 1:
        # The norm is the root of fro2, whose nnz rounded squares and
        # nnz - 1 additions, in any order, err by at most nnz * eps / 2
        # relative; (nnz + 2) eps also covers the product's own rounding,
        # and the root's rounding goes up with nextafter.
        top = np.nextafter(fro2 * (1.0 + (m.data.size + 2) * EPS), np.inf)
        return float(np.nextafter(np.sqrt(top), np.inf))

    def rayleigh(vec):
        x = vec / np.linalg.norm(vec)
        gx = mt @ (m @ x)
        theta = float(x @ gx)
        return theta, float(np.linalg.norm(gx - theta * x)) * (1.0 + cols * EPS)

    v0 = np.random.default_rng(0).standard_normal(cols)
    theta, resid = rayleigh(v0)
    if resid > SPECTRAL_TOL * theta:
        gram = spla.LinearOperator((cols, cols), matvec=lambda v: mt @ (m @ v),
                                   dtype=np.float64)
        try:
            _, vecs = spla.eigsh(gram, k=1, which="LA", tol=SPECTRAL_TOL, v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise SpectralNormNotConverged(
                f"ARPACK found no converged top eigenpair of a {cols}x{cols} Gram operator"
            ) from exc
        theta, resid = rayleigh(vecs[:, 0])
    allowance = (per_row + 2) * EPS * fro2
    top = np.nextafter(max(theta, 0.0) + resid + allowance, np.inf)
    return float(np.nextafter(np.sqrt(top), np.inf))


def frobenius_norm(values: np.ndarray) -> float:
    """``||values||_F`` as the root of numpy's pairwise sum of the squares.

    ``np.linalg.norm`` sums the squares in a BLAS ``dot``, which OpenBLAS
    splits over its threads on large inputs, so its last digits follow the
    BLAS thread count (on a 1,383 x 20 array, 165.61585648472538 on one
    thread and 165.6158564847254 on two). The pairwise sum takes the same
    steps at any thread count. Any order of summing m nonnegative squares
    errs by at most ``(m - 1) eps`` relative, the pairwise one by about
    ``log2(m) eps``.
    """
    return float(np.sqrt(np.sum(values * values)))


def _positive_degree_ids(g: SparseGraph, omega: ObservationSet) -> tuple[np.ndarray, np.ndarray]:
    """The observed and the missing ids of ``omega`` with positive degree."""
    if omega.n != g.n:
        raise ValueError(f"observation set is over {omega.n} nodes, graph has {g.n}")
    return (omega.observed[g.degrees[omega.observed] > 0],
            omega.missing[g.degrees[omega.missing] > 0])


def _residual_norm(g: SparseGraph, ids: np.ndarray, f, divisor) -> float:
    """``||F_i - A_i F / divisor||_F`` over the rows ``i`` in ``ids`` (divisor a
    column of row scales or a scalar), never below its exact value.

    Allowance, to first order in eps: an entry of ``A_i F`` sums at most
    ``a`` products (``a`` the largest row count of ``A_i``), so it is within
    ``a * eps * |A_i| |F|`` of exact (Higham, *Accuracy and Stability of
    Numerical Algorithms*, section 3.1), and the division and subtraction
    add ``eps`` relative each: each residual entry is within
    ``(a + 2) * eps * S``, ``S = |F_i| + |A_i| |F| / divisor``. The norm of
    the ``m`` entries (squares summed in any order, each square passing
    through at most ``m - 1`` additions, then a root; see
    :func:`frobenius_norm`) errs by at most ``(m / 2 + 1) * eps`` relative;
    the factor ``1 + (m + 2) * eps`` covers it and the second-order terms,
    and ``np.nextafter`` rounds up.
    """
    values = f.values if hasattr(f, "values") else np.asarray(f, dtype=np.float64)
    if values.shape[0] != g.n:
        raise ValueError(f"signal has {values.shape[0]} rows, graph has {g.n} nodes")
    if ids.size == 0:
        return 0.0
    rows = g.adjacency[ids]
    own = values[ids]
    residual = own - (rows @ values) / divisor
    spread = np.abs(own) + (abs(rows) @ np.abs(values)) / divisor
    terms = int(np.diff(rows.indptr).max())
    top = frobenius_norm(residual) + (terms + 2) * EPS * frobenius_norm(spread)
    return float(np.nextafter(top * (1.0 + (residual.size + 2) * EPS), np.inf))


def compute_psi(g: SparseGraph, omega: ObservationSet, f0) -> float:
    """Frobenius cost of the reference signal under the masked diffusion
    objective: ``psi = ||P F0||_F``, never below its exact value."""
    _, mis = _positive_degree_ids(g, omega)
    return _residual_norm(g, mis, f0, g.degrees[mis][:, None])


def compute_phi(g: SparseGraph, omega: ObservationSet) -> float:
    """Spectral norm of ``U = I + D_cc^-1 A_cc``."""
    blocks = partition_blocks(g, *_positive_degree_ids(g, omega))
    n_mis = blocks.d_cc.size
    if n_mis == 0:
        return 0.0
    scaled = sp.diags_array(1.0 / blocks.d_cc, format="csr") @ blocks.a_cc
    u = (sp.eye_array(n_mis, format="csr") + scaled).tocsr()
    return spectral_norm(u)


def graphprop_bound(psi: float, phi: float) -> float | None:
    """``psi / (2 - phi)`` when ``phi < 2`` (within a small guard),
    otherwise None: the bound is inapplicable.

    The quotient is rounded up with ``np.nextafter`` (zero psi gives 0):
    ``2 - phi`` is exact (Sterbenz lemma) for phi 0 or in [1, 2], which
    holds for every phi and q here, as U and the GTVM stack have a unit
    entry in each missing node's column.
    """
    if phi >= 2.0 - PHI_GUARD:
        return None
    return float(np.nextafter(abs(psi) / (2.0 - phi), np.inf)) if psi else 0.0


@dataclass(frozen=True)
class GtvmBound:
    eta: float
    q: float
    bound: float | None


def gtvm_bound(g: SparseGraph, omega: ObservationSet, f0) -> GtvmBound:
    """Bound quantities for total-variation inpainting on the same graph
    (see module docstring); eta, like psi, errs high."""
    if g.adjacency.nnz == 0:
        raise EmptyGraph("adjacency has no edges; largest eigenvalue is zero")
    observed, missing = _positive_degree_ids(g, omega)
    lam_max = g.lam_max
    eta = _residual_norm(g, np.flatnonzero(g.degrees > 0), f0, lam_max)
    q = 0.0
    if missing.size:
        blocks = partition_blocks(g, observed, missing)
        a_oc = blocks.a_co.T.tocsr() / lam_max
        a_cc = blocks.a_cc / lam_max
        stacked = sp.vstack([a_oc, sp.eye_array(missing.size, format="csr") + a_cc]).tocsr()
        q = spectral_norm(stacked)
    return GtvmBound(eta, q, graphprop_bound(2.0 * eta, q))


@dataclass(frozen=True)
class BoundReport:
    """All bound quantities plus the measured error for one completion."""

    psi: float
    phi: float
    bound: float | None
    measured_error: float
    gtvm_eta: float
    gtvm_q: float
    gtvm_bound: float | None
    applicable: bool


def evaluate_bounds(g: SparseGraph, omega: ObservationSet, f0, fhat) -> BoundReport:
    """Compute a :class:`BoundReport` for one completion instance.

    ``f0`` is the true full fiber matrix, ``fhat`` the completed one.
    """
    f0_values = f0.values if hasattr(f0, "values") else np.asarray(f0, dtype=np.float64)
    fhat_values = fhat.values if hasattr(fhat, "values") else np.asarray(fhat, dtype=np.float64)
    if f0_values.shape != fhat_values.shape:
        raise ValueError("true and estimated signals must share a shape")
    _, missing = _positive_degree_ids(g, omega)
    psi = compute_psi(g, omega, f0_values)
    phi = compute_phi(g, omega)
    bound = graphprop_bound(psi, phi)
    measured = frobenius_norm(f0_values[missing] - fhat_values[missing])
    gtvm = gtvm_bound(g, omega, f0_values)
    return BoundReport(
        psi=psi,
        phi=phi,
        bound=bound,
        measured_error=measured,
        gtvm_eta=gtvm.eta,
        gtvm_q=gtvm.q,
        gtvm_bound=gtvm.bound,
        applicable=bound is not None,
    )
