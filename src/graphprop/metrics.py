"""Reconstruction metrics over missing entries that were observed at
least once, plus classification accuracy.

All metrics take an :class:`ErrorField`: one stacked array of error rows
(truth minus estimate over each acquisition's missing fibers, never-observed
nodes dropped, the acquisitions' rows one block after another). The entry
count in the denominators is the array's size. Sums are numpy's pairwise
``np.sum``, not a BLAS ``dot``, whose last bits follow the BLAS thread
count above about 10,000 entries.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyEvaluationSet, NoMissingEntries, ZeroErrorBandWarning
from .graph import as_node_ids


@dataclass(frozen=True, eq=False)
class ErrorField:
    """Error rows over retained missing fibers, every acquisition's stacked
    into one finite ``(rows, channels)`` array; its size is the entry
    count."""

    errors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.errors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ValueError(f"errors must be (rows, channels) with channels >= 1, "
                             f"got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("error entries must be finite")
        object.__setattr__(self, "errors", arr)

    @classmethod
    def from_completions(cls, truth, estimates, omegas, never_observed=()) -> "ErrorField":
        """Build the error field from full (n, channels) truth/estimate
        arrays per acquisition, stacking the acquisitions' missing rows in
        input order; ``never_observed`` ids are excluded from every
        acquisition. Raises ``ValueError`` naming the acquisition (1-based)
        whose truth and estimate differ in shape, or when a
        ``never_observed`` id is not a node (an integer in range)."""
        truth = [t.values if hasattr(t, "values") else np.asarray(t, float) for t in truth]
        estimates = [e.values if hasattr(e, "values") else np.asarray(e, float) for e in estimates]
        if not (len(truth) == len(estimates) == len(omegas)):
            raise ValueError("need one truth, estimate, and observation set per acquisition")
        drop = as_node_ids(never_observed).ravel()
        blocks = []
        for i, (t, e, om) in enumerate(zip(truth, estimates, omegas), start=1):
            if t.shape != e.shape:
                raise ValueError(f"acquisition {i}: truth is {t.shape}, estimate {e.shape}")
            if drop.size and (drop.min() < 0 or drop.max() >= om.n):
                raise ValueError(f"never-observed ids must lie in [0, {om.n})")
            kept = np.ones(om.n, dtype=bool)
            kept[drop] = False
            rows = om.missing[kept[om.missing]]
            blocks.append(t[rows] - e[rows])
        return cls(np.concatenate(blocks, axis=0))


def _require_entries(e: ErrorField) -> np.ndarray:
    if e.errors.size == 0:
        raise NoMissingEntries("no missing entries to evaluate")
    return e.errors


def mse(e: ErrorField) -> float:
    """Mean squared error: squared Frobenius norm over the entry count."""
    errors = _require_entries(e)
    return float(np.sum(errors**2) / errors.size)


def rmse(e: ErrorField) -> float:
    """Root mean squared error, the square root of :func:`mse`
    (``||W||_F / sqrt(W.size)``)."""
    return math.sqrt(mse(e))


def mae(e: ErrorField) -> float:
    """Mean absolute error."""
    errors = _require_entries(e)
    return float(np.sum(np.abs(errors)) / errors.size)


def mpsnr(e: ErrorField) -> float:
    """Band-averaged PSNR, the harness's ``maxerr`` variant: per band,
    ``10 log10(max|w| / mean(w^2))`` with the maximum absolute error in the
    numerator (unsquared, an error-vector norm rather than a signal peak;
    nonstandard). Bands with zero error would be infinite and are excluded
    from the average with :class:`ZeroErrorBandWarning`.
    """
    errors = _require_entries(e)
    rows, channels = errors.shape
    per_band = []
    zero_bands = 0
    for band in range(channels):
        w = errors[:, band]
        mean_square = float(np.sum(w * w)) / rows
        if mean_square == 0.0:
            zero_bands += 1
            continue
        per_band.append(10.0 * np.log10(float(np.max(np.abs(w))) / mean_square))
    if zero_bands:
        warnings.warn(
            f"{zero_bands} band(s) had zero error; excluded from the PSNR average",
            ZeroErrorBandWarning,
        )
    if not per_band:
        return float("inf")
    return float(np.mean(per_band))


def accuracy(predicted, truth, evaluated) -> float:
    """Fraction of ``evaluated`` node ids (integers, see
    :func:`~graphprop.graph.as_node_ids`) whose predicted label matches."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    ids = as_node_ids(evaluated)
    if ids.size == 0:
        raise EmptyEvaluationSet("no nodes to evaluate")
    if predicted.shape != truth.shape:
        raise ValueError("predicted and truth labels must align")
    return float(np.mean(predicted[ids] == truth[ids]))
