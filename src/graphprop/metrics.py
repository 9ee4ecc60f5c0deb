"""Reconstruction metrics over missing entries that were observed at
least once, plus classification accuracy.

All metrics take an :class:`ErrorField`, one block of error rows per
acquisition (truth minus estimate, restricted to that acquisition's
missing fibers with never-observed nodes dropped). The entry count in the
denominators is channels times the total number of retained missing rows.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyEvaluationSet, NoMissingEntries, ZeroErrorBandWarning


@dataclass(frozen=True, eq=False)
class ErrorField:
    """Per-acquisition error rows over retained missing fibers."""

    blocks: tuple[np.ndarray, ...]
    channels: int

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("channel count must be positive")
        blocks = []
        for b in self.blocks:
            arr = np.asarray(b, dtype=np.float64)
            if arr.size == 0:
                arr = arr.reshape(0, self.channels)
            if arr.ndim != 2 or arr.shape[1] != self.channels:
                raise ValueError(
                    f"error block must have {self.channels} columns, got shape {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError("error entries must be finite")
            blocks.append(arr)
        object.__setattr__(self, "blocks", tuple(blocks))

    @classmethod
    def from_completions(cls, truth, estimates, omegas, never_observed=()) -> "ErrorField":
        """Build the error field from full (n, channels) truth/estimate
        arrays per acquisition; ``never_observed`` ids are excluded from
        every block."""
        truth = [t.values if hasattr(t, "values") else np.asarray(t, float) for t in truth]
        estimates = [e.values if hasattr(e, "values") else np.asarray(e, float) for e in estimates]
        if not (len(truth) == len(estimates) == len(omegas)):
            raise ValueError("need one truth, estimate, and observation set per acquisition")
        drop = np.asarray(sorted(never_observed), dtype=np.int64)
        blocks = []
        channels = truth[0].shape[1]
        for t, e, om in zip(truth, estimates, omegas):
            rows = np.setdiff1d(om.missing, drop)
            blocks.append(t[rows] - e[rows])
        return cls(tuple(blocks), channels)

    @property
    def n_rows(self) -> int:
        return sum(b.shape[0] for b in self.blocks)

    @property
    def entry_count(self) -> int:
        return self.channels * self.n_rows

    def stacked(self) -> np.ndarray:
        if not self.blocks:
            return np.empty((0, self.channels))
        return np.concatenate(self.blocks, axis=0)


def _require_entries(e: ErrorField) -> np.ndarray:
    stacked = e.stacked()
    if stacked.size == 0:
        raise NoMissingEntries("no missing entries to evaluate")
    return stacked


def mse(e: ErrorField) -> float:
    """Mean squared error: squared Frobenius norm over the entry count."""
    stacked = _require_entries(e)
    return float(np.sum(stacked**2) / e.entry_count)


def rmse(e: ErrorField) -> float:
    """Root mean squared error, the square root of :func:`mse`
    (``||W||_F / sqrt(entry_count)``)."""
    stacked = _require_entries(e)
    return float(np.linalg.norm(stacked) / np.sqrt(e.entry_count))


def mae(e: ErrorField) -> float:
    """Mean absolute error."""
    stacked = _require_entries(e)
    return float(np.sum(np.abs(stacked)) / e.entry_count)


def mpsnr(e: ErrorField) -> float:
    """Band-averaged PSNR, the harness's ``maxerr`` variant: per band,
    ``10 log10(max|w| / mean(w^2))`` with the maximum absolute error in the
    numerator (unsquared, an error-vector norm rather than a signal peak;
    nonstandard). Bands with zero error would be infinite and are excluded
    from the average with :class:`ZeroErrorBandWarning`.
    """
    stacked = _require_entries(e)
    rows = stacked.shape[0]
    per_band = []
    zero_bands = 0
    for band in range(e.channels):
        w = stacked[:, band]
        mean_square = float(w @ w) / rows
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
    """Fraction of ``evaluated`` node ids whose predicted label matches."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    ids = np.asarray(evaluated, dtype=np.int64)
    if ids.size == 0:
        raise EmptyEvaluationSet("no nodes to evaluate")
    if predicted.shape != truth.shape:
        raise ValueError("predicted and truth labels must align")
    return float(np.mean(predicted[ids] == truth[ids]))
