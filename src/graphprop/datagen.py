"""Synthetic instances: Tucker-structured acquisition sets (synthesised
here, the one place in the package), coverage-safe observation sampling,
partial-overlap masks, and small benchmark graphs.

Everything is deterministic given the seed; a single generator is drawn
from in a fixed order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleFraction
from .graph import EdgeSet, ObservationSet, build_graph, complement
from .tensor import DenseTensor

# Tucker core entries ~ N(CORE_MEAN, CORE_STD**2); the channel scales of
# every further acquisition ~ N(SCALE_MEAN, SCALE_STD**2).
CORE_MEAN, CORE_STD = 3.0, 3.0
SCALE_MEAN, SCALE_STD = 0.0, 1.0
INTRA_DENSITY, CROSS_DENSITY = 0.9, 0.01  # two_block_graph edge densities
RASTER_BUMPS = 12  # Gaussian bumps summed by smooth_raster_pair


def check_missing_fraction(n: int, missing_frac: float, lambda_count: int) -> None:
    """Feasibility of missing ``floor(missing_frac * n)`` of ``n`` fibers in
    each of ``lambda_count`` acquisitions, the missing sets mutually
    disjoint so every fiber is observed somewhere.

    Needs ``missing_frac < (lambda_count - 1) / lambda_count`` (when
    positive) and the disjoint sets to fit,
    ``lambda_count * floor(missing_frac * n) <= n``; raises
    :class:`InfeasibleFraction` otherwise (``ValueError`` if not finite).
    """
    if not math.isfinite(missing_frac):
        raise ValueError("missing fraction must be a finite number")
    if not 0.0 <= missing_frac:
        raise ValueError("missing fraction must be nonnegative")
    if missing_frac > 0 and missing_frac >= (lambda_count - 1) / lambda_count:
        raise InfeasibleFraction(
            f"missing fraction {missing_frac} >= {(lambda_count - 1) / lambda_count} "
            f"violates coverage for {lambda_count} acquisition(s)"
        )
    n_missing = math.floor(missing_frac * n)
    if n_missing * lambda_count > n:
        raise InfeasibleFraction(
            f"{lambda_count} disjoint missing sets of {n_missing} fibers do not fit in {n}"
        )


@dataclass(frozen=True)
class SynthSpec:
    """Third-order acquisition-set generator settings."""

    i1: int
    i2: int
    i3: int
    r: int
    lambda_count: int = 2
    missing_frac: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if min(self.i1, self.i2, self.i3) < 1:
            raise ValueError("extents must be positive")
        if not 1 <= self.r <= min(self.i1, self.i2):
            raise ValueError(f"rank must lie in 1..{min(self.i1, self.i2)}, got {self.r}")
        if self.lambda_count < 1:
            raise ValueError("need at least one acquisition")
        check_missing_fraction(self.n, self.missing_frac, self.lambda_count)

    @property
    def n(self) -> int:
        return self.i1 * self.i2


def orthonormal_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) matrix with orthonormal rows: QR of a Gaussian draw,
    sign-fixed so the result is canonical."""
    if rows > cols:
        raise ValueError(f"cannot fit {rows} orthonormal rows in dimension {cols}")
    gauss = rng.standard_normal((cols, rows))
    q, rfac = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(rfac))
    return np.ascontiguousarray(q.T)


def generate_acquisitions(s: SynthSpec) -> list[DenseTensor]:
    """Acquisition 1 is a Tucker synthesis with factor ranks (r, r, i3):
    a Gaussian core multiplied along each mode k by the transpose of a
    factor with orthonormal rows (the m-mode product of Kolda and Bader,
    2009), so the mode-k unfolding has rank at most r_k. Each further
    acquisition scales the fiber channels by a fresh diagonal Gaussian
    draw. The generator is drawn from in a fixed order: the factors of
    modes 1, 2 and 3, the core, then the channel scales.

    Because the factors have orthonormal rows, the synthesis energy grows
    linearly with the rank setting; acquisition 1 is rescaled to unit
    entry standard deviation so completion errors stay comparable across
    rank sweeps. The channel-scaling relation between acquisitions is
    unaffected.
    """
    rng = np.random.default_rng(s.seed)
    u1 = orthonormal_rows(rng, s.r, s.i1)
    u2 = orthonormal_rows(rng, s.r, s.i2)
    u3 = orthonormal_rows(rng, s.i3, s.i3)
    values = rng.normal(CORE_MEAN, CORE_STD, size=(s.r, s.r, s.i3))
    for mode, u in enumerate((u1, u2, u3)):
        # m-mode product with u.T, its axis moved from first back to mode;
        # the contiguous copy after each step fixes the operand layout
        # tensordot sees, and so the output bits.
        product = np.tensordot(u.T, values, axes=(1, mode))
        values = np.ascontiguousarray(np.transpose(product, np.insert([1, 2], mode, 0)))
    scale = float(values.std())
    if scale > 0:
        values = values / scale
    out = [DenseTensor.from_array(values)]
    for _ in range(1, s.lambda_count):
        scales = rng.normal(SCALE_MEAN, SCALE_STD, size=s.i3)
        out.append(DenseTensor.from_array(values * scales))
    return out


def sample_observation_sets(n: int, missing_frac: float, lambda_count: int,
                            seed: int) -> list[ObservationSet]:
    """Miss ``floor(missing_frac * n)`` fibers per acquisition, with the
    missing sets mutually disjoint so every fiber is observed somewhere
    (feasibility: :func:`check_missing_fraction`).
    """
    if n < 1 or lambda_count < 1:
        raise ValueError("n and lambda_count must be positive")
    check_missing_fraction(n, missing_frac, lambda_count)
    n_missing = math.floor(missing_frac * n)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return [ObservationSet(n, complement(n, perm[lam * n_missing : (lam + 1) * n_missing]))
            for lam in range(lambda_count)]


@dataclass(frozen=True)
class OverlapSpec:
    """Partial-overlap masking: the same crop count c of rows and columns
    is removed from opposing sides of the two acquisitions; c is the value
    whose achieved removed-area fraction is closest to the target."""

    height: int
    width: int
    area_removed_frac: float

    def __post_init__(self):
        if min(self.height, self.width) < 1:
            raise ValueError("image extents must be positive")
        if not 0.0 <= self.area_removed_frac <= 0.7:
            raise ValueError(
                f"area fraction must lie in [0, 0.7], got {self.area_removed_frac}"
            )

    @cached_property
    def crop_count(self) -> int:
        counts = np.arange(min(self.height, self.width), dtype=np.int64)
        kept = (self.height - counts) * (self.width - counts)
        achieved = 1.0 - kept / (self.height * self.width)
        return int(np.argmin(np.abs(achieved - self.area_removed_frac)))

    @property
    def achieved_frac(self) -> float:
        c = self.crop_count
        return 1.0 - (self.height - c) * (self.width - c) / (self.height * self.width)


def partial_overlap_masks(o: OverlapSpec) -> tuple[np.ndarray, np.ndarray]:
    """Boolean observation masks (True = observed): the first mask removes
    ``crop_count`` rows from the top and columns from the left, the second
    the same counts from the bottom and right. Pixels False in both masks
    (the opposing corners) are observed nowhere."""
    c = o.crop_count
    first = np.ones((o.height, o.width), dtype=bool)
    second = np.ones((o.height, o.width), dtype=bool)
    if c:
        first[:c, :] = False
        first[:, :c] = False
        second[-c:, :] = False
        second[:, -c:] = False
    return first, second


def two_block_graph(block_size: int, seed: int) -> tuple[EdgeSet, np.ndarray]:
    """Two dense blocks joined by sparse cross edges, with 0/1 labels by
    block; regenerated until connected. Edge counts are exact (ceil of
    density times the pair count), so they never fall below the density."""
    if block_size < 2:
        raise ValueError("block size must be at least 2")
    n = 2 * block_size
    labels = np.repeat(np.array([0, 1], dtype=np.int64), block_size)
    intra_pairs = np.column_stack(np.triu_indices(block_size, 1)).astype(np.int64)
    u, v = np.divmod(np.arange(block_size**2, dtype=np.int64), block_size)
    cross_pairs = np.column_stack([u, block_size + v])
    n_intra = math.ceil(INTRA_DENSITY * len(intra_pairs))
    n_cross = max(1, math.ceil(CROSS_DENSITY * len(cross_pairs)))
    rng = np.random.default_rng(seed)
    while True:
        chosen = [
            intra_pairs[rng.choice(len(intra_pairs), size=n_intra, replace=False)],
            intra_pairs[rng.choice(len(intra_pairs), size=n_intra, replace=False)]
            + block_size,
            cross_pairs[rng.choice(len(cross_pairs), size=n_cross, replace=False)],
        ]
        edges = EdgeSet(n, np.concatenate(chosen, axis=0))
        if build_graph(edges).component_labels.max() == 0:  # connected
            return edges, labels


def smooth_raster_pair(height: int, width: int, bands: int,
                       seed: int) -> tuple[DenseTensor, DenseTensor]:
    """Smooth multiband raster pair: a mixture of rotated anisotropic
    Gaussian bumps, the second acquisition equal to the first with each
    band multiplied by a random positive scale."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:height, 0:width]
    ys = ys / max(height - 1, 1)
    xs = xs / max(width - 1, 1)
    img = np.zeros((height, width, bands), dtype=np.float64)
    for _ in range(RASTER_BUMPS):
        cy, cx = rng.uniform(0.05, 0.95, size=2)
        sy, sx = rng.uniform(0.08, 0.3, size=2)
        theta = rng.uniform(0.0, np.pi)
        amps = rng.uniform(0.2, 1.0, size=bands)
        dy, dx = ys - cy, xs - cx
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        major = (cos_t * dx + sin_t * dy) / sx
        minor = (-sin_t * dx + cos_t * dy) / sy
        bump = np.exp(-0.5 * (major**2 + minor**2))
        img += bump[:, :, None] * amps[None, None, :]
    scales = rng.uniform(0.5, 1.5, size=bands)
    first = DenseTensor.from_array(img)
    second = DenseTensor.from_array(img * scales[None, None, :])
    return first, second
