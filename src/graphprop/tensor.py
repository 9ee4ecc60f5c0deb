"""Dense tensors, mode-m matricisation, and the binary tensor file format.

Node enumeration contract used across the package: for a tensor of shape
(I1, ..., Im), the mode-m fibers are indexed by

    p = i1 + I1*i2 + I1*I2*i3 + ...        (zero-based, i1 varies fastest)

over the leading m-1 indices. For a general mode, the fiber index runs over
the remaining axes in their original order, earliest axis fastest. Stacking
order-m tensors along a new trailing mode therefore stacks their mode-m
fiber matrices as consecutive row blocks. :func:`fiber_axes` is the one
statement of this layout, from which ``matricize``, ``refold``, the binary
file layout and HaLRTC's mode shrinks derive, and through them the
harness's acquisition stack, its observed mask (refolded from fiber rows)
and the overlap simulation's observation sets (:func:`node_ids` of crop
masks); the graph construction shares the enumeration.

The binary file's payload is the last-mode fiber matrix, row by row, so
:func:`load_fibers` and :func:`save_fibers` move fiber rows to and from a
file with no refold; :func:`load_tensor` and :func:`save_tensor` wrap them
for callers that want a :class:`DenseTensor`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

FORMAT_DTYPE = "f64"
FORMAT_LAYOUT = "fiber-fastest"


def _finite_float_array(values, context: str) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{context}: values must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """Dense real tensor with explicit shape.

    ``values`` is a C-contiguous float64 array whose shape equals ``shape``;
    all entries are finite. Instances are immutable.
    """

    shape: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        if len(shape) < 1 or any(s < 1 for s in shape):
            raise ValueError(f"tensor extents must be positive, got {shape}")
        arr = _finite_float_array(self.values, "DenseTensor")
        if arr.shape != shape:
            raise ValueError(
                f"value array shape {arr.shape} does not match declared shape {shape}"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_array(cls, values) -> "DenseTensor":
        arr = np.asarray(values, dtype=np.float64)
        return cls(tuple(arr.shape), arr)

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


@dataclass(frozen=True, eq=False)
class FiberMatrix:
    """Mode-m fibers as rows: row p holds the fiber of node p under the
    canonical enumeration (module docstring)."""

    values: np.ndarray

    def __post_init__(self):
        arr = _finite_float_array(self.values, "FiberMatrix")
        if arr.ndim != 2:
            raise ValueError(f"fiber matrix must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"fiber matrix must be non-empty, got shape {arr.shape}")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


def _check_mode(order: int, mode: int) -> None:
    if not 1 <= mode <= order:
        raise ValueError(f"mode must be in 1..{order}, got {mode}")


def fiber_axes(order: int, mode: int) -> list[int]:
    """The axis order whose C layout holds the mode-``mode`` (1-based)
    fibers of an order-``order`` tensor as rows in the canonical
    enumeration: the other axes reversed, so that the earliest runs
    fastest, then the mode's own axis."""
    _check_mode(order, mode)
    rest = [axis for axis in range(order) if axis != mode - 1]
    return rest[::-1] + [mode - 1]


def node_ids(mask) -> np.ndarray:
    """The ascending node ids (module docstring) of the True entries of a
    boolean ``mask`` over a tensor's leading modes."""
    order = np.ndim(mask) + 1
    return np.flatnonzero(np.transpose(mask, fiber_axes(order, order)[:-1]))


def matricize(t: DenseTensor, mode: int) -> FiberMatrix:
    """Arrange the mode-``mode`` fibers of ``t`` as matrix rows.

    ``mode`` is 1-based. Row p is the fiber whose remaining indices
    enumerate in the canonical order (earliest remaining axis fastest).
    """
    fibers = np.transpose(t.values, fiber_axes(t.order, mode))
    return FiberMatrix(fibers.reshape(-1, t.shape[mode - 1]))


def refold(f: FiberMatrix, shape, mode: int) -> DenseTensor:
    """Inverse of :func:`matricize`: rebuild the tensor of ``shape`` from
    rows of mode-``mode`` fibers."""
    shape = tuple(int(s) for s in shape)
    axes = fiber_axes(len(shape), mode)
    if shape[mode - 1] != f.channels:
        raise ValueError(
            f"shape[{mode}] = {shape[mode - 1]} does not match fiber length {f.channels}"
        )
    if f.n * f.channels != math.prod(shape):
        raise ValueError(
            f"fiber matrix holds {f.n * f.channels} values, shape {shape} needs {math.prod(shape)}"
        )
    values = np.empty(shape)
    view = values.transpose(axes)
    np.copyto(view, f.values.reshape(view.shape))
    return DenseTensor(shape, values)


def save_fibers(values, shape, path) -> None:
    """Write the binary container from the last-mode fiber rows ``values``
    of a tensor of ``shape``: one JSON header line, then the rows as raw
    little-endian float64, which is the file's fiber-fastest order (the
    last index varies fastest, then the first, second, ...). ``ValueError``
    when the rows do not hold ``shape`` or are not finite."""
    shape = tuple(int(s) for s in shape)
    if len(shape) < 1 or any(s < 1 for s in shape):
        raise ValueError(f"tensor extents must be positive, got {shape}")
    rows = FiberMatrix(values).values
    if rows.shape != (math.prod(shape[:-1]), shape[-1]):
        raise ValueError(f"fiber rows of shape {rows.shape} do not hold a tensor of {shape}")
    header = json.dumps(
        {"shape": list(shape), "dtype": FORMAT_DTYPE, "layout": FORMAT_LAYOUT}
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        fh.write(rows.astype("<f8", copy=False))


def save_tensor(t: DenseTensor, path) -> None:
    """Write ``t`` as :func:`save_fibers` writes its last-mode fibers."""
    save_fibers(matricize(t, t.order).values, t.shape, path)


def load_fibers(path) -> tuple[tuple[int, ...], np.ndarray]:
    """Read a file written by :func:`save_fibers` or :func:`save_tensor`:
    the tensor's shape and its last-mode fiber rows, an ``(n, channels)``
    read-only view of the file's payload (nothing is copied). Raises
    :class:`DataError` unless the header and payload agree and every value
    is finite."""
    raw = Path(path).read_bytes()
    sep = raw.find(b"\n")
    if sep < 0:
        raise DataError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:sep].decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, digit limit
        raise DataError(f"{path}: malformed header ({exc})") from exc
    if not isinstance(header, dict) or set(header) != {"shape", "dtype", "layout"}:
        raise DataError(f"{path}: header must carry exactly shape/dtype/layout")
    if header["dtype"] != FORMAT_DTYPE:
        raise DataError(f"{path}: unsupported dtype {header['dtype']!r}")
    if header["layout"] != FORMAT_LAYOUT:
        raise DataError(f"{path}: unsupported layout {header['layout']!r}")
    shape = header["shape"]
    if (
        not isinstance(shape, list)
        or not shape
        or not all(type(s) is int and s >= 1 for s in shape)  # a JSON true is a bool
    ):
        raise DataError(f"{path}: shape must be a list of positive integers")
    shape = tuple(shape)
    payload = memoryview(raw)[sep + 1 :]  # a view: the payload is not copied
    expected = math.prod(shape) * 8
    if len(payload) != expected:
        raise DataError(
            f"{path}: payload holds {len(payload)} bytes, header implies {expected}"
        )
    rows = np.frombuffer(payload, dtype="<f8").reshape(-1, shape[-1])
    try:
        return shape, FiberMatrix(rows).values  # checks finiteness; still the view
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_tensor(path) -> DenseTensor:
    """Read a tensor written by :func:`save_tensor`: :func:`load_fibers`
    refolded."""
    shape, rows = load_fibers(path)
    return refold(FiberMatrix(rows), shape, len(shape))
