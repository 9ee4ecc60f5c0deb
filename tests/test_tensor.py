import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphprop import (
    DenseTensor,
    FiberMatrix,
    load_fibers,
    load_tensor,
    matricize,
    node_ids,
    refold,
    save_fibers,
    save_tensor,
)
from graphprop.errors import DataError
from oracles import matricized_mask_ids


def fiber_oracle(t, mode):
    """Enumerate mode-`mode` fibers directly from the canonical index map:
    remaining indices in original order, earliest fastest."""
    rest = [ax for ax in range(t.order) if ax != mode - 1]
    rows = []
    for p in range(t.size // t.shape[mode - 1]):
        idx = [0] * t.order
        q = p
        for ax in rest:
            idx[ax] = q % t.shape[ax]
            q //= t.shape[ax]
        sel = tuple(slice(None) if ax == mode - 1 else idx[ax] for ax in range(t.order))
        rows.append(t.values[sel])
    return np.array(rows)


def test_matrix_rows_are_mode2_fibers():
    t = DenseTensor.from_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
    f = matricize(t, 2)
    assert np.array_equal(f.values, [[1.0, 2.0], [3.0, 4.0]])


def test_mode1_fibers_of_matrix_are_columns():
    t = DenseTensor.from_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
    f = matricize(t, 1)
    assert np.array_equal(f.values, [[1.0, 3.0], [2.0, 4.0]])


def test_canonical_enumeration_2x3x2():
    # Values 0..11 laid out per the canonical fiber enumeration: the mode-3
    # fiber matrix read back row-major is exactly 0..11.
    rows = np.arange(12.0).reshape(6, 2)
    t = refold(FiberMatrix(rows), (2, 3, 2), 3)
    f = matricize(t, 3)
    assert np.array_equal(f.values, rows)
    assert np.array_equal(f.values, fiber_oracle(t, 3))
    # row p corresponds to (i1, i2) with i1 varying fastest
    for p in range(6):
        i1, i2 = p % 2, p // 2
        assert np.array_equal(t.values[i1, i2, :], rows[p])


@st.composite
def tensors(draw, max_order=4, max_extent=5):
    order = draw(st.integers(1, max_order))
    shape = tuple(draw(st.integers(1, max_extent)) for _ in range(order))
    seed = draw(st.integers(0, 2**31 - 1))
    values = np.random.default_rng(seed).standard_normal(shape)
    return DenseTensor.from_array(values)


@given(tensors(), st.data())
@settings(max_examples=60, deadline=None)
def test_matricize_refold_roundtrip(t, data):
    mode = data.draw(st.integers(1, t.order))
    f = matricize(t, mode)
    assert np.array_equal(f.values, fiber_oracle(t, mode))
    back = refold(f, t.shape, mode)
    assert np.array_equal(back.values, t.values)
    again = matricize(back, mode)
    assert np.array_equal(again.values, f.values)


def test_refold_scalar_like():
    f = FiberMatrix(np.array([[7.0]]))
    t = refold(f, (1, 1), 2)
    assert t.shape == (1, 1)
    assert t.values[0, 0] == 7.0


def test_matricize_mode_out_of_range():
    t = DenseTensor.from_array(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        matricize(t, 0)
    with pytest.raises(ValueError):
        matricize(t, 3)


def test_refold_shape_mismatch():
    f = FiberMatrix(np.zeros((6, 2)))
    with pytest.raises(ValueError):
        refold(f, (2, 3, 3), 3)
    with pytest.raises(ValueError):
        refold(f, (2, 2, 2), 3)


def test_dense_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        DenseTensor.from_array(np.array([1.0, np.nan]))


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    t = DenseTensor.from_array(rng.standard_normal((3, 4, 2)))
    path = tmp_path / "t.tenb"
    save_tensor(t, path)
    back = load_tensor(path)
    assert back.shape == t.shape
    assert np.array_equal(back.values, t.values)


def test_save_layout_is_fiber_fastest(tmp_path):
    t = refold(FiberMatrix(np.arange(12.0).reshape(6, 2)), (2, 3, 2), 3)
    path = tmp_path / "t.tenb"
    save_tensor(t, path)
    raw = path.read_bytes()
    payload = raw[raw.index(b"\n") + 1 :]
    assert np.array_equal(np.frombuffer(payload, dtype="<f8"), np.arange(12.0))
    # order 4: the payload is the mode-4 fiber matrix, row by row
    t = DenseTensor.from_array(np.arange(24.0).reshape(2, 3, 2, 2))
    save_tensor(t, path)
    raw = path.read_bytes()
    assert raw[raw.index(b"\n") + 1 :] == fiber_oracle(t, 4).astype("<f8").tobytes()


@given(tensors())
@example(DenseTensor.from_array(np.arange(5.0)))  # orders 1-4, each at least once
@example(DenseTensor.from_array(np.arange(12.0).reshape(3, 4)))
@example(DenseTensor.from_array(np.arange(24.0).reshape(2, 3, 4)))
@example(DenseTensor.from_array(np.arange(36.0).reshape(2, 3, 2, 3)))
@settings(max_examples=40, deadline=None)
def test_save_fibers_writes_the_bytes_of_save_tensor(tmp_path_factory, t):
    work = tmp_path_factory.mktemp("fibers")
    save_tensor(t, work / "tensor.tenb")
    rows = matricize(t, t.order).values
    save_fibers(rows, t.shape, work / "fibers.tenb")
    assert (work / "fibers.tenb").read_bytes() == (work / "tensor.tenb").read_bytes()
    shape, back = load_fibers(work / "fibers.tenb")
    assert shape == t.shape and back.tobytes() == rows.tobytes()


def test_save_fibers_rejects_rows_that_do_not_hold_the_shape(tmp_path):
    with pytest.raises(ValueError, match="do not hold"):
        save_fibers(np.zeros((6, 2)), (2, 2, 2), tmp_path / "f.tenb")
    with pytest.raises(ValueError, match="finite"):
        save_fibers(np.full((4, 2), np.nan), (2, 2, 2), tmp_path / "f.tenb")
    assert not (tmp_path / "f.tenb").exists()


def test_load_fibers_rows_are_a_read_only_view(tmp_path):
    t = DenseTensor.from_array(np.arange(24.0).reshape(2, 3, 4))
    save_tensor(t, tmp_path / "t.tenb")
    shape, rows = load_fibers(tmp_path / "t.tenb")
    assert shape == (2, 3, 4) and rows.shape == (6, 4)
    assert np.array_equal(rows, matricize(t, 3).values)
    assert not rows.flags.writeable and not rows.flags.owndata
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1.0


def test_load_rejects_bad_payload(tmp_path):
    t = DenseTensor.from_array(np.zeros((2, 2)))
    path = tmp_path / "t.tenb"
    save_tensor(t, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(DataError):
        load_tensor(path)


def test_load_peak_memory_is_the_file_and_the_tensor(tmp_path):
    # the file's bytes and the refolded tensor are the only payload-sized
    # buffers: the payload is read in place, not sliced into a copy
    t = DenseTensor.from_array(np.random.default_rng(0).standard_normal((64, 64, 24)))
    path = tmp_path / "t.tenb"
    save_tensor(t, path)
    tracemalloc.start()
    try:
        load_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * t.values.nbytes


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "t.tenb"
    path.write_bytes(b'{"shape": [1], "dtype": "f32", "layout": "fiber-fastest"}\n' + b"\x00" * 8)
    with pytest.raises(DataError):
        load_tensor(path)
    path.write_bytes(b"not json\n")
    with pytest.raises(DataError):
        load_tensor(path)
    # a JSON true is not an extent
    path.write_bytes(b'{"shape": [true, 2], "dtype": "f64", "layout": "fiber-fastest"}\n'
                     + b"\x00" * 16)
    with pytest.raises(DataError, match="positive integers"):
        load_tensor(path)


@pytest.mark.parametrize("shape", [(5, 7), (4, 6), (3, 1), (1, 1)])
def test_node_ids_match_matricized_mask(shape):
    rng = np.random.default_rng(sum(shape))
    for mask in (rng.random(shape) < 0.5, np.ones(shape, dtype=bool),
                 np.zeros(shape, dtype=bool)):
        got = node_ids(mask)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, matricized_mask_ids(mask))
