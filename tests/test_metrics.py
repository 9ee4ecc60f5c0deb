import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprop import ErrorField, ObservationSet, accuracy, mae, mpsnr, mse, rmse
from graphprop.errors import EmptyEvaluationSet, NoMissingEntries, ZeroErrorBandWarning
from oracles import setdiff_error_rows


def brute_force_metrics(blocks, channels):
    """Straightforward loop re-implementation of the error metrics."""
    entries = [w for b in blocks for row in b for w in row]
    count = len(entries)
    mse_val = sum(w * w for w in entries) / count
    mae_val = sum(abs(w) for w in entries) / count
    rows = sum(len(b) for b in blocks)
    psnr_bands = []
    for band in range(channels):
        col = [row[band] for b in blocks for row in b]
        peak = max(abs(w) for w in col)
        mean_sq = sum(w * w for w in col) / rows
        psnr_bands.append(10.0 * math.log10(peak / mean_sq))
    return mse_val, math.sqrt(mse_val), mae_val, sum(psnr_bands) / channels


def constant_field(value, rows=4, channels=2):
    return ErrorField(np.full((rows, channels), value))


@pytest.mark.parametrize("bad", [
    np.zeros(4),                    # 1-D
    np.zeros((2, 3, 1)),            # 3-D
    np.zeros((4, 0)),               # no channels
    np.array([[0.0, np.nan]]),      # non-finite
    np.array([[np.inf], [0.0]]),
])
def test_error_field_rejects_bad_arrays(bad):
    with pytest.raises(ValueError):
        ErrorField(bad)


def test_mse_examples():
    assert mse(constant_field(0.0)) == 0.0
    assert mse(constant_field(0.5)) == pytest.approx(0.25, abs=1e-15)
    single = ErrorField(np.array([[2.0]]))
    assert mse(single) == 4.0


def test_rmse_examples():
    assert rmse(constant_field(0.5)) == pytest.approx(0.5, abs=1e-15)
    assert type(rmse(constant_field(0.5))) is float
    assert rmse(constant_field(0.0)) == 0.0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_rmse_squares_to_mse(seed):
    rng = np.random.default_rng(seed)
    blocks = tuple(
        rng.standard_normal((int(rng.integers(1, 6)), 3))
        for _ in range(int(rng.integers(1, 4)))
    )
    e = ErrorField(np.concatenate(blocks))
    assert abs(rmse(e) ** 2 - mse(e)) <= 1e-14 * max(1.0, mse(e))


def test_rmse_and_mpsnr_sum_pairwise_on_large_fields():
    # above about 10,000 entries a BLAS dot splits over its threads, so
    # its last bits follow the thread count; numpy's pairwise sum does not
    errors = np.random.default_rng(7).standard_normal((13_000, 4))
    e = ErrorField(errors)
    assert rmse(e) == math.sqrt(mse(e))
    bands = [10.0 * np.log10(np.max(np.abs(w)) / (np.sum(w * w) / w.size))
             for w in errors.T]
    assert mpsnr(e) == float(np.mean(bands))


def test_mae_examples():
    assert mae(constant_field(0.5)) == pytest.approx(0.5, abs=1e-15)
    assert mae(constant_field(0.0)) == 0.0
    mixed = ErrorField(np.array([[-1.0], [1.0]]))
    assert mae(mixed) == 1.0


def test_mpsnr_constant_band():
    e = ErrorField(np.full((100, 1), 0.1))
    assert mpsnr(e) == pytest.approx(10.0, abs=1e-12)


def test_mpsnr_zero_band_sentinel():
    e = ErrorField(np.column_stack([np.zeros(5), np.full(5, 0.1)]))
    with pytest.warns(ZeroErrorBandWarning):
        value = mpsnr(e)
    assert value == pytest.approx(10.0, abs=1e-12)  # zero band excluded
    all_zero = ErrorField(np.zeros((4, 1)))
    with pytest.warns(ZeroErrorBandWarning):
        assert mpsnr(all_zero) == float("inf")


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_metrics_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    channels = int(rng.integers(1, 4))
    blocks = tuple(
        rng.standard_normal((int(rng.integers(1, 7)), channels)) + 0.01
        for _ in range(int(rng.integers(1, 4)))
    )
    e = ErrorField(np.concatenate(blocks))  # the oracle reads the blocks separately
    ref_mse, ref_rmse, ref_mae, ref_psnr = brute_force_metrics(blocks, channels)
    assert abs(mse(e) - ref_mse) <= 1e-12 * max(1.0, abs(ref_mse))
    assert abs(rmse(e) - ref_rmse) <= 1e-12 * max(1.0, abs(ref_rmse))
    assert abs(mae(e) - ref_mae) <= 1e-12 * max(1.0, abs(ref_mae))
    assert abs(mpsnr(e) - ref_psnr) <= 1e-12 * max(1.0, abs(ref_psnr))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_metrics_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((8, 2))
    e1 = ErrorField(block)
    e2 = ErrorField(block[rng.permutation(8)])
    # the same rows split across two acquisitions' missing fibers
    omegas = [ObservationSet(8, [0, 2, 4, 5, 7]), ObservationSet(8, [4, 6, 7])]
    truth = [np.zeros((8, 2)), np.zeros((8, 2))]
    truth[0][omegas[0].missing] = block[:3]
    truth[1][omegas[1].missing] = block[3:]
    split = ErrorField.from_completions(truth, [np.zeros((8, 2))] * 2, omegas)
    for metric in (mse, rmse, mae):
        assert metric(e1) == pytest.approx(metric(e2), rel=1e-14)
        assert metric(e1) == pytest.approx(metric(split), rel=1e-14)


def test_mse_additivity_over_fields():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 2))
    b = rng.standard_normal((9, 2))
    combined = ErrorField(np.concatenate((a, b)))
    part_a, part_b = ErrorField(a), ErrorField(b)
    weighted = (
        mse(part_a) * part_a.errors.size + mse(part_b) * part_b.errors.size
    ) / combined.errors.size
    assert mse(combined) == pytest.approx(weighted, rel=1e-14)


def test_excluded_ids_do_not_contribute():
    rng = np.random.default_rng(4)
    truth = [rng.standard_normal((10, 2))]
    est = [truth[0].copy()]
    est[0][[3, 5]] += 1.0  # error only on missing nodes 3 and 5
    omegas = [ObservationSet(10, [0, 1, 2, 6, 7, 8, 9])]
    base = ErrorField.from_completions(truth, est, omegas)
    # corrupt the estimate arbitrarily at an excluded node
    est_bad = [est[0].copy()]
    est_bad[0][4] = 1e6
    excl = ErrorField.from_completions(truth, est_bad, omegas, never_observed=[4])
    assert mse(excl) == pytest.approx(
        mse(ErrorField.from_completions(truth, est, omegas, never_observed=[4])),
        rel=1e-14,
    )
    assert base.errors.shape[0] == 3 and excl.errors.shape[0] == 2


@pytest.mark.parametrize("never", [(), [4], [9, 0, 4, 7], np.arange(10)])
def test_from_completions_matches_the_setdiff_rows(never):
    rng = np.random.default_rng(6)
    truth = [rng.standard_normal((10, 3)) for _ in range(2)]
    est = [rng.standard_normal((10, 3)) for _ in range(2)]
    omegas = [ObservationSet(10, [0, 2, 3, 8]), ObservationSet(10, [1, 4, 5, 6, 9])]
    got = ErrorField.from_completions(truth, est, omegas, never_observed=never).errors
    want = setdiff_error_rows(truth, est, omegas, never)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_from_completions_rejects_ids_that_are_not_nodes():
    omegas = [ObservationSet(4, [0, 1])]
    for never in ([4], [-1]):
        with pytest.raises(ValueError, match="never-observed ids"):
            ErrorField.from_completions([np.ones((4, 2))], [np.zeros((4, 2))], omegas,
                                        never_observed=never)


def test_from_completions_rejects_mismatched_shapes():
    # a (4, 1) estimate against a (4, 3) truth would broadcast to a (2, 3)
    # field scored without complaint
    omegas = [ObservationSet(4, [0, 1]), ObservationSet(4, [2, 3])]
    truth = [np.ones((4, 3)), np.ones((4, 3))]
    for estimates in ([np.zeros((4, 3)), np.zeros((4, 1))],
                      [np.zeros((4, 3)), np.zeros((3, 3))]):
        with pytest.raises(ValueError, match=r"acquisition 2: truth is \(4, 3\)"):
            ErrorField.from_completions(truth, estimates, omegas)


@pytest.mark.parametrize("ids", [np.array([True, False]), [1.9], np.array([1.0])],
                         ids=["bool", "float", "whole-float"])
def test_id_arrays_must_hold_integers(ids):
    # cast, the mask [True, False] read as ids [1, 0] and 1.9 as 1
    truth = [np.ones((4, 1))]
    omegas = [ObservationSet(4, [0])]
    with pytest.raises(ValueError, match="integers"):
        ErrorField.from_completions(truth, truth, omegas, never_observed=ids)
    with pytest.raises(ValueError, match="integers"):
        accuracy(np.zeros(4), np.zeros(4), ids)


def test_empty_never_observed_of_any_dtype():
    truth = [np.arange(4.0)[:, None]]
    estimate = [np.zeros((4, 1))]
    omegas = [ObservationSet(4, [0])]
    want = ErrorField.from_completions(truth, estimate, omegas).errors
    for empty in ([], np.array([], dtype=bool), np.zeros(0)):
        got = ErrorField.from_completions(truth, estimate, omegas, never_observed=empty)
        assert np.array_equal(got.errors, want)


def test_no_missing_entries_raised():
    empty = ErrorField(np.empty((0, 2)))
    for metric in (mse, rmse, mae):
        with pytest.raises(NoMissingEntries):
            metric(empty)
    with pytest.raises(NoMissingEntries):
        mpsnr(empty)


def test_accuracy_examples():
    truth = np.array([0, 1, 1, 0])
    assert accuracy(truth, truth, [0, 1, 2, 3]) == 1.0
    assert accuracy(1 - truth, truth, [0, 1, 2, 3]) == 0.0
    pred = np.array([0, 1, 1, 1])
    assert accuracy(pred, truth, [0, 1, 2, 3]) == 0.75
    with pytest.raises(EmptyEvaluationSet):
        accuracy(pred, truth, [])
