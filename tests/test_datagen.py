import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from graphprop import (
    DenseTensor,
    OverlapSpec,
    SynthSpec,
    build_graph,
    generate_acquisitions,
    matricize,
    orthonormal_rows,
    partial_overlap_masks,
    sample_observation_sets,
    smooth_raster_pair,
    two_block_graph,
)
from graphprop.datagen import CORE_MEAN, CORE_STD
from graphprop.errors import InfeasibleFraction
from oracles import setdiff_observation_sets


def test_determinism_bit_identical():
    spec = SynthSpec(12, 10, 3, r=4, lambda_count=3, missing_frac=0.3, seed=77)
    first = generate_acquisitions(spec)
    second = generate_acquisitions(spec)
    for a, b in zip(first, second):
        assert np.array_equal(a.values, b.values)
    oms1 = sample_observation_sets(120, 0.3, 3, seed=5)
    oms2 = sample_observation_sets(120, 0.3, 3, seed=5)
    for a, b in zip(oms1, oms2):
        assert np.array_equal(a.observed, b.observed)
    m1 = partial_overlap_masks(OverlapSpec(40, 30, 0.3))
    m2 = partial_overlap_masks(OverlapSpec(40, 30, 0.3))
    assert np.array_equal(m1[0], m2[0]) and np.array_equal(m1[1], m2[1])


def test_orthonormal_rows_property():
    rng = np.random.default_rng(0)
    u = orthonormal_rows(rng, 4, 9)
    assert u.shape == (4, 9)
    assert np.max(np.abs(u @ u.T - np.eye(4))) <= 1e-10
    with pytest.raises(ValueError):
        orthonormal_rows(rng, 5, 3)


def test_rank_one_single_channel_is_outer_product():
    spec = SynthSpec(8, 7, 1, r=1, lambda_count=1, missing_frac=0.0, seed=3)
    (acq,) = generate_acquisitions(spec)
    sv = np.linalg.svd(matricize(acq, 1).values, compute_uv=False)
    assert np.all(sv[1:] <= 1e-8 * sv[0])


def test_second_acquisition_is_channel_scaled():
    spec = SynthSpec(10, 10, 3, r=3, lambda_count=2, seed=9)
    first, second = generate_acquisitions(spec)
    f1 = matricize(first, 3).values
    f2 = matricize(second, 3).values
    scales = f2[0] / f1[0]
    assert np.allclose(f2, f1 * scales, atol=1e-12)


def test_stacked_tucker_ranks():
    spec = SynthSpec(20, 20, 3, r=6, lambda_count=2, seed=4)
    stacked = DenseTensor.from_array(
        np.stack([t.values for t in generate_acquisitions(spec)], axis=-1))
    for mode, expected in ((1, 6), (2, 6), (4, 2)):
        sv = np.linalg.svd(matricize(stacked, mode).values, compute_uv=False)
        numerical_rank = int(np.sum(sv > 1e-8 * sv[0]))
        assert numerical_rank == expected
    sv3 = np.linalg.svd(matricize(stacked, 3).values, compute_uv=False)
    assert int(np.sum(sv3 > 1e-8 * sv3[0])) <= 3


def brute_force_tucker(core, factors):
    shape = tuple(u.shape[1] for u in factors)
    out = np.zeros(shape)
    for out_idx in np.ndindex(*shape):
        total = 0.0
        for core_idx in np.ndindex(*core.shape):
            term = core[core_idx]
            for k in range(len(factors)):
                term *= factors[k][core_idx[k], out_idx[k]]
            total += term
        out[out_idx] = total
    return out


@given(st.integers(0, 2**31 - 1), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_tucker_matches_nested_sum(seed, r):
    spec = SynthSpec(4, 5, 3, r=r, lambda_count=1, missing_frac=0.0, seed=seed)
    (acq,) = generate_acquisitions(spec)
    # the generator's draws, in its order: factors of modes 1, 2, 3, then the core
    rng = np.random.default_rng(seed)
    factors = (
        orthonormal_rows(rng, r, 4),
        orthonormal_rows(rng, r, 5),
        orthonormal_rows(rng, 3, 3),
    )
    core = rng.normal(CORE_MEAN, CORE_STD, size=(r, r, 3))
    expected = brute_force_tucker(core, factors)
    expected /= expected.std()
    assert np.max(np.abs(acq.values - expected)) <= 1e-12


def test_unit_scale_normalisation():
    spec = SynthSpec(30, 30, 3, r=10, lambda_count=1, missing_frac=0.0, seed=6)
    (acq,) = generate_acquisitions(spec)
    assert abs(acq.values.std() - 1.0) <= 1e-12


def test_observation_sets_zero_fraction():
    oms = sample_observation_sets(50, 0.0, 2, seed=1)
    for om in oms:
        assert om.observed.size == 50


def test_observation_sets_disjoint_and_covering():
    oms = sample_observation_sets(100, 0.4, 2, seed=2)
    missing = [set(om.missing.tolist()) for om in oms]
    assert len(missing[0]) == 40 and len(missing[1]) == 40
    assert not (missing[0] & missing[1])
    assert set(np.union1d(oms[0].observed, oms[1].observed)) == set(range(100))


@pytest.mark.parametrize("seed", range(5))
def test_observation_sets_match_the_setdiff_construction(seed):
    for n, frac, count in ((100, 0.3, 2), (97, 0.3, 3), (9216, 0.4, 2), (10, 0.0, 1)):
        got = sample_observation_sets(n, frac, count, seed=seed)
        want = setdiff_observation_sets(n, frac, count, seed)
        for g, w in zip(got, want, strict=True):
            assert g.observed.tobytes() == w.observed.tobytes()
            assert g.missing.tobytes() == w.missing.tobytes()


def test_observation_sets_infeasible_half():
    with pytest.raises(InfeasibleFraction):
        sample_observation_sets(100, 0.5, 2, seed=3)


def test_observation_sets_infeasible_three_way():
    # below the pairwise-coverage cap but the disjoint partition cannot fit
    with pytest.raises(InfeasibleFraction):
        sample_observation_sets(99, 0.5, 3, seed=4)


def test_overlap_masks_zero_fraction():
    m1, m2 = partial_overlap_masks(OverlapSpec(16, 16, 0.0))
    assert m1.all() and m2.all()


def test_overlap_crop_count_500_at_40_percent():
    spec = OverlapSpec(500, 500, 0.4)
    assert spec.crop_count == 113
    assert abs(spec.achieved_frac - 0.4009) <= 5e-4


def test_overlap_masks_structure():
    spec = OverlapSpec(20, 30, 0.3)
    c = spec.crop_count
    m1, m2 = partial_overlap_masks(spec)
    assert not m1[:c].any() and not m1[:, :c].any()
    assert m1[c:, c:].all()
    assert not m2[-c:].any() and not m2[:, -c:].any()
    assert m2[:-c, :-c].all()
    never = ~(m1 | m2)
    assert never.sum() == 2 * c * c


def test_overlap_achieved_within_resolution():
    # exhaustive scan: the achieved fraction is within 1/min(h, w) of target
    for target in np.linspace(0.0, 0.7, 15):
        spec = OverlapSpec(64, 48, float(target))
        assert abs(spec.achieved_frac - target) <= 1.0 / 48.0


def test_overlap_spec_validation():
    with pytest.raises(ValueError):
        OverlapSpec(10, 10, 0.8)
    with pytest.raises(ValueError):
        OverlapSpec(0, 10, 0.1)


def test_two_block_graph_shape():
    edges, labels = two_block_graph(50, seed=0)
    assert edges.n == 100
    assert labels.sum() == 50
    intra_pairs = 2 * (50 * 49) // 2
    intra = sum(1 for u, v in edges.edges if (u < 50) == (v < 50))
    assert intra >= 0.9 * intra_pairs
    g = build_graph(edges)
    n_comp, _ = connected_components(g.adjacency, directed=False)
    assert n_comp == 1


def test_smooth_raster_pair_properties():
    first, second = smooth_raster_pair(32, 24, 4, seed=5)
    assert first.shape == (32, 24, 4) == second.shape
    scales = second.values[0, 0] / first.values[0, 0]
    assert np.allclose(second.values, first.values * scales, atol=1e-12)
    again, _ = smooth_raster_pair(32, 24, 4, seed=5)
    assert np.array_equal(first.values, again.values)


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(10, 10, 3, r=11)
    with pytest.raises(InfeasibleFraction):
        SynthSpec(10, 10, 3, r=2, lambda_count=2, missing_frac=0.6)
    with pytest.raises(InfeasibleFraction):
        SynthSpec(10, 10, 3, r=2, lambda_count=2, missing_frac=0.5)
    with pytest.raises(ValueError):
        SynthSpec(10, 10, 3, r=0)
