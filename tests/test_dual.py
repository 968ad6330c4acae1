"""Training with fewer samples than dimensions: the Gram-matrix (dual) path.

The dense path, which eigendecomposes dim x dim scatters, is the oracle.  It
stays reachable as pipeline._dense, so the same inputs run through both.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wssda import (
    LabeledDataset,
    TrainConfig,
    TrainingError,
    TreeParams,
    partition_dataset,
    train,
    train_detailed,
)
from wssda.pipeline import SECOND_STAGES, _dense, _dual
from wssda.spectrum import REGULARIZED, TRUNCATED

# second-stage eigenvalues closer than this (relative to the largest) form one
# cluster, whose eigenvectors either path may rotate within the cluster
CLUSTER_RTOL = 1e-6


def small_sample_ds(seed, class_sizes, extra_dims, split=None):
    """Classes of the given sizes in dim = n + extra_dims, with subclass labels:
    the first split[i] rows of class i (default: a random count) form
    subclass 0, the rest subclass 1.  Rows are shuffled."""
    rng = np.random.default_rng(seed)
    n = sum(class_sizes)
    dim = n + extra_dims
    scales = rng.uniform(0.5, 2.0, size=dim)
    classes, subs = [], []
    for i, size in enumerate(class_sizes):
        first = split[i] if split else int(rng.integers(1, size))
        classes += [i] * size
        subs += [0] * first + [1] * (size - first)
    classes, subs = np.array(classes), np.array(subs)
    centers = 3.0 * rng.normal(size=(len(class_sizes), 2, dim))
    samples = centers[classes, subs] + scales * rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return LabeledDataset(samples[order], classes[order], subs[order])


def rank_of(values):
    return int(np.count_nonzero(values > values[0] * 1e-12)) if values[0] > 0 else 0


def clusters(values, count):
    """Runs of near-equal leading eigenvalues, as index ranges over [0, count)."""
    gap = CLUSTER_RTOL * values[0]
    edges = [0] + [k for k in range(1, count) if values[k - 1] - values[k] > gap]
    return [range(a, b) for a, b in zip(edges, edges[1:] + [count])]


def span_projector(columns):
    q, _ = np.linalg.qr(columns)
    return q @ q.T


@st.composite
def cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(st.lists(st.integers(4, 8), min_size=2, max_size=5))
    extra = draw(st.integers(1, 30))
    strategy = draw(st.sampled_from(["kd", "kmeans", "provided"]))
    mode = draw(st.sampled_from([REGULARIZED, TRUNCATED]))
    stage = draw(st.sampled_from(SECOND_STAGES))
    return seed, sizes, extra, strategy, mode, stage


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_dual_matches_dense_oracle(case):
    seed, sizes, extra, strategy, mode, stage = case
    ds = small_sample_ds(seed, sizes, extra)
    assert ds.n < ds.dim
    part = partition_dataset(ds, TreeParams(h=2, seed=seed % 1000), strategy)
    config = TrainConfig(d=ds.dim, mode=mode, second_stage=stage)
    es_a, model_a, proj_a, second_a, rank_a = _dense(ds, part, config)
    es_b, model_b, proj_b, second_b, rank_b = _dual(ds, part, config)

    assert es_b.rank == es_a.rank
    assert es_b.eigenvectors.shape == (ds.dim, es_b.rank)
    assert model_b.pivot == model_a.pivot
    for got, want in ((model_b.alpha, model_a.alpha), (model_b.beta, model_a.beta)):
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_allclose(got, want, rtol=1e-10)
    np.testing.assert_allclose(model_b.weights, model_a.weights, rtol=1e-10)

    r2 = rank_of(second_b)
    assert rank_b == r2
    assert rank_a == rank_of(second_a)
    np.testing.assert_allclose(second_b[:r2], second_a[:r2], rtol=1e-10, atol=1e-12 * second_a[0])
    assert np.all(proj_b[:, r2:] == 0.0)
    for group in clusters(second_a, r2):
        a, b = proj_a[:, group], proj_b[:, group]
        if len(group) == 1:
            a, b = a[:, 0], b[:, 0]
            sign = np.sign(a @ b)
            assert np.linalg.norm(b - sign * a) <= 1e-7 * np.linalg.norm(a), group
        else:
            diff = span_projector(b) - span_projector(a)
            assert np.abs(diff).max() <= 1e-7, group


@pytest.mark.parametrize("mode", [REGULARIZED, TRUNCATED])
def test_dual_all_singletons_raise_the_dense_error(mode):
    rng = np.random.default_rng(4)
    classes = np.repeat([0, 1, 2], 3)
    subs = np.tile([0, 1, 2], 3)
    ds = LabeledDataset(rng.normal(size=(9, 20)), classes, subs)
    part = partition_dataset(ds, TreeParams(h=3), "provided")
    config = TrainConfig(d=4, mode=mode)
    with pytest.raises(TrainingError) as dense:
        _dense(ds, part, config)
    with pytest.raises(TrainingError) as dual:
        train(ds, part, config)
    assert str(dual.value) == str(dense.value)


def test_dual_projection_ignores_row_order():
    # unequal subclass sizes keep the second-stage eigenvalues apart, so every
    # column is determined up to sign, and the sign rule fixes the sign
    ds = small_sample_ds(8, [7, 6, 8, 5], 15, split=[2, 4, 3, 1])
    part = partition_dataset(ds, TreeParams(h=2), "provided")
    config = TrainConfig(d=ds.dim)
    fx, details = train_detailed(ds, part, config)
    values = details.second_stage_eigenvalues
    r2 = rank_of(values)
    gaps = -np.diff(values[: r2 + 1])
    assert gaps.min() > 1e-5 * values[0]

    order = np.random.default_rng(1).permutation(ds.n)
    shuffled = LabeledDataset(ds.samples[order], ds.class_labels[order], ds.subclass_labels[order])
    fx_s = train(shuffled, partition_dataset(shuffled, TreeParams(h=2), "provided"), config)
    scale = np.abs(fx.projection).max()
    assert np.abs(fx_s.projection - fx.projection).max() <= 1e-10 * scale


@pytest.mark.parametrize("mode", [REGULARIZED, TRUNCATED])
@pytest.mark.parametrize("stage", SECOND_STAGES)
def test_dual_leading_columns_bit_for_bit(mode, stage):
    ds = small_sample_ds(3, [6, 5, 7], 25)
    part = partition_dataset(ds, TreeParams(h=2, seed=3), "kd")
    full = train(ds, part, TrainConfig(d=ds.dim, mode=mode, second_stage=stage))
    for d in (1, 3, 9, 20, ds.dim - 1):
        fx = train(ds, part, TrainConfig(d=d, mode=mode, second_stage=stage))
        assert np.array_equal(fx.projection, full.projection[:, :d]), d


def test_dual_columns_past_second_stage_rank_are_zero():
    # 5 classes x 6 rows at dim 40: the total-subclass scatter has rank n - 1 = 29
    rng = np.random.default_rng(0)
    classes = np.repeat(np.arange(5), 6)
    samples = 3.0 * rng.normal(size=(5, 40))[classes] + rng.normal(size=(30, 40))
    ds = LabeledDataset(samples, classes)
    part = partition_dataset(ds, TreeParams(h=2, seed=0), "kd")
    fx, details = train_detailed(ds, part, TrainConfig(d=40))
    assert rank_of(details.second_stage_eigenvalues) == details.second_stage_rank == 29
    assert np.all(fx.projection[:, 29:] == 0.0)
    assert np.all(np.linalg.norm(fx.projection[:, :29], axis=0) > 0.0)
    peaks = np.abs(fx.projection[:, :29]).argmax(axis=0)
    assert np.all(fx.projection[peaks, np.arange(29)] > 0.0)


def test_dual_never_allocates_a_dim_by_dim_array():
    rng = np.random.default_rng(2)
    classes = np.repeat(np.arange(5), 8)
    dim = 4000
    samples = 3.0 * rng.normal(size=(5, dim))[classes] + rng.normal(size=(40, dim))
    ds = LabeledDataset(samples, classes)
    part = partition_dataset(ds, TreeParams(h=2, seed=0), "kd")
    tracemalloc.start()
    try:
        fx, details = train_detailed(ds, part, TrainConfig(d=64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fx.projection.shape == (dim, 64)
    assert details.spectrum.eigenvalues.shape == (dim,)
    # one dim x dim float64 matrix alone would be 128 MB
    assert peak < dim * dim * 8 / 10, peak
