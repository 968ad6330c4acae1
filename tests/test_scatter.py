from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wssda.pipeline
from wssda import (
    LabeledDataset,
    SynthSpec,
    TrainConfig,
    TreeParams,
    between_subclass_scatter,
    class_means,
    generate_synthetic,
    group_means,
    mean_of_class_means,
    partition_dataset,
    total_subclass_scatter,
    train_detailed,
    within_class_scatter,
    within_subclass_scatter,
)
from wssda import scatter


def balanced_ds(seed=0, c=4, h=2, g=5, dim=6):
    return generate_synthetic(SynthSpec(c, h, g, dim, seed=seed))


def unbalanced_ds(seed, group_sizes, dim):
    """Dataset with subclass labels: group_sizes[i][j] rows in subclass j of class i,
    with rows shuffled so no group is contiguous."""
    rng = np.random.default_rng(seed)
    flat = [g for per_class in group_sizes for g in per_class]
    group = np.repeat(np.arange(len(flat)), flat)
    classes = np.repeat(np.arange(len(group_sizes)), [sum(g) for g in group_sizes])
    subs = np.concatenate([np.repeat(np.arange(len(g)), g) for g in group_sizes])
    samples = 5.0 * rng.normal(size=(len(flat), dim))[group] + rng.normal(size=(group.size, dim))
    order = rng.permutation(group.size)
    return LabeledDataset(samples[order], classes[order], subs[order])


# ------------------------------------------------------------------ loop oracles
# One group at a time, as the builders were first written; the shared one-GEMM
# core must reproduce them.


def loop_group_means(samples, ids, count):
    return np.stack([samples[ids == k].mean(axis=0) for k in range(count)])


def loop_within_class(ds):
    acc = np.zeros((ds.dim, ds.dim))
    for i in range(ds.class_count):
        block = ds.samples[ds.class_labels == i]
        centered = block - block.mean(axis=0)
        acc += centered.T @ centered
    return acc / ds.n, min(ds.dim, ds.n - ds.class_count)


def subclasses_of(part, i):
    return int(part.subclass_labels[part.class_labels == i].max()) + 1


def loop_within_subclass(ds, part):
    c = ds.class_count
    acc = np.zeros((ds.dim, ds.dim))
    rank_bound = 0
    for i in range(c):
        h_i = subclasses_of(part, i)
        for j in range(h_i):
            idx = part.group_indices(i, j)
            centered = ds.samples[idx] - ds.samples[idx].mean(axis=0)
            acc += (centered.T @ centered) / (c * h_i * idx.size)
            rank_bound += idx.size - 1
    return acc, min(ds.dim, rank_bound)


def loop_subclass_means(ds, part):
    means = []
    for i in range(ds.class_count):
        groups = [part.group_indices(i, j) for j in range(subclasses_of(part, i))]
        means.append(np.stack([ds.samples[idx].mean(axis=0) for idx in groups]))
    return means


def loop_between_subclass(subclass_means, global_mean):
    c = len(subclass_means)
    acc = np.zeros((global_mean.size, global_mean.size))
    for means in subclass_means:
        dev = means - global_mean
        acc += (dev.T @ dev) / (c * means.shape[0])
    total = sum(m.shape[0] for m in subclass_means)
    return acc, min(global_mean.size, total - 1)


def loop_total_subclass(samples, class_labels, global_mean):
    c = int(class_labels.max()) + 1
    acc = np.zeros((samples.shape[1], samples.shape[1]))
    for i in range(c):
        dev = samples[class_labels == i] - global_mean
        acc += (dev.T @ dev) / (c * dev.shape[0])
    return acc, min(samples.shape[1], samples.shape[0])


def assert_matches_oracle(got, oracle):
    expect, rank_bound = oracle
    scale = max(float(np.abs(expect).max()), 1.0)
    np.testing.assert_allclose(got.matrix, expect, rtol=1e-12, atol=1e-12 * scale)
    assert got.rank_bound == rank_bound


# ------------------------------------------------------------------ within-class


def test_within_class_hand_example():
    ds = LabeledDataset(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([0, 0]))
    sw = within_class_scatter(ds)
    assert np.allclose(sw.matrix, [[1.0, 0.0], [0.0, 0.0]])


def test_within_class_zero_when_samples_equal_means():
    ds = LabeledDataset(np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]]), np.array([0, 0, 1]))
    assert np.allclose(within_class_scatter(ds).matrix, 0.0)


def test_within_class_rank_bound():
    ds = balanced_ds(seed=5, c=3, h=1, g=4, dim=20)
    sw = within_class_scatter(ds)
    eigvals = np.linalg.eigvalsh(sw.matrix)
    rank = int(np.sum(eigvals > eigvals.max() * 1e-10))
    assert rank <= min(ds.dim, ds.n - ds.class_count) == sw.rank_bound


# ------------------------------------------------------------------ within-subclass


def test_within_subclass_single_group_hand_example():
    ds = LabeledDataset(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([0, 0]), np.array([0, 0]))
    part = partition_dataset(ds, TreeParams(h=1), "provided")
    sws = within_subclass_scatter(ds, part)
    assert np.allclose(sws.matrix, [[1.0, 0.0], [0.0, 0.0]])


def test_within_subclass_singletons_zero():
    ds = LabeledDataset(np.random.default_rng(0).normal(size=(4, 3)), np.array([0, 0, 1, 1]))
    part = partition_dataset(ds, TreeParams(h=2, seed=0), "kd")  # 2 samples, h=2: singletons
    assert np.allclose(within_subclass_scatter(ds, part).matrix, 0.0)


def test_within_subclass_h1_equals_class_weighted_scatter():
    ds = balanced_ds(seed=7)
    part = partition_dataset(ds, TreeParams(h=1), "kd")
    sws = within_subclass_scatter(ds, part).matrix
    c = ds.class_count
    expect = np.zeros((ds.dim, ds.dim))
    for i in range(c):
        block = ds.samples[ds.class_labels == i]
        centered = block - block.mean(axis=0)
        expect += centered.T @ centered / (c * len(block))
    assert np.allclose(sws, expect, atol=1e-12)
    # balanced classes: class weighting coincides with the 1/n pooled scatter
    assert np.allclose(sws, within_class_scatter(ds).matrix, atol=1e-12)


def test_within_subclass_weighting_matches_formula():
    # unbalanced group sizes exercise the 1/(C H_i G_ij) coefficients
    samples = np.array(
        [[0.0, 0.0], [4.0, 0.0], [0.0, 2.0], [0.0, 6.0], [1.0, 1.0], [3.0, 3.0], [5.0, 5.0]]
    )
    classes = np.array([0, 0, 0, 0, 1, 1, 1])
    subs = np.array([0, 0, 1, 1, 0, 0, 0])
    ds = LabeledDataset(samples, classes, subs)
    part = partition_dataset(ds, TreeParams(h=2), "provided")
    got = within_subclass_scatter(ds, part).matrix
    expect = np.zeros((2, 2))
    for i, h_i in ((0, 2), (1, 1)):
        for j in range(h_i):
            idx = np.flatnonzero((classes == i) & (subs == j))
            centered = samples[idx] - samples[idx].mean(axis=0)
            expect += centered.T @ centered / (2 * h_i * len(idx))
    assert np.allclose(got, expect, atol=1e-14)


def test_within_subclass_partition_mismatch():
    ds = balanced_ds(seed=1)
    part = partition_dataset(ds, TreeParams(h=2, seed=0), "kd")
    part.class_labels[0] = 1  # no longer matches the dataset
    with pytest.raises(Exception, match="partition"):
        within_subclass_scatter(ds, part)


# ------------------------------------------------------------------ between/total


def test_between_subclass_hand_example():
    means = [np.array([[1.0, 0.0], [-1.0, 0.0]])]
    got = between_subclass_scatter(means, np.array([0.0, 0.0]))
    assert np.allclose(got.matrix, [[1.0, 0.0], [0.0, 0.0]])


def test_between_subclass_zero_when_all_means_global():
    mu = np.array([2.0, 3.0])
    means = [np.tile(mu, (2, 1)), np.tile(mu, (3, 1))]
    assert np.allclose(between_subclass_scatter(means, mu).matrix, 0.0)


def test_mean_of_class_means_differs_from_grand_mean():
    samples = np.array([[0.0], [2.0], [10.0], [10.0], [10.0], [14.0]])
    labels = np.array([0, 0, 1, 1, 1, 1])
    center = mean_of_class_means(samples, labels)
    assert np.allclose(center, [6.0])
    assert not np.allclose(center, samples.mean(axis=0))  # grand mean is 46/6


def test_total_subclass_single_sample_zero():
    got = total_subclass_scatter(np.array([[3.0, 4.0]]), np.array([0]), np.array([3.0, 4.0]))
    assert np.allclose(got.matrix, 0.0)


def test_total_subclass_weighting():
    samples = np.array([[0.0], [2.0], [10.0], [14.0]])
    labels = np.array([0, 0, 1, 1])
    mu = mean_of_class_means(samples, labels)  # (1 + 12)/2 = 6.5
    got = total_subclass_scatter(samples, labels, mu).matrix
    expect = np.zeros((1, 1))
    for i in range(2):
        dev = samples[labels == i] - mu
        expect += dev.T @ dev / (2 * 2)
    assert np.allclose(got, expect)


# ------------------------------------------------------------------ properties


@given(st.integers(0, 2**31), st.floats(0.25, 4.0))
@settings(max_examples=30, deadline=None)
def test_scatter_quadratic_scaling(seed, c):
    ds = balanced_ds(seed=seed)
    part = partition_dataset(ds, TreeParams(h=2, seed=seed), "kd")
    base = within_subclass_scatter(ds, part).matrix
    scaled_ds = LabeledDataset(ds.samples * c, ds.class_labels, ds.subclass_labels)
    scaled = within_subclass_scatter(scaled_ds, part).matrix
    assert np.allclose(scaled, c * c * base, rtol=1e-10, atol=1e-12)


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_scatter_psd_and_symmetric(seed):
    ds = balanced_ds(seed=seed)
    # unequal H_i, a singleton subclass and unequal class sizes
    odd = unbalanced_ds(seed, [[3, 1, 4], [2], [1, 5]], dim=6)
    for data, part in (
        (ds, partition_dataset(ds, TreeParams(h=2, seed=seed), "rp")),
        (odd, partition_dataset(odd, TreeParams(h=1), "provided")),
    ):
        m = within_subclass_scatter(data, part).matrix
        assert np.array_equal(m, m.T)
        assert np.linalg.eigvalsh(m).min() >= -1e-10


group_sizes = st.lists(
    st.lists(st.integers(1, 5), min_size=1, max_size=4), min_size=1, max_size=5
)


@given(st.integers(0, 2**31), group_sizes, st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_builders_match_loop_oracle(seed, sizes, dim):
    ds = unbalanced_ds(seed, sizes, dim)
    part = partition_dataset(ds, TreeParams(h=1), "provided")
    count = sum(len(g) for g in sizes)
    cmeans = class_means(ds.samples, ds.class_labels)
    for got, ids, n_ids in (
        (group_means(ds.samples, part.group_ids, count), part.group_ids, count),
        (cmeans, ds.class_labels, ds.class_count),
    ):
        expect = loop_group_means(ds.samples, ids, n_ids)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)
    center = cmeans.mean(axis=0)
    sub_means = loop_subclass_means(ds, part)
    assert_matches_oracle(within_class_scatter(ds), loop_within_class(ds))
    assert_matches_oracle(within_subclass_scatter(ds, part), loop_within_subclass(ds, part))
    assert_matches_oracle(
        between_subclass_scatter(sub_means, center), loop_between_subclass(sub_means, center)
    )
    assert_matches_oracle(
        total_subclass_scatter(ds.samples, ds.class_labels, center),
        loop_total_subclass(ds.samples, ds.class_labels, center),
    )


# ------------------------------------------------------------------ reduceat order
# group_means sums each group in np.add.reduceat's order, so the bytes of every
# mean, and of every model trained on them, are those of this expression.


def reduceat_group_means(samples, ids, count):
    sizes = np.bincount(ids, minlength=count)
    order = np.argsort(ids, kind="stable")
    starts = np.cumsum(sizes) - sizes
    return np.add.reduceat(samples[order], starts, axis=0) / sizes[:, None]


# below 8, the 8 partial sums, their tail, the 128 block edge and the halving
PAIRWISE_SIZES = [1, 2, 3, 8, 9, 10, 16, 17, 128, 129, 130, 137, 257]


@given(
    st.integers(0, 2**31),
    st.lists(st.sampled_from(PAIRWISE_SIZES), min_size=1, max_size=5),
    st.integers(1, 12),
    st.integers(1, 4),
)
@settings(max_examples=80, deadline=None)
def test_group_means_equal_reduceat_bit_for_bit(seed, sizes, copies, dim):
    rng = np.random.default_rng(seed)
    counts = np.repeat(sizes, copies)  # many groups of one size
    ids = rng.permutation(np.repeat(np.arange(counts.size), counts))
    samples = rng.normal(size=(ids.size, dim)) * 10.0 ** rng.integers(-150, 151, (ids.size, 1))
    samples[rng.random(samples.shape) < 0.1] = 0.0
    samples[rng.random(samples.shape) < 0.1] = -0.0
    samples[ids == 0] = -0.0  # a group whose sum is -0.0
    got = group_means(samples, ids, counts.size)
    assert got.tobytes() == reduceat_group_means(samples, ids, counts.size).tobytes()


def test_group_means_sum_groups_of_mixed_sizes_in_one_call():
    # 40 groups of 3 and 2 of 137, each size summed as one block
    rng = np.random.default_rng(3)
    counts = np.array([3] * 40 + [137] * 2)
    ids = rng.permutation(np.repeat(np.arange(counts.size), counts))
    samples = rng.normal(size=(ids.size, 64))
    got = group_means(samples, ids, counts.size)
    assert got.tobytes() == reduceat_group_means(samples, ids, counts.size).tobytes()
    with pytest.raises(ValueError, match="no empty group"):
        group_means(samples, ids, counts.size + 1)


def training_bytes(ds, strategy, second_stage):
    part = partition_dataset(ds, TreeParams(h=2, seed=4), strategy)
    fx, details = train_detailed(ds, part, TrainConfig(d=5, second_stage=second_stage))
    es = details.spectrum
    return [
        fx.projection.tobytes(),
        es.eigenvalues.tobytes(),
        es.eigenvectors.tobytes(),
        details.model.weights.tobytes(),
        details.second_stage_eigenvalues.tobytes(),
    ]


@pytest.mark.parametrize("strategy", ["kd", "kmeans"])  # kmeans: uneven subclass sizes
@pytest.mark.parametrize("second_stage", ["ts", "bs"])
@pytest.mark.parametrize("shape", [(6, 300), (16, 40)], ids=["dual", "dense"])
def test_training_on_reduceat_means_keeps_every_byte(shape, second_stage, strategy):
    classes, dim = shape
    ds = generate_synthetic(SynthSpec(classes, 2, 5, dim, seed=8))
    assert (ds.n < ds.dim) == (dim == 300)
    got = training_bytes(ds, strategy, second_stage)
    with mock.patch.object(scatter, "group_means", reduceat_group_means), mock.patch.object(
        wssda.pipeline, "group_means", reduceat_group_means
    ):
        expect = training_bytes(ds, strategy, second_stage)
    assert got == expect
