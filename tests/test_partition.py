import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import class_indices
from wssda import (
    LabeledDataset,
    PartitionError,
    SubclassPartition,
    SynthSpec,
    TreeParams,
    generate_synthetic,
    partition_dataset,
)
from wssda.partition import (
    TREE_STRATEGIES,
    _median_split,
    cluster_kmeans,
    partition_class,
    split_kd,
    split_pca,
    split_rp,
)

ALL_TREES = list(TREE_STRATEGIES) + ["kmeans"]


# ------------------------------------------------------------------ split rules


def test_kd_split_1d_median():
    pts = np.array([[1.0], [2.0], [3.0], [4.0]])
    left, right = split_kd(pts)
    assert left.tolist() == [0, 1] and right.tolist() == [2, 3]


def test_kd_picks_max_spread_axis():
    pts = np.array([[0.0, 0.0], [0.0, 10.0], [1.0, 0.0], [1.0, 10.0]])
    left, right = split_kd(pts)
    # spread 10 on the second axis beats 1 on the first
    assert sorted(left.tolist()) == [0, 2]
    assert sorted(right.tolist()) == [1, 3]


def test_median_split_identical_points_by_index():
    pts = np.zeros(4)
    left, right = _median_split(pts)
    assert left.tolist() == [0, 1] and right.tolist() == [2, 3]


def test_median_split_odd_count_left_heavy():
    left, right = _median_split(np.array([3.0, 1.0, 2.0]))
    assert len(left) == 2 and len(right) == 1


def test_rp_split_deterministic():
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    pts = np.random.default_rng(0).normal(size=(10, 4))
    la, ra = split_rp(pts, rng_a)
    lb, rb = split_rp(pts, rng_b)
    assert np.array_equal(la, lb) and np.array_equal(ra, rb)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_rp_split_collinear_reduces_to_1d_median(seed):
    # points on a line: any direction not orthogonal to it preserves the
    # 1-D order up to a global sign, and both orders give the same halves
    t = np.array([0.0, 1.0, 2.0, 3.0, 10.0, 11.0])
    pts = np.outer(t, np.array([1.0, -2.0, 0.5]))
    left, right = split_rp(pts, np.random.default_rng(seed))
    groups = {frozenset(left.tolist()), frozenset(right.tolist())}
    assert groups == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}


def test_rp_split_two_points():
    left, right = split_rp(np.array([[0.0, 0.0], [1.0, 1.0]]), np.random.default_rng(3))
    assert len(left) == 1 and len(right) == 1


def test_pca_split_principal_axis():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [12.0, 0.0]])
    left, right = split_pca(pts)
    assert sorted(left.tolist()) == [0, 1]
    assert sorted(right.tolist()) == [2, 3]


def test_pca_split_sign_invariant():
    # the median rule depends only on order statistics, so flipping the
    # principal direction cannot change the partition sets
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 3)) @ np.diag([5.0, 1.0, 0.2])
    left, right = split_pca(pts)
    left2, right2 = split_pca(-pts)
    assert {frozenset(left.tolist()), frozenset(right.tolist())} == {
        frozenset(left2.tolist()),
        frozenset(right2.tolist()),
    }


def test_pca_split_diagonal_direction():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    pts = np.outer(t, np.array([1.0, 1.0]) / np.sqrt(2))
    left, right = split_pca(pts)
    assert left.tolist() == [0, 1] and right.tolist() == [2, 3]


# ------------------------------------------------------------------ k-means


def test_kmeans_separated_blobs():
    rng = np.random.default_rng(4)
    blob_a = rng.normal(size=(5, 2)) * 0.1
    blob_b = rng.normal(size=(5, 2)) * 0.1 + 50.0
    pts = np.vstack([blob_a, blob_b])
    groups = cluster_kmeans(pts, 2, seed=0)
    sets = {frozenset(g.tolist()) for g in groups}
    assert sets == {frozenset(range(5)), frozenset(range(5, 10))}


def test_kmeans_h_equals_m_singletons():
    pts = np.arange(6, dtype=float).reshape(3, 2)
    groups = cluster_kmeans(pts, 3, seed=1)
    assert sorted(len(g) for g in groups) == [1, 1, 1]


def test_kmeans_deterministic():
    pts = np.random.default_rng(7).normal(size=(30, 3))
    a = cluster_kmeans(pts, 4, seed=5)
    b = cluster_kmeans(pts, 4, seed=5)
    for ga, gb in zip(a, b):
        assert np.array_equal(ga, gb)


# ------------------------------------------------------------------ class partitioning


def test_partition_deficient_class_singletons():
    pts = np.array([[1.0, 2.0]])
    groups, deficient = partition_class(pts, TreeParams(h=2), "kd")
    assert deficient and len(groups) == 1 and groups[0].tolist() == [0]


def test_partition_h1_identity():
    pts = np.random.default_rng(0).normal(size=(8, 3))
    groups, deficient = partition_class(pts, TreeParams(h=1), "kd")
    assert not deficient
    assert len(groups) == 1 and groups[0].tolist() == list(range(8))


@pytest.mark.parametrize("strategy", ALL_TREES)
def test_partition_cover_disjoint(strategy):
    pts = np.random.default_rng(3).normal(size=(8, 4))
    groups, deficient = partition_class(pts, TreeParams(h=2, seed=1), strategy)
    assert not deficient
    assert len(groups) == 2
    merged = np.sort(np.concatenate(groups))
    assert np.array_equal(merged, np.arange(8))
    assert all(len(g) > 0 for g in groups)


def test_tree_params_require_power_of_two():
    with pytest.raises(ValueError):
        TreeParams(h=3).validate("kd")
    TreeParams(h=3).validate("kmeans")  # flat clustering takes any h


@pytest.mark.parametrize("h", [2.0, 2.5, True])
def test_tree_params_refuse_an_h_that_is_not_an_integer(h):
    # h=2.0 failed with a bare TypeError from the bit arithmetic
    ds = generate_synthetic(SynthSpec(3, 2, 4, 3, seed=1))
    for strategy in ("kd", "kmeans", "provided"):
        with pytest.raises(ValueError, match=f"^h must be an integer, got {h!r}$"):
            partition_dataset(ds, TreeParams(h=h), strategy)
    assert partition_dataset(ds, TreeParams(h=np.int64(2)), "kd").subclass_counts[0].size == 2


def test_tree_depth_cap():
    with pytest.raises(ValueError):
        TreeParams(h=512).validate("kd")  # needs depth 9
    with pytest.raises(ValueError, match="needs depth 9"):  # a NumPy h has no bit_length
        TreeParams(h=np.int64(512)).validate("kd")


@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=24),
    st.sampled_from(ALL_TREES),
)
@settings(max_examples=60, deadline=None)
def test_partition_property_cover_disjoint_any_size(seed, m, strategy):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, 3))
    h = 4  # power of two so the same h serves trees and k-means alike
    groups, deficient = partition_class(pts, TreeParams(h=h, seed=seed), strategy)
    merged = np.sort(np.concatenate(groups))
    assert np.array_equal(merged, np.arange(m))
    if deficient:
        assert m < h and len(groups) == m
    else:
        assert len(groups) == h


# ------------------------------------------------------------------ dataset partitioning


def test_partition_dataset_shapes_and_determinism():
    ds = generate_synthetic(SynthSpec(5, 2, 6, 8, seed=3))
    part_a = partition_dataset(ds, TreeParams(h=2, seed=7), "rp")
    part_b = partition_dataset(ds, TreeParams(h=2, seed=7), "rp")
    assert np.array_equal(part_a.subclass_labels, part_b.subclass_labels)
    assert part_a.subclasses_per_class.tolist() == [2] * 5
    assert part_a.deficient_classes == ()


def test_partition_dataset_provided():
    ds = generate_synthetic(SynthSpec(3, 2, 4, 5, seed=0))
    part = partition_dataset(ds, TreeParams(h=2), "provided")
    assert np.array_equal(part.subclass_labels, ds.subclass_labels)


def test_partition_dataset_provided_requires_labels():
    ds = generate_synthetic(SynthSpec(3, 2, 4, 5, seed=0))
    stripped = LabeledDataset(ds.samples, ds.class_labels)
    with pytest.raises(PartitionError, match="subclass labels"):
        partition_dataset(stripped, TreeParams(h=2), "provided")


def test_partition_dataset_flags_deficient_classes():
    samples = np.random.default_rng(2).normal(size=(5, 3))
    labels = np.array([0, 0, 0, 0, 1])  # class 1 has a single sample
    ds_small = LabeledDataset(samples, labels)
    part = partition_dataset(ds_small, TreeParams(h=2, seed=0), "kd")
    assert part.deficient_classes == (1,)
    assert part.subclasses_per_class.tolist() == [2, 1]


def test_partition_group_ids_and_typed_errors():
    part = SubclassPartition(np.array([1, 0, 1, 1, 0]), np.array([0, 0, 2, 1, 0]), "provided")
    assert part.group_ids.tolist() == [1, 0, 3, 2, 0]
    assert [g.tolist() for g in part.subclass_counts] == [[2], [1, 1, 1]]
    with pytest.raises(PartitionError, match="class 1 has no samples"):
        SubclassPartition(np.array([0, 2]), np.array([0, 0]), "provided")
    with pytest.raises(PartitionError, match="class 1 has an empty subclass"):
        SubclassPartition(np.array([0, 1, 1]), np.array([0, 0, 2]), "provided")
    with pytest.raises(PartitionError, match="non-negative"):
        SubclassPartition(np.array([0, -1]), np.array([0, 0]), "provided")


def test_partition_refuses_labels_the_int64_cast_would_truncate():
    # each of these used to be truncated to a valid partition
    cases = [
        ([0, 1.5, 1], [0, 0, 0], "^class label at row 1 is not an integer: 1.5$"),
        ([0, 0, 1], [0.9, 0.0, 0.4], "^subclass label at row 0 is not an integer: 0.9$"),
        ([True, False], [0, 0], "^class label at row 0 is not an integer: True$"),
        ([0, 0], [False, True], "^subclass label at row 0 is not an integer: False$"),
    ]
    for classes, subs, message in cases:
        with pytest.raises(PartitionError, match=message):
            SubclassPartition(classes, subs, "provided")
    part = SubclassPartition(np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0]), "provided")
    assert part.group_ids.tolist() == [0, 1, 2]


@pytest.mark.parametrize("strategy", ALL_TREES)
def test_partition_dataset_matches_a_class_indices_reference(strategy):
    rng = np.random.default_rng(9)
    labels = rng.permutation(np.repeat(np.arange(4), [9, 3, 12, 8]))  # class 1 is deficient
    ds = LabeledDataset(rng.normal(size=(labels.size, 3)), labels)
    params = TreeParams(h=4, seed=5)
    expected = np.empty(ds.n, dtype=np.int64)
    for i in range(ds.class_count):
        idx = class_indices(ds, i)
        class_rng = np.random.default_rng(np.random.SeedSequence([params.seed, i]))
        groups, _ = partition_class(ds.samples[idx], params, strategy, rng=class_rng)
        for j, group in enumerate(groups):
            expected[idx[group]] = j
    part = partition_dataset(ds, params, strategy)
    assert np.array_equal(part.subclass_labels, expected)
    assert part.deficient_classes == (1,)


@pytest.mark.parametrize("strategy", ["kd", "pca"])
def test_strategies_that_draw_nothing_build_no_generator(strategy, monkeypatch):
    # a generator costs tens of microseconds per class; rp and kmeans keep
    # their per-class streams (the class-indices reference above)
    ds = generate_synthetic(SynthSpec(5, 2, 6, 8, seed=3))
    built = []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: built.append(args))
    part = partition_dataset(ds, TreeParams(h=4, seed=7), strategy)
    groups, _ = partition_class(ds.samples[:9], TreeParams(h=4), strategy)
    assert built == []
    assert part.subclasses_per_class.tolist() == [4] * 5 and len(groups) == 4
