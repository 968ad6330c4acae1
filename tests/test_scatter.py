import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import wssda.pipeline
from conftest import (
    _refuse_zero_scatter,
    assert_first_stage_close,
    assert_second_stage_close,
    group_indices,
    outcome,
    within_subclass_rows,
)
from wssda import (
    FeatureExtractor,
    LabeledDataset,
    SynthSpec,
    TrainConfig,
    TrainingError,
    TreeParams,
    generate_synthetic,
    partition_dataset,
    train,
)
from wssda import scatter
from wssda.pipeline import SECOND_STAGES, _dense, _dual
from wssda.scatter import (
    between_subclass_scatter,
    class_means,
    group_means,
    prescale_rows,
    total_subclass_scatter,
    within_subclass_scatter,
)
from wssda.spectrum import REGULARIZED, TRUNCATED


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
    """Pooled within-class scatter, each row weighted 1/n."""
    acc = np.zeros((ds.dim, ds.dim))
    for i in range(ds.class_count):
        block = ds.samples[ds.class_labels == i]
        centered = block - block.mean(axis=0)
        acc += centered.T @ centered
    return acc / ds.n


def subclasses_of(part, i):
    return int(part.subclass_labels[part.class_labels == i].max()) + 1


def loop_within_subclass(ds, part):
    c = ds.class_count
    acc = np.zeros((ds.dim, ds.dim))
    for i in range(c):
        h_i = subclasses_of(part, i)
        for j in range(h_i):
            idx = group_indices(part, i, j)
            centered = ds.samples[idx] - ds.samples[idx].mean(axis=0)
            acc += (centered.T @ centered) / (c * h_i * idx.size)
    return acc


def loop_subclass_means(ds, part):
    means = []
    for i in range(ds.class_count):
        groups = [group_indices(part, i, j) for j in range(subclasses_of(part, i))]
        means.append(np.stack([ds.samples[idx].mean(axis=0) for idx in groups]))
    return means


def loop_between_subclass(subclass_means, global_mean):
    c = len(subclass_means)
    acc = np.zeros((global_mean.size, global_mean.size))
    for means in subclass_means:
        dev = means - global_mean
        acc += (dev.T @ dev) / (c * means.shape[0])
    return acc


def loop_total_subclass(samples, class_labels, global_mean):
    c = int(class_labels.max()) + 1
    acc = np.zeros((samples.shape[1], samples.shape[1]))
    for i in range(c):
        dev = samples[class_labels == i] - global_mean
        acc += (dev.T @ dev) / (c * dev.shape[0])
    return acc


def assert_matches_oracle(got, expect):
    scale = max(float(np.abs(expect).max()), 1.0)
    np.testing.assert_allclose(got.matrix, expect, rtol=1e-12, atol=1e-12 * scale)


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


def test_within_subclass_zero_when_samples_equal_means():
    ds = LabeledDataset(np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]]), np.array([0, 0, 1]))
    part = partition_dataset(ds, TreeParams(h=1), "kd")
    assert np.allclose(within_subclass_scatter(ds, part).matrix, 0.0)


def test_within_subclass_rank_bound():
    # each subclass of G rows spans at most G - 1 directions
    ds = balanced_ds(seed=5, c=3, h=2, g=4, dim=20)
    part = partition_dataset(ds, TreeParams(h=2), "provided")
    eigvals = np.linalg.eigvalsh(within_subclass_scatter(ds, part).matrix)
    rank = int(np.sum(eigvals > eigvals.max() * 1e-10))
    assert rank <= min(ds.dim, ds.n - 6)


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
    assert np.allclose(sws, loop_within_class(ds), atol=1e-12)


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
    with pytest.raises(Exception, match="partition"):
        scatter.within_subclass_contrasts(ds, part)


# one to twelve rows a subclass; under kd or kmeans, a class of fewer rows
# than h is deficient and falls back to singleton subclasses
@given(
    st.integers(0, 2**31),
    st.lists(st.lists(st.integers(1, 12), min_size=1, max_size=3), min_size=1, max_size=5),
    st.integers(1, 8),
    st.sampled_from(["provided", "kd", "kmeans"]),
    st.sampled_from([2, 4]),
)
@settings(max_examples=60, deadline=None)
def test_within_subclass_contrasts_span_the_scatter(seed, sizes, dim, strategy, h):
    ds = unbalanced_ds(seed, sizes, dim)
    part = partition_dataset(ds, TreeParams(h=h, seed=seed % 1000), strategy)
    rows = scatter.within_subclass_contrasts(ds, part)
    subclasses = sum(len(counts) for counts in part.subclass_counts)
    assert rows.shape == (ds.n - subclasses, ds.dim)
    want = within_subclass_scatter(ds, part).matrix
    assert np.abs(rows.T @ rows - want).max() <= 1e-12 * np.abs(want).max()


# ------------------------------------------------------------------ coinciding subclasses
# scatter.within_subclass_contrasts before a subclass of coinciding rows gave
# exact zeros, kept verbatim (but for the name and the module prefix of its
# helpers) as the oracle of today's: every other contrast keeps its bits


def running_sum_contrasts(ds: LabeledDataset, part) -> np.ndarray:
    scatter._check_partition(ds, part)
    per_class = part.subclasses_per_class
    sizes, blocks = scatter._size_blocks(part.group_ids, int(per_class.sum()))
    group_weights = 1.0 / (part.class_count * np.repeat(per_class, per_class) * sizes)
    rows = np.empty((ds.n - sizes.size, ds.dim))
    at = 0
    for size, groups, members in blocks:
        if size == 1:
            continue  # a singleton subclass gives no row
        block = ds.samples[members]
        out = rows[at : at + groups.size * (size - 1)].reshape(groups.size, size - 1, ds.dim)
        # one vector step over all groups per k (cumsum along the middle axis
        # takes one inner-loop call per group and column)
        total = block[:, 0]  # x_0 + ... + x_{k-1}, summed in place
        for k in range(1, size):
            row = out[:, k - 1]
            np.multiply(block[:, k], -k, out=row)
            row += total
            row *= np.sqrt(group_weights[groups] / (k * (k + 1)))[:, None]
            total += block[:, k]
        at += out.shape[0] * out.shape[1]
    return rows


@st.composite
def coinciding_cases(draw):
    """(ds, coincide, config): classes of one to three subclasses of 1-12 rows,
    each subclass copies of one row or random rows (coincide, by group id),
    times 2^p for p in [-500, 500], with n on either side of dim.  Half the
    draws make every subclass copies, so the zero scatter comes up often."""
    subclass_sizes = st.lists(st.integers(1, 12), min_size=1, max_size=3)
    sizes = draw(st.lists(subclass_sizes, min_size=1, max_size=3))
    flat = [g for per_class in sizes for g in per_class]
    flags = st.lists(st.booleans(), min_size=len(flat), max_size=len(flat))
    coincide = np.array([True] * len(flat) if draw(st.booleans()) else draw(flags))
    n = sum(flat)
    dim = n + draw(st.integers(1, 20)) if draw(st.booleans()) else draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    group = np.repeat(np.arange(len(flat)), flat)
    samples = rng.normal(size=(n, dim))
    copies = coincide[group]
    samples[copies] = samples[(np.cumsum(flat) - flat)[group[copies]]]
    classes = np.repeat(np.arange(len(sizes)), [sum(g) for g in sizes])
    subs = np.concatenate([np.repeat(np.arange(len(g)), g) for g in sizes])
    order = rng.permutation(n)
    samples = np.ldexp(samples[order], draw(st.integers(-500, 500)))
    ds = LabeledDataset(samples, classes[order], subs[order])
    mode = draw(st.sampled_from([REGULARIZED, TRUNCATED]))
    config = TrainConfig(d=1, mode=mode, second_stage=draw(st.sampled_from(SECOND_STAGES)))
    return ds, coincide, config


@given(coinciding_cases())
@settings(max_examples=100, deadline=None)
def test_coinciding_subclasses_give_zero_contrasts_and_the_zero_scatter_error(case):
    # the running sums round the contrasts of seven or more coinciding rows to
    # a few ulps; today those are exact zeros, so a zero within-subclass
    # scatter is a first stage of rank 0 in both regimes, and training refuses
    # it exactly where every row equals its subclass's first row
    ds, coincide, config = case
    part = partition_dataset(ds, TreeParams(h=1), "provided")
    got = scatter.within_subclass_contrasts(ds, part)
    want = running_sum_contrasts(ds, part)
    sizes = np.bincount(part.group_ids)
    # the subclass each contrast row belongs to: sizes ascending, groups in order
    owner = np.concatenate([np.repeat(np.flatnonzero(sizes == g), g - 1) for g in np.unique(sizes)])
    want[coincide[owner]] = 0.0
    assert np.array_equal(got.view(np.int64), want.view(np.int64))

    try:
        _refuse_zero_scatter(ds, part)
        refused = None
    except TrainingError as exc:
        refused = str(exc)
    trained = outcome(train, ds, part, config)
    if refused is None:
        assert isinstance(trained, FeatureExtractor), trained
    else:
        assert trained == refused


# ------------------------------------------------------------------ between/total


def test_between_subclass_hand_example():
    means = np.array([[1.0, 0.0], [-1.0, 0.0]])
    got = between_subclass_scatter(means, np.array([2]), np.array([0.0, 0.0]))
    assert np.allclose(got.matrix, [[1.0, 0.0], [0.0, 0.0]])


def test_between_subclass_zero_when_all_means_global():
    mu = np.array([2.0, 3.0])
    means = np.tile(mu, (5, 1))
    assert np.allclose(between_subclass_scatter(means, np.array([2, 3]), mu).matrix, 0.0)


def test_mean_of_class_means_differs_from_grand_mean():
    samples = np.array([[0.0], [2.0], [10.0], [10.0], [10.0], [14.0]])
    labels = np.array([0, 0, 1, 1, 1, 1])
    center = class_means(samples, labels).mean(axis=0)  # the subclass scatters' center
    assert np.allclose(center, [6.0])
    assert not np.allclose(center, samples.mean(axis=0))  # grand mean is 46/6


def test_total_subclass_single_sample_zero():
    got = total_subclass_scatter(np.array([[3.0, 4.0]]), np.array([0]), np.array([3.0, 4.0]))
    assert np.allclose(got.matrix, 0.0)


def test_total_subclass_weighting():
    samples = np.array([[0.0], [2.0], [10.0], [14.0]])
    labels = np.array([0, 0, 1, 1])
    mu = class_means(samples, labels).mean(axis=0)  # (1 + 12)/2 = 6.5
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


# a block's entries: mantissas of magnitude 0 or in [2^-60, 1], times one 2^e
# with e in [-960, 1023], so that every entry stays normal through the
# prescale and back
mantissas = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(2.0**-60, 1.0), st.floats(-1.0, -(2.0**-60))
)
shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=0)
blocks = hnp.arrays(np.float64, shapes, elements=mantissas)


@given(blocks, st.integers(-960, 1023))
@settings(max_examples=200, deadline=None)
def test_prescale_rows_scales_exactly_into_unit_magnitude(block, e):
    rows = np.ldexp(block, e)
    before = rows.tobytes()
    k = prescale_rows(rows)
    assert np.ldexp(rows, k).tobytes() == before
    peak = np.abs(rows).max(initial=0.0)
    if block.any():
        assert 0.5 <= peak < 1.0
    else:
        assert k == 0 and peak == 0.0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_prescale_rows_refuses_rows_past_float64(bad):
    rows = np.ones((2, 3))
    rows[1, 2] = bad
    with pytest.raises(OverflowError):
        prescale_rows(rows)


def test_scatter_matrix_is_its_unit_times_four_to_the_exponent():
    # the builders prescale their rows; matrix gives the scatter in the units
    # of the data, saturating where those leave float64
    rows = np.array([[3.0, 0.0], [1.0, 2.0**-600]])
    got = scatter._scatter(rows.copy())
    assert got.exponent == 2 and got.unit[0, 0] == 10.0 / 16.0
    assert got.matrix.tobytes() == np.array([[10.0, 2.0**-600], [2.0**-600, 0.0]]).tobytes()
    huge = scatter._scatter(np.ldexp(rows, 600))
    assert huge.exponent == 602 and huge.matrix[0, 0] == np.inf


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
    assert_matches_oracle(within_subclass_scatter(ds, part), loop_within_subclass(ds, part))
    assert_matches_oracle(
        between_subclass_scatter(np.concatenate(sub_means), part.subclasses_per_class, center),
        loop_between_subclass(sub_means, center),
    )
    assert_matches_oracle(
        total_subclass_scatter(ds.samples, ds.class_labels, center),
        loop_total_subclass(ds.samples, ds.class_labels, center),
    )


# ------------------------------------------------------------------ exact sums
# group_means sums the rows of each group by NumPy, in no promised order: any
# order is within (m - 1) eps sum|x| of the exact sum of m rows (Higham 1993),
# so each mean must lie within m eps mean|x| of the correctly rounded one.


def assert_means_within_rounding(samples, ids, got):
    eps = np.finfo(np.float64).eps
    for k in range(got.shape[0]):
        rows = samples[ids == k]
        exact = np.array([math.fsum(column) for column in rows.T]) / rows.shape[0]
        bound = rows.shape[0] * eps * np.abs(rows).mean(axis=0)
        assert np.all(np.abs(got[k] - exact) <= bound), k


# below 8, NumPy's 8 partial sums and their tail, its 128 block edge and halving
PAIRWISE_SIZES = [1, 2, 3, 8, 9, 10, 16, 17, 128, 129, 130, 137, 257]


@given(
    st.integers(0, 2**31),
    st.lists(st.sampled_from(PAIRWISE_SIZES), min_size=1, max_size=5),
    st.integers(1, 12),
    st.integers(1, 4),
)
@settings(max_examples=80, deadline=None)
def test_group_means_within_rounding_of_exact_sums(seed, sizes, copies, dim):
    rng = np.random.default_rng(seed)
    counts = np.repeat(sizes, copies)  # many groups of one size
    ids = rng.permutation(np.repeat(np.arange(counts.size), counts))
    samples = rng.normal(size=(ids.size, dim)) * 10.0 ** rng.integers(-150, 151, (ids.size, 1))
    samples[rng.random(samples.shape) < 0.1] = 0.0
    samples[rng.random(samples.shape) < 0.1] = -0.0
    samples[ids == 0] = -0.0  # a group whose sum is zero
    assert_means_within_rounding(samples, ids, group_means(samples, ids, counts.size))


def test_group_means_sum_groups_of_mixed_sizes_in_one_call():
    # 40 groups of 3 and 2 of 137, each size summed as one block
    rng = np.random.default_rng(3)
    counts = np.array([3] * 40 + [137] * 2)
    ids = rng.permutation(np.repeat(np.arange(counts.size), counts))
    samples = rng.normal(size=(ids.size, 64))
    assert_means_within_rounding(samples, ids, group_means(samples, ids, counts.size))
    with pytest.raises(ValueError, match="no empty group"):
        group_means(samples, ids, counts.size + 1)


# ------------------------------------------------------------------ the old stage-1 recipe
# Before the dense path built stage 1 from the Helmert contrasts and group
# means were plain NumPy sums, the dense path's within-subclass scatter came
# from the n centred rows, and every group mean was np.add.reduceat's sum.
# Training on that recipe must agree with today's within rounding.


def reduceat_group_means(samples, ids, count):
    sizes = np.bincount(ids, minlength=count)
    order = np.argsort(ids, kind="stable")
    starts = np.cumsum(sizes) - sizes
    return np.add.reduceat(samples[order], starts, axis=0) / sizes[:, None]


def centred_rows_scatter(ds, part):
    rows = within_subclass_rows(ds, part)
    product = rows.T @ rows
    return scatter.ScatterMatrix((product + product.T) / 2.0)


@pytest.mark.parametrize("strategy", ["kd", "kmeans"])  # kmeans: uneven subclass sizes
@pytest.mark.parametrize("second_stage", ["ts", "bs"])
@pytest.mark.parametrize("shape", [(6, 300), (16, 40)], ids=["dual", "dense"])
def test_training_on_the_old_stage1_recipe_agrees_within_rounding(shape, second_stage, strategy):
    classes, dim = shape
    ds = generate_synthetic(SynthSpec(classes, 2, 5, dim, seed=8))
    assert (ds.n < ds.dim) == (dim == 300)
    stages = _dual if ds.n < ds.dim else _dense
    part = partition_dataset(ds, TreeParams(h=2, seed=4), strategy)
    config = TrainConfig(d=ds.dim, second_stage=second_stage)
    got = stages(ds, part, config)
    with mock.patch.object(scatter, "group_means", reduceat_group_means), mock.patch.object(
        wssda.pipeline, "group_means", reduceat_group_means
    ), mock.patch.object(wssda.pipeline, "within_subclass_scatter", centred_rows_scatter):
        want = stages(ds, part, config)
    assert_first_stage_close(got, want)
    assert_second_stage_close(got, want)
