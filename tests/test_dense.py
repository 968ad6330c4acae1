"""Training with at least as many samples as dimensions: the dense path.

The dense path eigendecomposes dim x dim matrices on both stages.  Its second
stage goes by linearity: it scatters the raw samples with the same builders
and rotates that scatter by the whitener, W^T S W.  oracle_dense below is the
dense path it replaced, which whitens a copy of the samples first and
scatters that; the first stage must agree with it bit for bit, the second
within rounding.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import _check_range, _refuse_zero_scatter, assert_second_stage_close, outcome
from wssda import (
    LabeledDataset,
    TrainConfig,
    TreeParams,
    partition_dataset,
    train_detailed,
)
from wssda.partition import SubclassPartition
from wssda.pipeline import (
    SECOND_STAGES,
    _columns_in_blocks,
    _dense,
    _spectrum_model,
)
from wssda.scatter import (
    between_subclass_scatter,
    class_means,
    group_means,
    total_subclass_scatter,
    within_subclass_scatter,
)
from wssda.spectrum import REGULARIZED, TRUNCATED, eig_symmetric_full


# pipeline._dense before its second stage went by linearity, kept verbatim (but
# for the name, the second-stage selector, written out, and the exact
# zero-scatter rule) as the oracle of today's
def oracle_dense(ds: LabeledDataset, part: SubclassPartition, config: TrainConfig):
    """Both stages as dim x dim eigendecompositions (n >= dim)."""
    with np.errstate(over="ignore", invalid="ignore"):  # _check_range reports either
        scatter = within_subclass_scatter(ds, part)
    _refuse_zero_scatter(ds, part)
    _check_range(ds, part, scatter.matrix)
    es = eig_symmetric_full(scatter.matrix)
    model = _spectrum_model(es, config)

    whitener = es.eigenvectors * model.weights
    whitened = ds.samples @ whitener

    global_mean = class_means(whitened, part.class_labels).mean(axis=0)
    if config.second_stage == "ts":
        second = total_subclass_scatter(whitened, part.class_labels, global_mean)
    else:
        h = part.subclasses_per_class
        means = group_means(whitened, part.group_ids, int(h.sum()))
        second = between_subclass_scatter(means, h, global_mean)
    es2 = eig_symmetric_full(second.matrix)

    def block_columns(start: int, stop: int, out: np.ndarray) -> None:
        np.matmul(whitener, es2.eigenvectors[:, start:stop], out=out)

    projection = _columns_in_blocks(ds.dim, config.d, es2.rank, block_columns)
    return es, model, projection, es2.eigenvalues, es2.rank


def dense_ds(seed, class_sizes, dim):
    """Classes of the given sizes in dim <= n, each of two subclasses with
    their own centres (a class of one row has one); rows are shuffled."""
    rng = np.random.default_rng(seed)
    classes = np.repeat(np.arange(len(class_sizes)), class_sizes)
    subs = np.concatenate([np.arange(size) % 2 for size in class_sizes])
    centers = 3.0 * rng.normal(size=(len(class_sizes), 2, dim))
    noise = rng.uniform(0.5, 2.0, size=dim) * rng.normal(size=(classes.size, dim))
    samples = centers[classes, subs] + noise
    order = rng.permutation(classes.size)
    return LabeledDataset(samples[order], classes[order], subs[order])


@st.composite
def dense_cases(draw):
    # a class of fewer than h rows is deficient: each row becomes a singleton
    # subclass (and every subclass may be one, which both refuse)
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=5))
    dim = draw(st.integers(1, sum(sizes)))
    h = draw(st.sampled_from([2, 4]))
    strategy = draw(st.sampled_from(["kd", "pca", "kmeans", "provided"]))
    mode = draw(st.sampled_from([REGULARIZED, TRUNCATED]))
    stage = draw(st.sampled_from(SECOND_STAGES))
    return seed, sizes, dim, h, strategy, mode, stage


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dense_cases())
def test_dense_second_stage_by_linearity_matches_the_whitening_oracle(case):
    seed, sizes, dim, h, strategy, mode, stage = case
    ds = dense_ds(seed, sizes, dim)
    assert ds.n >= ds.dim
    part = partition_dataset(ds, TreeParams(h=h, seed=seed % 1000), strategy)
    config = TrainConfig(d=ds.dim, mode=mode, second_stage=stage)
    want = outcome(oracle_dense, ds, part, config)
    got = outcome(_dense, ds, part, config)
    if isinstance(want, str):
        assert got == want
        return
    (es_b, model_b), (es_a, model_a) = got[:2], want[:2]
    assert es_b.rank == es_a.rank
    assert np.array_equal(es_b.eigenvalues, es_a.eigenvalues)
    assert np.array_equal(es_b.eigenvectors, es_a.eigenvectors)
    for field in ("lambda_reg", "weights"):
        assert np.array_equal(getattr(model_b, field), getattr(model_a, field))
    fields = ("mode", "pivot", "alpha", "beta")
    assert [getattr(model_b, f) for f in fields] == [getattr(model_a, f) for f in fields]
    assert_second_stage_close(got, want, scaled=False)


def traced_train_peak(ds, part, config) -> int:
    """The tracemalloc peak of train_detailed, in bytes."""
    tracemalloc.start()
    try:
        fx, _ = train_detailed(ds, part, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fx.projection.shape == (ds.dim, config.d)
    return peak


def blocked_classes(seed, classes, rows, dim):
    """classes x rows samples about well-separated class centres, kd with h=2."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), rows)
    samples = 3.0 * rng.normal(size=(classes, dim))[labels] + rng.normal(size=(labels.size, dim))
    ds = LabeledDataset(samples, labels)
    return ds, partition_dataset(ds, TreeParams(h=2, seed=0), "kd")


@pytest.mark.parametrize("stage", SECOND_STAGES)
def test_dense_makes_no_whitened_copy_of_the_samples(stage):
    # 100 classes x 10 rows at dim 256: whitening a copy of the samples, then
    # centring that copy for the scatter, took the traced peak to 3.2-3.3
    # n x dim blocks; by linearity, with each dim x dim temporary dropped once
    # used, it reads 1.96 (ts and bs)
    ds, part = blocked_classes(2, 100, 10, 256)
    peak = traced_train_peak(ds, part, TrainConfig(d=64, second_stage=stage))
    assert peak <= 2.25 * ds.samples.nbytes, peak / ds.samples.nbytes


@pytest.mark.parametrize("stage", SECOND_STAGES)
def test_dense_holds_few_dim_by_dim_matrices_at_once(stage):
    # 60 classes x 10 rows at dim 512, where dim x dim matrices outweigh the
    # samples: stage 1's scatter, stage 2's and its rotated copies, all alive
    # into the second eigendecomposition, took the traced peak to one n x dim
    # block plus 6.84 dim x dim matrices; dropping each once used left 3.84,
    # and forming the whitener only where it is read leaves 3.0
    ds, part = blocked_classes(3, 60, 10, 512)
    assert ds.n >= ds.dim
    peak = traced_train_peak(ds, part, TrainConfig(d=64, second_stage=stage))
    square = 8 * ds.dim**2
    assert peak <= ds.samples.nbytes + 3.5 * square, (peak - ds.samples.nbytes) / square
