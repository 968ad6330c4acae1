"""Training with fewer samples than dimensions: the Gram-matrix (dual) path.

The dense path, which eigendecomposes dim x dim scatters, is the oracle.  It
stays reachable as pipeline._dense, so the same inputs run through both.

The dual path builds its first stage from the n - s Helmert contrasts of s
subclasses, and its second stage from the raw samples and the squared
whitener W^2.  oracle_dual below is the dual path it replaced, which
eigendecomposes the n x n Gram matrix of centred rows and whitens the samples
and the second-stage basis as n x dim products; both stages must agree with
it within rounding.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    _check_range,
    assert_first_stage_close,
    assert_second_stage_close,
    clusters,
    outcome,
    rank_of,
    within_subclass_rows,
)
from wssda import (
    LabeledDataset,
    TrainConfig,
    TrainingError,
    TreeParams,
    partition_dataset,
    train,
    train_detailed,
)
from wssda.partition import SubclassPartition
from wssda.pipeline import (
    COLUMN_BLOCK,
    SECOND_STAGES,
    _dense,
    _dual,
    _gram,
    _padded,
    _range_error,
    _refuse_zero_scatter,
    _spectrum_model,
)
from wssda.scatter import between_subclass_rows, class_means, group_means, total_subclass_rows
from wssda.spectrum import (
    REGULARIZED,
    TRUNCATED,
    Eigenspectrum,
    eig_symmetric_full,
    flat_model,
    orient_columns,
)


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
        first = split[i] if split else int(rng.integers(1, size)) if size > 1 else 1
        classes += [i] * size
        subs += [0] * first + [1] * (size - first)
    classes, subs = np.array(classes), np.array(subs)
    centers = 3.0 * rng.normal(size=(len(class_sizes), 2, dim))
    samples = centers[classes, subs] + scales * rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return LabeledDataset(samples[order], classes[order], subs[order])


# pipeline._gram_eig, which the dual path used on both stages, kept verbatim
# for oracle_dual
def _gram_eig(rows: np.ndarray, product: np.ndarray) -> tuple[Eigenspectrum, np.ndarray]:
    """Eigensystem of the Gram matrix product = B B^T of weighted rows B, and
    the orthonormal range basis B^T Q_r Lambda_r^{-1/2} of B^T B, one column
    per non-zero eigenvalue."""
    gram = eig_symmetric_full(product)
    r = gram.rank
    return gram, rows.T @ (gram.eigenvectors[:, :r] / np.sqrt(gram.eigenvalues[:r]))


# pipeline._dual before its second stage went by linearity, kept verbatim (but
# for the name, the between-subclass builder's arguments and the exact
# zero-scatter rule) as the oracle of today's
def oracle_dual(ds: LabeledDataset, part: SubclassPartition, config: TrainConfig):
    """Both stages through n x n Gram matrices (n < dim); no dim x dim array."""
    rows = within_subclass_rows(ds, part)
    _refuse_zero_scatter(ds, part)
    product = _gram(rows)
    _check_range(ds, part, product)
    gram, basis = _gram_eig(rows, product)
    es = Eigenspectrum(_padded(gram.eigenvalues, ds.dim), basis, gram.rank)
    model = _spectrum_model(ds, es, config)
    # W = U diag(w_r) U^T + w_null (I - U U^T) for the range basis U, applied to rows
    w_null = model.weights[es.rank]
    lift = model.weights[: es.rank] - w_null

    def whiten(rows: np.ndarray) -> np.ndarray:
        return ((rows @ basis) * lift) @ basis.T + w_null * rows

    whitened = whiten(ds.samples)
    global_mean = class_means(whitened, ds.class_labels).mean(axis=0)
    if config.second_stage == "ts":
        rows = total_subclass_rows(whitened, ds.class_labels, global_mean)
    else:
        h = part.subclasses_per_class
        means = group_means(whitened, part.group_ids, int(h.sum()))
        rows = between_subclass_rows(means, h, global_mean)
    gram2, basis2 = _gram_eig(rows, _gram(rows))
    # computed at every column of the second-stage rank whatever d is, so the
    # leading columns do not depend on d; columns past that rank stay zero
    columns = orient_columns(whiten(basis2.T).T)
    projection = np.zeros((ds.dim, config.d))
    keep = min(config.d, columns.shape[1])
    projection[:, :keep] = columns[:, :keep]
    return es, model, projection, _padded(gram2.eigenvalues, ds.dim), gram2.rank


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


@pytest.mark.parametrize("g", [2, 7, 10])
@pytest.mark.parametrize("mode", [REGULARIZED, TRUNCATED])
def test_coinciding_subclass_rows_raise_the_zero_scatter_error(mode, g):
    # 3 classes of 2 subclasses, each of g copies of one row: both regimes
    # report the zero scatter by its causes.  From g = 7 the Helmert running
    # sums round, so the contrasts were not all zero and training went on at
    # a rank of rounding noise (6 at g = 7, 20 and 24 at g = 10)
    n = 6 * g
    rows = np.random.default_rng(0).normal(size=(6, n + 8))
    classes = np.repeat([0, 1, 2], 2 * g)
    subs = np.tile(np.repeat([0, 1], g), 3)
    samples = np.repeat(rows, g, axis=0)
    part = partition_dataset(LabeledDataset(samples, classes, subs), TreeParams(h=2), "provided")
    config = TrainConfig(d=4, mode=mode)
    messages = set()
    for stages, dim in ((_dense, min(20, n)), (_dual, n + 8)):  # dense needs n >= dim
        ds = LabeledDataset(samples[:, :dim], classes, subs)
        with pytest.raises(TrainingError) as exc:
            stages(ds, part, config)
        messages.add(str(exc.value))
    assert messages == {
        "within-subclass scatter is zero (every subclass is a singleton or its rows "
        "coincide); nothing to whiten"
    }
    # one entry off its subclass's first row: both regimes train at rank 1
    samples[g - 1, 1] += 1.0
    for stages, dim in ((_dense, min(20, n)), (_dual, n + 8)):
        es = stages(LabeledDataset(samples[:, :dim], classes, subs), part, config)[0]
        assert es.rank == 1


@pytest.mark.parametrize("stage", SECOND_STAGES)
def test_flat_spectrum_trains_alike_on_both_paths(stage):
    # 4 classes of 2 subclasses of rows mean +- e_g, one axis g per subclass:
    # the within-subclass scatter is isotropic on 8 axes, a flat spectrum of
    # rank 8, and both paths whiten with flat_model's weights; the uniform
    # whitener leaves runs of tied second-stage eigenvalues, compared as spans
    classes = np.repeat(np.arange(4), 4)
    subs = np.tile([0, 0, 1, 1], 4)
    groups = 2 * classes + subs
    rows = np.arange(16)
    samples = np.zeros((16, 20))
    samples[rows, groups] = np.tile([1.0, -1.0], 8)
    samples[rows, 8 + classes] = 5.0  # class centres
    samples[rows, 12 + groups] = 2.0  # subclass offsets
    ds = LabeledDataset(samples, classes, subs)
    part = partition_dataset(ds, TreeParams(h=2), "provided")
    config = TrainConfig(d=ds.dim, second_stage=stage)
    want = list(_dense(ds, part, config))
    got = _dual(ds, part, config)
    for es, model in (want[:2], got[:2]):
        assert es.rank == 8 and model.pivot is None
        assert np.array_equal(model.weights, flat_model(es).weights)
    assert max(map(len, clusters(want[3], want[4]))) > 1
    # the dense basis past the rank spans the null space, which dual keeps none of
    es = want[0]
    want[0] = Eigenspectrum(es.eigenvalues, es.eigenvectors[:, : es.rank], es.rank)
    assert_first_stage_close(got, want)
    assert_second_stage_close(got, want)


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


@pytest.mark.parametrize("d", [16, 64])
@pytest.mark.parametrize("stage", SECOND_STAGES)
def test_dual_never_allocates_a_dim_by_dim_array(stage, d):
    rng = np.random.default_rng(2)
    classes = np.repeat(np.arange(5), 8)
    dim = 4000
    samples = 3.0 * rng.normal(size=(5, dim))[classes] + rng.normal(size=(40, dim))
    ds = LabeledDataset(samples, classes)
    part = partition_dataset(ds, TreeParams(h=2, seed=0), "kd")
    tracemalloc.start()
    try:
        fx, details = train_detailed(ds, part, TrainConfig(d=d, second_stage=stage))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fx.projection.shape == (dim, d)
    assert details.spectrum.eigenvalues.shape == (dim,)
    # one dim x dim float64 matrix alone would be 128 MB
    assert peak < dim * dim * 8 / 10, peak
    # nor whitened copies of the samples and the second-stage basis, which
    # would take the peak to 6.5 n x dim blocks
    assert peak <= 5 * samples.nbytes, peak / samples.nbytes


@st.composite
def oracle_cases(draw):
    # a class of fewer than h rows is deficient: each row becomes a singleton
    # subclass (and every subclass may be one, which both paths refuse)
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(st.lists(st.integers(1, 8), min_size=2, max_size=5))
    extra = draw(st.integers(1, 30))
    h = draw(st.sampled_from([2, 4]))
    strategy = draw(st.sampled_from(["kd", "kmeans", "provided"]))
    mode = draw(st.sampled_from([REGULARIZED, TRUNCATED]))
    stage = draw(st.sampled_from(SECOND_STAGES))
    return seed, sizes, extra, h, strategy, mode, stage


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(oracle_cases())
def test_dual_second_stage_by_linearity_matches_the_whitening_oracle(case):
    seed, sizes, extra, h, strategy, mode, stage = case
    ds = small_sample_ds(seed, sizes, extra)
    part = partition_dataset(ds, TreeParams(h=h, seed=seed % 1000), strategy)
    config = TrainConfig(d=ds.dim, mode=mode, second_stage=stage)
    want = outcome(oracle_dual, ds, part, config)
    got = outcome(_dual, ds, part, config)
    if isinstance(want, str):
        assert got == want
        return
    assert_first_stage_close(got, want)
    assert_second_stage_close(got, want)


@pytest.mark.parametrize("stage", SECOND_STAGES)
def test_dual_trains_at_the_data_scales_the_oracle_trains_at(stage):
    # W^2 squares the whitening weights: at every scale the oracle trains at,
    # the squared form must neither overflow nor underflow
    base = small_sample_ds(8, [7, 6, 8, 5], 15, split=[2, 4, 3, 1])
    part = partition_dataset(base, TreeParams(h=2), "provided")
    config = TrainConfig(d=base.dim, second_stage=stage)
    trained = []
    for k in [*range(-90, -70), *range(-5, 6), *range(70, 90)]:
        ds = LabeledDataset(base.samples * 10.0**k, base.class_labels, base.subclass_labels)
        want = outcome(oracle_dual, ds, part, config)
        got = outcome(_dual, ds, part, config)
        if isinstance(want, str):
            assert got == want, k
            continue
        trained.append(k)
        assert_first_stage_close(got, want)
        assert_second_stage_close(got, want)
    # the oracle's own range: fit_model's alpha multiplies two eigenvalues
    assert trained == [*range(-81, -70), *range(-5, 6), *range(70, 77)]


def test_range_failures_raise_no_warning_first():
    # the scale of the data goes unnoticed until fit_model's product of two
    # eigenvalues leaves the float64 range; nothing on the way may warn
    base = small_sample_ds(8, [7, 6, 8, 5], 15, split=[2, 4, 3, 1])
    part = partition_dataset(base, TreeParams(h=2), "provided")
    for dim in (base.dim, base.n // 2):  # the dual path, then the dense one
        for scale in (1e-90, 1e90):
            ds = LabeledDataset(
                base.samples[:, :dim] * scale, base.class_labels, base.subclass_labels
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TrainingError, match="outside the float64 range") as raised:
                    train(ds, part, TrainConfig(d=4))
            assert str(raised.value) == str(_range_error(ds))


def block_edge_ds(classes, dim):
    """classes x 4 rows in dim, each class split into subclasses of 2, 1 and 1
    rows: 3 * classes subclasses, and a total-subclass rank of 4 * classes - 1."""
    rng = np.random.default_rng(classes)
    labels = np.repeat(np.arange(classes), 4)
    subs = np.tile([0, 0, 1, 2], classes)
    samples = 3.0 * rng.normal(size=(3 * classes, dim))[3 * labels + subs]
    return LabeledDataset(samples + rng.normal(size=(labels.size, dim)), labels, subs)


@pytest.mark.parametrize("stage", SECOND_STAGES)
@pytest.mark.parametrize(
    "stages, shape", [(_dense, (75, 300)), (_dual, (50, 240))], ids=["dense", "dual"]
)
def test_leading_columns_bit_for_bit_at_block_edges(stages, shape, stage):
    ds = block_edge_ds(*shape)
    part = partition_dataset(ds, TreeParams(h=3), "provided")
    rank = ds.n - 1 if stage == "ts" else 3 * ds.class_count - 1
    assert rank > 2 * COLUMN_BLOCK
    _, _, full, _, got_rank = stages(ds, part, TrainConfig(d=rank + 1, second_stage=stage))
    assert got_rank == rank
    assert np.all(full[:, rank] == 0.0) and np.all(np.linalg.norm(full[:, :rank], axis=0) > 0)
    edges = (1, COLUMN_BLOCK - 1, COLUMN_BLOCK, COLUMN_BLOCK + 1, 2 * COLUMN_BLOCK, rank)
    for d in edges:
        projection = stages(ds, part, TrainConfig(d=d, second_stage=stage))[2]
        assert np.array_equal(projection, full[:, :d]), d
