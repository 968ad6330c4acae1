import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wssda import (
    ConfigError,
    FeatureExtractor,
    LabeledDataset,
    ModelMeta,
    ProtocolError,
    SplitSpec,
    SynthSpec,
    TrainConfig,
    TreeParams,
    generate_synthetic,
    identification_sweep,
    kfold_pairwise,
    make_gallery_probe_splits,
    nn_classify,
    pair_scores,
    pair_similarity,
    partition_dataset,
    train,
    verification_roc,
)
import wssda.evaluation as evaluation
from wssda.evaluation import PAIR_BLOCK


def brute_force_roc(pairs):
    """Independent O(n^2) threshold counter for cross-checking the ROC:
    (thresholds, points)."""
    same = [s for s, f in pairs if f]
    diff = [s for s, f in pairs if not f]
    scores = sorted({s for s, _ in pairs}, reverse=True)
    thresholds = [scores[0] + 1.0] + scores
    pts = []
    for t in thresholds:
        far = sum(1 for s in diff if s >= t) / len(diff)
        tar = sum(1 for s in same if s >= t) / len(same)
        pts.append((far, tar))
    return thresholds, pts


# ------------------------------------------------------------------ cosine similarity


def test_cosine_identical():
    v = np.array([2.0, -1.0, 0.5])
    assert pair_similarity(v, v) == pytest.approx(1.0, abs=1e-15)


def test_cosine_orthogonal():
    assert pair_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_cosine_antipodal():
    assert pair_similarity(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(-1.0)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero"):
        pair_similarity(np.zeros(3), np.ones(3))


@given(st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_cosine_scale_invariance(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 5))
    c = float(rng.uniform(0.1, 100.0))
    assert pair_similarity(a, b) == pytest.approx(pair_similarity(c * a, b), abs=1e-12)
    assert -1.0 <= pair_similarity(a, b) <= 1.0


def oracle_pair_similarity(a, b):
    """pair_similarity as it was written with np.linalg.norm, a @ b and
    np.clip: the reference for the per-call fast path."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("pair_similarity expects two vectors of equal dimension")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for zero vectors")
    return 1.0 - float(np.clip(1.0 - float(a @ b) / (na * nb), 0.0, 2.0))


def similarity_outcome(fn, a, b):
    """("value", score) or ("error", type, message) of one scoring call."""
    try:
        with np.errstate(all="ignore"):
            return ("value", fn(a, b))
    except ValueError as exc:
        return ("error", type(exc), str(exc))


def assert_same_outcome(a, b):
    got = similarity_outcome(pair_similarity, a, b)
    expect = similarity_outcome(oracle_pair_similarity, a, b)
    if got[0] == "value" and expect[0] == "value":
        assert type(got[1]) is float
        assert got[1] == expect[1] or (np.isnan(got[1]) and np.isnan(expect[1]))
    else:
        assert got == expect


def vector_layout(values, layout):
    """values as a C-ordered array, a strided view, float32, a list, or ints."""
    if layout == "strided":
        wide = np.empty(2 * values.size)
        wide[::2] = values
        return wide[::2]
    if layout == "float32":
        with np.errstate(over="ignore"):
            return values.astype(np.float32)
    if layout == "list":
        return values.tolist()
    if layout == "int":
        # scale-free small integers: NaN, inf and 1e150 have no int64 value
        return np.rint(np.clip(values / np.abs(values).max(), -1, 1) * 7).astype(np.int64)
    return values


@given(
    seed=st.integers(0, 2**31),
    dim=st.sampled_from([1, 2, 63, 64, 1000, 20000]),
    scale=st.sampled_from([1.0, 1e-150, 1e150, 1e160]),
    layout=st.sampled_from(["c", "strided", "float32", "int", "list"]),
    relation=st.sampled_from(["independent", "equal", "negated"]),
    special=st.sampled_from([None, np.nan, np.inf, -np.inf]),
)
@settings(max_examples=150, deadline=None)
def test_pair_similarity_matches_numpy_oracle_bit_for_bit(
    seed, dim, scale, layout, relation, special
):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        a = scale * rng.normal(size=dim)
        b = {"independent": scale * rng.normal(size=dim), "equal": a.copy(), "negated": -a}[
            relation
        ]
        if special is not None:
            (a if rng.random() < 0.5 else b)[rng.integers(dim)] = special
        if layout == "int" and not (np.isfinite(a).all() and np.isfinite(b).all()):
            continue
        assert_same_outcome(vector_layout(a, layout), vector_layout(b, layout))


@pytest.mark.parametrize(
    "a, b",
    [
        (np.zeros(3), np.ones(3)),
        (np.ones(3), np.zeros(3)),
        (np.ones(3), np.ones(4)),
        (np.ones((2, 2)), np.ones((2, 2))),
        (np.full(2, 1e-170), np.ones(2)),  # squares underflow: a zero norm
        (np.full(2, 1e200), np.full(2, 1e200)),  # norms overflow: inf / inf
        (np.full(2, 1e200), np.ones(2)),
        ([1, 2, 3], [3, 2, 1]),
    ],
)
def test_pair_similarity_edge_cases_match_numpy_oracle(a, b):
    assert_same_outcome(a, b)


def test_pair_similarity_errors_keep_their_messages():
    with pytest.raises(ValueError, match="^cosine similarity is undefined for zero vectors$"):
        pair_similarity(np.ones(3), np.zeros(3))
    with pytest.raises(ValueError, match="^pair_similarity expects two vectors of equal dimension$"):
        pair_similarity(np.ones(3), np.ones(2))


# ------------------------------------------------------------------ nearest neighbor


def _layouts(features):
    """The same values as C-ordered, column-strided, row-strided and Fortran-ordered matrices."""
    wide = np.empty((features.shape[0], 2 * features.shape[1]))
    wide[:, ::2] = features
    tall = np.empty((2 * features.shape[0], features.shape[1]))
    tall[::2] = features
    return {
        "c": features,
        "column-strided": wide[:, ::2],
        "row-strided": tall[::2],
        "fortran": np.asfortranarray(features),
    }


@given(
    seed=st.integers(0, 2**31),
    count=st.sampled_from([1, PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1, 2 * PAIR_BLOCK + 7]),
    rows=st.integers(1, 12),
    dim=st.integers(1, 40),
    scale=st.sampled_from([1.0, 1e-100, 1e100]),
    layout=st.sampled_from(["c", "column-strided", "row-strided", "fortran"]),
)
@settings(max_examples=20, deadline=None)
def test_pair_scores_equal_pair_similarity_bit_for_bit(seed, count, rows, dim, scale, layout):
    rng = np.random.default_rng(seed)
    features = _layouts(scale * rng.normal(size=(rows, dim)))[layout]
    # few rows: indices repeat, and a == b pairs occur
    index_a = rng.integers(0, rows, count)
    index_b = rng.integers(0, rows, count)
    index_b[::3] = index_a[::3]
    expect = [pair_similarity(features[a], features[b]) for a, b in zip(index_a, index_b)]
    assert pair_scores(features, index_a, index_b).tolist() == expect


@pytest.mark.parametrize("side", ["index_a", "index_b"])
@pytest.mark.parametrize("position", [0, PAIR_BLOCK - 1, PAIR_BLOCK + 3])
def test_pair_scores_zero_vector_rejected(position, side):
    rng = np.random.default_rng(0)
    features = rng.normal(size=(6, 5))
    features[4] = 0.0
    index = {name: rng.integers(0, 4, PAIR_BLOCK + 10) for name in ("index_a", "index_b")}
    index[side][position] = 4
    index[side][position + 5] = 4  # a later zero pair is not the one named
    message = (
        f"^pair {position}: sample 4 is a zero vector; "
        "cosine similarity is undefined for zero vectors$"
    )
    with pytest.raises(ValueError, match=message):
        pair_scores(features, **index)


@pytest.mark.parametrize(
    "index_a, index_b, message",
    [
        ([-1, 0], [0, 1], "pair 0: sample index -1 "),
        ([0, 1, 2], [1, 4, 0], "pair 1: sample index 4 "),
        ([0, 1, 9], [1, -4, 0], "pair 1: sample index -4 "),
        ([0, -5], [7, 0], "pair 0: sample index 7 "),
    ],
)
def test_pair_scores_rejects_indices_outside_the_rows(index_a, index_b, message):
    # NumPy would score row n - 1 for index -1 and raise a bare IndexError for n
    features = np.random.default_rng(0).normal(size=(4, 3))
    with pytest.raises(ValueError, match=f"^{message}is out of range for 4 feature rows$"):
        pair_scores(features, index_a, index_b)


@pytest.mark.parametrize(
    "index_a, index_b, name, dtype",
    [
        (np.array([0.0, 1.0]), np.array([1, 2]), "index_a", "float64"),
        (np.array([0, 1]), np.array([1.0, 2.0]), "index_b", "float64"),
        # a bool vector is a row mask to NumPy: True, False, True would pick rows 0 and 2
        (np.array([True, False, True]), np.array([1, 2, 3]), "index_a", "bool"),
        ([0, 1, 2], [True, True, False], "index_b", "bool"),
    ],
)
def test_pair_scores_rejects_non_integer_indices(index_a, index_b, name, dtype):
    features = np.random.default_rng(0).normal(size=(4, 3))
    with pytest.raises(
        ValueError, match=f"^{name} must hold integer sample indices, got dtype {dtype}$"
    ):
        pair_scores(features, index_a, index_b)


@pytest.mark.parametrize(
    "features, index_a, index_b",
    [
        (np.ones(4), [0], [1]),  # one vector, not a matrix of rows
        (np.ones((4, 3)), [0, 1], [1]),
        (np.ones((4, 3)), [[0, 1]], [[1, 2]]),
    ],
)
def test_pair_scores_rejects_arrays_of_the_wrong_shape(features, index_a, index_b):
    message = "^pair_scores expects a feature matrix and two equal-length index vectors$"
    with pytest.raises(ValueError, match=message):
        pair_scores(features, index_a, index_b)


def test_pair_scores_accepts_empty_and_unsigned_indices():
    features = np.random.default_rng(0).normal(size=(4, 3))
    assert pair_scores(features, [], []).shape == (0,)  # an empty list is float64
    expect = pair_scores(features, [0, 3], [3, 1]).tolist()
    got = pair_scores(features, np.uint8([0, 3]), np.uint8([3, 1])).tolist()
    assert got == expect


def test_pair_scores_memory_stays_at_the_block():
    # a whole-array gather of both sides would hold 2 x 60000 x 64 doubles (61 MB)
    rng = np.random.default_rng(0)
    features = rng.normal(size=(1600, 64))
    index_a = rng.integers(0, 1600, 60000)
    index_b = rng.integers(0, 1600, 60000)
    tracemalloc.start()
    try:
        pair_scores(features, index_a, index_b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 60000 * 64 * 8 / 4



# The whole-matrix nearest-neighbour kernel that _nearest replaced, kept verbatim
# (but for the names) as the oracle of its probe blocks.
def oracle_scratch(gallery_rows: int, probe_rows: int, dim: int) -> tuple[np.ndarray, ...]:
    """Flat buffers for _nearest: normalised gallery, normalised probes, distances."""
    return (
        np.empty(gallery_rows * dim),
        np.empty(probe_rows * dim),
        np.empty(probe_rows * gallery_rows),
    )


def oracle_unit_rows(x: np.ndarray, buf: np.ndarray, what: str) -> np.ndarray:
    """x divided by its row norms, written to the front of buf as a contiguous matrix."""
    out = buf[: x.size].reshape(x.shape)
    np.multiply(x, x, out=out)
    norms = np.sqrt(np.add.reduce(out, axis=1))
    if (norms == 0.0).any():
        raise ValueError(f"{what} contains a zero vector; cosine matching is undefined")
    return np.divide(x, norms[:, None], out=out)


def oracle_nearest(
    gallery: np.ndarray, probes: np.ndarray, scratch: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Index of the gallery row nearest in cosine distance to each probe row,
    computed in the buffers of _scratch; ties go to the lowest gallery index."""
    gn = oracle_unit_rows(gallery, scratch[0], "gallery")
    pn = oracle_unit_rows(probes, scratch[1], "probe set")
    dist = scratch[2][: pn.shape[0] * gn.shape[0]].reshape(pn.shape[0], gn.shape[0])
    np.matmul(pn, gn.T, out=dist)
    np.subtract(1.0, dist, out=dist)
    # argmin takes the first hit, so exact ties go to the lowest gallery index
    return np.argmin(dist, axis=1)


def oracle_distances(gallery, probes, dim):
    """The oracle's nearest indices and its whole probes x gallery distance matrix."""
    scratch = oracle_scratch(gallery.shape[0], probes.shape[0], dim)
    nearest = oracle_nearest(gallery, probes, scratch)
    return nearest, scratch[2].reshape(probes.shape[0], gallery.shape[0])


class ArgminSpy:
    """Stands in for numpy in wssda.evaluation and keeps a copy of every
    distance block that _nearest hands to np.argmin."""

    def __init__(self):
        self.blocks = []

    def __getattr__(self, name):
        return getattr(np, name)

    def argmin(self, a, *args, **kwargs):
        self.blocks.append(a.copy())
        return np.argmin(a, *args, **kwargs)


@given(
    seed=st.integers(0, 2**32 - 1),
    gallery_rows=st.integers(1, 300),
    distinct=st.floats(0.05, 1.0),
    d=st.integers(1, 70),
    extra_columns=st.integers(0, 4),
    rows=st.integers(2, 9),
    probe_case=st.sampled_from(["1", "block - 1", "block", "block + 1", "2 block + 7"]),
)
@settings(max_examples=150, deadline=None)
def test_nearest_in_probe_blocks_matches_the_whole_matrix_oracle(
    seed, gallery_rows, distinct, d, extra_columns, rows, probe_case
):
    rng = np.random.default_rng(seed)
    probe_rows = {"1": 1, "block - 1": rows - 1, "block": rows, "block + 1": rows + 1}.get(
        probe_case, 2 * rows + 7
    )
    dim = d + extra_columns  # columns past d make x[:, :d] a strided view, as in the sweep
    # repeated gallery rows tie exactly; some probes repeat a gallery row at another scale
    base = rng.normal(size=(max(1, round(distinct * gallery_rows)), dim))
    gallery = base[rng.integers(0, base.shape[0], gallery_rows)]
    probes = rng.normal(size=(probe_rows, dim))
    copies = rng.random(probe_rows) < 0.3
    probes[copies] = 2.5 * gallery[rng.integers(0, gallery_rows, copies.sum())]
    gallery, probes = gallery[:, :d], probes[:, :d]
    spy = ArgminSpy()
    with pytest.MonkeyPatch.context() as mp:
        # a block of `rows` probe rows, so that several blocks occur
        mp.setattr(evaluation, "NEAREST_BLOCK_BYTES", 8 * gallery_rows * rows)
        mp.setattr(evaluation, "np", spy)
        got = evaluation._nearest(gallery, probes, evaluation._scratch(gallery_rows, probe_rows, dim))
    assert got.dtype == np.intp and got.shape == (probe_rows,)
    # blocks of `rows` rows in probe order; the last takes a lone final row, which
    # NumPy would otherwise send to gemv
    sizes = [block.shape[0] for block in spy.blocks]
    assert sum(sizes) == probe_rows and all(size == rows for size in sizes[:-1])
    assert sizes[-1] <= rows + 1 and (sizes[-1] > 1 or probe_rows == 1)
    # each block is the oracle's GEMM on that block's probes: == on indices and distances
    start = 0
    for block in spy.blocks:
        stop = start + block.shape[0]
        nearest, dist = oracle_distances(gallery, probes[start:stop], dim)
        assert np.array_equal(got[start:stop], nearest)
        assert np.array_equal(block, dist)
        start = stop
    # against one GEMM over all probes: BLAS may round a product in a partial
    # register tile differently when the probe count changes, so the distances
    # agree to the rounding bound of a d-term dot product of unit vectors plus
    # the subtraction, and an index may differ only where the oracle's two best
    # distances are that close
    nearest, whole = oracle_distances(gallery, probes, dim)
    tol = (d + 2) * np.finfo(np.float64).eps
    assert np.abs(np.vstack(spy.blocks) - whole).max() <= tol
    best = whole.min(axis=1)
    runner_up = np.sort(whole, axis=1)[:, 1] if gallery_rows > 1 else best + np.inf
    clear = runner_up - best > 2 * tol
    assert np.array_equal(got[clear], nearest[clear])
    assert (whole[np.arange(probe_rows), got] <= best + 2 * tol).all()


def test_identification_memory_stays_at_the_probe_block():
    # one 4000 x 2000 float64 distance matrix is 64 MB
    rng = np.random.default_rng(0)
    labels = np.arange(6000) % 2000
    ds = LabeledDataset(rng.normal(size=(6000, 8)), labels)
    fx = FeatureExtractor(np.eye(8), ModelMeta("regularized", "kd", 1, "ts", 8, 2000, 6000))
    split = SplitSpec(gallery=np.arange(2000), probe=np.arange(2000, 6000))
    tracemalloc.start()
    try:
        identification_sweep(lambda d: fx, ds, [split], [2, 8])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4000 * 2000 * 8 / 4


def test_nn_exact_match_wins():
    gallery = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    labels = np.array([5, 6, 7])
    assert nn_classify(gallery, labels, np.array([[0.0, 1.0], [2.0, 2.0]])).tolist() == [6, 7]


def test_nn_tie_takes_lowest_index():
    gallery = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    labels = np.array([3, 1, 2])
    # first two rows tie exactly; the earlier row's label wins
    assert nn_classify(gallery, labels, np.array([[2.0, 0.0]])).tolist() == [3]


def test_nn_rejects_bad_input():
    gallery = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1])
    with pytest.raises(ValueError, match="equal dimension"):
        nn_classify(gallery, labels, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="one label"):
        nn_classify(gallery, labels[:1], np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="empty gallery"):
        nn_classify(np.empty((0, 2)), np.empty(0), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="zero vector"):
        nn_classify(gallery, labels, np.array([[1.0, 0.0], [0.0, 0.0]]))


@given(st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_nn_probe_scale_invariance(seed):
    rng = np.random.default_rng(seed)
    gallery = rng.normal(size=(6, 4))
    labels = np.arange(6)
    probes = rng.normal(size=(3, 4))
    c = rng.uniform(0.01, 50.0, size=(3, 1))
    expect = nn_classify(gallery, labels, probes)
    assert np.array_equal(nn_classify(gallery, labels, c * probes), expect)


# ------------------------------------------------------------------ identification


def train_factory(ds, h=2, seed=0, mode="regularized", strategy="kd"):
    part = partition_dataset(ds, TreeParams(h=h, seed=seed), strategy)

    def factory(d_max):
        return train(ds, part, TrainConfig(d=d_max, mode=mode))

    return factory


def test_identification_separable_zero_error():
    ds = generate_synthetic(SynthSpec(6, 2, 6, 20, class_center_spread=30.0, seed=1))
    splits = make_gallery_probe_splits(ds, 2)
    rep = identification_sweep(train_factory(ds), ds, splits, [4, 8])
    assert all(err == 0.0 for _, err in rep.curve)


def test_identification_chance_level_at_random_labels():
    # labels carry no signal: d=1 cosine 1-NN should sit near 1 - 1/C
    c, per = 5, 12
    errs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        ds_samples = rng.normal(size=(c * per, 15)) + 5.0
        labels = np.repeat(np.arange(c), per)
        ds = LabeledDataset(ds_samples, labels)
        splits = make_gallery_probe_splits(ds, 1)
        rep = identification_sweep(train_factory(ds, h=1), ds, splits, [1])
        errs.append(rep.curve[0][1])
    assert np.mean(errs) == pytest.approx(1.0 - 1.0 / c, abs=0.08)


def test_identification_curve_averages_splits():
    ds = generate_synthetic(SynthSpec(5, 2, 4, 10, seed=3))
    splits = make_gallery_probe_splits(ds, 3)
    rep = identification_sweep(train_factory(ds), ds, splits, [2, 5])
    assert rep.per_split.shape == (3, 2)
    for k, (_, mean_err) in enumerate(rep.curve):
        assert mean_err == pytest.approx(rep.per_split[:, k].mean())


def test_identification_sweep_equals_per_d_nn_classify():
    # the sweep reuses one set of buffers per split; each d must still give
    # exactly what a fresh nn_classify on the sliced features gives, ties included
    rng = np.random.default_rng(5)
    labels = np.repeat(np.arange(6), 15)
    for samples in (rng.normal(size=(90, 12)), rng.integers(1, 3, size=(90, 12)).astype(float)):
        ds = LabeledDataset(samples, labels)
        fx = FeatureExtractor(np.eye(12), ModelMeta("regularized", "kd", 2, "ts", 12, 6, 90))
        splits = make_gallery_probe_splits(ds, 3)
        d_values = [5, 1, 12, 2, 5, 7]
        rep = identification_sweep(lambda d: fx, ds, splits, d_values)
        expect = np.array([
            [
                np.mean(
                    nn_classify(samples[sp.gallery, :d], labels[sp.gallery], samples[sp.probe, :d])
                    != labels[sp.probe]
                )
                for d in sorted(set(d_values))
            ]
            for sp in splits
        ])
        assert np.array_equal(rep.per_split, expect)


@pytest.mark.parametrize(
    "d_values, splits, error, message",
    [
        ([], "rotations", ValueError, "^d_values must be positive integers$"),
        ([0, 2], "rotations", ValueError, "^d_values must be positive integers$"),
        ([2], [], ProtocolError, "^no gallery/probe splits supplied$"),
        ([2], "no gallery", ProtocolError, "^split 0 has an empty gallery$"),
    ],
)
def test_identification_rejects_sweeps_it_cannot_score(d_values, splits, error, message):
    ds = generate_synthetic(SynthSpec(4, 2, 4, 8, seed=0))
    if splits == "rotations":
        splits = make_gallery_probe_splits(ds, 1)
    elif splits == "no gallery":
        splits = [SplitSpec(gallery=np.arange(0), probe=np.arange(ds.n))]
    calls = []
    with pytest.raises(error, match=message):
        identification_sweep(lambda d: calls.append(d), ds, splits, d_values)
    assert calls == []  # rejected before the extractor is asked for


def test_identification_rejects_split_without_probes():
    ds = generate_synthetic(SynthSpec(4, 2, 4, 8, seed=0))
    splits = make_gallery_probe_splits(ds, 2)
    everyone = np.arange(ds.n)
    splits[1] = SplitSpec(gallery=everyone, probe=everyone[:0])
    with pytest.raises(ProtocolError, match="split 1 has no probes"):
        identification_sweep(train_factory(ds), ds, splits, [2])


@pytest.mark.parametrize(
    "role, bad, shown",
    [("gallery", -1, "-1"), ("probe", -3, "-3"), ("gallery", None, "n"), ("probe", None, "n")],
)
def test_identification_rejects_indices_outside_the_dataset(role, bad, shown):
    ds = generate_synthetic(SynthSpec(4, 2, 4, 8, seed=0))
    splits = make_gallery_probe_splits(ds, 2)
    bad = ds.n if bad is None else bad
    gallery, probe = splits[1].gallery, splits[1].probe
    # -1 aliases row n - 1, which SplitSpec's disjointness check cannot see
    if role == "gallery":
        gallery = np.append(gallery[:-1], bad)
    else:
        probe = np.append(probe, bad)
    splits[1] = SplitSpec(gallery=gallery, probe=probe)
    shown = str(ds.n) if shown == "n" else shown
    calls = []

    def factory(d):
        calls.append(d)
        return train_factory(ds)(d)

    with pytest.raises(
        ProtocolError, match=f"^split 1: {role} index {shown} is out of range for {ds.n} samples$"
    ):
        identification_sweep(factory, ds, splits, [2])
    assert calls == []  # rejected before any training


@pytest.mark.parametrize("d_values", [[1.9], [2, 3.0], [True]])
def test_identification_rejects_non_integer_d(d_values):
    # int() truncated 1.9 to d=1 and read True as d=1
    ds = generate_synthetic(SynthSpec(4, 2, 4, 8, seed=0))
    splits = make_gallery_probe_splits(ds, 1)
    with pytest.raises(ValueError, match="^d_values must be positive integers, got dtype "):
        identification_sweep(train_factory(ds), ds, splits, d_values)


def test_identification_rejects_short_extractor():
    ds = generate_synthetic(SynthSpec(4, 2, 4, 8, seed=0))
    splits = make_gallery_probe_splits(ds, 1)
    part = partition_dataset(ds, TreeParams(h=2, seed=0), "kd")
    fixed = train(ds, part, TrainConfig(d=2))
    with pytest.raises(ConfigError, match="feature dimensions"):
        identification_sweep(lambda d: fixed, ds, splits, [2, 5])


@pytest.mark.parametrize(
    "model_dim, d, message",
    [
        (6, 2, "^data dimension 8 does not match the model dimension 6$"),
        (10, 2, "^data dimension 8 does not match the model dimension 10$"),
        # the mismatch is the fault even when d also exceeds the data dimension
        (10, 9, "^data dimension 8 does not match the model dimension 10$"),
    ],
)
def test_identification_rejects_an_extractor_of_another_dimension(model_dim, d, message):
    # the projection GEMM used to fail with NumPy's matmul core-dimension error
    other = generate_synthetic(SynthSpec(4, 2, 4, model_dim, seed=0))
    part = partition_dataset(other, TreeParams(h=2, seed=0), "kd")
    fixed = train(other, part, TrainConfig(d=d))
    ds = generate_synthetic(SynthSpec(4, 2, 4, 8, seed=0))
    splits = make_gallery_probe_splits(ds, 1)
    with pytest.raises(ConfigError, match=message):
        identification_sweep(lambda d: fixed, ds, splits, [d])


def test_identification_training_factory_refuses_d_above_the_data_dimension():
    ds = generate_synthetic(SynthSpec(4, 2, 4, 8, seed=0))
    splits = make_gallery_probe_splits(ds, 1)
    with pytest.raises(ConfigError, match="^d=9 exceeds the data dimension 8$"):
        identification_sweep(train_factory(ds), ds, splits, [2, 9])


def test_identification_refuses_d_above_the_data_dimension_of_a_fixed_extractor():
    # a fixed extractor's check names the data dimension, which bounds its columns
    ds = generate_synthetic(SynthSpec(4, 2, 4, 8, seed=0))
    wide = FeatureExtractor(np.eye(8), ModelMeta("regularized", "kd", 2, "ts", 8, 4, 32))
    splits = make_gallery_probe_splits(ds, 1)
    with pytest.raises(ConfigError, match="^d=9 exceeds the data dimension 8$"):
        identification_sweep(lambda d: wide, ds, splits, [2, 9])
    assert identification_sweep(lambda d: wide, ds, splits, [2, 8]).per_split.shape == (1, 2)


# ------------------------------------------------------------------ verification


def test_roc_hand_case_eer_zero():
    pairs = [(0.9, True), (0.8, True), (0.7, False), (0.1, False)]
    rep = verification_roc(pairs)
    assert rep.eer == pytest.approx(0.0, abs=1e-12)
    assert 0.7 < rep.threshold_at_eer <= 0.8
    assert rep.points[0] == (0.0, 0.0)
    assert rep.points[-1] == (1.0, 1.0)


def test_roc_matches_brute_force():
    rng = np.random.default_rng(13)
    flags = [bool(f) for f in rng.integers(0, 2, 100)]
    scores = [float(rng.normal(1.0 if f else 0.0, 0.7)) for f in flags]
    cases = {
        "distinct": list(zip(scores, flags)),
        "tied": [(float(np.round(s, 1)), f) for s, f in zip(scores, flags)],
        "all equal": [(0.25, f) for f in flags],
        "one same pair": [(s, i == 17) for i, s in enumerate(scores)],
        "one different pair": [(s, i != 17) for i, s in enumerate(scores)],
    }
    for name, pairs in cases.items():
        rep = verification_roc(pairs)
        thresholds, pts = brute_force_roc(pairs)
        assert rep.points == pts, name
        assert rep.thresholds == thresholds, name


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def roc_input_cases():
    """(scores, same) arrays with ties, all-equal scores, a lone same or
    different pair, and a single pair of each kind."""
    rng = np.random.default_rng(21)
    same = rng.integers(0, 2, 120).astype(bool)
    scores = rng.normal(size=120) + same
    return {
        "distinct": (scores, same),
        "tied": (np.round(scores, 1), same),
        "all equal": (np.full(120, 0.25), same),
        "one same pair": (scores, np.arange(120) == 17),
        "one different pair": (scores, np.arange(120) != 17),
        "one pair of each kind": (np.array([0.3, 0.7]), np.array([True, False])),
    }


def test_roc_of_arrays_equals_the_roc_of_the_pair_list_bit_for_bit():
    for name, (scores, same) in roc_input_cases().items():
        got = verification_roc(scores, same)
        expect = verification_roc(list(zip(scores.tolist(), same.tolist())))
        assert got.points == expect.points, name
        assert bits(got.points) == bits(expect.points), name
        assert bits(got.thresholds) == bits(expect.thresholds), name
        assert isinstance(got.thresholds, list), name
        assert bits([got.eer, got.threshold_at_eer]) == bits(
            [expect.eer, expect.threshold_at_eer]
        ), name


@pytest.mark.parametrize("folds", [1, 2, 3])
def test_kfold_of_arrays_equals_the_kfold_of_the_pair_list_bit_for_bit(folds):
    for name, (scores, same) in roc_input_cases().items():
        if scores.size < folds:
            continue
        outcomes = []
        for args in ((scores, same), (list(zip(scores.tolist(), same.tolist())),)):
            try:
                rep = kfold_pairwise(*args, folds=folds)
            except ProtocolError as exc:  # a fold without one of the kinds
                outcomes.append(str(exc))
            else:
                fields = [rep.points, rep.fold_eers, [rep.eer_mean, rep.eer_std], rep.thresholds]
                outcomes.append([bits(field) for field in fields])
        assert outcomes[0] == outcomes[1], name


def test_roc_rejects_scores_and_flags_of_two_lengths():
    with pytest.raises(ValueError, match="one length"):
        verification_roc(np.array([0.1, 0.2, 0.3]), np.array([True, False]))
    with pytest.raises(ValueError, match="one length"):
        kfold_pairwise(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool), folds=1)


def test_roc_identical_distributions_eer_half():
    eers = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        pairs = [(float(s), bool(f)) for s, f in zip(rng.normal(size=400), rng.integers(0, 2, 400))]
        eers.append(verification_roc(pairs).eer)
    assert np.mean(eers) == pytest.approx(0.5, abs=0.05)


def test_roc_needs_both_kinds():
    with pytest.raises(ProtocolError, match="same"):
        verification_roc([(0.5, True), (0.4, True)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_roc_rejects_a_non_finite_score(bad):
    with pytest.raises(ValueError, match="^pair scores must be finite$"):
        verification_roc(np.array([0.9, bad, 0.1]), np.array([True, False, False]))


def test_roc_resampled_grid():
    pairs = [(0.9, True), (0.8, True), (0.7, False), (0.1, False)]
    rep = kfold_pairwise(pairs, folds=1)
    fars = [p[0] for p in rep.points]
    assert fars == np.linspace(0, 1, 101).tolist()
    assert rep.points[0][1] == 1.0  # all same-pairs accepted before any diff


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_roc_monotone_transform_invariance(seed):
    rng = np.random.default_rng(seed)
    pairs = [(float(s), bool(f)) for s, f in zip(rng.normal(size=60), rng.integers(0, 2, 60))]
    if not any(f for _, f in pairs) or all(f for _, f in pairs):
        return
    rep = verification_roc(pairs)
    warped = [(float(np.exp(0.5 * s)), f) for s, f in pairs]  # strictly increasing map
    rep_w = verification_roc(warped)
    assert rep_w.eer == pytest.approx(rep.eer, abs=1e-12)
    assert np.allclose(np.asarray(rep_w.points), np.asarray(rep.points))


def test_roc_far_tar_monotone():
    rng = np.random.default_rng(3)
    pairs = [(float(rng.normal(1.0 if f else 0.0)), bool(f)) for f in rng.integers(0, 2, 80)]
    rep = verification_roc(pairs)
    fars = np.array([p[0] for p in rep.points])
    tars = np.array([p[1] for p in rep.points])
    assert np.all(np.diff(fars) >= 0)
    assert np.all(np.diff(tars) >= 0)


# ------------------------------------------------------------------ k-fold


def test_kfold_identical_folds_zero_std():
    fold = [(0.9, True), (0.8, True), (0.3, False), (0.2, False)]
    rep = kfold_pairwise(fold * 5, folds=5)
    assert rep.eer_std == pytest.approx(0.0, abs=1e-15)
    assert rep.fold_eers == [pytest.approx(0.0)] * 5


def test_kfold_single_fold_reduces_to_roc():
    rng = np.random.default_rng(2)
    pairs = [(float(rng.normal(1.0 if f else 0.0)), bool(f)) for f in rng.integers(0, 2, 50)]
    krep = kfold_pairwise(pairs, folds=1)
    rep = verification_roc(pairs)
    assert krep.fold_eers == [rep.eer]
    assert krep.eer_mean == pytest.approx(rep.eer)
    # with several folds, each fold is the ROC of its contiguous slice
    krep = kfold_pairwise(pairs, folds=3)
    slices = np.array_split(np.arange(len(pairs)), 3)
    assert krep.fold_eers == [verification_roc(pairs[s[0] : s[-1] + 1]).eer for s in slices]


def test_kfold_mean_within_fold_range():
    rng = np.random.default_rng(4)
    pairs = [(float(rng.normal(0.8 if f else 0.0, 0.5)), bool(f)) for f in rng.integers(0, 2, 200)]
    rep = kfold_pairwise(pairs, folds=4)
    assert min(rep.fold_eers) <= rep.eer_mean <= max(rep.fold_eers)


def test_kfold_fold_missing_kind_raises():
    pairs = [(0.9, True)] * 10 + [(0.1, False)] * 10  # contiguous: early folds all-same
    with pytest.raises(ProtocolError, match="fold 0"):
        kfold_pairwise(pairs, folds=4)


@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_kfold_refuses_a_count_that_is_not_an_integer(value):
    # folds=2.5 silently ran 2 folds
    pairs = [(0.9, True), (0.2, False)] * 4
    with pytest.raises(ValueError, match=f"^folds must be an integer, got {value!r}$"):
        kfold_pairwise(pairs, folds=value)
    assert len(kfold_pairwise(pairs, folds=np.int64(2)).fold_eers) == 2


def test_kfold_too_few_pairs():
    with pytest.raises(ProtocolError, match="cannot split"):
        kfold_pairwise([(0.5, True), (0.4, False)], folds=3)


def test_pair_similarity_complements_distance():
    a, b = np.array([1.0, 2.0]), np.array([2.0, 1.0])
    cosine_distance = 1.0 - float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert pair_similarity(a, b) == pytest.approx(1.0 - cosine_distance)
