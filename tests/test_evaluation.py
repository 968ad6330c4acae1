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
    pair_similarity,
    partition_dataset,
    train,
    verification_roc,
)


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


# ------------------------------------------------------------------ nearest neighbor


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
        fx = FeatureExtractor(np.eye(12), ModelMeta("regularized", "kd", 2, 1.0, "ts", 12, 6, 90))
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


def test_identification_rejects_split_without_probes():
    ds = generate_synthetic(SynthSpec(4, 2, 4, 8, seed=0))
    splits = make_gallery_probe_splits(ds, 2)
    everyone = np.arange(ds.n)
    splits[1] = SplitSpec(gallery=everyone, probe=everyone[:0])
    with pytest.raises(ProtocolError, match="split 1 has no probes"):
        identification_sweep(train_factory(ds), ds, splits, [2])


def test_identification_rejects_short_extractor():
    ds = generate_synthetic(SynthSpec(4, 2, 4, 8, seed=0))
    splits = make_gallery_probe_splits(ds, 1)
    part = partition_dataset(ds, TreeParams(h=2, seed=0), "kd")
    fixed = train(ds, part, TrainConfig(d=2))
    with pytest.raises(ConfigError, match="feature dimensions"):
        identification_sweep(lambda d: fixed, ds, splits, [2, 5])


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


def test_roc_resampled_grid():
    pairs = [(0.9, True), (0.8, True), (0.7, False), (0.1, False)]
    rep = kfold_pairwise(pairs, folds=1, resolution=11)
    fars = [p[0] for p in rep.points]
    assert fars == pytest.approx(np.linspace(0, 1, 11).tolist())
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


def test_kfold_too_few_pairs():
    with pytest.raises(ProtocolError, match="cannot split"):
        kfold_pairwise([(0.5, True), (0.4, False)], folds=3)


def test_pair_similarity_complements_distance():
    a, b = np.array([1.0, 2.0]), np.array([2.0, 1.0])
    cosine_distance = 1.0 - float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert pair_similarity(a, b) == pytest.approx(1.0 - cosine_distance)
