"""Each correctness check passes on real outputs and fails on a corrupted copy.

    python3 -m pytest perfbench/test_checks.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from wssda import (  # noqa: E402
    SynthSpec,
    TrainConfig,
    TreeParams,
    generate_synthetic,
    partition_dataset,
    save_model,
    train_detailed,
    verification_roc,
)


def train_on(spec, strategy="kmeans", d=8):
    ds = generate_synthetic(spec)
    part = partition_dataset(ds, TreeParams(h=2, seed=3), strategy)
    fx, details = train_detailed(ds, part, TrainConfig(d=d))
    return ds, part, fx, (details.spectrum.eigenvalues, details.model.weights)


@pytest.fixture(scope="module")
def trained():
    return train_on(SynthSpec(12, 2, 10, 16, class_center_spread=0.5, seed=3))


def features(trained, projection):
    ds, part, _, _ = trained
    return ds.samples @ projection, ds.class_labels, part.subclass_labels


def test_training_checks_pass_on_the_trained_projection(trained):
    feats, classes, subclasses = features(trained, trained[2].projection)
    assert checks.check_discriminant_diagonal(feats, classes) == []
    assert checks.check_whitened(feats, classes, subclasses, *trained[3]) == []


def test_whitening_check_allows_regularized_variances_above_one():
    # n = 48 rows in dim 64, every direction kept: beyond the pivot the regularized
    # model whitens some directions to a within-subclass variance above 1
    run = train_on(SynthSpec(6, 2, 4, 64, scale_range=(1.0, 1.0), class_center_spread=0.22, seed=1), "kd", 64)
    feats, classes, subclasses = features(run, run[2].projection)
    assert np.linalg.eigvalsh(checks.within_subclass_scatter(feats, classes, subclasses)).max() > 1.0 + 1e-6
    assert checks.check_discriminant_diagonal(feats, classes) == []
    assert checks.check_whitened(feats, classes, subclasses, *run[3]) == []


def test_rescaled_projection_column_fails_the_whitening_check(trained):
    projection = trained[2].projection.copy()
    projection[:, 0] *= 10.0
    feats, classes, subclasses = features(trained, projection)
    assert checks.check_whitened(feats, classes, subclasses, *trained[3])


def test_swapped_projection_columns_fail_the_diagonal_order_check(trained):
    projection = trained[2].projection[:, [3, 1, 2, 0, 4, 5, 6, 7]]
    feats, classes, _ = features(trained, projection)
    assert checks.check_discriminant_diagonal(feats, classes)


def test_mixed_projection_columns_fail_the_diagonality_check(trained):
    projection = trained[2].projection.copy()
    projection[:, 1] += projection[:, 0]
    feats, classes, _ = features(trained, projection)
    assert any("not diagonal" in p for p in checks.check_discriminant_diagonal(feats, classes))


@pytest.fixture(scope="module")
def roc():
    rng = np.random.default_rng(5)
    scores = np.concatenate([rng.normal(1.0, 1.0, 300), rng.normal(0.0, 1.0, 700)])
    return verification_roc([(float(s), i < 300) for i, s in enumerate(scores)])


def test_roc_check_passes_and_recovers_the_eer(roc):
    assert checks.check_roc(roc.points) == []
    assert checks.eer_from_roc(roc.points) == pytest.approx(roc.eer, abs=1e-15)


@pytest.mark.parametrize("cut", [slice(None, -1), slice(1, None)])
def test_truncated_roc_fails_the_roc_check(roc, cut):
    assert checks.check_roc(roc.points[cut])


def test_reordered_roc_fails_the_roc_check(roc):
    points = list(roc.points)
    points[5], points[50] = points[50], points[5]
    assert checks.check_roc(points)


def test_changed_output_byte_fails_the_identity_check(trained, tmp_path):
    path = tmp_path / "model.wssda"
    save_model(trained[2], str(path))
    data = path.read_bytes()
    same = checks.Identical()
    assert same.check("model.wssda", data) == []
    assert same.check("model.wssda", bytes(data)) == []
    changed = bytearray(data)
    changed[len(changed) // 2] ^= 1
    assert same.check("model.wssda", bytes(changed))


def test_model_file_projection_round_trips(trained, tmp_path):
    path = tmp_path / "model.wssda"
    save_model(trained[2], str(path))
    assert np.array_equal(checks.read_projection(path.read_bytes()), trained[2].projection)
