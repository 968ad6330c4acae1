import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import geometric_noise_dataset

import wssda
from wssda import (
    ConfigError,
    FeatureExtractor,
    LabeledDataset,
    ModelFormatError,
    ModelMeta,
    SynthSpec,
    TrainConfig,
    TrainingError,
    TreeParams,
    generate_synthetic,
    load_model,
    nn_classify,
    partition_dataset,
    save_model,
    train,
    train_detailed,
)
from wssda.pipeline import _HEADER
from wssda.scatter import within_subclass_scatter
from wssda.spectrum import flat_model


def trained(seed=0, d=6, c=8, h=2, g=6, dim=16, mode="regularized", strategy="kd", **kw):
    ds = generate_synthetic(SynthSpec(c, h, g, dim, seed=seed))
    part = partition_dataset(ds, TreeParams(h=h, seed=seed), strategy)
    fx, details = train_detailed(ds, part, TrainConfig(d=d, mode=mode, **kw))
    return ds, part, fx, details


# ------------------------------------------------------------------ training


def test_train_separable_sanity_zero_error():
    # two far-apart classes in 2-D, h=1, d=1: every probe lands on its class
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 2)) * 0.1 + np.array([10.0, 0.0])
    b = rng.normal(size=(6, 2)) * 0.1 + np.array([0.0, 10.0])
    ds = LabeledDataset(np.vstack([a, b]), np.repeat([0, 1], 6))
    part = partition_dataset(ds, TreeParams(h=1), "kd")
    fx = train(ds, part, TrainConfig(d=1))
    gallery = fx.extract(ds.samples[[0, 6]])
    pred = nn_classify(gallery, np.array([0, 1]), fx.extract(ds.samples))
    assert np.array_equal(pred, ds.class_labels)


def test_train_deterministic_bitwise():
    _, _, fx_a, _ = trained(seed=9)
    _, _, fx_b, _ = trained(seed=9)
    assert np.array_equal(fx_a.projection, fx_b.projection)


# trains a dense set (n=400 >= dim=300) large enough for OpenBLAS to thread its
# GEMMs, saves the projection to argv[1] and prints the identification curve
THREADED_RUN = """
import json, sys
import numpy as np
from wssda import (SynthSpec, TrainConfig, TreeParams, generate_synthetic,
    identification_sweep, make_gallery_probe_splits, partition_dataset, train)
ds = generate_synthetic(SynthSpec(20, 2, 10, 300, seed=0))
fx = train(ds, partition_dataset(ds, TreeParams(h=2, seed=0), "kd"), TrainConfig(d=24))
np.save(sys.argv[1], fx.projection)
splits = make_gallery_probe_splits(ds, 3)
print(json.dumps(identification_sweep(lambda d: fx, ds, splits, [2, 4, 8, 16, 24]).curve))
"""


def test_train_and_identify_agree_across_blas_thread_counts(tmp_path):
    # bytes are promised for one BLAS build and thread count only: a threaded
    # GEMM sums in another order, so the projections may differ in the last bits
    src = os.path.dirname(os.path.dirname(wssda.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    projections, curves = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"projection{threads}.npy"
        proc = subprocess.run(
            [sys.executable, "-c", THREADED_RUN, str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        projections.append(np.load(out))
        curves.append(json.loads(proc.stdout))
    one, two = projections
    assert np.linalg.norm(one - two) <= 1e-12 * np.linalg.norm(one)
    assert curves[0] == curves[1]


def test_train_nested_d_slices_exactly():
    ds, part, fx, _ = trained(seed=4, d=10)
    fx3 = train(ds, part, TrainConfig(d=3))
    assert np.array_equal(fx3.projection, fx.projection[:, :3])


def test_dense_columns_past_second_stage_rank_are_zero():
    # 36 rows at dim 16 take the dense path; 6 subclass means give bs rank 5
    ds, part, fx, details = trained(seed=2, d=16, c=3, second_stage="bs")
    assert ds.n >= ds.dim and details.second_stage_rank == 5
    assert np.all(fx.projection[:, 5:] == 0.0)
    assert np.all(np.linalg.norm(fx.projection[:, :5], axis=0) > 0.0)
    for d in (3, 5, 6, 12):
        fx_d = train(ds, part, TrainConfig(d=d, second_stage="bs"))
        assert np.array_equal(fx_d.projection, fx.projection[:, :d]), d


def test_dense_projection_does_not_keep_the_full_product_alive():
    # a view into the dim x dim product would hold all of it for d columns
    ds, _, fx, _ = trained(d=4, dim=16)
    assert ds.n >= ds.dim and fx.projection.shape == (16, 4)
    assert fx.projection.base is None


def test_whitening_identity_below_pivot():
    ds = geometric_noise_dataset(seed=2)
    part = partition_dataset(ds, TreeParams(h=2, seed=0), "provided")
    fx, details = train_detailed(ds, part, TrainConfig(d=5))
    sws = within_subclass_scatter(ds, part).matrix
    es, model = details.spectrum, details.model
    whitener = es.eigenvectors * model.weights
    diag = np.diag(whitener.T @ sws @ whitener)
    m = model.pivot
    r = es.rank
    assert np.allclose(diag[: m - 1], 1.0, atol=1e-6)
    assert np.all(diag[m - 1 : r] > 0)
    assert np.all(diag[m - 1 : r] <= 1.0 + 1e-9)
    assert np.all(diag[r:] <= 1e-10)


def test_train_modes_differ():
    ds, part, fx_reg, _ = trained(seed=6)
    fx_tr = train(ds, part, TrainConfig(d=6, mode="truncated"))
    assert not np.allclose(fx_reg.projection, fx_tr.projection)


def test_train_second_stage_bs_runs():
    ds, part, _, _ = trained(seed=3)
    fx = train(ds, part, TrainConfig(d=4, second_stage="bs"))
    assert fx.projection.shape == (16, 4)


def test_train_rejects_bad_config():
    ds, part, _, _ = trained(seed=1)
    with pytest.raises(ConfigError):
        train(ds, part, TrainConfig(d=0))
    with pytest.raises(ConfigError):
        train(ds, part, TrainConfig(d=17))  # above the data dimension
    with pytest.raises(ConfigError):
        train(ds, part, TrainConfig(d=2, mode="banana"))


@pytest.mark.parametrize("d", [3.5, 3.0, True])
def test_train_refuses_a_d_that_is_not_an_integer(d):
    # d=3.5 and d=True used to pass validation, run both stages and then fail
    # with a TypeError while laying out the projection columns
    ds, part, _, _ = trained(seed=1)
    with pytest.raises(ConfigError, match=f"^d must be an integer, got {d!r}$"):
        train(ds, part, TrainConfig(d=d))
    assert train(ds, part, TrainConfig(d=np.int32(3))).d == 3


def test_train_zero_scatter_raises():
    # every subclass a singleton: within-subclass scatter is exactly zero
    ds = LabeledDataset(np.random.default_rng(0).normal(size=(4, 3)), np.array([0, 0, 1, 1]))
    part = partition_dataset(ds, TreeParams(h=2, seed=0), "kd")
    with pytest.raises(TrainingError, match="zero"):
        train(ds, part, TrainConfig(d=2))
    with pytest.raises(TrainingError):
        train(ds, part, TrainConfig(d=2, mode="truncated"))


def gaussian_rows(n, dim, scale, classes=3):
    x = np.random.default_rng(0).normal(size=(n, dim)) * scale
    ds = LabeledDataset(x, np.arange(n) % classes)
    return ds, partition_dataset(ds, TreeParams(h=2, seed=0), "kd")


def synth_rows(dim, scale):
    """SynthSpec(6, 2, 5, dim, seed=3) rows times scale, in their own subclasses."""
    ds = generate_synthetic(SynthSpec(6, 2, 5, dim, seed=3))
    ds = LabeledDataset(ds.samples * scale, ds.class_labels, ds.subclass_labels)
    return ds, partition_dataset(ds, TreeParams(h=2), "provided")


def provided_rows(scale):
    """60 x 30 Gaussian rows times scale: 6 classes x 2 subclasses of 5."""
    x = np.random.default_rng(1).normal(size=(60, 30)) * scale
    ds = LabeledDataset(x, np.repeat(np.arange(6), 10), np.tile(np.repeat([0, 1], 5), 6))
    return ds, partition_dataset(ds, TreeParams(h=2), "provided")


BOTH_MODES = ("regularized", "truncated")
SCALE_ERROR = r"magnitude up to \d\.\d+e[+-]\d+ .* rescale the data"


def train_configs(modes=BOTH_MODES, stages=("ts",)):
    return [TrainConfig(2, mode, stage) for mode in modes for stage in stages]


@pytest.mark.parametrize(
    "make, args, configs",
    [
        (gaussian_rows, (60, 8, 1e155), train_configs()),
        (gaussian_rows, (60, 8, 1e-170), train_configs()),
        (gaussian_rows, (24, 40, 1e160), train_configs()),
        (gaussian_rows, (24, 40, 1e-170), train_configs()),
        # the scatter holds, but fit_model's product of two eigenvalues underflows
        (gaussian_rows, (60, 8, 1e-100), train_configs(("regularized",))),
        # the truncated first stage holds, but the second stage's scatter or
        # Gram matrix of the raw samples overflows
        (synth_rows, (30, 1e153), train_configs(("truncated",), ("ts", "bs"))),
        (synth_rows, (90, 10**153.0), train_configs(("truncated",), ("bs",))),
        (synth_rows, (90, 10**153.4), train_configs(("truncated",), ("ts",))),
        # fit_model's product overflows, and regularize divides it
        (provided_rows, (10**153.7,), train_configs(("regularized",))),
    ],
    ids=[
        "dense overflow",
        "dense underflow",
        "dual overflow",
        "dual underflow",
        "model underflow",
        "dense second stage overflow",
        "dual bs second stage overflow",
        "dual ts second stage overflow",
        "model overflow",
    ],
)
def test_train_out_of_float64_range_names_the_data_scale(make, args, configs):
    # overflow used to reach LAPACK ("Eigenvalues did not converge"), an
    # underflowed scatter was reported as one of singleton subclasses, and an
    # overflowed second stage was a bare ValueError of the eigensolver
    ds, part = make(*args)
    assert min(min(counts) for counts in part.subclass_counts) >= 2
    for config in configs:
        # and with no NumPy warning of the overflow on the way
        with pytest.raises(TrainingError, match=SCALE_ERROR):
            train(ds, part, config)


@pytest.mark.parametrize("shape", [(4, 2, 6, 10), (4, 2, 3, 40)], ids=["dense", "dual"])
@pytest.mark.parametrize("strategy", ["kd", "pca", "kmeans", "rp", "provided"])
def test_train_is_exactly_equivariant_under_power_of_two_scaling(shape, strategy):
    # scaling by 2^k changes the exponent of every rounded intermediate and no
    # mantissa bit, so inside the float64 range the scaled samples give the
    # same partition, the projection divided by 2^k, the spectrum times 4^k,
    # its weights times 2^-k, and the second stage of unchanged whitened rows
    ds = generate_synthetic(SynthSpec(*shape, seed=7))
    assert (ds.n >= ds.dim) == (shape[3] == 10)
    params = TreeParams(h=2, seed=7)
    part = partition_dataset(ds, params, strategy)
    configs = [TrainConfig(ds.dim, mode, stage) for mode in BOTH_MODES for stage in ("ts", "bs")]
    trained_at_1 = [train_detailed(ds, part, config) for config in configs]
    for k in (-40, 7, 40):
        scale = 2.0**k
        scaled = LabeledDataset(ds.samples * scale, ds.class_labels, ds.subclass_labels)
        part_k = partition_dataset(scaled, params, strategy)
        assert np.array_equal(part_k.subclass_labels, part.subclass_labels)
        for config, (fx, details) in zip(configs, trained_at_1):
            fx_k, details_k = train_detailed(scaled, part_k, config)
            case = (k, config.mode, config.second_stage)
            assert np.array_equal(fx_k.projection, fx.projection / scale), case
            spectrum = details.spectrum.eigenvalues
            assert np.array_equal(details_k.spectrum.eigenvalues, spectrum * scale**2), case
            assert np.array_equal(details_k.model.weights, details.model.weights / scale), case
            second = details.second_stage_eigenvalues
            assert np.array_equal(details_k.second_stage_eigenvalues, second), case


def test_train_flat_spectrum_takes_the_flat_model():
    # one class, subclass mean zero, samples +-e_k: the scatter is exactly
    # isotropic, so the spectrum is flat at rank 3 and hits the pivot path;
    # embedded in 8 dimensions the 6 rows train on the dual path
    labels = np.zeros(6, dtype=int)
    for dim in (3, 8):
        wide = np.vstack([np.eye(3, dim), -np.eye(3, dim)])
        ds = LabeledDataset(wide, labels, labels)
        part = partition_dataset(ds, TreeParams(h=1), "provided")
        fx, details = train_detailed(ds, part, TrainConfig(d=2))
        assert fx.projection.shape == (dim, 2)
        assert details.spectrum.rank == 3 and details.model.pivot is None
        assert np.array_equal(details.model.weights, flat_model(details.spectrum).weights), dim


def test_train_short_rank_fallback():
    # 2-D data can never reach rank 3; training must still work
    rng = np.random.default_rng(5)
    samples = np.vstack([rng.normal(size=(5, 2)), rng.normal(size=(5, 2)) + 8.0])
    ds = LabeledDataset(samples, np.repeat([0, 1], 5))
    part = partition_dataset(ds, TreeParams(h=1), "kd")
    fx, details = train_detailed(ds, part, TrainConfig(d=2))
    assert details.model.pivot is None
    assert np.isfinite(fx.projection).all()


# ------------------------------------------------------------------ extraction


def test_extract_zero_maps_to_zero():
    _, _, fx, _ = trained(seed=0)
    assert np.array_equal(fx.extract(np.zeros(fx.dim)), np.zeros(fx.d))


def test_extract_identity_prefix():
    meta = ModelMeta("regularized", "kd", 1, "ts", 4, 2, 8)
    fx = FeatureExtractor(np.eye(4)[:, :2], meta)
    z = fx.extract(np.array([1.0, 0.0, 0.0, 0.0]))
    assert z.tolist() == [1.0, 0.0]


def test_extract_matches_dot_product_oracle():
    _, _, fx, _ = trained(seed=7)
    rng = np.random.default_rng(0)
    x = rng.normal(size=fx.dim)
    naive = np.array([float(fx.projection[:, k] @ x) for k in range(fx.d)])
    assert np.max(np.abs(fx.extract(x) - naive)) <= 1e-12


def test_extract_batch_matches_single():
    _, _, fx, _ = trained(seed=8)
    xs = np.random.default_rng(1).normal(size=(5, fx.dim))
    batch = fx.extract(xs)
    for i in range(5):
        assert np.allclose(batch[i], fx.extract(xs[i]), atol=1e-12)


def test_extract_dimension_mismatch():
    _, _, fx, _ = trained(seed=0)
    with pytest.raises(ValueError):
        fx.extract(np.zeros(fx.dim + 1))


# ------------------------------------------------------------------ model files


def test_model_round_trip_bitwise(tmp_path):
    _, _, fx, _ = trained(seed=11, strategy="kmeans")
    path = str(tmp_path / "m.bin")
    save_model(fx, path)
    back = load_model(path)
    assert np.array_equal(back.projection, fx.projection)
    assert back.meta == fx.meta


@pytest.mark.parametrize("med_factor", [b"1", b"nan"])
def test_model_file_with_a_med_factor_pair_still_loads(tmp_path, med_factor):
    # files written before the pivot threshold became a constant carry a
    # med_factor pair first; load_model skips a pair it does not know
    _, _, fx, _ = trained(seed=11)
    path = tmp_path / "m.bin"
    save_model(fx, str(path))
    blob = path.read_bytes()
    at = _HEADER.size + 8 * fx.projection.size  # the pair count
    (count,) = struct.unpack_from("<I", blob, at)
    pair = b"".join(struct.pack("<I", len(text)) + text for text in (b"med_factor", med_factor))
    path.write_bytes(blob[:at] + struct.pack("<I", count + 1) + pair + blob[at + 4 :])
    back = load_model(str(path))
    assert np.array_equal(back.projection, fx.projection)
    assert back.meta == fx.meta


def test_model_truncated_file_rejected(tmp_path):
    _, _, fx, _ = trained(seed=11)
    path = str(tmp_path / "m.bin")
    save_model(fx, path)
    blob = Path(path).read_bytes()
    cut = path + ".cut"
    Path(cut).write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(cut)


def test_model_version_bump_rejected(tmp_path):
    _, _, fx, _ = trained(seed=11)
    path = str(tmp_path / "m.bin")
    save_model(fx, path)
    blob = bytearray(Path(path).read_bytes())
    blob[6] = 99  # version field follows the 6-byte magic
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_model_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "m.bin")
    Path(path).write_bytes(b"NOTAMODEL" + bytes(64))
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(path)


def test_model_trailing_bytes_rejected(tmp_path):
    _, _, fx, _ = trained(seed=11)
    path = str(tmp_path / "m.bin")
    save_model(fx, path)
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(ModelFormatError, match="trailing"):
        load_model(path)


def test_model_metadata_that_is_not_utf8_rejected(tmp_path):
    _, _, fx, _ = trained(seed=11)
    path = str(tmp_path / "m.bin")
    save_model(fx, path)
    blob = Path(path).read_bytes()
    at = blob.rindex(b"second_stage") + len(b"second_stage") + 4  # the value's first byte
    Path(path).write_bytes(blob[:at] + b"\xff" + blob[at + 1 :])
    with pytest.raises(ModelFormatError, match=f"^{path}: missing or malformed metadata$"):
        load_model(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("second_stage", "zz"),
        ("class_count", -4),
        ("class_count", 0),
        ("sample_count", 0),
        ("h", 0),
        ("sample_count", 3),
        ("class_count", 97),
        ("h", 97),
        ("h", 3),
    ],
)
def test_model_metadata_values_are_checked_at_load(tmp_path, key, value):
    # every one of these files used to load without complaint; the last four
    # break a rule between values of the kd model trained here, with 8
    # classes, 96 samples and h=2
    _, _, fx, _ = trained(seed=11)
    path = str(tmp_path / "m.bin")
    save_model(FeatureExtractor(fx.projection, replace(fx.meta, **{key: value})), path)
    fault = {
        ("class_count", 97): "sample_count=96",  # fewer samples than classes
        ("h", 3): "h=3 must be a power of two for binary-split trees",
    }.get((key, value), f"{key}={value!r}")
    message = f"^{re.escape(path)}: invalid metadata {re.escape(fault)}$"
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


def test_model_h_of_a_flat_strategy_need_not_be_a_power_of_two(tmp_path):
    _, _, fx, _ = trained(seed=11, h=3, strategy="kmeans")
    assert fx.meta.h == 3
    path = str(tmp_path / "m.bin")
    save_model(fx, path)
    assert load_model(path).meta == fx.meta


def test_model_non_finite_matrix_entry_rejected(tmp_path):
    _, _, fx, _ = trained(seed=11)
    path = str(tmp_path / "m.bin")
    fx.projection[3, 1] = np.nan
    save_model(fx, path)
    message = f"^{path}: projection contains non-finite entries$"
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)
