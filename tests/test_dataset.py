import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import class_indices
from wssda import (
    DataFormatError,
    LabeledDataset,
    ProtocolError,
    SplitSpec,
    SynthSpec,
    generate_synthetic,
    load_csv,
    load_pgm_dir,
    make_gallery_probe_splits,
    save_csv,
    subset,
)
from wssda.dataset import _dense_subclasses


def write(path, text):
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ CSV


def test_load_csv_remaps_labels_dense(tmp_path):
    p = write(tmp_path / "d.csv", "7,1,2,3\n7,4,5,6\n9,7,8,9\n9,1,1,1\n")
    ds = load_csv(p)
    assert ds.n == 4 and ds.dim == 3
    assert ds.class_count == 2
    assert ds.class_labels.tolist() == [0, 0, 1, 1]


def test_load_csv_ragged_row_rejected(tmp_path):
    p = write(tmp_path / "d.csv", "0,1,2,3\n0,1,2,3,4\n")
    with pytest.raises(DataFormatError, match="ragged"):
        load_csv(p)


def test_load_csv_header_row_rejected_at_row_zero(tmp_path):
    p = write(tmp_path / "d.csv", "class,x,y\n0,1,2\n")
    with pytest.raises(DataFormatError, match="row 0"):
        load_csv(p)


def test_load_csv_non_integer_class_label(tmp_path):
    p = write(tmp_path / "d.csv", "0.5,1,2\n")
    with pytest.raises(DataFormatError, match="label"):
        load_csv(p)


def test_load_csv_subclass_column(tmp_path):
    p = write(tmp_path / "d.csv", "0,0,1.5\n0,3,2.5\n1,0,3.5\n1,1,4.5\n")
    ds = load_csv(p, with_subclasses=True)
    assert ds.dim == 1
    # sparse subclass ids get densified per class
    assert ds.subclass_labels.tolist() == [0, 1, 0, 1]


def test_load_csv_empty_file(tmp_path):
    p = write(tmp_path / "d.csv", "")
    with pytest.raises(DataFormatError, match="empty"):
        load_csv(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_csv_non_finite_value_names_row_and_column(tmp_path, cell):
    # the blank line keeps the reported row the file's own line index
    p = write(tmp_path / "d.csv", f"0,0,1,2\n\n0,1,{cell},3\n")
    with pytest.raises(DataFormatError, match="non-finite value at row 2, column 2"):
        load_csv(p, with_subclasses=True)


def test_save_load_round_trip_exact(tmp_path):
    ds = generate_synthetic(SynthSpec(3, 2, 4, 7, seed=11))
    out = tmp_path / "rt.csv"
    save_csv(ds, out)
    back = load_csv(out, with_subclasses=True)
    # %.17g preserves every float64 exactly
    assert np.array_equal(back.samples, ds.samples)
    assert np.array_equal(back.class_labels, ds.class_labels)
    assert np.array_equal(back.subclass_labels, ds.subclass_labels)


@pytest.mark.parametrize("with_subclasses", [False, True])
def test_save_csv_bytes_match_a_per_cell_reference(tmp_path, with_subclasses):
    rng = np.random.default_rng(4)
    samples = rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-300, 300, size=(5, 4))
    samples[0] = [-0.0, 0.0, 1e-300, -5e-324]
    samples[1, 0] = 1.7976931348623157e308
    classes = np.array([2, 0, 1, 0, 2])
    sub = np.array([0, 0, 0, 1, 1]) if with_subclasses else None
    save_csv(LabeledDataset(samples, classes, sub), tmp_path / "d.csv")
    lines = []
    for i in range(len(classes)):
        head = [str(classes[i])] + ([str(sub[i])] if with_subclasses else [])
        lines.append(",".join(head + ["%.17g" % v for v in samples[i]]) + "\n")
    assert (tmp_path / "d.csv").read_bytes() == "".join(lines).encode()


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_float_format_round_trips_doubles(seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(scale=10.0 ** rng.integers(-6, 6), size=8)
    parsed = np.asarray([float("%.17g" % v) for v in vals])
    assert np.array_equal(parsed, vals)


# ------------------------------------------------------------------ dataset container


@pytest.mark.parametrize(
    "samples, classes, sub, message",
    [
        (np.zeros(3), [0, 0, 0], None, "samples must be a 2-D matrix"),
        (np.zeros((3, 2)), [0, 0], None, "class_labels length must match sample count"),
        (np.zeros((0, 2)), [], None, "dataset must contain at least one sample"),
        (np.zeros((3, 2)), [0, 0, 0], [0, 0], "subclass_labels length must match sample count"),
    ],
)
def test_dataset_refuses_arrays_of_the_wrong_shape(samples, classes, sub, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LabeledDataset(samples, classes, sub)


def test_dataset_rejects_sparse_class_labels():
    with pytest.raises(ValueError, match="dense"):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 2]))


def test_dataset_rejects_sparse_subclass_labels():
    with pytest.raises(ValueError, match="subclass"):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 0]), np.array([0, 2]))


def test_dataset_names_the_lowest_class_with_sparse_subclass_labels():
    # classes 3, 2 and 1 are sparse, and class 3's rows come first
    classes = np.array([3, 3, 0, 0, 2, 2, 1, 1])
    sub = np.array([-1, 0, 0, 1, 1, 2, 0, 2])
    with pytest.raises(ValueError, match=r"^subclass labels of class 1 must be dense"):
        LabeledDataset(np.zeros((8, 2)), classes, sub)


@pytest.mark.parametrize(
    "role, labels, row, shown",
    [
        ("class", [0.0, 1.7, 0.2], 1, "1.7"),  # was read as classes [0, 1, 0]
        ("class", [True, False, True], 0, "True"),  # was read as classes [1, 0, 1]
        ("class", [0.0, np.nan, 1.0], 1, "nan"),
        ("subclass", [0.9, 0.0, 0.4], 0, "0.9"),  # was read as subclasses [0, 0, 0]
        ("subclass", [False, True, False], 0, "False"),
    ],
)
def test_dataset_refuses_labels_the_int64_cast_would_truncate(role, labels, row, shown):
    classes = labels if role == "class" else [0, 0, 0]
    sub = labels if role == "subclass" else None
    message = f"^{role} label at row {row} is not an integer: {shown}$"
    with pytest.raises(ValueError, match=message):
        LabeledDataset(np.zeros((3, 2)), classes, sub)


def test_dataset_keeps_integral_float_labels():
    ds = LabeledDataset(np.zeros((3, 2)), np.array([0.0, 1.0, 0.0]), [1.0, 0.0, 0.0])
    assert ds.class_labels.dtype == np.int64 and ds.class_labels.tolist() == [0, 1, 0]
    assert ds.subclass_labels.tolist() == [1, 0, 0]


def _dense_subclasses_oracle(classes, sub):
    out = np.empty_like(sub)
    for i in np.unique(classes):
        mask = classes == i
        _, out[mask] = np.unique(sub[mask], return_inverse=True)
    return out


@given(
    st.lists(
        st.tuples(
            st.integers(-3, 3),
            st.integers(-4, 4) | st.sampled_from([-70, 7, 21, 700]) | st.integers(-(2**62), 2**62),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_dense_subclasses_match_a_per_class_unique(rows):
    classes, sub = (np.asarray(col, dtype=np.int64) for col in zip(*rows))
    assert np.array_equal(_dense_subclasses(classes, sub), _dense_subclasses_oracle(classes, sub))


def test_dataset_rejects_non_finite_samples():
    samples = np.zeros((3, 4))
    samples[2, 1] = np.inf
    with pytest.raises(ValueError, match="row 2, column 1"):
        LabeledDataset(samples, np.array([0, 0, 1]))
    # finite entries whose sum overflows are still accepted
    assert LabeledDataset(np.full((2, 2), 1e308), np.array([0, 1])).n == 2


def test_split_spec_disjoint():
    with pytest.raises(ValueError, match="disjoint"):
        SplitSpec(gallery=np.array([0, 1]), probe=np.array([1, 2]))


@pytest.mark.parametrize(
    "gallery, probe, role",
    [
        ([0.5, 1.7], [3], "gallery"),  # an int64 cast would read 0, 1
        ([0, 1], [2.9, True], "probe"),  # ... and 2, 1
        (np.array([True, False]), [2], "gallery"),
        ([0], np.array([2.0]), "probe"),
    ],
)
def test_split_spec_rejects_non_integer_indices(gallery, probe, role):
    with pytest.raises(ValueError, match=f"^{role} indices must be integers, got dtype "):
        SplitSpec(gallery=gallery, probe=probe)


def test_split_spec_accepts_integer_and_empty_indices():
    split = SplitSpec(gallery=np.array([0, 2], dtype=np.int32), probe=[])
    assert split.gallery.dtype == split.probe.dtype == np.int64
    assert split.gallery.tolist() == [0, 2] and split.probe.size == 0
    assert SplitSpec(gallery=[1], probe=np.array([3], dtype=np.uint16)).probe.tolist() == [3]


def test_subset_keeps_rows_and_redensifies(tmp_path):
    ds = generate_synthetic(SynthSpec(3, 2, 3, 5, seed=2))
    keep = np.array([0, 1, 6, 7, 12, 13])
    sub = subset(ds, keep)
    assert np.array_equal(sub.samples, ds.samples[keep])
    assert sub.class_count == 3
    with pytest.raises(ValueError, match="every class"):
        subset(ds, np.arange(6))  # drops classes 1 and 2


@pytest.mark.parametrize(
    "indices, message",
    [
        ([-1, 0, 6, 12], "index -1 is out of range for 18 samples"),  # NumPy wraps -1 to 17
        ([0, 6, 18], "index 18 is out of range for 18 samples"),
        ([0.5, 6.2, 12.9], "indices must be integers, got dtype float64"),  # int64 reads 0, 6, 12
        (np.arange(18) % 2 == 0, "indices must be integers, got dtype bool"),  # not a row mask
    ],
)
def test_subset_rejects_indices_it_would_wrap_truncate_or_mask(indices, message):
    ds = generate_synthetic(SynthSpec(3, 2, 3, 5, seed=2))
    with pytest.raises(ValueError, match=f"^subset {message}$"):
        subset(ds, indices)


# ------------------------------------------------------------------ PGM


PGM_ASCII = "P2\n# comment\n4 5\n255\n" + " ".join(["128"] * 20) + "\n"


def test_pgm_dir_counts(tmp_path):
    for ci, name in enumerate(["alice", "bob"]):
        d = tmp_path / name
        d.mkdir()
        for k in range(3):
            (d / f"img{k}.pgm").write_text(PGM_ASCII)
    ds = load_pgm_dir(tmp_path)
    assert ds.n == 6 and ds.dim == 20 and ds.class_count == 2


def test_pgm_class_directory_without_images_rejected(tmp_path):
    # skipping b would load c as class 1, against the sorted-name class ids
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    (tmp_path / "a" / "x.pgm").write_text(PGM_ASCII)
    (tmp_path / "b" / "readme.txt").write_text(PGM_ASCII)
    (tmp_path / "c" / "x.pgm").write_text(PGM_ASCII)
    message = f"{tmp_path / 'b'}: class directory holds no .pgm image"
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        load_pgm_dir(tmp_path)


def test_pgm_root_without_class_directories_rejected(tmp_path):
    (tmp_path / "x.pgm").write_text(PGM_ASCII)  # an image, but no class folder
    message = f"{tmp_path}: no class subdirectories found"
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        load_pgm_dir(tmp_path)


def test_pgm_scaling_to_unit(tmp_path):
    d = tmp_path / "c0"
    d.mkdir()
    raster = ["255"] + ["0"] * 19
    (d / "a.pgm").write_text("P2\n4 5\n255\n" + " ".join(raster) + "\n")
    ds = load_pgm_dir(tmp_path)
    assert ds.samples[0, 0] == 1.0 and ds.samples[0, 1] == 0.0


def test_pgm_binary_matches_ascii(tmp_path):
    d = tmp_path / "c0"
    d.mkdir()
    pixels = bytes(range(20))
    (d / "a.pgm").write_bytes(b"P5\n4 5\n255\n" + pixels)
    (d / "b.pgm").write_text("P2\n4 5\n255\n" + " ".join(str(v) for v in pixels) + "\n")
    ds = load_pgm_dir(tmp_path)
    assert np.array_equal(ds.samples[0], ds.samples[1])


def test_pgm_mixed_sizes_rejected(tmp_path):
    d = tmp_path / "c0"
    d.mkdir()
    (d / "a.pgm").write_text("P2\n4 5\n255\n" + " ".join(["0"] * 20) + "\n")
    (d / "b.pgm").write_text("P2\n4 6\n255\n" + " ".join(["0"] * 24) + "\n")
    with pytest.raises(DataFormatError, match="differs"):
        load_pgm_dir(tmp_path)


def test_pgm_truncated_raster_rejected(tmp_path):
    d = tmp_path / "c0"
    d.mkdir()
    (d / "a.pgm").write_bytes(b"P5\n4 5\n255\n" + bytes(10))
    with pytest.raises(DataFormatError, match="shorter"):
        load_pgm_dir(tmp_path)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P6\n1 1\n255\n\x00\x00\x00", "bad magic"),
        (b"P2\n1 x\n255\n0\n", "PGM header"),
        (b"P5\n4 5", "PGM header"),
        (b"P5\n4 5\n255", "PGM header"),  # no whitespace byte ends the header
        (b"P2\n0 5\n255\n", "dimensions or max value"),
        (b"P2\n1 1\n65536\n0\n", "dimensions or max value"),
        (b"P2\n1 1\n0\n0\n", "dimensions or max value"),
        (b"P2\n2 2\n255\n0 1 2\n", "shorter"),
        (b"P5\n2 1\n256\n\x00\x01\x00", "shorter"),  # 16-bit: two bytes a pixel
        (b"P2\n2 1\n15\n7 16\n", "exceeds"),
        (b"P5\n2 1\n15\n\x07\x10", "exceeds"),
        (b"P2\n1 1\n255\n" + b"9" * 400 + b"\n", "exceeds"),  # past float64: was OverflowError
        (b"P2\n2 1\n255\n7 x\n", "non-numeric"),
        (b"P2\n2 1\n255\n7 #\n", "non-numeric"),
    ],
)
def test_pgm_faults_are_data_format_errors(tmp_path, data, message):
    d = tmp_path / "c0"
    d.mkdir()
    (d / "a.pgm").write_bytes(data)
    with pytest.raises(DataFormatError, match=message):
        load_pgm_dir(tmp_path)


def test_pgm_16_bit_rasters_and_header_separators(tmp_path):
    d = tmp_path / "c0"
    d.mkdir()
    (d / "a.pgm").write_bytes(b"P5 # magic\r\n2\t# w\n1#h\n65535\n\x00\x00\xff\xff")
    (d / "b.pgm").write_bytes(b"P2#c\n2 1 65535\r\n0\t65535\n")
    ds = load_pgm_dir(tmp_path)
    assert ds.samples.tolist() == [[0.0, 1.0], [0.0, 1.0]]


# ------------------------------------------------------------------ synthesis


def test_synth_deterministic():
    spec = SynthSpec(4, 2, 5, 9, seed=42)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.subclass_labels, b.subclass_labels)


def test_synth_group_counts():
    ds = generate_synthetic(SynthSpec(2, 2, 5, 6, seed=0))
    assert ds.n == 20
    groups = set(zip(ds.class_labels.tolist(), ds.subclass_labels.tolist()))
    assert len(groups) == 4
    for ci, si in groups:
        mask = (ds.class_labels == ci) & (ds.subclass_labels == si)
        assert mask.sum() == 5


def test_synth_degenerate_collapse():
    # zero spread and vanishing scales: every sample sits at its class center
    spec = SynthSpec(3, 2, 4, 5, subclass_mean_spread=0.0, scale_range=(1e-300, 1e-300), seed=1)
    ds = generate_synthetic(spec)
    for i in range(3):
        block = ds.samples[ds.class_labels == i]
        assert np.allclose(block, block[0], atol=1e-290)


def test_synth_validation():
    with pytest.raises(ValueError):
        SynthSpec(0, 2, 5, 4).validate()
    with pytest.raises(ValueError, match="^samples_per_subclass must be at least 1, got 0$"):
        SynthSpec(2, 2, 0, 4).validate()
    with pytest.raises(ValueError):
        SynthSpec(2, 2, 5, 4, scale_range=(0.0, 1.0)).validate()


@pytest.mark.parametrize("value", [2.5, 4.0, True, "4"])
@pytest.mark.parametrize(
    "knob", ["class_count", "subclasses_per_class", "samples_per_subclass", "dim"]
)
def test_synth_validation_refuses_a_count_that_is_not_an_integer(knob, value):
    # dim=2.5 failed inside NumPy with a bare TypeError
    counts = dict(class_count=2, subclasses_per_class=2, samples_per_subclass=5, dim=4)
    spec = SynthSpec(**{**counts, knob: value})
    with pytest.raises(ValueError, match=f"^{knob} must be an integer, got {value!r}$"):
        generate_synthetic(spec)


@pytest.mark.parametrize(
    "seed, message",
    [
        (2.5, "^seed must be an integer, got 2.5$"),
        (True, "^seed must be an integer, got True$"),
        (-1, "^seed must be at least 0, got -1$"),
    ],
)
def test_synth_refuses_a_seed_that_is_not_a_non_negative_integer(seed, message):
    # 2.5 and -1 failed inside NumPy's SeedSequence, and True drew seed 1's data
    with pytest.raises(ValueError, match=message):
        generate_synthetic(SynthSpec(2, 2, 5, 4, seed=seed))


def test_synth_accepts_numpy_integer_counts():
    ds = generate_synthetic(SynthSpec(np.int64(2), np.int32(2), np.uint8(3), np.int64(4)))
    assert ds.samples.shape == (12, 4)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("knob", ["subclass_mean_spread", "class_center_spread", "scale_range"])
def test_synth_validation_names_a_non_finite_knob(knob, value):
    # unchecked, NaN or inf reached the samples and failed as "non-finite
    # sample value at row 0, column 0"
    over = {knob: (0.5, value) if knob == "scale_range" else value}
    with pytest.raises(ValueError, match=f"^{knob} must be .*finite"):
        SynthSpec(2, 2, 5, 4, **over).validate()


# ------------------------------------------------------------------ splits


def test_splits_one_gallery_image_per_class_per_rotation():
    ds = generate_synthetic(SynthSpec(2, 2, 2, 3, seed=5))  # 4 samples per class
    splits = make_gallery_probe_splits(ds, 4)
    assert len(splits) == 4
    for sp in splits:
        assert sp.gallery.size == 2 and sp.probe.size == 6
        assert np.array_equal(ds.class_labels[sp.gallery], [0, 1])
    # each sample serves as gallery exactly once
    all_gallery = np.sort(np.concatenate([sp.gallery for sp in splits]))
    assert np.array_equal(all_gallery, np.arange(8))


def test_splits_single_sample_boundary():
    ds = LabeledDataset(np.array([[1.0, 2.0]]), np.array([0]))
    (sp,) = make_gallery_probe_splits(ds, 1)
    assert sp.gallery.tolist() == [0] and sp.probe.size == 0


def test_splits_too_many_rotations():
    ds = LabeledDataset(np.zeros((7, 2)), np.array([0, 0, 0, 1, 1, 1, 1]))
    with pytest.raises(ProtocolError, match="fewer than 4"):
        make_gallery_probe_splits(ds, 4)


@pytest.mark.parametrize("rotations", [1.5, 2.0, True])
def test_splits_refuse_a_rotation_count_that_is_not_an_integer(rotations):
    ds = generate_synthetic(SynthSpec(2, 2, 2, 3, seed=5))
    with pytest.raises(ValueError, match=f"^rotations must be an integer, got {rotations!r}$"):
        make_gallery_probe_splits(ds, rotations)
    assert len(make_gallery_probe_splits(ds, np.int64(2))) == 2


def test_splits_match_a_class_indices_reference():
    rng = np.random.default_rng(8)
    labels = rng.permutation(np.repeat(np.arange(5), [3, 4, 3, 6, 5]))
    ds = LabeledDataset(rng.normal(size=(labels.size, 2)), labels)
    per_class = [class_indices(ds, i) for i in range(ds.class_count)]
    for r, sp in enumerate(make_gallery_probe_splits(ds, 3)):
        gallery = np.sort([idx[r] for idx in per_class])
        assert sp.gallery.tolist() == gallery.tolist()
        assert sp.probe.tolist() == np.setdiff1d(np.arange(ds.n), gallery).tolist()
