"""Labeled sample-vector datasets: file ingestion, synthesis, and split protocols.

Samples are stored as rows of an (n, dim) float64 matrix with integer class
labels remapped to a dense range [0, C).  Subclass labels are optional: they
are carried by synthetic data (ground truth) and by CSV files written with a
subclass column, and are consumed by the "provided" partition strategy.

With at least as many samples as dimensions, training decomposes dim x dim
matrices, so there keep the vector dimension to a few thousand; with fewer
samples than dimensions it works on n x n Gram matrices instead, and
full-resolution images are practical.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ProtocolError

FLOAT_FMT = "%.17g"


def _non_finite_cell(samples: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first nan or inf in a matrix, or None.

    A non-finite entry makes the sum non-finite, so a finite sum clears the
    matrix in one cheap pass; only a non-finite sum (or overflow) pays for
    the elementwise search.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(samples.sum()):
            return None
    bad = np.argwhere(~np.isfinite(samples))
    return (int(bad[0, 0]), int(bad[0, 1])) if bad.size else None


@dataclass(eq=False)
class LabeledDataset:
    """Immutable-by-convention matrix of labeled sample vectors.

    samples: (n, dim) float64, one row per sample.
    class_labels: (n,) ints, dense in [0, C).
    subclass_labels: optional (n,) ints, dense in [0, H_i) within each class.
    """

    samples: np.ndarray
    class_labels: np.ndarray
    subclass_labels: np.ndarray | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.class_labels = np.asarray(self.class_labels, dtype=np.int64)
        if self.samples.ndim != 2:
            raise ValueError("samples must be a 2-D matrix")
        if self.class_labels.shape != (self.samples.shape[0],):
            raise ValueError("class_labels length must match sample count")
        if self.samples.shape[0] == 0:
            raise ValueError("dataset must contain at least one sample")
        bad = _non_finite_cell(self.samples)
        if bad is not None:
            raise ValueError(f"non-finite sample value at row {bad[0]}, column {bad[1]}")
        present = np.unique(self.class_labels)
        if not np.array_equal(present, np.arange(len(present))):
            raise ValueError("class labels must be dense in [0, C)")
        if self.subclass_labels is not None:
            self.subclass_labels = np.asarray(self.subclass_labels, dtype=np.int64)
            if self.subclass_labels.shape != self.class_labels.shape:
                raise ValueError("subclass_labels length must match sample count")
            for i in range(len(present)):
                sub = self.subclass_labels[self.class_labels == i]
                got = np.unique(sub)
                if not np.array_equal(got, np.arange(len(got))):
                    raise ValueError(f"subclass labels of class {i} must be dense in [0, H_i)")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def class_count(self) -> int:
        return int(self.class_labels.max()) + 1

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.class_labels == label)

    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.class_labels, minlength=self.class_count)


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint gallery/probe index sets over a dataset."""

    gallery: np.ndarray
    probe: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gallery", np.asarray(self.gallery, dtype=np.int64))
        object.__setattr__(self, "probe", np.asarray(self.probe, dtype=np.int64))
        if np.intersect1d(self.gallery, self.probe).size:
            raise ValueError("gallery and probe index sets must be disjoint")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the heteroscedastic Gaussian-mixture generator.

    Each class gets a center; each of its subclasses gets a mean placed at
    distance subclass_mean_spread from the center in a random direction, and
    an isotropic noise scale drawn uniformly from scale_range.  Unequal
    per-subclass scales make the mixture heteroscedastic.
    """

    class_count: int
    subclasses_per_class: int
    samples_per_subclass: int
    dim: int
    subclass_mean_spread: float = 3.0
    scale_range: tuple[float, float] = (0.5, 1.5)
    seed: int = 0
    class_center_spread: float = 6.0

    def validate(self) -> None:
        if self.class_count < 1 or self.subclasses_per_class < 1 or self.samples_per_subclass < 1:
            raise ValueError("all counts must be positive")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.subclass_mean_spread < 0:
            raise ValueError("subclass_mean_spread must be non-negative")
        lo, hi = self.scale_range
        if not (0 < lo <= hi):
            raise ValueError("scale_range must be a positive interval (lo, hi) with lo <= hi")
        if self.class_center_spread < 0:
            raise ValueError("class_center_spread must be non-negative")


def load_csv(path: str | os.PathLike, with_subclasses: bool = False) -> LabeledDataset:
    """Load a headerless CSV of `class[,subclass],v_1,...,v_dim` rows.

    Labels are remapped to a dense [0, C) range in sorted order; row order is
    preserved.  The file format carries no schema marker, so the caller states
    whether a subclass column is present.
    """
    lead = 2 if with_subclasses else 1
    raw_class: list[int] = []
    raw_sub: list[int] = []
    rows: list[list[float]] = []
    linenos: list[int] = []
    width: int | None = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            if width is None:
                width = len(row)
                if width < lead + 1:
                    raise DataFormatError(f"{path}: row {lineno} has too few columns")
            elif len(row) != width:
                raise DataFormatError(
                    f"{path}: ragged row {lineno} ({len(row)} columns, expected {width})"
                )
            try:
                raw_class.append(_int_label(row[0]))
                if with_subclasses:
                    raw_sub.append(_int_label(row[1]))
            except ValueError as exc:
                raise DataFormatError(f"{path}: non-integer label at row {lineno}") from exc
            vals = []
            for col, cell in enumerate(row[lead:], start=lead):
                try:
                    vals.append(float(cell))
                except ValueError as exc:
                    raise DataFormatError(
                        f"{path}: non-numeric value at row {lineno}, column {col}"
                    ) from exc
            rows.append(vals)
            linenos.append(lineno)
    if not rows:
        raise DataFormatError(f"{path}: empty dataset file")
    samples = np.asarray(rows, dtype=np.float64)
    bad = _non_finite_cell(samples)
    if bad is not None:
        raise DataFormatError(
            f"{path}: non-finite value at row {linenos[bad[0]]}, column {bad[1] + lead}"
        )

    classes = np.asarray(raw_class, dtype=np.int64)
    _, dense = np.unique(classes, return_inverse=True)
    sub = None
    if with_subclasses:
        sub = _dense_subclasses(dense, np.asarray(raw_sub, dtype=np.int64))
    return LabeledDataset(samples, dense, sub)


def _int_label(cell: str) -> int:
    value = float(cell)
    if not value.is_integer():
        raise ValueError(f"label {cell!r} is not an integer")
    return int(value)


def save_csv(ds: LabeledDataset, path: str | os.PathLike) -> None:
    """Write a dataset back out in the load_csv format, at full float precision."""
    with open(path, "w", newline="\n") as fh:
        for i in range(ds.n):
            head = [str(int(ds.class_labels[i]))]
            if ds.subclass_labels is not None:
                head.append(str(int(ds.subclass_labels[i])))
            vals = [FLOAT_FMT % v for v in ds.samples[i]]
            fh.write(",".join(head + vals) + "\n")


def _dense_subclasses(classes: np.ndarray, sub: np.ndarray) -> np.ndarray:
    out = np.empty_like(sub)
    for i in np.unique(classes):
        mask = classes == i
        _, out[mask] = np.unique(sub[mask], return_inverse=True)
    return out


def _read_pgm(path: str) -> np.ndarray:
    """Parse a P2/P5 PGM image into a float64 array scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise DataFormatError(f"{path}: not a PGM image (bad magic)")
    binary = data[:2] == b"P5"

    # Header is ASCII tokens separated by whitespace; '#' starts a comment.
    pos = 2
    tokens: list[int] = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataFormatError(f"{path}: truncated PGM header")
        tok = data[start:pos]
        if not tok.isdigit():
            raise DataFormatError(f"{path}: malformed PGM header token {tok!r}")
        tokens.append(int(tok))
    width, height, maxval = tokens
    if width < 1 or height < 1 or not (0 < maxval < 65536):
        raise DataFormatError(f"{path}: invalid PGM dimensions or max value")

    count = width * height
    if binary:
        pos += 1  # single whitespace byte after maxval
        itemsize = 1 if maxval < 256 else 2
        if len(data) - pos < count * itemsize:
            raise DataFormatError(f"{path}: PGM raster shorter than header promises")
        dtype = np.uint8 if itemsize == 1 else np.dtype(">u2")
        pixels = np.frombuffer(data, dtype=dtype, count=count, offset=pos).astype(np.float64)
    else:
        body = data[pos:].split()
        if len(body) < count:
            raise DataFormatError(f"{path}: PGM raster shorter than header promises")
        try:
            pixels = np.asarray([int(tok) for tok in body[:count]], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"{path}: non-numeric PGM pixel data") from exc
    if pixels.max(initial=0) > maxval:
        raise DataFormatError(f"{path}: pixel value exceeds declared max gray value")
    return (pixels / maxval).reshape(height * width)


def load_pgm_dir(path: str | os.PathLike) -> LabeledDataset:
    """Load a directory of per-class subdirectories of equally sized PGM images.

    Class ids follow the sorted order of subdirectory names; each image is
    vectorized in row-major pixel order and scaled to [0, 1] by its declared
    max gray value.
    """
    root = os.fspath(path)
    class_dirs = sorted(
        d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d))
    )
    if not class_dirs:
        raise DataFormatError(f"{root}: no class subdirectories found")
    vectors: list[np.ndarray] = []
    labels: list[int] = []
    dim: int | None = None
    first_file = ""
    for ci, sub in enumerate(class_dirs):
        subdir = os.path.join(root, sub)
        files = sorted(f for f in os.listdir(subdir) if f.lower().endswith(".pgm"))
        for name in files:
            fpath = os.path.join(subdir, name)
            vec = _read_pgm(fpath)
            if dim is None:
                dim = vec.size
                first_file = fpath
            elif vec.size != dim:
                raise DataFormatError(
                    f"{fpath}: image size {vec.size} differs from {first_file} ({dim})"
                )
            vectors.append(vec)
            labels.append(ci)
    if not vectors:
        raise DataFormatError(f"{root}: no PGM images found")
    _, dense = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)
    return LabeledDataset(np.vstack(vectors), dense)


def generate_synthetic(spec: SynthSpec) -> LabeledDataset:
    """Draw a heteroscedastic Gaussian-mixture dataset, deterministic per seed.

    Ground-truth subclass labels are recorded on the result.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    c, h, g, dim = spec.class_count, spec.subclasses_per_class, spec.samples_per_subclass, spec.dim
    lo, hi = spec.scale_range

    samples = np.empty((c * h * g, dim))
    classes = np.repeat(np.arange(c), h * g)
    subclasses = np.tile(np.repeat(np.arange(h), g), c)
    row = 0
    for i in range(c):
        center = rng.normal(size=dim) * spec.class_center_spread
        for j in range(h):
            direction = rng.normal(size=dim)
            norm = np.linalg.norm(direction)
            if norm > 0:
                direction /= norm
            mean = center + spec.subclass_mean_spread * direction
            scale = rng.uniform(lo, hi)
            samples[row : row + g] = mean + scale * rng.normal(size=(g, dim))
            row += g
    return LabeledDataset(samples, classes, subclasses)


def make_gallery_probe_splits(ds: LabeledDataset, rotations: int) -> list[SplitSpec]:
    """Build one gallery/probe split per rotation.

    Rotation r places the r-th sample of every class (in dataset row order)
    in the gallery; all other samples are probes.
    """
    if rotations < 1:
        raise ValueError("rotations must be positive")
    sizes = ds.class_sizes()
    if sizes.min() < rotations:
        short = int(np.argmin(sizes))
        raise ProtocolError(
            f"class {short} has {int(sizes.min())} samples, fewer than {rotations} rotations"
        )
    per_class = [ds.class_indices(i) for i in range(ds.class_count)]
    splits = []
    for r in range(rotations):
        gallery = np.sort(np.asarray([idx[r] for idx in per_class], dtype=np.int64))
        mask = np.ones(ds.n, dtype=bool)
        mask[gallery] = False
        splits.append(SplitSpec(gallery=gallery, probe=np.flatnonzero(mask)))
    return splits


def subset(ds: LabeledDataset, indices: np.ndarray) -> LabeledDataset:
    """Dataset restricted to the given rows; every class must stay represented."""
    indices = np.asarray(indices, dtype=np.int64)
    classes = ds.class_labels[indices]
    if np.unique(classes).size != ds.class_count:
        raise ValueError("subset must retain at least one sample of every class")
    sub = None
    if ds.subclass_labels is not None:
        sub = _dense_subclasses(classes, ds.subclass_labels[indices])
    return LabeledDataset(ds.samples[indices].copy(), classes, sub)
