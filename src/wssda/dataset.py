"""Labeled sample-vector datasets: file ingestion, synthesis, and split protocols.

Samples are stored as rows of an (n, dim) float64 matrix with integer class
labels remapped to a dense range [0, C).  Subclass labels are optional: they
are carried by synthetic data (ground truth) and by CSV files written with a
subclass column, and are consumed by the "provided" partition strategy.

A CSV file is parsed as one float64 table by np.loadtxt, a pairs file of
index_a,index_b,same|diff lines as one int64 table; only a file that the
parse or the checks reject is scanned line by line, to name the first fault
in a DataFormatError.

With at least as many samples as dimensions, training decomposes dim x dim
matrices, so there keep the vector dimension to a few thousand; with fewer
samples than dimensions it works on n x n Gram matrices instead, and
full-resolution images are practical.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ProtocolError

FLOAT_FMT = "%.17g"


def check_count(name: str, value, minimum: int = 1, error: type[Exception] = ValueError) -> None:
    """Refuse a count knob below minimum or not a Python or NumPy integer (a
    bool included), which later code would truncate or fail on."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be at least {minimum}, got {value}")


def integer_labels(values, role: str, error: type[Exception] = ValueError) -> np.ndarray:
    """values as int64, refusing at the first such row a bool label or a float
    that is not an int64 integer, which the cast would truncate."""
    labels = np.asarray(values)
    fault = np.full(labels.shape, labels.dtype.kind == "b")
    if labels.dtype.kind == "f":  # a non-finite label fails both tests
        fault = (labels != np.trunc(labels)) | ~(np.abs(labels) < 2.0**63)
    if fault.any():
        row = int(np.argmax(fault))
        raise error(f"{role} label at row {row} is not an integer: {labels.flat[row].item()!r}")
    return labels.astype(np.int64, copy=False)


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
        self.class_labels = integer_labels(self.class_labels, "class")
        if self.samples.ndim != 2:
            raise ValueError("samples must be a 2-D matrix")
        if self.class_labels.shape != (self.samples.shape[0],):
            raise ValueError("class_labels length must match sample count")
        if self.samples.shape[0] == 0:
            raise ValueError("dataset must contain at least one sample")
        # nan or inf in any cell makes the min or the max non-finite, and the
        # two reductions make no n x dim temporary, as np.isfinite would;
        # initial=0.0 admits a matrix of no columns
        if not np.isfinite([self.samples.min(initial=0.0), self.samples.max(initial=0.0)]).all():
            row, col = np.argwhere(~np.isfinite(self.samples))[0]  # first in row-major order
            raise ValueError(f"non-finite sample value at row {row}, column {col}")
        present = np.unique(self.class_labels)
        if not np.array_equal(present, np.arange(len(present))):
            raise ValueError("class labels must be dense in [0, C)")
        if self.subclass_labels is not None:
            self.subclass_labels = integer_labels(self.subclass_labels, "subclass")
            if self.subclass_labels.shape != self.class_labels.shape:
                raise ValueError("subclass_labels length must match sample count")
            # dense labels are exactly those that renumbering leaves unchanged
            dense = _dense_subclasses(self.class_labels, self.subclass_labels)
            moved = dense != self.subclass_labels
            if moved.any():
                i = int(self.class_labels[moved].min())
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

    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.class_labels, minlength=self.class_count)


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint gallery/probe index sets over a dataset."""

    gallery: np.ndarray
    probe: np.ndarray

    def __post_init__(self):
        for role in ("gallery", "probe"):
            index = np.asarray(getattr(self, role))
            if index.size and index.dtype.kind not in "iu":  # [] is float64
                raise ValueError(f"{role} indices must be integers, got dtype {index.dtype}")
            object.__setattr__(self, role, index.astype(np.int64, copy=False))
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
        for name in ("class_count", "subclasses_per_class", "samples_per_subclass", "dim"):
            check_count(name, getattr(self, name))
        check_count("seed", self.seed, 0)
        if not 0 <= self.subclass_mean_spread < np.inf:
            raise ValueError("subclass_mean_spread must be finite and non-negative")
        lo, hi = self.scale_range
        if not 0 < lo <= hi < np.inf:
            raise ValueError("scale_range must be a finite positive interval with lo <= hi")
        if not 0 <= self.class_center_spread < np.inf:
            raise ValueError("class_center_spread must be finite and non-negative")


def load_csv(path: str | os.PathLike, with_subclasses: bool = False) -> LabeledDataset:
    """Load a headerless CSV of `class[,subclass],v_1,...,v_dim` rows.

    Labels are remapped to a dense [0, C) range in sorted order; row order is
    preserved.  The file format carries no schema marker, so the caller states
    whether a subclass column is present.  The whole file is parsed once as a
    float64 table; a file the parse or the checks reject is scanned row by row
    only to name the faulty row and column.
    """
    lead = 2 if with_subclasses else 1
    try:
        with open(path, encoding="utf-8", newline="") as fh, warnings.catch_warnings():
            # an empty file gets its own error from _csv_fault
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        if table.shape[1] <= lead:
            raise ValueError("no sample columns")
        labels = integer_labels(table[:, :lead], "class")
        _, dense = np.unique(labels[:, 0], return_inverse=True)
        sub = _dense_subclasses(dense, labels[:, 1]) if with_subclasses else None
        return LabeledDataset(np.ascontiguousarray(table[:, lead:]), dense, sub)
    except ValueError as exc:
        raise _csv_fault(path, lead) from exc


def _csv_fault(path: str | os.PathLike, lead: int) -> DataFormatError:
    """The located error for a CSV that load_csv rejected: the first malformed
    row in file order, else the first non-finite value.  Rows are counted from
    0 and include blank lines."""
    width: int | None = None
    non_finite: tuple[int, int] | None = None
    # a byte that is not UTF-8 reads as a lone surrogate, which encode() refuses
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh)):
            if not _is_utf8(",".join(row)):
                return DataFormatError(f"{path}: row {lineno} is not UTF-8 text")
            if not row:
                continue
            if width is None:
                width = len(row)
                if width < lead + 1:
                    return DataFormatError(f"{path}: row {lineno} has too few columns")
            elif len(row) != width:
                return DataFormatError(
                    f"{path}: ragged row {lineno} ({len(row)} columns, expected {width})"
                )
            try:
                integer_labels([float(_plain_cell(cell)) for cell in row[:lead]], "class")
            except ValueError:
                return DataFormatError(f"{path}: non-integer label at row {lineno}")
            for col, cell in enumerate(row[lead:], start=lead):
                try:
                    value = float(_plain_cell(cell))
                except ValueError:
                    return DataFormatError(
                        f"{path}: non-numeric value at row {lineno}, column {col}"
                    )
                if non_finite is None and not math.isfinite(value):
                    non_finite = (lineno, col)
    if width is None:
        return DataFormatError(f"{path}: empty dataset file")
    if non_finite is not None:
        return DataFormatError(
            f"{path}: non-finite value at row {non_finite[0]}, column {non_finite[1]}"
        )
    return DataFormatError(f"{path}: unreadable dataset file")


def _is_utf8(text: str) -> bool:
    """False if text holds a byte that surrogateescape could not decode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _plain_cell(cell: str) -> str:
    """The cell, if np.loadtxt reads numbers like it: float() and int() also
    take underscores between digits and non-ASCII digits, loadtxt does not,
    so the row scans that locate its faults reject them too."""
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(f"{cell!r} is not a plain ASCII number")
    return cell


# a pairs-file line: two sample indices, parsed as loadtxt parses integers, and the label cell
_PAIR_ROW = np.dtype([("index", np.int64, (2,)), ("label", object)])
_BLANK_LINES = re.compile(r"^[^\S\n]+$", re.MULTILINE)


def _pair_table(text: str) -> np.ndarray:
    """The _PAIR_ROW records of a pairs file's text.  loadtxt skips empty lines
    but reads a whitespace-only line as a row of one cell, so a text it rejects
    is parsed once more with such lines emptied."""

    def parse(text: str) -> np.ndarray:
        return np.loadtxt(
            io.StringIO(text), dtype=_PAIR_ROW, delimiter=",", comments=None, ndmin=1
        )

    with warnings.catch_warnings():
        # a file without pairs gets its own error
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return parse(text)
        except ValueError:
            return parse(_BLANK_LINES.sub("", text))


def load_pairs(path: str | os.PathLike, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, 2) int64 sample indices in [0, n) and (P,) same-class flags of a
    pairs file, parsed as one table of two integer columns and a label
    column; a file that is rejected is scanned only to name the faulty line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    try:
        table = _pair_table(text)
    except ValueError as exc:
        raise _pairs_fault(path, text, n) from exc
    index, labels = table["index"].copy(), table["label"]
    same, diff = labels == "same", labels == "diff"
    if not (same | diff).all():  # labels padded with whitespace, which the fault scan strips
        labels = np.array([label.strip() for label in labels.tolist()], dtype=object)
        same, diff = labels == "same", labels == "diff"
    if table.size == 0 or not (same | diff).all() or not ((index >= 0) & (index < n)).all():
        raise _pairs_fault(path, text, n)
    return index, same


def _pairs_fault(path: str | os.PathLike, text: str, n: int) -> DataFormatError:
    """The located error for the text of a pairs file that load_pairs
    rejected: its first faulty line.  load_pairs reads the text with
    universal newlines, so its lines split at "\n" are the file's lines."""
    found = False
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not _is_utf8(line):
            return DataFormatError(f"{path}:{lineno}: not UTF-8 text")
        line = line.strip()
        if not line:
            continue
        cols = line.split(",")
        if len(cols) != 3:
            return DataFormatError(f"{path}:{lineno}: expected index_a,index_b,same|diff")
        try:
            a, b = int(_plain_cell(cols[0])), int(_plain_cell(cols[1]))
        except ValueError:
            return DataFormatError(f"{path}:{lineno}: non-integer sample index")
        if cols[2].strip() not in ("same", "diff"):
            return DataFormatError(f"{path}:{lineno}: label must be same or diff")
        if not (0 <= a < n and 0 <= b < n):
            return DataFormatError(f"{path}:{lineno}: sample index out of range 0..{n - 1}")
        found = True
    if not found:
        return DataFormatError(f"{path}: no pairs found")
    return DataFormatError(f"{path}: unreadable pairs file")


def save_csv(ds: LabeledDataset, path: str | os.PathLike) -> None:
    """Write a dataset back out in the load_csv format, at full float precision."""
    labels = [ds.class_labels.tolist()]
    if ds.subclass_labels is not None:
        labels.append(ds.subclass_labels.tolist())
    line = ",".join(["%d"] * len(labels) + [FLOAT_FMT] * ds.dim) + "\n"
    with open(path, "w", newline="\n") as fh:
        for head, values in zip(zip(*labels), ds.samples):
            fh.write(line % (*head, *values.tolist()))


def _dense_subclasses(classes: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Subclass labels renumbered 0, 1, ... in sorted order within each class.

    One class-major int64 key per (class, subclass) pair, exact for the dense
    class ids callers pass; a row-wise np.unique(axis=0) is many times slower."""
    values, rank = np.unique(sub, return_inverse=True)
    keys, inverse = np.unique(classes * values.size + rank, return_inverse=True)
    return inverse - np.searchsorted(keys // values.size, classes)


# The magic, then width, height and maxval, each after whitespace or '#' comments
# (a comment ends only at a line break or the end of the data, so a run of '#' has
# one split into comments and is never retried), then the whitespace byte ending it.
_PGM_SEP = rb"(?:\s|#[^\r\n]*(?![^\r\n]))"
_PGM_HEADER = re.compile(rb"(P[25])%s*(\d+)%s+(\d+)%s+(\d+)\s" % ((_PGM_SEP,) * 3))


def _read_pgm(path: str) -> np.ndarray:
    """Parse a P2/P5 PGM image into a float64 array scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PGM_HEADER.match(data)
    if header is None:
        bad_magic = data[:2] not in (b"P2", b"P5")
        fault = "not a PGM image (bad magic)" if bad_magic else "malformed or truncated PGM header"
        raise DataFormatError(f"{path}: {fault}")
    magic, width, height, maxval = header.groups()
    width, height, maxval = int(width), int(height), int(maxval)
    if width < 1 or height < 1 or not (0 < maxval < 65536):
        raise DataFormatError(f"{path}: invalid PGM dimensions or max value")

    count, start = width * height, header.end()
    if magic == b"P5":
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        if len(data) - start < count * dtype.itemsize:
            raise DataFormatError(f"{path}: PGM raster shorter than header promises")
        pixels = np.frombuffer(data, dtype, count=count, offset=start).astype(np.float64)
    else:
        tokens = data[start:].split()[:count]
        if len(tokens) < count:
            raise DataFormatError(f"{path}: PGM raster shorter than header promises")
        if not b"".join(tokens).isdigit():  # plain decimal gray values: no sign, no '_'
            raise DataFormatError(f"{path}: non-numeric PGM pixel data")
        pixels = np.array(tokens, dtype=np.float64)
    if pixels.max(initial=0) > maxval:
        raise DataFormatError(f"{path}: pixel value exceeds declared max gray value")
    return pixels / maxval


def load_pgm_dir(path: str | os.PathLike) -> LabeledDataset:
    """Load a directory of per-class subdirectories of equally sized PGM images.

    Class ids follow the sorted order of subdirectory names, so a
    subdirectory without a .pgm file is a DataFormatError rather than a
    class that silently shifts the ids after it; each image is vectorized in
    row-major pixel order and scaled to [0, 1] by its declared max gray value.
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
        if not files:
            raise DataFormatError(f"{subdir}: class directory holds no .pgm image")
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
    return LabeledDataset(np.vstack(vectors), labels)


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
    check_count("rotations", rotations)
    sizes = ds.class_sizes()
    if sizes.min() < rotations:
        short = int(np.argmin(sizes))
        raise ProtocolError(
            f"class {short} has {int(sizes.min())} samples, fewer than {rotations} rotations"
        )
    order = np.argsort(ds.class_labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    splits = []
    for r in range(rotations):
        gallery = np.sort(order[starts + r])
        mask = np.ones(ds.n, dtype=bool)
        mask[gallery] = False
        splits.append(SplitSpec(gallery=gallery, probe=np.flatnonzero(mask)))
    return splits


def subset(ds: LabeledDataset, indices: np.ndarray) -> LabeledDataset:
    """Dataset restricted to the given rows; every class must stay represented.
    A non-empty float or bool index array is refused rather than truncated or
    taken as a mask, and an index outside [0, n) rather than wrapped."""
    indices = np.asarray(indices)
    if indices.size and indices.dtype.kind not in "iu":  # [] is float64
        raise ValueError(f"subset indices must be integers, got dtype {indices.dtype}")
    outside = indices[(indices < 0) | (indices >= ds.n)]
    if outside.size:
        raise ValueError(f"subset index {outside[0]} is out of range for {ds.n} samples")
    indices = indices.astype(np.int64, copy=False)
    classes = ds.class_labels[indices]
    if np.unique(classes).size != ds.class_count:
        raise ValueError("subset must retain at least one sample of every class")
    sub = None
    if ds.subclass_labels is not None:
        sub = _dense_subclasses(classes, ds.subclass_labels[indices])
    return LabeledDataset(ds.samples[indices], classes, sub)
