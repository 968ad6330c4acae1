"""End-to-end training of the whole-space subclass discriminant extractor.

Training whitens the data with the modeled within-subclass eigenspectrum
(keeping the null space alive at finite weight), builds a second-stage
scatter of the whitened samples (total-subclass by default, between-subclass
for ablation), and takes its leading d eigenvectors.  The product of the
whitening matrix and those eigenvectors is the final projection: a feature
vector is just its transpose applied to a raw sample vector, with no
centering.

Both regimes build the first stage from the within-subclass contrasts R,
n - s rows for s subclasses with R^T R the within-subclass scatter (each
subclass's centred rows sum to zero, and its Helmert contrasts drop that
one dependence); class and subclass means are NumPy sums over blocks of
equal-size groups.  Neither whitens a copy of the samples: W is linear, so
for Y the second-stage rows of the raw samples (means and centring commute
with W) the whitened rows Y W have scatter W^T (Y^T Y) W and Gram matrix
Y W W^T Y^T, exact algebra that equals whitening first up to rounding.
Second-stage products mix GEMM operands, so each is averaged with its transpose.
The shape alone picks the side each eigensystem is solved on:

* n >= dim (dense): the scatter side, dim x dim eigendecompositions of
  R^T R and of W^T S W, for S the builder's scatter of the raw samples and
  W = U diag(w), U the full eigenbasis; the final columns are W times the
  second-stage eigenvectors.
* n < dim (dual): the Gram side.  The within-subclass null space only
  ever gets one weight w_null, so W = U diag(w_r) U^T + w_null (I - U U^T)
  is basis-free and symmetric, for U the range basis from the Gram matrix
  R R^T (the eigenfaces construction).  The second stage solves
  Y W^2 Y^T, and the final columns, W times its range basis
  (Y W)^T Q2 Lambda2^{-1/2}, are W^2 Y^T Q2 Lambda2^{-1/2} for
  W^2 = U diag(w_r^2 - w_null^2) U^T + w_null^2 I: that needs only Y and
  Y U, no dim x dim array, and O(n^2 dim) time.  The spectrum keeps dim
  eigenvalues, zero past the n - s of the Gram matrix.

In both regimes projection columns past the second-stage rank are zero: the
null space of that scatter separates nothing, and any basis of it would be
an arbitrary choice.  Second-stage eigenvectors come out in descending
eigenvalue order, and the projection is computed in whole blocks of
COLUMN_BLOCK columns until d is covered, then cut to d: a column's bits
depend on its block alone, so the leading d' columns of a d-column
extractor equal the extractor trained directly at d', bit for bit.  Each
block is signed before the cut by one rule, each column's largest-magnitude
entry positive (the first on ties): no column depends on an eigensolver's basis.

Working memory.  Each stage forms its scatter or Gram matrix by one product
of one rows buffer: the contrasts R for stage 1, the second-stage builder's
rows for stage 2.  The dense path drops each dim x dim temporary once it is
used: stage 1's scatter once its eigensystem is solved, stage 2's raw
scatter S once W^T S is formed, and W^T S W once its symmetrized copy is.
W itself is formed only after S is built and dropped once W^T S W exists;
the column blocks form it again, an elementwise product of the same bits.
So besides the eigensolver's own arrays, the first eigendecomposition holds
only its input, and the second two dim x dim matrices: its input, which
lives to the end of the stage, and the stage-1 eigenvectors U (kept in the
training details).

Each stage is solved on its rows scaled by a power of two, prescale_rows,
and its results are scaled back with np.ldexp, so training is exact at any
power-of-two scale of the data and no solve leaves float64.  Only the rows
themselves or the raw projection can overflow, and either raises one
TrainingError that names the data scale.

A first stage of rank 0 raises the one zero-scatter TrainingError in both
regimes.  The contrasts are exact zeros where every row equals its
subclass's first row (every subclass a singleton or its rows coinciding),
and they round to zero where the rows differ so little that their weighted
differences underflow.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset, check_count
from .errors import ConfigError, ModelFormatError, TrainingError
from .partition import STRATEGIES, SubclassPartition, TreeParams
from .scatter import (
    between_subclass_rows,
    between_subclass_scatter,
    class_means,
    group_means,
    prescale_rows,
    total_subclass_rows,
    total_subclass_scatter,
    within_subclass_contrasts,
    within_subclass_scatter,
)
from .spectrum import (
    REGULARIZED,
    TRUNCATED,
    Eigenspectrum,
    SpectrumModel,
    eig_symmetric_full,
    find_pivot,
    fit_model,
    flat_model,
    orient_columns,
    regularize,
    short_tail_model,
    truncated_weights,
)

SECOND_STAGES = ("ts", "bs")

# Projection columns are computed in blocks of this many, and only the blocks
# that cover d: a column's bits depend on its block alone, never on d.
COLUMN_BLOCK = 64

MODEL_MAGIC = b"WSSDA1"
MODEL_VERSION = 1
_HEADER = struct.Struct("<6sIIIBBI")
_U32 = struct.Struct("<I")
_MODE_CODES = {REGULARIZED: 0, TRUNCATED: 1}
_STRATEGY_CODES = {name: code for code, name in enumerate(STRATEGIES)}


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the training pipeline (partitioning is configured separately)."""

    d: int
    mode: str = REGULARIZED
    second_stage: str = "ts"

    def validate(self, dim: int) -> None:
        check_count("d", self.d, error=ConfigError)
        if self.d > dim:
            raise ConfigError(f"d={self.d} exceeds the data dimension {dim}")
        if self.mode not in (REGULARIZED, TRUNCATED):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.second_stage not in SECOND_STAGES:
            raise ConfigError(f"unknown second stage {self.second_stage!r}")


@dataclass(frozen=True)
class ModelMeta:
    mode: str
    strategy: str
    h: int
    second_stage: str
    dim: int
    class_count: int
    sample_count: int


@dataclass
class FeatureExtractor:
    """Linear map from raw sample vectors to d-dimensional features."""

    projection: np.ndarray  # (dim, d)
    meta: ModelMeta

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        if self.projection.ndim != 2:
            raise ValueError("projection must be a 2-D matrix")
        if self.projection.shape[0] != self.meta.dim:
            raise ValueError("projection rows must match the training dimension")
        if not 1 <= self.d <= self.dim:  # the model file holds only such a projection
            raise ValueError(f"projection shape {self.projection.shape} needs 1 <= d <= dim")
        if not np.isfinite(self.projection).all():
            raise ValueError("projection contains non-finite entries")

    @property
    def dim(self) -> int:
        return self.projection.shape[0]

    @property
    def d(self) -> int:
        return self.projection.shape[1]

    def extract(self, x: np.ndarray) -> np.ndarray:
        """Map one vector (or a matrix of row vectors) to feature space."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            if x.shape[0] != self.dim:
                raise ValueError(f"expected a vector of dimension {self.dim}, got {x.shape[0]}")
            return self.projection.T @ x
        if x.ndim == 2:
            if x.shape[1] != self.dim:
                raise ValueError(f"expected rows of dimension {self.dim}, got {x.shape[1]}")
            return x @ self.projection
        raise ValueError("input must be a vector or a matrix of row vectors")


@dataclass
class TrainingDetails:
    """Intermediate products of training; every eigenvalue array has dim
    entries, zero in the dual regime past the order of its Gram matrix (n - s
    for the first stage, with s subclasses).  Projection columns past
    second_stage_rank are zero in both regimes."""

    spectrum: Eigenspectrum
    model: SpectrumModel
    second_stage_eigenvalues: np.ndarray
    second_stage_rank: int


def _spectrum_model(es: Eigenspectrum, config: TrainConfig) -> SpectrumModel:
    """The spectrum model of config.mode for the within-subclass spectrum es."""
    if es.rank == 0:
        raise TrainingError(
            "within-subclass scatter is zero in float64 (every subclass is a singleton, "
            "or its rows coincide or differ below the float64 range); nothing to whiten"
        )
    if config.mode == TRUNCATED:
        model = truncated_weights(es)
    elif es.rank < 3:
        model = short_tail_model(es)
    else:
        pivot = find_pivot(es)
        if pivot.flat:  # the limit of the fitted hyperbola as lambda_m -> lambda_1
            model = flat_model(es)
        else:
            model = regularize(es, pivot.m, *fit_model(es, pivot.m))
    return model


def _second_stage(
    ds: LabeledDataset, part: SubclassPartition, config: TrainConfig, total, between
):
    """The config.second_stage builder's result for the raw samples: total(samples,
    class labels, global mean) for ts, between(subclass means, H_i, global mean)
    for bs, with the global mean the mean of the class means.  Callers pass
    the module's builders (the names perfbench's tracer wraps)."""
    global_mean = class_means(ds.samples, part.class_labels).mean(axis=0)
    if config.second_stage == "ts":
        return total(ds.samples, part.class_labels, global_mean)
    h = part.subclasses_per_class
    return between(group_means(ds.samples, part.group_ids, int(h.sum())), h, global_mean)


def _dense(ds: LabeledDataset, part: SubclassPartition, config: TrainConfig):
    """Both stages as dim x dim eigendecompositions (n >= dim)."""
    # dim x dim temporaries are dropped once used, but for the last (module docstring)
    scatter = within_subclass_scatter(ds, part)
    k1 = scatter.exponent
    es = eig_symmetric_full(scatter.unit)
    del scatter
    model = _spectrum_model(es, config)

    # the second stage by linearity (module docstring): W^T S W, S of the raw samples
    second = _second_stage(ds, part, config, total_subclass_scatter, between_subclass_scatter)
    k2 = second.exponent
    whitener = es.eigenvectors * model.weights
    product = whitener.T @ second.unit
    del second
    product = product @ whitener
    del whitener  # formed again, to the same bits, once the second solve is done
    sym = product + product.T  # mixed operands: inexactly symmetric
    del product
    sym /= 2.0
    es2 = eig_symmetric_full(sym)
    whitener = es.eigenvectors * model.weights

    def block_columns(start: int, stop: int, out: np.ndarray) -> None:
        np.matmul(whitener, es2.eigenvectors[:, start:stop], out=out)

    projection = _columns_in_blocks(ds.dim, config.d, es2.rank, block_columns)
    return _raw_units(k1, k2, es, model, projection, es2.eigenvalues, es2.rank)


def _raw_units(k1: int, k2: int, es, model, projection, second_values, second_rank):
    """The 5-tuple of stages solved on stage-1 rows scaled by 2^-k1 and
    stage-2 rows by 2^-k2, scaled in place to the units of the raw samples:
    the weights and the projection by 2^-k1, the spectrum by 4^k1 and the
    second-stage eigenvalues by 4^(k2 - k1), saturating at inf or 0."""
    for values, k in (
        (es.eigenvalues, 2 * k1),
        (model.lambda_reg, 2 * k1),
        (model.weights, -k1),
        (projection, -k1),
        (second_values, 2 * (k2 - k1)),
    ):
        np.ldexp(values, k, out=values)
    if model.alpha is not None:
        model.alpha = float(np.ldexp(model.alpha, 2 * k1))
    return es, model, projection, second_values, second_rank


def _columns_in_blocks(
    dim: int, d: int, rank: int, block_columns: Callable[[int, int, np.ndarray], None]
) -> np.ndarray:
    """(dim, d) projection: columns [0, min(d, rank)) from block_columns(start,
    stop, out), which writes columns [start, stop) into out, called on whole
    COLUMN_BLOCK-wide blocks cut at rank, each signed by orient_columns before
    it is cut to d; columns past rank are zero."""
    projection = np.zeros((dim, d))
    for start in range(0, min(d, rank), COLUMN_BLOCK):
        stop = min(start + COLUMN_BLOCK, rank)
        out = projection[:, start:stop] if stop <= d else np.empty((dim, stop - start))
        block_columns(start, stop, out)
        orient_columns(out)
        if stop > d:  # the block across d is made whole, so its columns do not depend on d
            projection[:, start:] = out[:, : d - start]
    return projection


def _padded(values: np.ndarray, dim: int) -> np.ndarray:
    return np.concatenate([values, np.zeros(dim - values.size)])


def _dual(ds: LabeledDataset, part: SubclassPartition, config: TrainConfig):
    """Both stages through Gram matrices of at most n rows (n < dim); no dim x
    dim array."""
    rows = within_subclass_contrasts(ds, part)
    k1 = prescale_rows(rows)
    gram = eig_symmetric_full(rows @ rows.T)
    # the range basis U = R^T Q_r Lambda_r^{-1/2} of R^T R, one column per
    # non-zero eigenvalue of the Gram matrix R R^T
    r = gram.rank
    basis = rows.T @ (gram.eigenvectors[:, :r] / np.sqrt(gram.eigenvalues[:r]))
    del rows
    es = Eigenspectrum(_padded(gram.eigenvalues, ds.dim), basis, r)
    model = _spectrum_model(es, config)
    # the second stage by linearity (module docstring): Y W^2 Y^T and W^2 Y^T
    # from Y U and Y, with W^2 = U diag(s) U^T + w_null^2 I
    w_null = model.weights[es.rank]
    s = (model.weights[: es.rank] - w_null) * (model.weights[: es.rank] + w_null)
    rows = _second_stage(ds, part, config, total_subclass_rows, between_subclass_rows)
    k2 = prescale_rows(rows)
    along = rows @ basis
    product = rows @ rows.T
    product *= w_null * w_null
    product += (along * s) @ along.T
    gram2 = eig_symmetric_full((product + product.T) / 2.0)  # mixed operands: inexactly symmetric

    def block_columns(start: int, stop: int, out: np.ndarray) -> None:
        coeffs = gram2.eigenvectors[:, start:stop] / np.sqrt(gram2.eigenvalues[start:stop])
        np.matmul(rows.T, w_null * w_null * coeffs, out=out)
        out += basis @ (s[:, None] * (along.T @ coeffs))

    projection = _columns_in_blocks(ds.dim, config.d, gram2.rank, block_columns)
    second_values = _padded(gram2.eigenvalues, ds.dim)
    return _raw_units(k1, k2, es, model, projection, second_values, gram2.rank)


def train_detailed(
    ds: LabeledDataset, part: SubclassPartition, config: TrainConfig
) -> tuple[FeatureExtractor, TrainingDetails]:
    """Run the full pipeline and keep the intermediate products for inspection."""
    config.validate(ds.dim)
    stages = _dual if ds.n < ds.dim else _dense
    with np.errstate(over="ignore", invalid="ignore"):  # the range rule below says it
        try:
            es, model, projection, second_values, second_rank = stages(ds, part, config)
        except OverflowError:  # prescale_rows: a stage's rows left float64
            projection = None
    if projection is None or not np.isfinite(projection).all():
        scale = float(np.abs(ds.samples).max())
        raise TrainingError(
            f"samples of magnitude up to {scale:.3g} take a training stage's rows or "
            "the projection past the float64 range"
        )

    meta = ModelMeta(
        mode=config.mode,
        strategy=part.strategy,
        h=int(part.subclasses_per_class.max()),
        second_stage=config.second_stage,
        dim=ds.dim,
        class_count=ds.class_count,
        sample_count=ds.n,
    )
    fx = FeatureExtractor(projection, meta)
    details = TrainingDetails(
        spectrum=es,
        model=model,
        second_stage_eigenvalues=second_values,
        second_stage_rank=second_rank,
    )
    return fx, details


def train(ds: LabeledDataset, part: SubclassPartition, config: TrainConfig) -> FeatureExtractor:
    fx, _ = train_detailed(ds, part, config)
    return fx


def save_model(fx: FeatureExtractor, path: str) -> None:
    """Serialize an extractor: fixed header, row-major float64 matrix, metadata pairs."""
    meta = fx.meta
    header = _HEADER.pack(
        MODEL_MAGIC,
        MODEL_VERSION,
        fx.dim,
        fx.d,
        _MODE_CODES[meta.mode],
        _STRATEGY_CODES[meta.strategy],
        meta.h,
    )
    pairs = {
        "second_stage": meta.second_stage,
        "class_count": str(meta.class_count),
        "sample_count": str(meta.sample_count),
    }
    blob = bytearray(header)
    blob += fx.projection.astype("<f8").tobytes(order="C")
    blob += _U32.pack(len(pairs))
    for key, val in pairs.items():
        for text in (key, val):
            raw = text.encode("utf-8")
            blob += _U32.pack(len(raw)) + raw
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_model(path: str) -> FeatureExtractor:
    """Read a serialized extractor; any structural damage raises ModelFormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(count: int) -> bytes:
        nonlocal pos
        if pos + count > len(data):
            raise ModelFormatError(f"{path}: truncated model file")
        chunk = data[pos : pos + count]
        pos += count
        return chunk

    magic, version, dim, d, mode_code, strategy_code, h = _HEADER.unpack(take(_HEADER.size))
    if magic != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    if version != MODEL_VERSION:
        raise ModelFormatError(f"{path}: unsupported model version {version}")
    modes = {code: name for name, code in _MODE_CODES.items()}
    strategies = {code: name for name, code in _STRATEGY_CODES.items()}
    if mode_code not in modes or strategy_code not in strategies:
        raise ModelFormatError(f"{path}: unknown mode or strategy code")
    if dim < 1 or d < 1 or d > dim:
        raise ModelFormatError(f"{path}: inconsistent dimensions in header")

    raw = take(dim * d * 8)
    projection = np.frombuffer(raw, dtype="<f8").reshape(dim, d).astype(np.float64)

    (count,) = _U32.unpack(take(_U32.size))
    raw_pairs: dict[bytes, bytes] = {}
    for _ in range(count):
        (klen,) = _U32.unpack(take(_U32.size))
        key = take(klen)
        (vlen,) = _U32.unpack(take(_U32.size))
        raw_pairs[key] = take(vlen)
    if pos != len(data):
        raise ModelFormatError(f"{path}: trailing bytes after model payload")
    try:
        # UnicodeDecodeError is a ValueError
        pairs = {key.decode("utf-8"): val.decode("utf-8") for key, val in raw_pairs.items()}
        meta = ModelMeta(
            mode=modes[mode_code],
            strategy=strategies[strategy_code],
            h=h,
            second_stage=pairs["second_stage"],
            dim=dim,
            class_count=int(pairs["class_count"]),
            sample_count=int(pairs["sample_count"]),
        )
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"{path}: missing or malformed metadata") from exc
    for key, ok in (
        ("second_stage", meta.second_stage in SECOND_STAGES),
        ("class_count", meta.class_count >= 1),
        ("sample_count", meta.sample_count >= 1),
        ("h", meta.h >= 1),
        # training puts a sample in every class and in every subclass
        ("sample_count", meta.sample_count >= meta.class_count),
        ("h", meta.h <= meta.sample_count),
    ):
        if not ok:
            raise ModelFormatError(f"{path}: invalid metadata {key}={getattr(meta, key)!r}")
    try:  # a tree strategy trains only at an h it can split to
        TreeParams(meta.h).validate(meta.strategy)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: invalid metadata {exc}") from exc
    try:
        return FeatureExtractor(projection, meta)
    except ValueError as exc:  # a non-finite matrix entry
        raise ModelFormatError(f"{path}: {exc}") from exc
