"""End-to-end training of the whole-space subclass discriminant extractor.

Training whitens the data with the modeled within-subclass eigenspectrum
(keeping the null space alive at finite weight), builds a second-stage
scatter of the whitened samples (total-subclass by default, between-subclass
for ablation), and takes its leading d eigenvectors.  The product of the
whitening matrix and those eigenvectors is the final projection: a feature
vector is just its transpose applied to a raw sample vector, with no
centering.

Second-stage eigenvectors come out in descending eigenvalue order, so the
leading d' columns of a d-column extractor equal the extractor trained
directly at d'.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import ConfigError, ModelFormatError, TrainingError
from .partition import STRATEGIES, SubclassPartition
from .scatter import (
    between_subclass_scatter,
    class_means,
    group_means,
    total_subclass_scatter,
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
    regularize,
    short_tail_model,
    truncated_weights,
)

SECOND_STAGES = ("ts", "bs")

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
    med_factor: float = 1.0
    allow_flat_spectrum: bool = False

    def validate(self, dim: int) -> None:
        if self.d < 1:
            raise ConfigError("d must be at least 1")
        if self.d > dim:
            raise ConfigError(f"d={self.d} exceeds the data dimension {dim}")
        if self.mode not in (REGULARIZED, TRUNCATED):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.second_stage not in SECOND_STAGES:
            raise ConfigError(f"unknown second stage {self.second_stage!r}")
        if self.med_factor <= 0:
            raise ConfigError("med_factor must be positive")


@dataclass(frozen=True)
class ModelMeta:
    mode: str
    strategy: str
    h: int
    med_factor: float
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
    spectrum: Eigenspectrum
    model: SpectrumModel
    second_stage_eigenvalues: np.ndarray


def _spectrum_model(es: Eigenspectrum, config: TrainConfig) -> SpectrumModel:
    if config.mode == TRUNCATED:
        model = truncated_weights(es)
        if not model.usable:
            raise TrainingError("within-subclass scatter is zero; no usable spectrum")
        return model
    if es.rank == 0:
        raise TrainingError(
            "within-subclass scatter is zero (every subclass is a singleton); nothing to whiten"
        )
    if es.rank < 3:
        return short_tail_model(es)
    pivot = find_pivot(es, config.med_factor)
    if pivot.flat:
        if not config.allow_flat_spectrum:
            raise TrainingError(
                "flat within-subclass eigenspectrum: the decay model is degenerate; "
                "set allow_flat_spectrum to fall back to uniform weighting"
            )
        return flat_model(es)
    alpha, beta = fit_model(es, pivot.m)
    return regularize(es, pivot.m, alpha, beta)


def train_detailed(
    ds: LabeledDataset, part: SubclassPartition, config: TrainConfig
) -> tuple[FeatureExtractor, TrainingDetails]:
    """Run the full pipeline and keep the intermediate products for inspection."""
    config.validate(ds.dim)
    sws = within_subclass_scatter(ds, part)
    es = eig_symmetric_full(sws)
    model = _spectrum_model(es, config)

    whitener = es.eigenvectors * model.weights
    whitened = ds.samples @ whitener

    global_mean = class_means(whitened, ds.class_labels).mean(axis=0)
    if config.second_stage == "ts":
        second = total_subclass_scatter(whitened, ds.class_labels, global_mean)
    else:
        ends = np.cumsum(part.subclasses_per_class)
        sub_means = np.split(group_means(whitened, part.group_ids, int(ends[-1])), ends[:-1])
        second = between_subclass_scatter(sub_means, global_mean)
    es2 = eig_symmetric_full(second)
    # full product first, then slice: training at a smaller d must reproduce
    # the leading columns bit for bit, and BLAS rounds differently per shape
    projection = (whitener @ es2.eigenvectors)[:, : config.d]

    meta = ModelMeta(
        mode=config.mode,
        strategy=part.strategy,
        h=int(part.subclasses_per_class.max()),
        med_factor=config.med_factor,
        second_stage=config.second_stage,
        dim=ds.dim,
        class_count=ds.class_count,
        sample_count=ds.n,
    )
    fx = FeatureExtractor(projection, meta)
    details = TrainingDetails(spectrum=es, model=model, second_stage_eigenvalues=es2.eigenvalues)
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
        "med_factor": "%.17g" % meta.med_factor,
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
    pairs: dict[str, str] = {}
    for _ in range(count):
        (klen,) = _U32.unpack(take(_U32.size))
        key = take(klen).decode("utf-8")
        (vlen,) = _U32.unpack(take(_U32.size))
        pairs[key] = take(vlen).decode("utf-8")
    if pos != len(data):
        raise ModelFormatError(f"{path}: trailing bytes after model payload")
    try:
        meta = ModelMeta(
            mode=modes[mode_code],
            strategy=strategies[strategy_code],
            h=h,
            med_factor=float(pairs["med_factor"]),
            second_stage=pairs["second_stage"],
            dim=dim,
            class_count=int(pairs["class_count"]),
            sample_count=int(pairs["sample_count"]),
        )
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"{path}: missing or malformed metadata") from exc
    return FeatureExtractor(projection, meta)
