"""Identification and verification harnesses.

Identification: single-sample-per-class gallery, cosine nearest neighbor,
error rate swept over feature dimension.  The sweep trains once at the
largest requested d and slices leading columns, which is exact because the
extractor's columns are ordered by the second-stage eigenvalues.

Verification: threshold sweep over all observed pair scores (higher score
means more likely same), exact ROC staircase, equal error rate by linear
interpolation between the two operating points where FAR crosses FRR.  The
staircase comes from one descending sort of the scores plus cumulative
same/different counts, O(P log P) in the pair count; resampling onto a
uniform FAR grid lives in kfold_pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dataset import LabeledDataset, SplitSpec
from .errors import ConfigError, ProtocolError
from .pipeline import FeatureExtractor

# A scored verification trial: (similarity score, is_same_class).
Pair = tuple[float, bool]


def pair_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Verification score cos(a, b), higher means more alike, computed as one
    minus the cosine distance clipped to [0, 2].  Zero vectors have no
    direction: ValueError."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("pair_similarity expects two vectors of equal dimension")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for zero vectors")
    return 1.0 - float(np.clip(1.0 - float(a @ b) / (na * nb), 0.0, 2.0))


def _scratch(gallery_rows: int, probe_rows: int, dim: int) -> tuple[np.ndarray, ...]:
    """Flat buffers for _nearest: normalised gallery, normalised probes, distances."""
    return (
        np.empty(gallery_rows * dim),
        np.empty(probe_rows * dim),
        np.empty(probe_rows * gallery_rows),
    )


def _unit_rows(x: np.ndarray, buf: np.ndarray, what: str) -> np.ndarray:
    """x divided by its row norms, written to the front of buf as a contiguous matrix."""
    out = buf[: x.size].reshape(x.shape)
    np.multiply(x, x, out=out)
    norms = np.sqrt(np.add.reduce(out, axis=1))
    if (norms == 0.0).any():
        raise ValueError(f"{what} contains a zero vector; cosine matching is undefined")
    return np.divide(x, norms[:, None], out=out)


def _nearest(
    gallery: np.ndarray, probes: np.ndarray, scratch: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Index of the gallery row nearest in cosine distance to each probe row,
    computed in the buffers of _scratch; ties go to the lowest gallery index."""
    gn = _unit_rows(gallery, scratch[0], "gallery")
    pn = _unit_rows(probes, scratch[1], "probe set")
    dist = scratch[2][: pn.shape[0] * gn.shape[0]].reshape(pn.shape[0], gn.shape[0])
    np.matmul(pn, gn.T, out=dist)
    np.subtract(1.0, dist, out=dist)
    # argmin takes the first hit, so exact ties go to the lowest gallery index
    return np.argmin(dist, axis=1)


def nn_classify(
    gallery: np.ndarray, gallery_labels: np.ndarray, probes: np.ndarray
) -> np.ndarray:
    """Label of the gallery row nearest in cosine distance to each probe row;
    ties go to the lowest gallery index."""
    gallery = np.asarray(gallery, dtype=np.float64)
    probes = np.asarray(probes, dtype=np.float64)
    if gallery.ndim != 2 or probes.ndim != 2 or gallery.shape[1] != probes.shape[1]:
        raise ValueError("gallery and probes must be matrices of rows of equal dimension")
    gallery_labels = np.asarray(gallery_labels)
    if gallery_labels.shape != (gallery.shape[0],):
        raise ValueError("one label per gallery row required")
    if gallery.shape[0] == 0:
        raise ValueError("empty gallery")
    scratch = _scratch(gallery.shape[0], probes.shape[0], gallery.shape[1])
    return gallery_labels[_nearest(gallery, probes, scratch)]


@dataclass
class IdentificationReport:
    curve: list[tuple[int, float]]  # (d, mean error over splits)
    per_split: np.ndarray  # (splits, d_values) error rates
    config: dict = field(default_factory=dict)


def identification_sweep(
    factory: Callable[[int], FeatureExtractor],
    ds: LabeledDataset,
    splits: Sequence[SplitSpec],
    d_values: Sequence[int],
) -> IdentificationReport:
    """Closed-set identification error over feature dimensions.

    factory(d_max) must return an extractor with at least d_max columns;
    lower-dimensional results reuse its leading columns.
    """
    d_values = sorted(set(int(d) for d in d_values))
    if not d_values or d_values[0] < 1:
        raise ValueError("d_values must be positive integers")
    if not splits:
        raise ProtocolError("no gallery/probe splits supplied")
    d_max = d_values[-1]
    if d_max > ds.dim:
        raise ConfigError(f"d={d_max} exceeds the data dimension {ds.dim}")
    fx = factory(d_max)
    if fx.d < d_max:
        raise ConfigError(
            f"extractor provides {fx.d} feature dimensions but the sweep needs {d_max}"
        )
    feats = ds.samples @ fx.projection[:, :d_max]

    errors = np.zeros((len(splits), len(d_values)))
    for s, split in enumerate(splits):
        if split.gallery.size == 0:
            raise ProtocolError(f"split {s} has an empty gallery")
        if split.probe.size == 0:
            raise ProtocolError(f"split {s} has no probes; its error rate is undefined")
        truth = ds.class_labels[split.probe]
        gallery_labels = ds.class_labels[split.gallery]
        gallery, probes = feats[split.gallery], feats[split.probe]
        # one set of buffers per split, reused at every d: fresh multi-MiB
        # temporaries per d cost more in page faults than the arithmetic
        scratch = _scratch(gallery.shape[0], probes.shape[0], d_max)
        for k, d in enumerate(d_values):
            pred = gallery_labels[_nearest(gallery[:, :d], probes[:, :d], scratch)]
            errors[s, k] = float(np.mean(pred != truth))
    curve = [(d, float(errors[:, k].mean())) for k, d in enumerate(d_values)]
    config = {
        "d_values": d_values,
        "split_count": len(splits),
        "mode": fx.meta.mode,
        "strategy": fx.meta.strategy,
        "h": fx.meta.h,
    }
    return IdentificationReport(curve=curve, per_split=errors, config=config)


@dataclass
class RocReport:
    points: list[tuple[float, float]]  # (far, tar), far non-decreasing
    eer: float
    threshold_at_eer: float
    thresholds: list[float]  # one per point, descending from a sentinel above the top score


def _pair_arrays(pairs: Sequence[Pair]) -> tuple[np.ndarray, np.ndarray]:
    """Scores and same-class flags of a pair list as a float and a bool array."""
    scores = np.array([score for score, _ in pairs], dtype=np.float64)
    return scores, np.array([flag for _, flag in pairs], dtype=bool)


def _roc_staircase(scores: np.ndarray, same: np.ndarray):
    n_same = np.count_nonzero(same)
    n_diff = same.size - n_same
    if n_same == 0 or n_diff == 0:
        raise ProtocolError("verification needs at least one same pair and one different pair")
    if not np.isfinite(scores).all():
        raise ValueError("pair scores must be finite")
    # accept when score >= threshold: in descending order, the last row of each
    # run of equal scores closes its threshold's step; a sentinel above the
    # maximum pins (0, 0), and integer count / total is the mean of booleans
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    last = np.append(ranked[1:] != ranked[:-1], True)
    accepted = np.concatenate([[0], np.flatnonzero(last) + 1])
    hits = np.concatenate([[0], np.cumsum(same[order])[last]])
    thresholds = np.concatenate([[ranked[0] + 1.0], ranked[last]])
    return thresholds, (accepted - hits) / n_diff, hits / n_same


def _eer_from_staircase(thresholds, fars, tars):
    frrs = 1.0 - tars
    gaps = fars - frrs  # -1 at the sentinel, +1 at the lowest threshold
    j = int(np.argmax(gaps >= 0.0))
    if gaps[j] == 0.0:
        return float(fars[j]), float(thresholds[j])
    s = -gaps[j - 1] / (gaps[j] - gaps[j - 1])
    eer = fars[j - 1] + s * (fars[j] - fars[j - 1])
    thr = thresholds[j - 1] + s * (thresholds[j] - thresholds[j - 1])
    return float(eer), float(thr)


def _grid_readout(fars, tars, grid):
    # staircase value at each grid FAR: best TAR among points with far <= g
    idx = np.searchsorted(fars, grid, side="right") - 1
    return tars[np.maximum(idx, 0)]


def verification_roc(pairs: Sequence[Pair]) -> RocReport:
    """Exact ROC over the observed scores, one point per distinct score plus
    the (0, 0) sentinel, from one sort in O(P log P).  Resampling onto a
    uniform FAR grid is kfold_pairwise's job (folds=1 for a single ROC)."""
    thresholds, fars, tars = _roc_staircase(*_pair_arrays(pairs))
    eer, thr = _eer_from_staircase(thresholds, fars, tars)
    points = list(zip(fars.tolist(), tars.tolist()))
    return RocReport(points=points, eer=eer, threshold_at_eer=thr, thresholds=thresholds.tolist())


@dataclass
class KFoldReport:
    points: list[tuple[float, float]]  # common FAR grid, fold-averaged TAR
    fold_eers: list[float]
    eer_mean: float
    eer_std: float


def kfold_pairwise(
    pairs: Sequence[Pair], folds: int = 10, resolution: int = 101
) -> KFoldReport:
    """Split the pair list into contiguous folds, compute a ROC per fold, and
    average TAR on a shared FAR grid.  Pair order is the fold assignment, so
    shuffle beforehand if the list is structured."""
    if folds < 1:
        raise ValueError("folds must be at least 1")
    if len(pairs) < folds:
        raise ProtocolError(f"cannot split {len(pairs)} pairs into {folds} folds")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    grid = np.linspace(0.0, 1.0, resolution)
    scores, same = _pair_arrays(pairs)
    chunks = zip(np.array_split(scores, folds), np.array_split(same, folds))
    eers = []
    tar_rows = []
    for f, (fold_scores, fold_same) in enumerate(chunks):
        try:
            thresholds, fars, tars = _roc_staircase(fold_scores, fold_same)
        except ProtocolError as exc:
            raise ProtocolError(f"fold {f}: {exc}") from exc
        eer, _ = _eer_from_staircase(thresholds, fars, tars)
        eers.append(eer)
        tar_rows.append(_grid_readout(fars, tars, grid))
    mean_tar = np.mean(tar_rows, axis=0)
    return KFoldReport(
        points=list(zip(grid.tolist(), mean_tar.tolist())),
        fold_eers=eers,
        eer_mean=float(np.mean(eers)),
        eer_std=float(np.std(eers)),
    )
