"""Identification and verification harnesses.

Identification: single-sample-per-class gallery, cosine nearest neighbor,
error rate swept over feature dimension.  The sweep trains once at the
largest requested d and slices leading columns, which is exact because the
extractor's columns are ordered by the second-stage eigenvalues.  Distances
are computed for one cache-sized block of probe rows at a time (about 1 MiB
of them), so the sweep holds the features plus one block, not a probes x
gallery matrix.

Verification: threshold sweep over all observed pair scores (higher score
means more likely same), exact ROC staircase, equal error rate by linear
interpolation between the two operating points where FAR crosses FRR.
verification_roc and kfold_pairwise take the pairs as two arrays, a float
score and a bool same-class flag per pair, and return the curve as far and
tar arrays.  The staircase comes from one descending sort of the scores
plus cumulative same/different counts, O(P log P) in the pair count;
resampling onto a uniform FAR grid lives in kfold_pairwise.
pair_similarity is the per-pair call, costing about its three BLAS dot
products.  For many pairs of one feature matrix use pair_scores: bit for
bit the same scores, gathering a fixed block of rows at a time so memory
stays flat in the pair count.  A list of (score, is_same) pairs is still
accepted in place of the two arrays, for the benchmark's library workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import LabeledDataset, SplitSpec, check_count
from .errors import ConfigError, ProtocolError
from .pipeline import FeatureExtractor

# A scored verification trial: (similarity score, is_same_class), the list
# form of verification_roc's and kfold_pairwise's input.
Pair = tuple[float, bool]


def pair_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Verification score cos(a, b) of one pair, higher means more alike,
    computed as one minus the cosine distance clipped to [0, 2]; score many
    pairs of a feature matrix with pair_scores.  Zero vectors have no
    direction: ValueError.  Strided views are copied first, because BLAS sums
    a strided dot product in another order: the score depends on the values,
    not on their layout in memory.

    The cost is the three BLAS dot products: ndarray.dot is the routine
    behind np.linalg.norm and @, math.sqrt rounds as np.sqrt does, and the
    clip is on Python floats.  The division stays a NumPy one: overflowing
    norms give inf or nan as before, and a zero divisor could never raise
    ZeroDivisionError."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("pair_similarity expects two vectors of equal dimension")
    na = math.sqrt(a.dot(a))
    nb = math.sqrt(b.dot(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for zero vectors")
    cosine = float(a.dot(b) / (na * nb))
    # max before min, each with the score first: a NaN passes through
    return 1.0 - min(max(1.0 - cosine, 0.0), 2.0)


# pairs per gathered block of pair_scores: two blocks of rows are the working
# set, instead of two (P, d) gathers
PAIR_BLOCK = 4096


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, d) matrices.  The stacked (1, d) @ (d, 1)
    products run BLAS's vector dot on each row, the routine behind
    pair_similarity's ndarray.dot calls; np.einsum sums in another order."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def pair_scores(features: np.ndarray, index_a, index_b) -> np.ndarray:
    """pair_similarity(features[a], features[b]) for every pair (a, b) of the
    two index vectors, bit for bit, computed PAIR_BLOCK pairs at a time.
    The first pair that holds a zero vector raises ValueError naming the pair
    and the sample, as does an index outside [0, rows), which NumPy would
    wrap, or a non-empty index vector of floats or bools, which NumPy refuses
    or takes as a mask."""
    features = np.asarray(features, dtype=np.float64)
    index_a = np.asarray(index_a)
    index_b = np.asarray(index_b)
    if features.ndim != 2 or index_a.ndim != 1 or index_a.shape != index_b.shape:
        raise ValueError("pair_scores expects a feature matrix and two equal-length index vectors")
    for name, index in (("index_a", index_a), ("index_b", index_b)):
        if index.size and index.dtype.kind not in "iu":
            raise ValueError(f"{name} must hold integer sample indices, got dtype {index.dtype}")
    rows = features.shape[0]
    bad_a = (index_a < 0) | (index_a >= rows)
    bad = bad_a | (index_b < 0) | (index_b >= rows)
    if bad.any():
        p = int(np.argmax(bad))
        index = index_a[p] if bad_a[p] else index_b[p]
        raise ValueError(f"pair {p}: sample index {index} is out of range for {rows} feature rows")
    scores = np.empty(index_a.size)
    for start in range(0, index_a.size, PAIR_BLOCK):
        block = slice(start, start + PAIR_BLOCK)
        # fancy indexing gathers contiguous rows whatever the layout of features
        a = features[index_a[block]]
        b = features[index_b[block]]
        norm_a = np.sqrt(_dots(a, a))
        norm_b = np.sqrt(_dots(b, b))
        if not (norm_a.all() and norm_b.all()):
            p = int(np.argmax((norm_a == 0) | (norm_b == 0)))
            zero = index_a[start + p] if norm_a[p] == 0 else index_b[start + p]
            raise ValueError(
                f"pair {start + p}: sample {zero} is a zero vector; "
                "cosine similarity is undefined for zero vectors"
            )
        cosine = _dots(a, b) / (norm_a * norm_b)
        scores[block] = 1.0 - np.clip(1.0 - cosine, 0.0, 2.0)
    return scores


# bytes of distances per probe block of _nearest: a block of 1 MiB stays in
# cache between the GEMM that writes it and the argmin that reads it, where a
# whole probes x gallery matrix (64 MiB at 4000 x 2000) streams through memory
NEAREST_BLOCK_BYTES = 1 << 20


def _block_rows(gallery_rows: int) -> int:
    """Probe rows per block of _nearest.  At least two: NumPy hands a one-row
    product to gemv, which sums in another order than the GEMM of more rows."""
    return max(2, NEAREST_BLOCK_BYTES // (8 * gallery_rows))


def _scratch(gallery_rows: int, probe_rows: int, dim: int) -> tuple[np.ndarray, ...]:
    """Flat buffers for _nearest: normalised gallery, normalised probes, and the
    distances of one probe block (its last block may take one row more)."""
    return (
        np.empty(gallery_rows * dim),
        np.empty(probe_rows * dim),
        np.empty(min(probe_rows, _block_rows(gallery_rows) + 1) * gallery_rows),
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
    computed in the buffers of _scratch one block of probe rows at a time; ties
    go to the lowest gallery index."""
    gn = _unit_rows(gallery, scratch[0], "gallery")
    pn = _unit_rows(probes, scratch[1], "probe set")
    count = pn.shape[0]
    nearest = np.empty(count, dtype=np.intp)
    # no block starts at the last probe: a one-row block would go to gemv, so
    # the block before it takes that row
    bounds = [*range(0, max(count - 1, 1), _block_rows(gn.shape[0])), count]
    for start, stop in zip(bounds, bounds[1:]):
        dist = scratch[2][: (stop - start) * gn.shape[0]].reshape(stop - start, gn.shape[0])
        np.matmul(pn[start:stop], gn.T, out=dist)
        np.subtract(1.0, dist, out=dist)
        # argmin takes the first hit, so exact ties go to the lowest gallery index
        np.argmin(dist, axis=1, out=nearest[start:stop])
    return nearest


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


def identification_sweep(
    factory: Callable[[int], FeatureExtractor],
    ds: LabeledDataset,
    splits: Sequence[SplitSpec],
    d_values: Sequence[int],
) -> IdentificationReport:
    """Closed-set identification error over feature dimensions.

    factory(d_max) must return an extractor with at least d_max columns;
    lower-dimensional results reuse its leading columns. An extractor whose
    dimension differs from the data's is refused before d is compared with
    the data dimension; a training factory refuses a d above the data
    dimension itself.  Each split is scored in cache-sized blocks of probe
    rows, so the memory beyond the features is one block of distances, not
    probes x gallery.
    """
    d_array = np.asarray(d_values)
    if d_array.size and d_array.dtype.kind not in "iu":  # int() would truncate a float d
        raise ValueError(f"d_values must be positive integers, got dtype {d_array.dtype}")
    d_values = sorted(set(d_array.tolist()))
    if not d_values or d_values[0] < 1:
        raise ValueError("d_values must be positive integers")
    if not splits:
        raise ProtocolError("no gallery/probe splits supplied")
    for s, split in enumerate(splits):
        if split.gallery.size == 0:
            raise ProtocolError(f"split {s} has an empty gallery")
        if split.probe.size == 0:
            raise ProtocolError(f"split {s} has no probes; its error rate is undefined")
        # NumPy would wrap a negative index, which also slips past SplitSpec's
        # disjointness check as an alias of row n + index
        for role, index in (("gallery", split.gallery), ("probe", split.probe)):
            outside = index[(index < 0) | (index >= ds.n)]
            if outside.size:
                raise ProtocolError(
                    f"split {s}: {role} index {outside[0]} is out of range for {ds.n} samples"
                )
    d_max = d_values[-1]
    fx = factory(d_max)
    if fx.dim != ds.dim:
        raise ConfigError(f"data dimension {ds.dim} does not match the model dimension {fx.dim}")
    if d_max > ds.dim:
        raise ConfigError(f"d={d_max} exceeds the data dimension {ds.dim}")
    if fx.d < d_max:
        raise ConfigError(f"d={d_max} exceeds the extractor's {fx.d} feature dimensions")
    feats = ds.samples @ fx.projection[:, :d_max]

    errors = np.zeros((len(splits), len(d_values)))
    for s, split in enumerate(splits):
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
    return IdentificationReport(curve=curve, per_split=errors)


@dataclass(eq=False)  # == on the far and tar arrays has no single truth value
class RocReport:
    far: np.ndarray  # false accept rate at each threshold, non-decreasing
    tar: np.ndarray  # true accept rate at each threshold, non-decreasing
    eer: float
    threshold_at_eer: float
    thresholds: list[float]  # one per point, descending from a sentinel above the top score

    @property
    def points(self) -> list[tuple[float, float]]:
        """The staircase as (far, tar) tuples."""
        return list(zip(self.far.tolist(), self.tar.tolist()))


def _score_arrays(scores, same) -> tuple[np.ndarray, np.ndarray]:
    """scores and same as a float and a bool vector of one length."""
    if same is None:  # scores is a list of Pair, as perfbench/ still passes
        same = [flag for _, flag in scores]
        scores = [score for score, _ in scores]
    scores = np.asarray(scores, dtype=np.float64)
    same = np.asarray(same, dtype=bool)
    if scores.ndim != 1 or same.shape != scores.shape:
        raise ValueError("scores and same must be vectors of one length")
    return scores, same


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


def verification_roc(scores, same=None) -> RocReport:
    """Exact ROC of pairs with these scores and same-class flags: one point
    per distinct score plus the (0, 0) sentinel, from one sort in O(P log P).
    Resampling onto a uniform FAR grid is kfold_pairwise's job (folds=1 for
    a single ROC)."""
    thresholds, fars, tars = _roc_staircase(*_score_arrays(scores, same))
    eer, thr = _eer_from_staircase(thresholds, fars, tars)
    return RocReport(
        far=fars, tar=tars, eer=eer, threshold_at_eer=thr, thresholds=thresholds.tolist()
    )


@dataclass(eq=False)  # as RocReport
class KFoldReport:
    far: np.ndarray  # the common FAR grid
    tar: np.ndarray  # fold-averaged TAR at each grid FAR
    fold_eers: list[float]
    eer_mean: float
    eer_std: float
    thresholds: list[float]  # every fold's staircase thresholds, fold after fold

    @property
    def points(self) -> list[tuple[float, float]]:
        """The averaged curve as (far, tar) tuples."""
        return list(zip(self.far.tolist(), self.tar.tolist()))


def kfold_pairwise(scores, same=None, *, folds: int = 10) -> KFoldReport:
    """Split the pairs into contiguous folds, compute a ROC per fold, and
    average TAR on the FAR grid 0, 0.01, ..., 1.  Pair order is the fold
    assignment, so shuffle beforehand if the pairs are structured."""
    check_count("folds", folds)
    scores, same = _score_arrays(scores, same)
    if scores.size < folds:
        raise ProtocolError(f"cannot split {scores.size} pairs into {folds} folds")
    grid = np.linspace(0.0, 1.0, 101)
    chunks = zip(np.array_split(scores, folds), np.array_split(same, folds))
    eers = []
    tar_rows = []
    thresholds = []
    for f, (fold_scores, fold_same) in enumerate(chunks):
        try:
            fold_thresholds, fars, tars = _roc_staircase(fold_scores, fold_same)
        except ProtocolError as exc:
            raise ProtocolError(f"fold {f}: {exc}") from exc
        eer, _ = _eer_from_staircase(fold_thresholds, fars, tars)
        eers.append(eer)
        tar_rows.append(_grid_readout(fars, tars, grid))
        thresholds += fold_thresholds.tolist()
    return KFoldReport(
        far=grid,
        tar=np.mean(tar_rows, axis=0),
        fold_eers=eers,
        eer_mean=float(np.mean(eers)),
        eer_std=float(np.std(eers)),
        thresholds=thresholds,
    )
