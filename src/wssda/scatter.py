"""Scatter matrix construction with equal class and subclass priors.

Every scatter here is a weighted sum of outer products of centred rows,
S = sum_r w_r x_r x_r^T, which is one GEMM: scale each centred row by
sqrt(w_r) into B and form B^T B.  The builders differ only in the rows they
centre, the centre they subtract and the row weights; group means come from
one stable sort by group id and are summed in the order np.add.reduceat
sums them (see group_means), so every scatter, and every trained model,
keeps the bytes it had when the means were one reduceat call.  Class priors
are fixed at 1/C and subclass priors at 1/H_i throughout.  The *_scatter
builders return symmetric positive semidefinite matrices; exact symmetry is
enforced by averaging the product with its transpose.  The *_rows builders
return B itself, for callers that work with the n x n Gram matrix B B^T
instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import PartitionError
from .partition import SubclassPartition


@dataclass
class ScatterMatrix:
    matrix: np.ndarray
    rank_bound: int


def _symmetrize(acc: np.ndarray) -> np.ndarray:
    return (acc + acc.T) / 2.0


def _rows(dev: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """dev scaled in place by sqrt(weights): the rows B with sum_r weights[r] *
    outer(dev[r], dev[r]) = B^T B."""
    dev *= np.sqrt(weights)[:, None]
    return dev


def _scatter(rows: np.ndarray, rank_bound: int) -> ScatterMatrix:
    """B^T B of weighted rows B, symmetrized."""
    return ScatterMatrix(_symmetrize(rows.T @ rows), int(rank_bound))


# NumPy 2 starts the pairwise sum of under 8 rows from -0.0, an identity; a
# release that starts from 0.0 turns a leading -0.0 into 0.0.  Read it off
# reduceat itself.
_ZERO_START = not np.signbit(np.add.reduceat(np.array([-0.0, -0.0]), [0])[0])


def _pairwise_sum(block: np.ndarray) -> np.ndarray:
    """NumPy's pairwise sum of a (k, m, dim) block over its m axis, m >= 1,
    one vector add per step for all k groups.  Sums in place: the result is
    a (k, dim) view of block."""
    m = block.shape[1]
    if m < 8:
        total = block[:, 0]
        if _ZERO_START:
            total += 0.0
        for i in range(1, m):
            total += block[:, i]
        return total
    if m > 128:
        half = m // 2 - m // 2 % 8
        total = _pairwise_sum(block[:, :half])
        total += _pairwise_sum(block[:, half:])
        return total
    # eight interleaved partial sums r_j, combined ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    # then the rows past the last multiple of 8, one by one
    partial = block[:, :8]
    whole = m - m % 8
    for i in range(8, whole, 8):
        partial += block[:, i : i + 8]
    partial[:, 0::2] += partial[:, 1::2]
    partial[:, 0::4] += partial[:, 2::4]
    total = partial[:, 0]
    total += partial[:, 4]
    for i in range(whole, m):
        total += block[:, i]
    return total


def group_means(samples: np.ndarray, ids: np.ndarray, count: int) -> np.ndarray:
    """(count, dim) means of the rows sharing each group id; every id in
    [0, count) must occur.

    Each sum is bit for bit np.add.reduceat(samples[order], starts, axis=0)
    for the stable sort order of the ids, so the models trained on these
    means keep their bytes.  reduceat sums a group as its first row plus
    NumPy's pairwise sum of the rest (Higham 1993): a left-to-right sum below
    8 rows, eight interleaved partial sums up to 128 rows, and above that two
    halves split at a multiple of 8.  It takes one inner-loop call per
    (group, column), a few rows each; here all groups of one size are summed
    together in that order, one vector add over the groups per step.
    """
    sizes = np.bincount(ids, minlength=count)
    if sizes.size != count or (sizes == 0).any():
        raise ValueError(f"group ids must cover [0, {count}) with no empty group")
    order = np.argsort(ids, kind="stable")
    starts = np.cumsum(sizes) - sizes
    if samples.dtype != np.float64:  # reduceat widens small ints; float64 is the library's
        return np.add.reduceat(samples[order], starts, axis=0) / sizes[:, None]
    dim = samples.shape[1]
    means = np.empty((count, dim))
    for size in np.unique(sizes):
        groups = np.flatnonzero(sizes == size)
        block = samples[order[starts[groups, None] + np.arange(size)]]
        first = block[:, 0]
        if size > 1:
            first += _pairwise_sum(block[:, 1:])
        first /= size
        means[groups] = first
    return means


def class_means(samples: np.ndarray, class_labels: np.ndarray) -> np.ndarray:
    """(C, dim) matrix of per-class sample means."""
    return group_means(samples, class_labels, int(class_labels.max()) + 1)


def mean_of_class_means(samples: np.ndarray, class_labels: np.ndarray) -> np.ndarray:
    """Global center used by the subclass scatters: the unweighted mean of class means.

    For unbalanced classes this differs from the grand sample mean.
    """
    return class_means(samples, class_labels).mean(axis=0)


def within_class_scatter(ds: LabeledDataset) -> ScatterMatrix:
    """Average outer product of deviations from class means, weighted 1/n."""
    dev = ds.samples - class_means(ds.samples, ds.class_labels)[ds.class_labels]
    rank_bound = min(ds.dim, ds.n - ds.class_count)
    return _scatter(_rows(dev, np.full(ds.n, 1.0 / ds.n)), rank_bound)


def within_subclass_rows(ds: LabeledDataset, part: SubclassPartition) -> np.ndarray:
    """(n, dim) weighted deviations from subclass means, B with
    within_subclass_scatter = B^T B.

    Each row of subclass (i, j) is weighted 1/(C * H_i * G_ij); rows of
    singleton subclasses are zero.
    """
    if part.class_labels.shape != ds.class_labels.shape or not np.array_equal(
        part.class_labels, ds.class_labels
    ):
        raise PartitionError("partition does not match the dataset's class labels")
    ids = part.group_ids
    sizes = np.concatenate(part.subclass_counts)
    dev = ds.samples - group_means(ds.samples, ids, sizes.size)[ids]
    weights = 1.0 / (part.class_count * part.subclasses_per_class[ds.class_labels] * sizes[ids])
    return _rows(dev, weights)


def within_subclass_scatter(ds: LabeledDataset, part: SubclassPartition) -> ScatterMatrix:
    """Prior-weighted scatter of deviations from subclass means."""
    rows = within_subclass_rows(ds, part)
    groups = sum(len(counts) for counts in part.subclass_counts)
    return _scatter(rows, min(ds.dim, ds.n - groups))


def between_subclass_rows(subclass_means: list[np.ndarray], global_mean: np.ndarray) -> np.ndarray:
    """Subclass means about the global center, each weighted 1/(C * H_i).

    subclass_means holds one (H_i, dim) array per class.
    """
    h = np.asarray([means.shape[0] for means in subclass_means])
    dev = np.concatenate(subclass_means) - global_mean
    return _rows(dev, np.repeat(1.0 / (len(subclass_means) * h), h))


def between_subclass_scatter(
    subclass_means: list[np.ndarray], global_mean: np.ndarray
) -> ScatterMatrix:
    """Scatter of subclass means about the global center."""
    rows = between_subclass_rows(subclass_means, global_mean)
    return _scatter(rows, min(rows.shape[1], rows.shape[0] - 1))


def total_subclass_rows(
    samples: np.ndarray, class_labels: np.ndarray, global_mean: np.ndarray
) -> np.ndarray:
    """All samples about the global center, each weighted 1/(C * n_i)."""
    sizes = np.bincount(class_labels)
    return _rows(samples - global_mean, 1.0 / (sizes.size * sizes[class_labels]))


def total_subclass_scatter(
    samples: np.ndarray, class_labels: np.ndarray, global_mean: np.ndarray
) -> ScatterMatrix:
    """Scatter of all samples about the global center."""
    rows = total_subclass_rows(samples, class_labels, global_mean)
    return _scatter(rows, min(samples.shape))
