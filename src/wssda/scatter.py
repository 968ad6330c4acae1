"""Scatter matrix construction with equal class and subclass priors.

Every scatter here is a weighted sum of outer products of centred rows,
S = sum_r w_r x_r x_r^T, which is one GEMM: scale each centred row by
sqrt(w_r) into B and form B^T B.  The builders differ only in the rows they
centre, the centre they subtract and the row weights.  The within-subclass
scatter's one factor is within_subclass_contrasts, one row fewer per
subclass than the centred rows; both training regimes build stage 1 from
it.  Groups come from one stable sort by group id, and group means are
NumPy sums over blocks of equal-size groups.  Class priors are fixed at 1/C
and subclass priors at 1/H_i throughout.  The *_scatter builders return
exactly symmetric PSD matrices: B is one C-contiguous buffer, so NumPy forms
B^T B by SYRK; the other builders return B itself, for Gram matrix callers.
A scatter is formed from its rows scaled in place by a power of two,
prescale_rows, so its product fits in float64 whatever the scale of the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import PartitionError
from .partition import SubclassPartition


@dataclass
class ScatterMatrix:
    """S = 4^exponent * unit for weighted rows B: unit is the product of B
    scaled by 2^-exponent, the scale prescale_rows gave it."""

    unit: np.ndarray
    exponent: int = 0

    @property
    def matrix(self) -> np.ndarray:
        """S in the units of B: inf or 0 where those leave float64."""
        with np.errstate(over="ignore"):
            return np.ldexp(self.unit, 2 * self.exponent)


def prescale_rows(rows: np.ndarray) -> int:
    """Scale rows in place by 2^-k, k the np.frexp exponent of their largest
    magnitude, which then lies in [0.5, 1); returns k, 0 for an all-zero
    block.  A power of two scales every entry exactly that stays normal.
    Rows past the float64 range (an inf or a NaN) raise OverflowError."""
    peak = max(rows.max(initial=0.0), -rows.min(initial=0.0))
    if not np.isfinite(peak):
        raise OverflowError("rows past the float64 range")
    k = int(np.frexp(peak)[1])
    np.ldexp(rows, -k, out=rows)
    return k


def _rows(dev: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """dev scaled in place by sqrt(weights): the rows B with sum_r weights[r] *
    outer(dev[r], dev[r]) = B^T B."""
    dev *= np.sqrt(weights)[:, None]
    return dev


def _scatter(rows: np.ndarray) -> ScatterMatrix:
    """B^T B of one C-contiguous buffer B, prescaled in place: SYRK, exactly symmetric."""
    exponent = prescale_rows(rows)
    return ScatterMatrix(rows.T @ rows, exponent)


def _size_blocks(ids: np.ndarray, count: int) -> tuple[np.ndarray, list]:
    """Group sizes, and per distinct size, ascending, (size, groups, members):
    the groups of that size and their (groups, size) row indices, each group
    in row order (one stable sort by id).  Every id in [0, count) must occur."""
    sizes = np.bincount(ids, minlength=count)
    if sizes.size != count or (sizes == 0).any():
        raise ValueError(f"group ids must cover [0, {count}) with no empty group")
    order = np.argsort(ids, kind="stable")
    starts = np.cumsum(sizes) - sizes
    blocks = []
    for size in np.unique(sizes):
        groups = np.flatnonzero(sizes == size)
        blocks.append((int(size), groups, order[starts[groups, None] + np.arange(size)]))
    return sizes, blocks


def group_means(samples: np.ndarray, ids: np.ndarray, count: int) -> np.ndarray:
    """(count, dim) means of the rows sharing each group id; every id in
    [0, count) must occur.

    The groups of one size are gathered into one (groups, size, dim) block,
    summed by NumPy over its middle axis and divided by the size.  Any order
    of summing m rows is within (m - 1) eps sum|x| of the exact sum (Higham
    1993), so each mean is within m eps mean|x| of the exact mean.
    """
    _, blocks = _size_blocks(ids, count)
    means = np.empty((count, samples.shape[1]))
    for size, groups, members in blocks:
        means[groups] = samples[members].sum(axis=1) / size
    return means


def class_means(samples: np.ndarray, class_labels: np.ndarray) -> np.ndarray:
    """(C, dim) matrix of per-class sample means."""
    return group_means(samples, class_labels, int(class_labels.max()) + 1)


def _check_partition(ds: LabeledDataset, part: SubclassPartition) -> None:
    if part.class_labels.shape != ds.class_labels.shape or not np.array_equal(
        part.class_labels, ds.class_labels
    ):
        raise PartitionError("partition does not match the dataset's class labels")


def within_subclass_contrasts(ds: LabeledDataset, part: SubclassPartition) -> np.ndarray:
    """(n - s, dim) rows R with R^T R = within_subclass_scatter, for s subclasses.

    A subclass of G rows x_0 .. x_{G-1} (in dataset order) gives its G - 1
    Helmert contrasts, row k = (x_0 + ... + x_{k-1} - k x_k) / sqrt(k (k + 1))
    for k = 1 .. G - 1, weighted like its centred rows by 1/(C * H_i * G).
    They span the subclass's centred rows without the one linear dependence
    among them (those rows sum to zero), so a singleton subclass gives no
    row.  Subclasses of one size are done together, sizes ascending, each in
    group order.  A subclass whose rows all equal its first row gives exact
    zeros, where the running sums could round to a few ulps.
    """
    _check_partition(ds, part)
    per_class = part.subclasses_per_class
    sizes, blocks = _size_blocks(part.group_ids, int(per_class.sum()))
    group_weights = 1.0 / (part.class_count * np.repeat(per_class, per_class) * sizes)
    rows = np.empty((ds.n - sizes.size, ds.dim))
    at = 0
    for size, groups, members in blocks:
        if size == 1:
            continue  # a singleton subclass gives no row
        block = ds.samples[members]
        out = rows[at : at + groups.size * (size - 1)].reshape(groups.size, size - 1, ds.dim)
        coincide = (block == block[:, :1]).all(axis=(1, 2))
        # one vector step over all groups per k (cumsum along the middle axis
        # takes one inner-loop call per group and column)
        total = block[:, 0]  # x_0 + ... + x_{k-1}, summed in place
        for k in range(1, size):
            row = out[:, k - 1]
            np.multiply(block[:, k], -k, out=row)
            row += total
            row *= np.sqrt(group_weights[groups] / (k * (k + 1)))[:, None]
            total += block[:, k]
        out[coincide] = 0.0
        at += out.shape[0] * out.shape[1]
    return rows


def within_subclass_scatter(ds: LabeledDataset, part: SubclassPartition) -> ScatterMatrix:
    """Prior-weighted scatter of deviations from subclass means, from the
    within-subclass contrasts."""
    return _scatter(within_subclass_contrasts(ds, part))


def between_subclass_rows(
    subclass_means: np.ndarray, subclasses_per_class: np.ndarray, global_mean: np.ndarray
) -> np.ndarray:
    """The (s, dim) subclass means, class by class, about the global center,
    each weighted 1/(C * H_i) for H_i = subclasses_per_class[i]."""
    h = subclasses_per_class
    return _rows(subclass_means - global_mean, np.repeat(1.0 / (h.size * h), h))


def between_subclass_scatter(
    subclass_means: np.ndarray, subclasses_per_class: np.ndarray, global_mean: np.ndarray
) -> ScatterMatrix:
    """Scatter of subclass means about the global center."""
    return _scatter(between_subclass_rows(subclass_means, subclasses_per_class, global_mean))


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
    return _scatter(total_subclass_rows(samples, class_labels, global_mean))
