"""Per-class subclass partitioning with spatial partition trees.

Each class is split into h subclasses by one of four strategies: kd-style
recursive median splits on the axis of maximum spread, random-projection
median splits, principal-axis median splits, or a flat Lloyd k-means
clustering.  Binary trees are cut at depth log2(h) so every class ends up
with exactly h subclasses (the balanced rule); median splits keep sibling
leaf sizes within one of each other and never produce an empty leaf.

Classes with fewer samples than h fall back to one singleton subclass per
sample and are reported as deficient rather than rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledDataset, check_count, integer_labels
from .errors import PartitionError
from .spectrum import orient_columns

STRATEGIES = ("kd", "rp", "pca", "kmeans", "provided")
TREE_STRATEGIES = ("kd", "rp", "pca")
RANDOM_STRATEGIES = ("rp", "kmeans")  # the strategies that draw from a generator

KMEANS_MAX_ITER = 100
# tree strategies split to depth log2(h), so this caps h at 2**MAX_TREE_DEPTH
MAX_TREE_DEPTH = 8


@dataclass(frozen=True)
class TreeParams:
    """Partitioning knobs: target subclass count, RNG seed."""

    h: int
    seed: int = 0

    def validate(self, strategy: str) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        check_count("h", self.h)
        check_count("seed", self.seed, 0)
        if strategy in TREE_STRATEGIES:
            if self.h & (self.h - 1):
                raise ValueError(f"h={self.h} must be a power of two for binary-split trees")
            if self.h > 2**MAX_TREE_DEPTH:
                raise ValueError(
                    f"h={self.h} needs depth {int(self.h).bit_length() - 1}, "
                    f"exceeding the tree depth cap {MAX_TREE_DEPTH}"
                )


@dataclass
class SubclassPartition:
    """Per-sample (class, subclass) assignment with per-group counts.

    Groups are numbered densely class by class: group_ids[r] is the number of
    subclasses in the classes before row r's class plus its subclass label.
    subclasses_per_class holds H_i for every class.
    """

    class_labels: np.ndarray
    subclass_labels: np.ndarray
    strategy: str
    deficient_classes: tuple[int, ...] = ()
    subclasses_per_class: np.ndarray = field(init=False)
    subclass_counts: list[np.ndarray] = field(init=False)
    group_ids: np.ndarray = field(init=False)

    def __post_init__(self):
        self.class_labels = integer_labels(self.class_labels, "class", PartitionError)
        self.subclass_labels = integer_labels(self.subclass_labels, "subclass", PartitionError)
        if self.class_labels.shape != self.subclass_labels.shape:
            raise PartitionError("class and subclass label arrays must have equal length")
        if self.class_labels.min() < 0 or self.subclass_labels.min() < 0:
            raise PartitionError("class and subclass labels must be non-negative")
        h = np.zeros(int(self.class_labels.max()) + 1, dtype=np.int64)
        np.maximum.at(h, self.class_labels, self.subclass_labels + 1)
        if (h == 0).any():
            raise PartitionError(f"class {int(np.argmin(h))} has no samples")
        ends = np.cumsum(h)
        self.group_ids = (ends - h)[self.class_labels] + self.subclass_labels
        sizes = np.bincount(self.group_ids, minlength=int(ends[-1]))
        if (sizes == 0).any():
            empty = int(np.searchsorted(ends, np.argmin(sizes), side="right"))
            raise PartitionError(f"class {empty} has an empty subclass")
        self.subclasses_per_class = h
        self.subclass_counts = np.split(sizes, ends[:-1])

    @property
    def class_count(self) -> int:
        return len(self.subclass_counts)


def _median_split(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split local indices into lower and upper halves of the projection values.

    Stable argsort breaks ties by original index, which keeps both sides
    non-empty and makes identical points split into index halves.
    """
    order = np.argsort(values, kind="stable")
    n_left = (len(values) + 1) // 2
    return np.sort(order[:n_left]), np.sort(order[n_left:])


def split_kd(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Median split on the coordinate axis of maximum spread (max - min)."""
    if len(points) < 2:
        raise ValueError("need at least two points to split")
    spread = points.max(axis=0) - points.min(axis=0)
    axis = int(np.argmax(spread))
    return _median_split(points[:, axis])


def split_rp(points: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Median split along a uniformly random unit direction."""
    if len(points) < 2:
        raise ValueError("need at least two points to split")
    direction = rng.normal(size=points.shape[1])
    norm = np.linalg.norm(direction)
    if norm > 0:
        direction /= norm
    return _median_split(points @ direction)


def split_pca(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Median split along the principal axis of the node's sample covariance."""
    if len(points) < 2:
        raise ValueError("need at least two points to split")
    centered = points - points.mean(axis=0)
    # Top right-singular vector of the centered matrix = top covariance eigenvector.
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return _median_split(points @ orient_columns(vt[:1].T)[:, 0])


def cluster_kmeans(points: np.ndarray, h: int, seed: int = 0) -> list[np.ndarray]:
    """Lloyd k-means with farthest-point initialization; returns h index sets.

    The first centroid is a seeded random point; each further centroid is the
    point farthest from its nearest chosen centroid.  Iterates to an
    assignment fixpoint (at most KMEANS_MAX_ITER rounds); an empty cluster is
    repaired by stealing the point farthest from its current centroid.
    """
    m = len(points)
    if m < h:
        raise ValueError(f"cannot form {h} clusters from {m} points")
    # squared distances leave float64 past about 2^+-511: a power of two takes
    # the largest magnitude into [0.5, 1), scaling each distance exactly
    points = np.ldexp(points, -int(np.frexp(np.abs(points).max())[1]))
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(m))]
    dist = np.linalg.norm(points - points[chosen[0]], axis=1)
    for _ in range(1, h):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    centroids = points[chosen].astype(np.float64)

    assign = np.full(m, -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        sizes = np.bincount(new_assign, minlength=h)
        for empty in np.flatnonzero(sizes == 0):
            movable = np.flatnonzero(sizes[new_assign] >= 2)
            steal = movable[np.argmax(d2[movable, new_assign[movable]])]
            sizes[new_assign[steal]] -= 1
            new_assign[steal] = empty
            sizes[empty] += 1
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(h):
            centroids[j] = points[assign == j].mean(axis=0)
    return [np.flatnonzero(assign == j) for j in range(h)]


def partition_class(
    points: np.ndarray,
    params: TreeParams,
    strategy: str,
    rng: np.random.Generator | None = None,
) -> tuple[list[np.ndarray], bool]:
    """Partition one class's points into h disjoint, covering index sets.

    Returns (index sets, deficient flag).  With fewer points than h the class
    is deficient: every point becomes its own singleton subclass.
    """
    params.validate(strategy)
    if strategy == "provided":
        raise ValueError("'provided' partitions come from dataset subclass labels")
    m = len(points)
    if m < 1:
        raise ValueError("class must contain at least one sample")
    if m < params.h:
        return [np.asarray([i], dtype=np.int64) for i in range(m)], True
    if params.h == 1:
        return [np.arange(m, dtype=np.int64)], False

    if strategy == "kmeans":
        seed = int(rng.integers(2**32)) if rng is not None else params.seed
        return cluster_kmeans(points, params.h, seed), False

    if rng is None and strategy == "rp":
        rng = np.random.default_rng(params.seed)
    depth = int(params.h).bit_length() - 1  # a NumPy integer has no bit_length
    leaves: list[np.ndarray] = []

    def recurse(local: np.ndarray, levels: int) -> None:
        if levels == 0:
            leaves.append(local)
            return
        node = points[local]
        if strategy == "kd":
            left, right = split_kd(node)
        elif strategy == "rp":
            left, right = split_rp(node, rng)
        else:
            left, right = split_pca(node)
        recurse(local[left], levels - 1)
        recurse(local[right], levels - 1)

    recurse(np.arange(m, dtype=np.int64), depth)
    return leaves, False


def partition_dataset(
    ds: LabeledDataset, params: TreeParams, strategy: str
) -> SubclassPartition:
    """Partition every class of a dataset; per-class RNG streams derive from
    (seed, class), built only for the strategies that draw from them."""
    params.validate(strategy)
    if strategy == "provided":
        if ds.subclass_labels is None:
            raise PartitionError("dataset carries no subclass labels for the 'provided' strategy")
        return SubclassPartition(
            ds.class_labels.copy(), ds.subclass_labels.copy(), strategy="provided"
        )
    subclass = np.empty(ds.n, dtype=np.int64)
    deficient: list[int] = []
    order = np.argsort(ds.class_labels, kind="stable")
    for i, idx in enumerate(np.split(order, np.cumsum(ds.class_sizes())[:-1])):
        rng = None
        if strategy in RANDOM_STRATEGIES:
            rng = np.random.default_rng(np.random.SeedSequence([params.seed, i]))
        groups, is_deficient = partition_class(ds.samples[idx], params, strategy, rng=rng)
        if is_deficient:
            deficient.append(i)
        for j, group in enumerate(groups):
            subclass[idx[group]] = j
    return SubclassPartition(
        ds.class_labels.copy(), subclass, strategy=strategy, deficient_classes=tuple(deficient)
    )
