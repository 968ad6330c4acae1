"""Correctness checks on the program's outputs, written with numpy alone.

Each check returns a list of problems; an empty list means the output passed.  The
scatter matrices are rebuilt here from their definitions (equal class priors 1/C and
subclass priors 1/H_i) instead of calling the library, so a defect in the library's
own scatter code cannot hide itself.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

RTOL = 1e-8

# WSSDA1 model file header: magic, version, dim, d, mode, strategy, h
_MODEL_HEADER = struct.Struct("<6sIIIBBI")


def _mean_of_class_means(features: np.ndarray, classes: np.ndarray) -> np.ndarray:
    return np.stack([features[classes == c].mean(axis=0) for c in np.unique(classes)]).mean(axis=0)


def total_subclass_scatter(features: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Scatter of all rows about the mean of class means, each class weighted 1/(C n_i)."""
    center = _mean_of_class_means(features, classes)
    labels = np.unique(classes)
    out = np.zeros((features.shape[1], features.shape[1]))
    for c in labels:
        dev = features[classes == c] - center
        out += dev.T @ dev / (len(labels) * dev.shape[0])
    return out


def within_subclass_scatter(
    features: np.ndarray, classes: np.ndarray, subclasses: np.ndarray
) -> np.ndarray:
    """Scatter about subclass means, each subclass weighted 1/(C H_i G_ij)."""
    labels = np.unique(classes)
    out = np.zeros((features.shape[1], features.shape[1]))
    for c in labels:
        in_class = classes == c
        subs = np.unique(subclasses[in_class])
        for s in subs:
            block = features[in_class & (subclasses == s)]
            dev = block - block.mean(axis=0)
            out += dev.T @ dev / (len(labels) * len(subs) * block.shape[0])
    return out


def check_discriminant_diagonal(features: np.ndarray, classes: np.ndarray) -> list[str]:
    """Features F = X P of the training rows: their total-subclass scatter is diagonal,
    with a non-increasing diagonal (the second-stage eigenvalues in order)."""
    s = total_subclass_scatter(features, classes)
    diag = np.diag(s)
    scale = max(float(diag.max()), 1e-300)
    problems = []
    off = np.abs(s - np.diag(diag)).max()
    if off > RTOL * scale:
        problems.append(f"total-subclass scatter of the features is not diagonal: {off:.3g}")
    rise = np.diff(diag).max(initial=0.0)
    if rise > RTOL * scale:
        problems.append(f"total-subclass scatter diagonal increases by {rise:.3g}")
    return problems


def check_whitened(
    features: np.ndarray,
    classes: np.ndarray,
    subclasses: np.ndarray,
    eigenvalues: np.ndarray,
    weights: np.ndarray,
) -> list[str]:
    """The whitening identity seen from outside, for features F = X E W E2.

    E holds the eigenvectors of the within-subclass scatter with eigenvalues lambda_k,
    W = diag(weights) and E2 has orthonormal columns, so F's within-subclass scatter is
    E2^T diag(lambda_k w_k^2) E2 and its eigenvalues lie in [0, max_k lambda_k w_k^2].
    That bound is 1 where the model keeps the measured eigenvalue, but beyond the
    pivot it is lambda_k / lambda_reg_k, which the data can put above 1.
    """
    bound = float((np.clip(eigenvalues, 0.0, None) * np.square(weights)).max())
    values = np.linalg.eigvalsh(within_subclass_scatter(features, classes, subclasses))
    tol = RTOL * max(bound, 1.0)
    if values.min() < -tol or values.max() > bound + tol:
        return [
            f"within-subclass eigenvalues of the features span "
            f"[{values.min():.6g}, {values.max():.6g}], outside [0, {bound:.6g}]"
        ]
    return []


def check_roc(points) -> list[str]:
    """An ROC runs from (0, 0) to (1, 1) with non-decreasing FAR and TAR."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
        return ["ROC has fewer than two points"]
    problems = []
    if tuple(pts[0]) != (0.0, 0.0):
        problems.append(f"ROC starts at {tuple(pts[0])}, not (0, 0)")
    if tuple(pts[-1]) != (1.0, 1.0):
        problems.append(f"ROC ends at {tuple(pts[-1])}, not (1, 1)")
    if (np.diff(pts[:, 0]) < 0).any():
        problems.append("ROC FAR decreases")
    if (np.diff(pts[:, 1]) < 0).any():
        problems.append("ROC TAR decreases")
    return problems


def eer_from_roc(points) -> float:
    """Equal error rate by linear interpolation where FAR crosses FRR = 1 - TAR."""
    pts = np.asarray(points, dtype=np.float64)
    fars, frrs = pts[:, 0], 1.0 - pts[:, 1]
    gaps = fars - frrs
    j = int(np.argmax(gaps >= 0.0))
    if gaps[j] == 0.0 or j == 0:
        return float(fars[j])
    s = -gaps[j - 1] / (gaps[j] - gaps[j - 1])
    return float(fars[j - 1] + s * (fars[j] - fars[j - 1]))


class Identical:
    """Remembers the digest of each named output and reports any later change."""

    def __init__(self):
        self.digests: dict[str, str] = {}

    def check(self, name: str, data: bytes) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(name, digest)
        return [] if first == digest else [f"{name} differs from its first write"]


def read_projection(data: bytes) -> np.ndarray:
    """The (dim, d) projection matrix stored in a WSSDA1 model file."""
    magic, _, dim, d, _, _, _ = _MODEL_HEADER.unpack_from(data)
    if magic != b"WSSDA1":
        raise ValueError("not a WSSDA1 model file")
    raw = data[_MODEL_HEADER.size : _MODEL_HEADER.size + 8 * dim * d]
    return np.frombuffer(raw, dtype="<f8").reshape(dim, d)


def read_csv_rows(text: str) -> list[list[str]]:
    """Rows of a CSV written by the CLI, header dropped."""
    return [line.split(",") for line in text.splitlines()[1:] if line]
