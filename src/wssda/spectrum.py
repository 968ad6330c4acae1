"""Eigenspectrum decomposition, pivot location, and hyperbolic tail modeling.

The within-subclass eigenspectrum is decomposed over the full basis (range
and null space).  Small eigenvalues are the most biased, so beyond a pivot
index m the measured values are replaced by a hyperbolic decay model
alpha / (k + beta) fitted through the first and the pivot eigenvalue; past
the rank r the model continues at the constant alpha / (r + 1 + beta).
Whitening weights are the inverse square roots of the modeled spectrum, so
null-space directions keep a finite, non-zero weight instead of being
truncated away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SpectrumError

RANK_RTOL = 1e-12
SYMMETRY_RTOL = 1e-10

REGULARIZED = "regularized"
TRUNCATED = "truncated"


@dataclass
class Eigenspectrum:
    """Full descending eigensystem of a symmetric PSD matrix.

    eigenvalues: (l,) descending, negatives clamped to zero.
    eigenvectors: (l, l) orthonormal columns, one per eigenvalue; in the
        dual regime of training (fewer samples than dimensions) only the
        (l, rank) range basis, since the null space needs no basis there.
    rank: number of eigenvalues above eigenvalues[0] * RANK_RTOL.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


class PivotResult(NamedTuple):
    m: int
    flat: bool


@dataclass
class SpectrumModel:
    """Modeled spectrum and the feature scaling weights derived from it.

    In regularized mode lambda_reg follows the measured values up to the
    pivot and the hyperbolic model beyond it; weights = 1/sqrt(lambda_reg).
    In truncated mode weights are 1/sqrt(lambda) on the range space and zero
    beyond the rank (lambda_reg then just echoes the measured values).
    """

    lambda_reg: np.ndarray
    weights: np.ndarray
    mode: str
    pivot: int | None = None
    alpha: float | None = None
    beta: float | None = None


def eig_symmetric_full(matrix: np.ndarray) -> Eigenspectrum:
    """Full descending eigendecomposition of a symmetric PSD matrix.

    Negative eigenvalues (numerical noise) are clamped to zero.  Eigenvector
    signs follow a fixed convention: the largest-magnitude component of each
    vector is positive, so repeated runs produce identical bases.
    """
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("input must be a square matrix")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix has non-finite entries")
    unit = matrix
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(matrix)
        if np.isinf(norm):  # squares of entries past the float64 range: scale them down
            unit = matrix / np.abs(matrix).max()
            norm = np.linalg.norm(unit)
        if np.linalg.norm(unit - unit.T) > SYMMETRY_RTOL * max(norm, 1e-300):
            raise ValueError("matrix is not symmetric within tolerance")

    values, vectors = np.linalg.eigh(matrix)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    np.clip(values, 0.0, None, out=values)

    orient_columns(vectors)

    rank = int(np.count_nonzero(values > values[0] * RANK_RTOL)) if values[0] > 0 else 0
    return Eigenspectrum(values, vectors, rank)


def orient_columns(vectors: np.ndarray) -> np.ndarray:
    """Flip columns in place so that each one's largest-magnitude entry is
    positive (the first such entry on ties); returns vectors."""
    top = vectors.max(axis=0)
    low = vectors.min(axis=0)
    flip = -low > top
    # a column whose largest and most negative entries tie in magnitude goes
    # by whichever of them comes first
    tied = np.flatnonzero(-low == top)
    if tied.size:
        columns = vectors[:, tied]
        flip[tied] = columns[np.argmax(np.abs(columns), axis=0), np.arange(tied.size)] < 0
    vectors *= np.where(flip, -1.0, 1.0)
    return vectors


def find_pivot(es: Eigenspectrum) -> PivotResult:
    """Locate the pivot index m (1-based) separating trusted from modeled eigenvalues.

    m is the smallest k with lambda_k below the median of the non-null
    eigenvalues, clamped into [2, r - 1].  A spectrum whose first and pivot
    eigenvalues coincide is reported as flat.
    """
    r = es.rank
    if r < 3:
        raise SpectrumError(f"spectrum rank {r} is too short to locate a pivot (need >= 3)")
    nonzero = es.eigenvalues[:r]
    below = np.flatnonzero(nonzero < np.median(nonzero))
    m = int(below[0]) + 1 if below.size else r - 1
    m = min(max(m, 2), r - 1)
    flat = es.eigenvalues[m - 1] >= es.eigenvalues[0] * (1.0 - RANK_RTOL)
    return PivotResult(m, flat)


def fit_model(es: Eigenspectrum, m: int) -> tuple[float, float]:
    """Closed-form constants of the hyperbolic decay through (1, lambda_1) and (m, lambda_m)."""
    r = es.rank
    if not 2 <= m <= r:
        raise ValueError(f"pivot m={m} outside [2, rank={r}]")
    lam1 = float(es.eigenvalues[0])
    lam_m = float(es.eigenvalues[m - 1])
    if lam_m <= 0:
        raise SpectrumError("pivot eigenvalue is zero: pivot sits in the null space")
    if lam1 <= lam_m:
        raise SpectrumError("flat spectrum: first and pivot eigenvalues coincide")
    alpha = lam1 * lam_m * (m - 1) / (lam1 - lam_m)
    beta = (m * lam_m - lam1) / (lam1 - lam_m)
    return alpha, beta


def regularize(es: Eigenspectrum, m: int, alpha: float, beta: float) -> SpectrumModel:
    """Regularized spectrum: measured below the pivot, hyperbolic tail beyond it.

    lambda_reg[k] = lambda_k              for k < m
                  = alpha / (k + beta)    for m <= k <= r
                  = alpha / (r + 1 + beta) for k > r      (1-based k)
    """
    r = es.rank
    k = np.arange(1, es.dim + 1, dtype=np.float64)
    lam = np.empty(es.dim)
    lam[: m - 1] = es.eigenvalues[: m - 1]
    mid = slice(m - 1, r)
    lam[mid] = alpha / (k[mid] + beta)
    lam[r:] = alpha / (r + 1 + beta)
    return SpectrumModel(
        lambda_reg=lam,
        weights=1.0 / np.sqrt(lam),
        mode=REGULARIZED,
        pivot=m,
        alpha=alpha,
        beta=beta,
    )


def flat_model(es: Eigenspectrum) -> SpectrumModel:
    """Flat spectrum model: lambda_1 everywhere, the hyperbola's limit as lambda_m -> lambda_1."""
    lam1 = float(es.eigenvalues[0])
    if lam1 <= 0:
        raise SpectrumError("cannot model an all-zero spectrum")
    lam = np.full(es.dim, lam1)
    return SpectrumModel(lambda_reg=lam, weights=1.0 / np.sqrt(lam), mode=REGULARIZED)


def short_tail_model(es: Eigenspectrum) -> SpectrumModel:
    """Fallback for spectra too short to fit the hyperbola (rank < 3).

    Keeps the measured eigenvalues on the range space and extends the last
    non-null eigenvalue into the null space, mirroring the constant
    continuation of the full model.
    """
    r = es.rank
    if r < 1:
        raise SpectrumError("cannot model an all-zero spectrum")
    lam = np.empty(es.dim)
    lam[:r] = es.eigenvalues[:r]
    lam[r:] = es.eigenvalues[r - 1]
    return SpectrumModel(lambda_reg=lam, weights=1.0 / np.sqrt(lam), mode=REGULARIZED)


def truncated_weights(es: Eigenspectrum) -> SpectrumModel:
    """Baseline scaling: inverse square roots on the range space, zero beyond
    the rank (all zero for a zero-rank spectrum, which training refuses first)."""
    r = es.rank
    weights = np.zeros(es.dim)
    weights[:r] = 1.0 / np.sqrt(es.eigenvalues[:r])
    return SpectrumModel(lambda_reg=es.eigenvalues.copy(), weights=weights, mode=TRUNCATED)
