"""Skipped correlation: Pearson on the points surviving projection-based
bivariate outlier removal.

Every observation serves as a direction anchor: all points are projected
onto the line through the coordinate-wise median center and that anchor,
and a point is flagged when its projection lies beyond
``median + cutoff * spread`` in any direction.  The spread is the
normal-consistent MAD, falling back to the normal-consistent IQR when the
MAD collapses to zero.

The projections are held one direction per row, so each direction's
values lie along the contiguous last axis; medians and MADs are read off
one ``np.sort`` of all rows (the midpoint of the two middle values for an
even count, which is ``np.median``'s arithmetic).  ``np.percentile`` runs
only for the rare directions whose MAD is zero.

:func:`skipped_rows` scores many pairs at once: the sweep runs pair by
pair (its work is one (n, n) projection matrix per pair), the retained
points of all pairs that keep the same number of points share one
correlation kernel call, and one t-tail call, with one df per pair, gives
every p.  :func:`skipped_correlation` is its one-pair call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DataPair, correlation_rows, pair_errors, range_error, t_pvalues
from .errors import DcalError, DegenerateGeometryError, InsufficientDataError

__all__ = [
    "SkippedResult",
    "SkippedBatch",
    "detect_bivariate_outliers",
    "skipped_correlation",
    "skipped_rows",
]

# sqrt of the 0.975 quantile of chi-square with 1 df: the classical
# MAD-median rejection constant for a univariate projection
DEFAULT_CUTOFF = 2.2414027276049473

_MAD_TO_SIGMA = 0.6744897501960817  # Phi^-1(0.75)
_IQR_TO_SIGMA = 1.3489795003921634  # 2 * Phi^-1(0.75)

_MIN_SAMPLES = 10


@dataclass(frozen=True)
class SkippedResult:
    """Robust correlation on the retained points plus the removal bookkeeping."""

    r: float
    p: float
    n_used: int
    outlier_indices: tuple[int, ...]


class SkippedBatch(NamedTuple):
    """Per-pair results of :func:`skipped_rows`, one entry per row.

    ``outliers`` is (m, n) with the flagged points of each pair.  A pair
    that could not be scored has NaN r and p and its exception in
    ``errors``; the other entries of ``errors`` are None.
    """

    r: np.ndarray
    p: np.ndarray
    n_used: np.ndarray
    outliers: np.ndarray
    errors: tuple


def _sorted_median(values: np.ndarray) -> np.ndarray:
    """Medians of values sorted along the last axis."""
    half, odd = divmod(values.shape[-1], 2)
    if odd:
        return values[..., half]
    return (values[..., half - 1] + values[..., half]) / 2.0


def _outlier_mask(x: np.ndarray, y: np.ndarray, cutoff: float) -> np.ndarray:
    """The flags of the projection sweep over the points (x, y)."""
    n = x.shape[0]
    if n < _MIN_SAMPLES:
        raise InsufficientDataError(
            f"projection outlier detection needs >= {_MIN_SAMPLES} points, got {n}"
        )
    points = np.column_stack([x, y])
    centered = points - _sorted_median(np.sort(points.T))

    norms = np.hypot(centered[:, 0], centered[:, 1])
    anchors = norms > 0.0  # a point sitting on the center spans no direction
    if not np.any(anchors):
        raise DegenerateGeometryError("all points coincide with the median center")
    directions = centered[anchors] / norms[anchors, None]

    projections = directions @ centered.T  # (n_directions, n)
    medians = _sorted_median(np.sort(projections))
    spread = np.abs(projections - medians[:, None])
    spread.sort()
    scales = _sorted_median(spread) / _MAD_TO_SIGMA
    flat = scales == 0.0
    if np.any(flat):
        q75, q25 = np.percentile(projections[flat], [75, 25], axis=1)
        scales[flat] = (q75 - q25) / _IQR_TO_SIGMA
        if np.any(scales == 0.0):
            raise DegenerateGeometryError(
                "a projection direction has zero MAD and zero interquartile spread"
            )
    return np.any(projections > (medians + cutoff * scales)[:, None], axis=0)


def detect_bivariate_outliers(pair: DataPair, cutoff: float = DEFAULT_CUTOFF) -> np.ndarray:
    """Indices of bivariate outliers found by the projection sweep.

    Needs at least 10 points; with fewer, median/MAD estimates of the
    projections are too unstable to trust.
    """
    return np.flatnonzero(_outlier_mask(pair.x, pair.y, cutoff))


def skipped_rows(X, Y, cutoff: float = DEFAULT_CUTOFF) -> SkippedBatch:
    """Skipped correlation of every pair of rows ``(X[i], Y[i])``, both (m, n).

    Row i gets exactly the result of ``skipped_correlation(DataPair(X[i],
    Y[i]), cutoff)``; where that raises a :class:`~dcal.errors.DcalError`,
    the row carries the error instead.  The pairs must be valid
    :class:`~dcal.core.DataPair` samples; they are not checked again.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    m, n = X.shape
    outliers = np.zeros((m, n), dtype=bool)
    errors: list = [None] * m
    for i in range(m):
        try:
            outliers[i] = _outlier_mask(X[i], Y[i], cutoff)
        except DcalError as exc:
            errors[i] = exc
    n_used = n - outliers.sum(axis=1)
    for i in np.flatnonzero(n_used < 4).tolist():
        if errors[i] is None:
            errors[i] = InsufficientDataError(
                f"only {n_used[i]} points remain after outlier removal; need >= 4"
            )
    r = np.full(m, np.nan)
    one_minus_r2 = np.full(m, np.nan)
    scored = np.array([error is None for error in errors], dtype=bool)
    # Pearson r on the retained points, one kernel call per retained count
    for count in np.unique(n_used[scored]).tolist():
        rows = np.flatnonzero(scored & (n_used == count))
        keep = ~outliers[rows]
        Xk = X[rows][keep].reshape(rows.size, count)
        Yk = Y[rows][keep].reshape(rows.size, count)
        r[rows], one_minus_r2[rows] = correlation_rows(Xk, Yk)
        for i, error in zip(rows.tolist(), pair_errors(Xk, Yk)):
            if error is None and np.isnan(r[i]):
                error = range_error()
            errors[i] = error
    failed = np.array([error is not None for error in errors], dtype=bool)
    r[failed] = one_minus_r2[failed] = np.nan
    # and one t tail for all pairs, each at its own n_used - 2 df
    p = t_pvalues(r, one_minus_r2, n_used - 2)
    return SkippedBatch(r, p, n_used, outliers, tuple(errors))


def skipped_correlation(pair: DataPair, cutoff: float = DEFAULT_CUTOFF) -> SkippedResult:
    """Pearson r and exact t p-value on the points that survive outlier removal.

    With no flagged points this reproduces the classical result exactly.  The
    p-value is the plain t-test at n_used - 2 degrees of freedom; it does not
    re-adjust critical values for the data-dependent removal.  This is
    :func:`skipped_rows` on one pair.
    """
    batch = skipped_rows(pair.x[None, :], pair.y[None, :], cutoff)
    if batch.errors[0] is not None:
        raise batch.errors[0]
    return SkippedResult(
        r=float(batch.r[0]),
        p=float(batch.p[0]),
        n_used=int(batch.n_used[0]),
        outlier_indices=tuple(np.flatnonzero(batch.outliers[0]).tolist()),
    )
