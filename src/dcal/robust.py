"""Skipped correlation: Pearson on the points surviving projection-based
bivariate outlier removal.

Every observation serves as a direction anchor: all points are projected
onto the line through the coordinate-wise median center and that anchor,
and a point is flagged when its projection lies beyond
``median + cutoff * spread`` in any direction.  The spread is the
normal-consistent MAD, falling back to the normal-consistent IQR when the
MAD collapses to zero.

The projections are held one direction per row, so each direction's
values lie along the contiguous last axis; the medians are read off one
``np.sort`` of all rows (the midpoint of the two middle values for an even
count, which is ``np.median``'s arithmetic), and so are the MADs: the
smallest deviations from a median lie in one window of its sorted row,
which a bisection over all rows at once finds (:func:`_sorted_mad`), so
the deviations are never formed or sorted.  ``np.percentile`` runs only
for the rare directions whose MAD is zero.

:func:`skipped_rows` scores many pairs at once: the sweep runs over blocks
of as many pairs as fit the work-space budget ``core.CHUNK_BYTES``, one
(pairs, n, n) projection product per block, so its work space stays flat
in the number of pairs; the retained points of all pairs that keep the
same number of points share one correlation kernel call, and one t-tail
call, with one df per pair, gives every p.  :func:`skipped_correlation`
is its one-pair call; :func:`detect_bivariate_outliers` runs the sweep on
one pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DataPair, correlation_rows, pair_errors, range_error, t_pvalues, units_per_block
from .errors import DegenerateGeometryError, InsufficientDataError, raise_first

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

# bytes charged per value of a block's (pairs, n, n) projection array, 6
# pairs at n = 100 and 72 at n = 30: a warm ``_sweep`` call's traced peak
# was 18.9 and 20.7 bytes per value there.  On a 2-core Xeon (4 MB L2 per
# core), best of 15 runs at n = 100: the pair loop took 94 us per pair,
# blocks of 3, 6 and 12 pairs 57, 47 and 47 us, and one block of 120 pairs
# 71 us, its arrays being 9.6 MB each; at n = 30 the loop took 55 us and
# blocks of 72 pairs 6.
_PROJECTION_BYTES = 20


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


def _sorted_mad(values: np.ndarray, medians: np.ndarray) -> np.ndarray:
    """Median absolute deviations of values sorted along the last axis
    from their ``medians``: bit for bit the :func:`_sorted_median` of the
    sorted ``|values - medians|``, without forming or sorting them.

    Along a sorted row s with median m the deviations fall and then rise,
    so the ``h + 1`` smallest (``h = n // 2``) fill one window
    ``s[i : i + h + 1]``.  Its start i is the number of starts j that the
    window leaves behind, those with ``m - s[j] > s[j + h + 1] - m``; that
    test holds on a prefix of the starts, so one bisection over every row
    at once finds i.  Its first probe is placed so that every later one
    stays in the row.  The window's larger end deviation is the
    (h + 1)-th smallest, the MAD of an odd count; for an even count the
    h-th smallest is the window's second largest, the larger of its
    smaller end and its two inner values, and the MAD is their midpoint.

    Each deviation is the float the sort form takes (``fl(m - s) =
    -fl(s - m)``).  A NaN, which both sorts put last, fails the test and so
    counts as the farthest value; a finite median leaves at least h + 1
    values that are not NaN, so no window holds one.  A row whose median
    is not finite, whose deviations need not fall and rise (a median that
    overflows to -inf makes those of its -inf values NaN), goes through the
    deviation sort instead.
    """
    n = values.shape[-1]
    half, odd = divmod(n, 2)
    span = half + 1
    flat = values.reshape(-1)
    centre = medians.reshape(-1)
    start = np.arange(0, flat.size, n)  # each row's window start, as a flat index
    behind = n - span  # the starts j a window can leave behind: 0 <= j < behind
    step = 1 << (behind.bit_length() - 1)
    probe, shift = behind - step, behind - step + 1
    while shift:
        ahead = centre - flat[probe:][start] > flat[probe + span :][start] - centre
        start += ahead * shift
        step //= 2
        probe, shift = step - 1, step

    def deviation(offset):  # of each row's window value at this offset
        picked = flat[offset:][start]
        picked -= centre
        return np.abs(picked, out=picked)

    low, high = deviation(0), deviation(half)
    mads = np.maximum(low, high)
    if not odd:  # the second largest, in low, and the midpoint
        np.minimum(low, high, out=low)
        np.maximum(low, deviation(1), out=low)
        np.maximum(low, deviation(half - 1), out=low)
        mads += low
        mads /= 2.0
    wild = ~np.isfinite(centre)
    if wild.any():
        rows = values.reshape(-1, n)[wild]
        mads[wild] = _sorted_median(np.sort(np.abs(rows - centre[wild, None])))
    return mads.reshape(medians.shape)


def _sweep(X: np.ndarray, Y: np.ndarray, cutoff: float) -> tuple[np.ndarray, list]:
    """The flags of the projection sweep over each pair of rows
    ``(X[i], Y[i])``, (k, n), and each pair's error (None where it ran).

    The block is one (k, n, n) projection product: row ``(i, a)`` holds
    every point of pair i projected onto its anchor a.  A point sitting on
    its pair's median centre spans no direction; its row is NaN, which has
    NaN medians and scales and so flags nothing.
    """
    k, n = X.shape
    if n < _MIN_SAMPLES:
        message = f"projection outlier detection needs >= {_MIN_SAMPLES} points, got {n}"
        return np.zeros((k, n), dtype=bool), [InsufficientDataError(message) for _ in range(k)]
    points = np.stack([X, Y], axis=1)  # (k, 2, n)
    centered = points - _sorted_median(np.sort(points))[..., None]
    norms = np.hypot(centered[:, 0], centered[:, 1])
    with np.errstate(invalid="ignore"):
        directions = np.ascontiguousarray((centered / norms[:, None]).transpose(0, 2, 1))

    projections = directions @ centered  # (k, n anchors, n points)
    work = np.sort(projections)
    medians = _sorted_median(work)
    scales = _sorted_mad(work, medians) / _MAD_TO_SIGMA
    flat = scales == 0.0
    any_flat = flat.any()
    if any_flat:
        q75, q25 = np.percentile(projections[flat], [75, 25], axis=1)
        scales[flat] = (q75 - q25) / _IQR_TO_SIGMA
    flags = (projections > (medians + cutoff * scales)[..., None]).any(axis=1)

    errors: list = [None] * k
    spanned = (norms > 0.0).any(axis=1)
    if not spanned.all():
        for i in np.flatnonzero(~spanned).tolist():
            errors[i] = DegenerateGeometryError("all points coincide with the median center")
    if any_flat:  # a pair whose points all coincide has only NaN scales
        for i in np.flatnonzero((scales == 0.0).any(axis=1)).tolist():
            errors[i] = DegenerateGeometryError(
                "a projection direction has zero MAD and zero interquartile spread"
            )
            flags[i] = False
    return flags, errors


def detect_bivariate_outliers(pair: DataPair, cutoff: float = DEFAULT_CUTOFF) -> np.ndarray:
    """Indices of bivariate outliers found by the projection sweep.

    Needs at least 10 points; with fewer, median/MAD estimates of the
    projections are too unstable to trust.
    """
    flags, errors = _sweep(pair.x[None, :], pair.y[None, :], cutoff)
    raise_first(errors)
    return np.flatnonzero(flags[0])


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
    errors: list = []
    step = units_per_block(_PROJECTION_BYTES * n * n)
    for start in range(0, m, step):
        flags, block_errors = _sweep(X[start : start + step], Y[start : start + step], cutoff)
        outliers[start : start + step] = flags
        errors += block_errors
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
    # (from a set: numpy's first np.unique imports numpy.ma)
    for count in sorted(set(n_used[scored].tolist())):
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
    raise_first(batch.errors)
    return SkippedResult(
        r=float(batch.r[0]),
        p=float(batch.p[0]),
        n_used=int(batch.n_used[0]),
        outlier_indices=tuple(np.flatnonzero(batch.outliers[0]).tolist()),
    )
