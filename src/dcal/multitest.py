"""Multiple-testing corrections: Holm, Benjamini-Hochberg, and permutation tests.

The permutation test shuffles the shared target once per permutation and
recomputes |r| for every column, so the per-test and max-statistic p-values
of one plan come from the same shuffles; that makes the max-statistic
p-values dominate the per-test ones exactly, not just in expectation.
The B shuffled targets are drawn once, as one (B, n) array.  The columns
are then standardized and scored in blocks, as many columns as fit the
work-space budget ``core.CHUNK_BYTES`` at :func:`_column_bytes` each, so
no copy of the whole battery is made: one matrix product scores every
shuffle against a block into a (columns, B) array, and the statistics and a
mask of their compares with the observed ones are written into two buffers
allocated once per call.  Each shuffle's peak over the columns is kept as a
running maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import units_per_block
from .errors import DegenerateVarianceError
from .rng import derive_array, permutation_of, raw_block

__all__ = [
    "PermutationPlan",
    "holm_adjust",
    "bh_adjust",
    "permutation_pvalues",
]


def _column_bytes(n: int, shuffles: int) -> int:
    """Work space of one column in a block: its column of the statistics
    (float64) and of the mask (bool), and its standardized samples and
    their squares."""
    return 9 * shuffles + 16 * n


def _column_edges(m: int, n: int, shuffles: int) -> list[int]:
    """The first column of each block of a battery of m columns, then m.
    A block holds as many columns as fit the work-space budget, rounded
    down to a multiple of four (at least four), and a lone last column
    joins the block before it (see :func:`permutation_pvalues`)."""
    edges = list(range(0, m, max(4, units_per_block(_column_bytes(n, shuffles)) // 4 * 4))) + [m]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return edges


def _shuffled(ys: np.ndarray, plan: "PermutationPlan") -> np.ndarray:
    """(B, n): row b is ``ys`` under shuffle b, drawn in blocks of the
    work-space budget at 24 bytes per sample (the raw words, the mixing
    temporary and the permutation)."""
    B, n = plan.n_permutations, ys.shape[0]
    targets = np.empty((B, n))
    step = units_per_block(24 * n)
    for start in range(0, B, step):
        keys = np.arange(start, min(start + step, B), dtype=np.uint64)
        np.take(ys, permutation_of(raw_block(derive_array(plan.seed, keys), n)),
                out=targets[start : start + keys.size], mode="clip")
    return targets


@dataclass(frozen=True)
class PermutationPlan:
    """Number of label shuffles and the seed their streams derive from."""

    n_permutations: int = 999
    seed: int = 0

    def __post_init__(self):
        if self.n_permutations < 100:
            raise ValueError(
                f"need at least 100 permutations, got {self.n_permutations}"
            )


def _in_original_order(raw, adjust) -> np.ndarray:
    """``adjust(ascending p, m)``, capped at 1, in the original order of ``raw``."""
    p = np.asarray(raw, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("need a nonempty 1-d vector of p-values")
    if np.any(np.isnan(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    # ties broken by original index so adjusted vectors are platform-stable
    order = np.lexsort((np.arange(p.size), p))
    out = np.empty(p.size)
    out[order] = np.minimum(1.0, adjust(p[order], p.size))
    return out


def holm_adjust(raw: Sequence[float]) -> np.ndarray:
    """Step-down Holm adjustment, returned in the original order."""
    return _in_original_order(raw, lambda p, m: np.maximum.accumulate(p * (m - np.arange(m))))


def bh_adjust(raw: Sequence[float]) -> np.ndarray:
    """Step-up Benjamini-Hochberg adjustment, returned in the original order."""
    return _in_original_order(
        raw, lambda p, m: np.minimum.accumulate((p * m / (np.arange(m) + 1.0))[::-1])[::-1]
    )


def permutation_pvalues(
    columns: np.ndarray, target: np.ndarray, plan: PermutationPlan, rows=None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-test and max-statistic permutation p-values for a battery.

    ``columns`` is (m, n); every row is tested against the shared ``target``.
    ``rows``, a boolean mask over the rows of ``columns``, picks the battery
    (default: every row), and the p-values come one per picked row: the
    screen passes its loaded matrix with the target and the rows that could
    not be tested masked out, so the tested rows are not copied.
    Permutation b shuffles the target with the stream derived from
    ``(plan.seed, b)``, so results do not depend on evaluation order.
    P-values use the add-one convention (1 + #{more extreme}) / (B + 1).

    A block's statistics stay in the product domain, |x . y| for
    standardized rows, where |x . y| <= n.  Four passes follow the product:
    the absolute values, each shuffle's maximum, and two compares with the
    per-column bounds ``n*observed -/+ n*tol``, each counted per column
    through a one-byte view of the mask.  A statistic above the upper bound
    counts; one below the lower bound does not; a shuffle with a statistic
    in between is rescored against the block with the matrix-vector product
    the observed statistics came from.  After the last block, a shuffle
    whose peak lies within ``tol`` of an observed statistic is rescored
    the same way over every block.  This is exact: the block product and
    that product differ by at most about 2 n**2 u (u the unit roundoff, n
    terms each of size up to 1), dividing by n and rounding the bounds add
    about 2 n u, and the band's half-width ``n*tol`` is 16 n**2 u, larger
    than both.  So a statistic outside the band lies on the same side of
    ``n*observed`` as the rescored one.  Division by n is monotone, so a
    maximum divided by n, ``fl(max |s| / n)``, is ``max fl(|s| / n)``: a
    peak that is not rescored keeps the bits of the one-at-a-time score.
    Every block but the last holds a multiple of four columns, and the last
    is never a lone column of a wider battery: OpenBLAS rounds a column's
    matrix-vector product by its place in a group of four, and numpy scores
    one row with a dot product instead.  So an unthreaded product over a
    block gives every column the bits of one product over the battery.
    """
    X = np.asarray(columns, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if X.ndim == 2 and rows is not None and np.shape(rows) != X.shape[:1]:
        raise ValueError("rows must hold one flag per row of columns")
    tested = np.flatnonzero(np.ones(X.shape[:1], dtype=bool) if rows is None else rows)
    if X.ndim != 2 or tested.size == 0 or X.shape[1] != y.shape[0]:
        raise ValueError("columns must be (m, n), m >= 1, with n matching the target length")
    m, n = tested.size, X.shape[1]
    B = plan.n_permutations
    edges = _column_edges(m, n, B)
    width = max(np.diff(edges))
    xs_buf = np.empty((width, n))

    def blocks():
        """Each block's slice of the battery and its standardized columns."""
        for start, stop in zip(edges, edges[1:]):
            at = slice(start, stop)
            Xs = np.take(X, tested[at], axis=0, out=xs_buf[: stop - start], mode="clip")
            Xs -= Xs.mean(axis=1, keepdims=True)
            # numpy's own std arithmetic on the centred rows, X.std(axis=1)'s bits
            sd_x = np.add.reduce(Xs * Xs, axis=1)
            sd_x /= n
            np.sqrt(sd_x, out=sd_x)
            for j in np.flatnonzero(sd_x == 0.0):
                raise DegenerateVarianceError(f"column {int(tested[start + j])} has zero variance")
            Xs /= sd_x[:, None]
            yield at, Xs

    if y.std() == 0.0:
        for _ in blocks():  # a column's error comes first
            pass
        raise DegenerateVarianceError("target has zero variance")
    ys = (y - y.mean()) / y.std()
    targets = _shuffled(ys, plan)

    # Two summation orders of one statistic differ by less than ``tol``.
    tol = 8.0 * n * np.finfo(np.float64).eps
    stats_buf, mask_buf = np.empty(B * width), np.empty(B * width, dtype=bool)
    count = np.min_scalar_type(B)  # holds one column's count over the shuffles
    observed = np.empty(m)
    count_per = np.zeros(m, dtype=np.int64)
    peaks = np.zeros(B)
    for at, Xs in blocks():
        obs, counts = observed[at], count_per[at]
        np.divide(np.abs(Xs @ ys), n, out=obs)
        hi = obs[:, None] * n
        lo = hi - n * tol
        hi += n * tol
        stats = np.matmul(Xs, targets.T, out=stats_buf[: obs.size * B].reshape(-1, B))
        np.abs(stats, out=stats)  # (columns, shuffles)
        peak = stats.max(axis=0)
        peak /= n
        np.maximum(peaks, peak, out=peaks)
        mask = mask_buf[: stats.size].reshape(stats.shape)
        above = np.add.reduce(np.greater(stats, hi, out=mask).view(np.uint8), axis=1, dtype=count)
        reach = np.add.reduce(np.greater_equal(stats, lo, out=mask).view(np.uint8), axis=1,
                              dtype=count)
        counts += above
        cols = np.flatnonzero(reach != above)  # columns with a statistic in the band
        band = stats[cols]
        for j in np.flatnonzero(((band >= lo[cols]) & (band <= hi[cols])).any(axis=0)):
            counts += np.abs(Xs @ targets[j]) / n >= obs
            counts -= stats[:, j] > hi[:, 0]  # takes back the block's count of this shuffle
    ordered = np.sort(observed)
    at = np.minimum(np.searchsorted(ordered, peaks - tol), m - 1)
    near = np.flatnonzero(np.abs(ordered[at] - peaks) <= tol)
    if near.size:
        peaks[near] = 0.0
        for _, Xs in blocks():
            for j in near:
                peaks[j] = max(peaks[j], (np.abs(Xs @ targets[j]) / n).max())
    count_max = B - np.searchsorted(np.sort(peaks), observed, side="left")
    per_test = (1.0 + count_per) / (B + 1.0)
    max_stat = (1.0 + count_max) / (B + 1.0)
    return per_test, max_stat
