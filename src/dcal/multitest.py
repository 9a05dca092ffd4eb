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

Up to ``_FLOAT32_MAX_SAMPLES`` samples that product and the passes over its
output run in float32: the shuffled targets are cast once, each block's
standardized columns into a float32 copy, and the (columns, B) statistics
are float32, which halves the memory the passes read.  The float32
statistics only sort each statistic into above, below or near the observed
one; every near statistic is scored again in float64, so the p-values are
those of the float64 kernel (see :func:`permutation_pvalues` for the
bound).  The band of near statistics grows as n**2, and with it the
rescoring, so larger samples keep float64 throughout.
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


# The most samples whose permutation blocks are scored in float32.  The
# float32 band grows as n**2, and its rescorings with it: on 1000 null
# columns and 999 shuffles (2-core Xeon, OpenBLAS at two threads) float32
# took 0.75 of the float64 time at n = 50, 0.86 at 100 and 1.05 at 200, and
# unthreaded 1.26 at 500.  The limit sits below that crossover: the time
# saved shrinks with n while the float32 copy of the targets (4 B n bytes)
# grows, and ``dcal screen``'s benchmark (n = 100) keeps a workload on the
# float64 path.
_FLOAT32_MAX_SAMPLES = 64


def _float32_error(n: int) -> float:
    """E32 of :func:`permutation_pvalues`: the most by which a float32 block
    statistic of n standardized samples, and the float32 rounding of its
    bounds, can move it from the float64 matrix-vector statistic."""
    return n * (n + 4) * 2.0 ** -24


def _scoring(n: int) -> tuple[type, float]:
    """The dtype permutation blocks of n samples are scored in, and its
    error beyond the float64 one (0 for float64)."""
    if n <= _FLOAT32_MAX_SAMPLES:
        return np.float32, _float32_error(n)
    return np.float64, 0.0


def _column_bytes(n: int, shuffles: int) -> int:
    """Work space of one column in a block: its column of the statistics
    and of the mask (bool), its standardized samples and their squares
    (float64) and, when the block is scored in float32, their float32
    copy."""
    if n <= _FLOAT32_MAX_SAMPLES:
        return 5 * shuffles + 20 * n
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


def _rescored(Xs: np.ndarray, shuffled: np.ndarray, n: int) -> np.ndarray:
    """(shuffles, columns): |x . t| / n for each row t of ``shuffled`` and
    row x of ``Xs``, by one float64 matrix-vector product per shuffle, the
    arithmetic of the observed statistics."""
    return np.array([np.abs(Xs @ t) / n for t in shuffled])


def _rescored_peaks(blocks, shuffled: np.ndarray, n: int) -> np.ndarray:
    """The largest :func:`_rescored` statistic of each row of ``shuffled``
    over every block that ``blocks()`` yields."""
    peaks = np.zeros(len(shuffled))
    for _, Xs in blocks():
        np.maximum(peaks, _rescored(Xs, shuffled, n).max(axis=1), out=peaks)
    return peaks


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

    A block's statistics stay in the product domain, |x . t| for a
    standardized column x and shuffled target t, where |x . t| <= n.  Four
    passes follow the product: the absolute values, each shuffle's maximum,
    and two compares with the per-column bounds ``n*observed -/+ h``, each
    counted per column through a one-byte view of the mask.  A statistic
    above the upper bound counts; one below the lower bound does not; a
    shuffle with a statistic in between is rescored against the block with
    the float64 matrix-vector product the observed statistics came from.
    After the last block, a shuffle whose peak lies within ``h / n`` of an
    observed statistic is rescored the same way over every block.

    This is exact because h exceeds the most by which a block statistic, on
    its side of a rounded bound, can differ from the matrix-vector one.
    Let S = sum |x_i t_i|; for standardized rows S <= ||x|| ||t|| = n
    (Cauchy-Schwarz), up to the relative O(n u) by which float64 rows miss
    a norm of sqrt(n).  A float sum of n products, in any order and with
    or without fused multiply-adds, is within gamma_n S of the exact dot
    product, gamma_n = n u / (1 - n u) for the unit roundoff u (Higham
    2002, section 3.1).  In float64 (u = 2**-53) two products differ by at
    most about 2 n**2 u, and dividing by n and rounding the bounds add about
    2 n u; the half-width h = n*tol, with ``tol`` = 8 n eps = 16 n u, is
    larger than both.  In float32 (v = 2**-24) three more errors join the
    float64 ones: rounding x and t to float32 moves each product by at most
    (2 v + v**2) |x_i t_i|, the float32 sum adds gamma_n(v) (1 + v)**2 S,
    and rounding the bounds to float32 moves them by at most v (n + h).
    With S <= n they total n (n + 3) v plus terms of order n**3 v**2, and
    ``_float32_error``'s E32 = n (n + 4) v covers them with about n v to
    spare while n**2 v < 1/2 (n <= 2896); underflow of float32 products
    adds at most about n**1.5 2**-149, far inside the spare.  There
    h = n*tol + E32.  So a statistic outside the band lies on the same side
    of ``n*observed`` as the rescored one.  A block's largest statistic is
    within the same bound of its largest rescored one, and division by n
    is monotone, so a peak farther than h / n from every observed
    statistic lies on the same side of each as the rescored peak.  In
    float64 a peak that is not rescored even keeps the bits of the
    one-at-a-time score, ``fl(max |s| / n)`` being ``max fl(|s| / n)``.

    The float32 band is wider by E32, which grows as n**2, and so do the
    rescorings it brings; above ``_FLOAT32_MAX_SAMPLES`` samples the blocks
    are scored in float64 (the constant states the measured crossover).

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
    if X.ndim != 2 or tested.size == 0 or X.shape[1] != y.shape[0] or y.size == 0:
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
            # a constant column need not centre to zeros (0.1 seven times has
            # an sd of 1.4e-17), and a tiny spread can square to 0
            flat = np.maximum.reduce(Xs, axis=1) == np.minimum.reduce(Xs, axis=1)
            Xs -= Xs.mean(axis=1, keepdims=True)
            # numpy's own std arithmetic on the centred rows, X.std(axis=1)'s bits
            sd_x = np.add.reduce(Xs * Xs, axis=1)
            sd_x /= n
            np.sqrt(sd_x, out=sd_x)
            for j in np.flatnonzero(flat | (sd_x == 0.0)):
                raise DegenerateVarianceError(f"column {int(tested[start + j])} has zero variance")
            Xs /= sd_x[:, None]
            yield at, Xs

    if np.maximum.reduce(y) == np.minimum.reduce(y) or y.std() == 0.0:
        for _ in blocks():  # a column's error comes first
            pass
        raise DegenerateVarianceError("target has zero variance")
    ys = (y - y.mean()) / y.std()
    targets = _shuffled(ys, plan)

    # Two summation orders of one statistic differ by less than ``tol``.
    tol = 8.0 * n * np.finfo(np.float64).eps
    dtype, error = _scoring(n)
    half = n * tol + error  # the band's half-width, in the product domain
    near_tol = tol + error / n  # the same, divided by n
    scored = targets.astype(dtype, copy=False)
    stats_buf, mask_buf = np.empty(B * width, dtype), np.empty(B * width, dtype=bool)
    count = np.min_scalar_type(B)  # holds one column's count over the shuffles
    observed = np.empty(m)
    count_per = np.zeros(m, dtype=np.int64)
    peaks = np.zeros(B)
    for at, Xs in blocks():
        obs, counts = observed[at], count_per[at]
        np.divide(np.abs(Xs @ ys), n, out=obs)
        centre = obs[:, None] * n
        lo = (centre - half).astype(dtype, copy=False)
        hi = (centre + half).astype(dtype, copy=False)
        stats = np.matmul(Xs.astype(dtype, copy=False), scored.T,
                          out=stats_buf[: obs.size * B].reshape(-1, B))
        np.abs(stats, out=stats)  # (columns, shuffles)
        np.maximum(peaks, np.divide(stats.max(axis=0), n, dtype=np.float64), out=peaks)
        mask = mask_buf[: stats.size].reshape(stats.shape)
        above = np.add.reduce(np.greater(stats, hi, out=mask).view(np.uint8), axis=1, dtype=count)
        reach = np.add.reduce(np.greater_equal(stats, lo, out=mask).view(np.uint8), axis=1,
                              dtype=count)
        counts += above
        cols = np.flatnonzero(reach != above)  # columns with a statistic in the band
        band = stats[cols]
        shuffles = np.flatnonzero(((band >= lo[cols]) & (band <= hi[cols])).any(axis=0))
        if shuffles.size:  # rescored, and the block's counts of them taken back
            counts += np.add.reduce(_rescored(Xs, targets[shuffles], n) >= obs, axis=0)
            counts -= np.add.reduce(stats[:, shuffles] > hi, axis=1)
    ordered = np.sort(observed)
    at = np.minimum(np.searchsorted(ordered, peaks - near_tol), m - 1)
    near = np.flatnonzero(np.abs(ordered[at] - peaks) <= near_tol)
    if near.size:
        peaks[near] = _rescored_peaks(blocks, targets[near], n)
    count_max = B - np.searchsorted(np.sort(peaks), observed, side="left")
    per_test = (1.0 + count_per) / (B + 1.0)
    max_stat = (1.0 + count_max) / (B + 1.0)
    return per_test, max_stat
