"""Multiple-testing corrections: Holm, Benjamini-Hochberg, and permutation tests.

The permutation test shuffles the shared target once per permutation and
recomputes |r| for every column, so the per-test and max-statistic p-values
of one plan come from the same shuffles; that makes the max-statistic
p-values dominate the per-test ones exactly, not just in expectation.
Shuffles are drawn and scored in blocks, as many shuffles as fit the
work-space budget ``core.CHUNK_BYTES`` at :func:`_shuffle_bytes` each, so
memory stays flat in the number of shuffles.  One matrix product scores a
whole block into a (shuffles, m) array, shuffle-major, against a
C-contiguous (n, m) copy of the standardized rows made once per call; the
statistics and a mask of their compares with the observed ones are written
into two buffers allocated once per call, with the compares' bounds.
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


def _shuffle_bytes(m: int, n: int) -> int:
    """Work space of one shuffle in a block: its row of the statistics
    (float64) and of the mask (bool), and 32 bytes per sample for its raw
    words, the mixing temporary, the permutation and the shuffled target."""
    return 9 * m + 32 * n


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
    columns: np.ndarray, target: np.ndarray, plan: PermutationPlan
) -> tuple[np.ndarray, np.ndarray]:
    """Per-test and max-statistic permutation p-values for a battery.

    ``columns`` is (m, n); every row is tested against the shared ``target``.
    Permutation b shuffles the target with the stream derived from
    ``(plan.seed, b)``, so results do not depend on evaluation order.
    P-values use the add-one convention (1 + #{more extreme}) / (B + 1).

    A block's statistics stay in the product domain, |x . y| for
    standardized rows, where |x . y| <= n.  Four passes follow the product:
    the absolute values, each shuffle's maximum, and two compares with the
    per-column bounds ``n*observed -/+ n*tol``, each counted per column
    through a one-byte view of the mask.  A statistic above the upper bound
    counts; one below the lower bound does not; a shuffle with a statistic
    in between, or a maximum within ``tol`` of an observed statistic, is
    rescored with the matrix-vector product the observed statistics came
    from, one shuffle at a time.  This is exact: the block product and that
    product differ by at most about 2 n**2 u (u the unit roundoff, n terms
    each of size up to 1), dividing by n and rounding the bounds add about
    2 n u, and the band's half-width ``n*tol`` is 16 n**2 u, larger than
    both.  So a statistic outside the band lies on the same side of
    ``n*observed`` as the rescored one.  Division by n is monotone, so a
    maximum divided by n, ``fl(max |s| / n)``, is ``max fl(|s| / n)``: a
    maximum that is not rescored keeps the bits of the one-at-a-time score.
    """
    X = np.asarray(columns, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] != y.shape[0]:
        raise ValueError("columns must be (m, n), m >= 1, with n matching the target length")
    m, n = X.shape
    B = plan.n_permutations
    block = min(B, units_per_block(_shuffle_bytes(m, n)))
    # before the standardized rows: allocated after them, the buffers
    # raised a fresh sim-null run's peak RSS by 0.35-0.65 MB more
    stats_buf, mask_buf = np.empty((block, m)), np.empty((block, m), dtype=bool)
    bounds = np.empty((2, m))
    Xs = X - X.mean(axis=1, keepdims=True)
    XsT = np.empty((n, m))  # each block's product reads it row by row
    # numpy's own std arithmetic on the centred rows, X.std(axis=1)'s bits:
    # the squares fill XsT's memory as (m, n) rows and the standard deviations
    # sit in the bounds' memory until the bounds are set: no temporary is made
    sd_x = np.add.reduce(np.multiply(Xs, Xs, out=XsT.reshape(m, n)), axis=1, out=bounds[0])
    sd_x /= n
    np.sqrt(sd_x, out=sd_x)
    for j in np.flatnonzero(sd_x == 0.0):
        raise DegenerateVarianceError(f"column {int(j)} has zero variance")
    if y.std() == 0.0:
        raise DegenerateVarianceError("target has zero variance")
    Xs /= sd_x[:, None]  # in place: the copy XsT takes the place of a temporary
    ys = (y - y.mean()) / y.std()
    observed = np.abs(Xs @ ys) / n
    np.copyto(XsT, Xs.T)

    # Two summation orders of one statistic differ by less than ``tol``.
    tol = 8.0 * n * np.finfo(np.float64).eps
    lo, hi = bounds
    np.subtract(np.multiply(observed, n, out=hi), n * tol, out=lo)
    hi += n * tol
    ordered = np.sort(observed)
    count = np.min_scalar_type(block)  # holds a block's count of one column
    count_per = np.zeros(m, dtype=np.int64)
    peaks = np.empty(B)
    for start in range(0, B, block):
        keys = np.arange(start, min(start + block, B), dtype=np.uint64)
        perms = permutation_of(raw_block(derive_array(plan.seed, keys), n))
        stats, mask = stats_buf[: keys.size], mask_buf[: keys.size]
        np.matmul(ys[perms], XsT, out=stats)  # (shuffles, m)
        np.abs(stats, out=stats)
        peak = stats.max(axis=1)
        peak /= n
        above = np.add.reduce(np.greater(stats, hi, out=mask).view(np.uint8), axis=0, dtype=count)
        reach = np.add.reduce(np.greater_equal(stats, lo, out=mask).view(np.uint8), axis=0,
                              dtype=count)
        count_per += above
        cols = np.flatnonzero(reach != above)  # columns with a statistic in the band
        band = stats[:, cols]
        near = ((band >= lo[cols]) & (band <= hi[cols])).any(axis=1)
        at = np.minimum(np.searchsorted(ordered, peak - tol), m - 1)
        near |= np.abs(ordered[at] - peak) <= tol
        for j in np.flatnonzero(near):
            exact = np.abs(Xs @ ys[perms[j]]) / n
            peak[j] = exact.max()
            count_per += exact >= observed
            count_per -= stats[j] > hi  # takes back the block's count of this shuffle
        peaks[start : start + keys.size] = peak
    count_max = B - np.searchsorted(np.sort(peaks), observed, side="left")
    per_test = (1.0 + count_per) / (B + 1.0)
    max_stat = (1.0 + count_max) / (B + 1.0)
    return per_test, max_stat
