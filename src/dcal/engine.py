"""The data-calibrated correlation test.

The test replaces each observation with its out-of-sample prediction under
the fitted linear relationship (one prediction per direction, x-from-y and
y-from-x) and applies the classical correlation test to the predictions.
Under the null, leave-one-out predictions tend to correlate *negatively*
with the raw data, so a calibrated correlation whose sign contradicts the
classical one is reset to the (0.0, 0.5) sentinel -- that reset is what keeps
the calibrated p-value interpretable without multiplicity correction.

Three out-of-sample schemes are supported:

* ``loo``      -- deterministic leave-one-out via the hat-matrix shortcut.
* ``kfold``    -- repeated k-fold; every repeat's fold-out predictions are
                  kept, so the output stacks ``repeats`` blocks of ``n``
                  values (repeat-major, original sample order).  Fold
                  partitions depend only on ``(seed, repeat)``, so the two
                  prediction directions of one test see identical folds and
                  their blocks stay aligned.
* ``boot632``  -- bootstrap .632: 0.368 * full-sample prediction
                  + 0.632 * mean out-of-bag prediction across replicates.

:func:`dcal_matrix` runs the whole test for every row of a matrix against a
shared y, or against one y per row, with array operations; :func:`dcal_test`
and :func:`oos_predict` are its one-row calls.  It is :func:`classical_phase`
(Pearson's one kernel, :func:`~dcal.core.classical_rows`, and its t tail: r, p
and each row's error) then :func:`calibration_phase` (fast guard, out-of-sample
step, calibrated correlation); the methods of :mod:`dcal.methods` share one
classical phase per row set, and a comparison of schemes calibrates one per
scheme.  Neither phase keeps centred copies of the rows: each block centres its
own.  Each training set is fitted from sufficient statistics of mean-centred
data: k-fold adds up the means and scatter of the other folds, and the
bootstrap weights each replicate's sums by its multiplicity counts, one float
array that afterwards holds the out-of-bag 0/1 mask.
K-fold runs slot-major: every permuted sample is gathered into a (slots,
folds, rows * repeats) grid, slot t of fold f being permutation position
``starts[f] + t``, so each per-fold sum, the fold-pair terms of the training
sums and the predictions are operations on whole rows * repeats vectors,
added over a leading axis.  When ``n % folds`` is not 0 the folds one sample
short carry a pad in their last slot, a copy of their last sample that the
fold sums leave out; the predictions go back into sample order once.
A row, or a shared y, whose values are all distinct cannot give a constant
training set (it keeps at least 3 samples) or a bag of one value other than
its first sample drawn n times, so each chunk finds its rows with a tie
(:func:`_tied_rows`) and only those run the exact checks; for k-fold the
tie must fill the smallest training set, one value repeated at least that
often.
Both phases run in blocks of rows, as many as fit the work-space budget
``core.CHUNK_BYTES`` (:func:`~dcal.core.units_per_block`), so their work
space stays flat in the number of rows: a row of the classical phase is
charged ``core._CENTRE_BYTES`` per sample, and a row of the out-of-sample
step :func:`_row_bytes`.  The bootstrap has two levels
(:func:`_chunk_rows`): its replicates run in sub-blocks of rows charged
:func:`_row_bytes` (33 bytes per replicate and sample, for the replicate
arrays, and 96 per replicate, for its vectors), and one chunk holds as many
whole sub-blocks as its own per-row arrays
(:func:`_chunk_row_bytes`, 64 n + 128 bytes a row: its rows centred,
out-of-bag sums and counts and predictions) fit in an eighth of the budget,
so the rows are centred and the predictions correlated once per chunk, not
once per sub-block; a sub-block never holds more rows than such a chunk.  The
out-of-sample step allocates its large arrays once per call and every chunk
and sub-block writes into them.  Each phase ends with one t-tail call for all
its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, NamedTuple

import numpy as np

from .core import (
    LEVERAGE_GUARD,
    DataPair,
    centred,
    centred_rows,
    centred_sums,
    classical_rows,
    correlation_from_sums,
    loo_residuals,
    ols_fit,
    pair_errors,
    pearson,
    range_error,
    t_pvalues,
    units_per_block,
)
from .errors import (
    DegenerateVarianceError,
    InsufficientDataError,
    ResampleCoverageError,
    UndefinedSignError,
    raise_first,
)
from .rng import derive_array, integers_of, permutation_of, raw_block

__all__ = [
    "OosScheme",
    "DcalResult",
    "DcalBatch",
    "Y_FROM_X",
    "X_FROM_Y",
    "oos_predict",
    "dcal_test",
    "dcal_matrix",
    "dcal_in_sample_check",
]

Y_FROM_X = "y_from_x"
X_FROM_Y = "x_from_y"

Direction = Literal["y_from_x", "x_from_y"]

# weights of the .632 blend: in-sample optimism vs out-of-bag pessimism
_W_IN = 0.368
_W_OOB = 0.632

_MAX_COVERAGE_RETRIES = 10

@dataclass(frozen=True)
class OosScheme:
    """Out-of-sample prediction scheme selector.

    ``seed`` feeds the deterministic resampling stream, kept modulo 2**64 as
    ``Stream(seed)`` reads it, and is ignored by the (fully deterministic)
    leave-one-out variant.
    """

    kind: Literal["loo", "kfold", "boot632"]
    folds: int = 10
    repeats: int = 10
    replicates: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("loo", "kfold", "boot632"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "kfold":
            if self.folds < 2:
                raise ValueError("k-fold needs at least 2 folds")
            if self.repeats < 1:
                raise ValueError("k-fold needs at least 1 repeat")
        if self.kind == "boot632" and self.replicates < 1:
            raise ValueError("bootstrap needs at least 1 replicate")
        object.__setattr__(self, "seed", int(self.seed) % 2 ** 64)

    @classmethod
    def loo(cls) -> "OosScheme":
        return cls(kind="loo")

    @classmethod
    def repeated_kfold(cls, folds: int = 10, repeats: int = 10, seed: int = 0) -> "OosScheme":
        return cls(kind="kfold", folds=folds, repeats=repeats, seed=seed)

    @classmethod
    def boot632(cls, replicates: int = 100, seed: int = 0) -> "OosScheme":
        return cls(kind="boot632", replicates=replicates, seed=seed)

    @property
    def label(self) -> str:
        if self.kind == "loo":
            return "loo"
        if self.kind == "kfold":
            return f"cv{self.folds}x{self.repeats}"
        return "boot632"

    def reseeded(self, seed: int) -> "OosScheme":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class DcalResult:
    """Classical and calibrated correlation results plus diagnostics.

    When either flag is set, ``(r_dcal, p_dcal)`` is the ``(0.0, 0.5)``
    sentinel; otherwise the calibrated sign always matches the classical one.
    """

    r: float
    p: float
    r_dcal: float
    p_dcal: float
    sign_flip_triggered: bool
    skipped_by_fast_flag: bool
    scheme: OosScheme


class DcalBatch(NamedTuple):
    """Per-row results of :func:`dcal_matrix`, one array entry per row.

    ``sign_flip`` and ``skipped`` mean what the flags of :class:`DcalResult`
    mean.  A row that could not be tested has NaN numbers, both flags off and
    its exception in ``errors``; the other entries of ``errors`` are None.
    """

    r: np.ndarray
    p: np.ndarray
    r_dcal: np.ndarray
    p_dcal: np.ndarray
    sign_flip: np.ndarray
    skipped: np.ndarray
    errors: tuple


class Classical(NamedTuple):
    """The samples, r and p of :func:`classical_phase`; a row with an error
    in ``errors`` (None elsewhere) has NaN r and p."""

    X: np.ndarray
    y: np.ndarray
    r: np.ndarray
    p: np.ndarray
    errors: tuple


class _Work(dict):
    """The out-of-sample step's large arrays, made once per call: ``work(name,
    shape, dtype)`` views the first bytes of buffer ``name``, which its first
    (largest) use allocates.  Freed per chunk, they would go back to the
    system, and each chunk would fault their pages in again."""

    def __call__(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if name not in self or self[name].nbytes < size:
            self[name] = np.empty(-(-size // 8))  # whole words: aligned for any dtype
        return np.ndarray(shape, dtype, self[name])


def _rows(a: np.ndarray, rows) -> np.ndarray:
    """``a`` at ``rows`` when it holds one sample per row; a shared sample as is."""
    return a if a.ndim == 1 else a[rows]


def _gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[idx]`` of a shared sample; of (rows, n) values, row i taken at ``idx[i]``."""
    return a[idx] if a.ndim == 1 else np.take_along_axis(a, idx, -1)


def _kfold_layout(n: int, scheme: OosScheme) -> tuple[list[int], np.ndarray]:
    """Fold sizes and start offsets within a permutation of ``n`` samples."""
    if scheme.folds > n:
        raise ValueError(f"folds={scheme.folds} exceeds sample size {n}")
    largest_fold = -(-n // scheme.folds)
    if n - largest_fold < 3:
        raise InsufficientDataError(
            f"k-fold training sets would have {n - largest_fold} points; need >= 3"
        )
    sizes = [n // scheme.folds + (1 if i < n % scheme.folds else 0) for i in range(scheme.folds)]
    return sizes, np.cumsum([0] + sizes[:-1])


def _constant_training(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per row: does some fold leave a training set of one repeated value?

    ``values`` holds raw predictor values in permutation order, folds being
    the contiguous segments that begin at ``starts``.  The training set of
    fold k is every other fold: its largest value is the largest fold
    maximum, or the second largest where fold k holds the largest (equal
    to it when two folds do), and its smallest value likewise.
    """
    hi = np.maximum.reduceat(values, starts, axis=-1)
    lo = np.minimum.reduceat(values, starts, axis=-1)
    top, bottom = np.sort(hi, axis=-1)[..., -2:], np.sort(lo, axis=-1)[..., :2]
    hi_other = np.where(hi == top[..., 1:], top[..., :1], top[..., 1:])
    lo_other = np.where(lo == bottom[..., :1], bottom[..., 1:], bottom[..., :1])
    return (hi_other == lo_other).any(axis=(1, 2))


def _kfold_rows(X, U, y, v, sums, scheme, seeds, work):
    rows, n = U.shape
    sizes, starts = _kfold_layout(n, scheme)
    folds, repeats = scheme.folds, scheme.repeats
    width = rows * repeats
    # Slot-major: slot t of fold f is permutation position starts[f] + t.
    # The folds one sample short (the last ones) repeat their last sample in
    # the last slot: a pad that the fold sums leave out and whose prediction
    # is that sample's again.
    slots, full = sizes[0], sizes.count(sizes[0])
    at = np.minimum(starts + np.arange(slots)[:, None], starts + np.array(sizes) - 1)
    grid, blocks = (slots, folds, width), (2, rows, repeats, n)
    # "a" holds in turn the raw words and the mixer's temporary, the rows and
    # a per-row y repeated once per repeat, du and dv, the fold-pair gaps and
    # the predictions in sample order
    work("a", (max(2 * slots, 3 * folds), folds, width))  # its largest use first
    words = work("a", blocks, np.uint64)
    order = permutation_of(raw_block(derive_array(seeds[:, None], np.arange(repeats)), n,
                                     words[0], words[1]))

    # A training set of one repeated value needs that value at least as
    # often as the smallest training set holds samples (3 or more), so only
    # rows (or a shared y) with such a tie are permuted and scanned; a row
    # whose values are all distinct never is.
    deg_x, deg_y = np.zeros(rows, dtype=bool), np.zeros(rows, dtype=bool)
    for deg, values in ((deg_x, X), (deg_y, y)):
        tied = _tied_rows(values, rows, n - sizes[0])
        if tied.size:
            at_tied = order[tied] if values.ndim == 1 else order[tied] + (tied * n)[:, None, None]
            deg[tied] = _constant_training(np.take(values, at_tied), starts)

    # each slot's sample: its place in a shared sample, and in the rows
    # repeated once per repeat, which is its place in the predictions too
    pos = order.reshape(width, n).T[at.ravel()].reshape(grid)
    del order
    flat = np.add(pos, np.arange(width) * n, out=work("flat", grid, np.int64))
    samples = work("samples", (2,) + grid)  # [0] u, [1] v
    for values, out, block in zip((U, v), samples, work("a", blocks)):
        if values.ndim == 1:
            np.take(values, pos, out=out)
        else:
            np.copyto(block, values[:, None])
            np.take(block, flat, out=out)

    # Training set of fold k = every other fold.  Its sums come from each
    # fold's mean and scatter about that mean (parallel axis theorem), added
    # over the other folds, so no step subtracts nearly equal totals.
    size = np.array(sizes, dtype=np.float64)[:, None]
    per_fold = work("per_fold", (5, folds, width))  # scatters uu, vv, uv; sums of u, v
    totals = per_fold[3:]
    np.add.reduce(samples[:, :-1], axis=1, out=totals)
    totals[:, :full] += samples[:, -1, :full]
    means = totals / size
    dev = np.subtract(samples, means[:, None], out=work("a", (2,) + grid))
    dev[:, -1, full:] = 0.0  # the pads
    np.add.reduce(np.multiply(dev[0], dev[1], out=work("b", grid)), axis=0, out=per_fold[2])
    np.add.reduce(np.square(dev, out=dev), axis=1, out=per_fold[:2])
    # the training means: the sample's total less the fold's own sum (the
    # samples are centred, so the total is about 0 and nothing cancels)
    whole = np.empty((2, rows))
    whole[0], whole[1] = np.add.reduce(U, axis=-1), np.add.reduce(v, axis=-1)
    mu_mv = (np.repeat(whole, repeats, axis=1)[:, None] - totals) / (n - size)
    # each fold's mean about every other fold's training mean, [j, k] for
    # fold j and training set k: their squares and products, plus fold j's
    # own scatter per sample, are added up over the full folds and the
    # short ones (not j = k) and weighted by their fold sizes
    gaps = work("a", (3, folds, folds, width))
    np.copyto(gaps[:2], means[:, :, None])
    gaps[:2] -= mu_mv[:, None]
    np.multiply(gaps[0], gaps[1], out=gaps[2])
    np.square(gaps[:2], out=gaps[:2])
    gaps += (per_fold[:3] / size)[:, :, None]
    gaps.reshape(3, folds * folds, width)[:, :: folds + 1] = 0.0
    scatter = np.add.reduce(gaps[:, :full], axis=1)
    scatter *= slots
    scatter += (slots - 1) * np.add.reduce(gaps[:, full:], axis=1)
    slopes = scatter[2] / scatter[:2]  # slope_y = suv / suu, slope_x = suv / svv

    # predictions mv + slope_y * (up - mu) and mu + slope_x * (vp - mv), in
    # place of the samples, then put back into sample order
    np.subtract(samples, mu_mv[:, None], out=samples)
    samples *= slopes[:, None]
    samples += mu_mv[::-1, None]
    hats = work("a", (2, width * n))
    for hat, pred in zip(hats, samples):
        hat[flat] = pred
    y_hat, x_hat = hats.reshape(2, rows, -1)
    return y_hat, x_hat, deg_x, deg_y, None


def _tied_rows(values: np.ndarray, rows: int, count: int = 2) -> np.ndarray:
    """Indices of the ``rows`` rows whose sample holds one value at least
    ``count`` times (by default, two equal values); a shared sample (n,)
    gives every row or none."""
    ordered = np.sort(values, axis=-1)
    n = ordered.shape[-1]
    tie = (ordered[..., count - 1 :] == ordered[..., : n - count + 1]).any(axis=-1)
    return np.flatnonzero(tie) if tie.ndim else np.arange(rows if tie else 0)


def _bags_of_one_value(values, counts, first):
    """(rows, B): does every value in each bag equal its first draw's?"""
    other = (counts > 0) & (values[..., None, :] != _gather(values, first)[..., None])
    return ~other.any(axis=-1)


def _one_value_bags(values, counts, first, single):
    """(rows, B): is each bag one repeated value of ``values``?

    ``values`` is a shared sample (n,) or one per row, ``counts`` the bags'
    multiplicities, ``first`` each bag's first draw and ``single`` whether a
    bag holds only that sample, n times.  Where a row's values are all
    distinct, that is the answer; rows with a tie compare every bagged
    value with the first one.
    """
    out = single.copy()
    tied = _tied_rows(values, len(out))
    if tied.size:
        out[tied] = _bags_of_one_value(_rows(values, tied), counts[tied], first[tied])
    return out


def _bootstrap_block(streams, X, U, y, v, work):
    """One block of bootstrap replicates, one stream seed each in ``streams`` (rows, B).

    Draws every replicate's n sample indices and returns whether any
    replicate's x or y sample is one repeated value, the out-of-bag
    prediction sums of both directions and the out-of-bag counts.  Its
    (rows, B, n) arrays but ``np.bincount``'s are views of ``work``.
    """
    shape = rows, B, n = streams.shape + U.shape[1:]
    # "a" holds the raw words, indices, du, dv and then the out-of-bag mask;
    # "b" the mixer's temporary, the uniforms and then the counts
    words = raw_block(streams, n, work("a", shape, np.uint64), work("b", shape, np.uint64))
    idx = integers_of(words, n, work("a", shape, np.int64), work("b", shape))
    first = idx[..., 0].copy()  # always in the bag
    idx += (np.arange(rows * B) * n).reshape(rows, B, 1)
    # one float array of multiplicities; its integer values are exact.
    # bincount's own array then holds the weighted du.
    counts = work("b", shape)
    tally = np.bincount(idx.ravel(), minlength=rows * B * n)
    np.copyto(counts.reshape(-1), tally)
    single = counts.reshape(-1)[idx[..., 0]] == n  # idx[..., 0]: each first draw, flat
    deg_x = _one_value_bags(X, counts, first, single)
    deg_y = _one_value_bags(y, counts, first, single)

    # two passes (replicate means, then centred sums): a bootstrap sample can
    # sit far from the row mean relative to its own spread.  einsum, not
    # BLAS, so a row's sums do not depend on its place in the chunk.
    mu = np.einsum("rbn,rn->rb", counts, U) / n
    mv = np.einsum("rbn,rn->rb" if v.ndim == 2 else "rbn,n->rb", counts, v) / n
    # du and dv: a broadcast copy of the sample, then the means subtracted
    # in place (the same operands as one broadcast subtraction, in fewer passes)
    du = work("a", shape)
    np.copyto(du, U[:, None, :])
    du -= mu[..., None]
    weighted_du = np.multiply(counts, du, out=tally.view(np.float64).reshape(shape))
    suu = np.einsum("rbn,rbn->rb", weighted_du, du)
    dv = du
    np.copyto(dv, v[..., None, :])
    dv -= mv[..., None]
    sxy = np.einsum("rbn,rbn->rb", weighted_du, dv)
    del tally, weighted_du  # bincount's array, freed before the out-of-bag arrays
    slope_y = sxy / suu
    slope_x = sxy / np.einsum("rbn,rbn,rbn->rb", counts, dv, dv)
    # the counts become the out-of-bag 0/1 array in place; its flags are
    # counted one byte each in the smallest type that holds B, into int64
    out_of_bag = np.equal(counts, 0.0, out=work("a", shape, bool))
    oob_count = np.add.reduce(out_of_bag.view(np.uint8), axis=1, dtype=np.min_scalar_type(B),
                              out=np.empty((rows, n), dtype=np.int64))
    np.copyto(counts, out_of_bag)
    coef = np.stack([mv - slope_y * mu, slope_y, mu - slope_x * mv, slope_x], axis=1)
    a_y, b_y, a_x, b_x = np.einsum("rkb,rbn->krn", coef, counts)
    return deg_x.any(axis=-1), deg_y.any(axis=-1), a_y + b_y * U, a_x + b_x * v, oob_count


def _boot632_rows(X, U, y, v, sums, scheme, seeds, work):
    rows, n = U.shape
    B = scheme.replicates
    keys = np.arange(B)
    # the replicates run in sub-blocks of as many rows as their charge lets
    # the budget hold, joined (and then freed) before the retries; a chunk
    # that fits in one sub-block, a one-row call say, passes its arrays as is
    step = units_per_block(_row_bytes(scheme, n))
    if rows <= step:
        deg_x, deg_y, oob_y, oob_x, oob_count = _bootstrap_block(
            derive_array(seeds[:, None], keys), X, U, y, v, work)
    else:
        sub_blocks = (slice(start, start + step) for start in range(0, rows, step))
        deg_x, deg_y, oob_y, oob_x, oob_count = map(np.concatenate, zip(*[
            _bootstrap_block(derive_array(seeds[at, None], keys), X[at], U[at], _rows(y, at),
                             _rows(v, at), work)
            for at in sub_blocks]))
    for extra in range(_MAX_COVERAGE_RETRIES):
        short = np.flatnonzero((oob_count == 0).any(axis=1))
        if not short.size:
            break
        dx, dy, sy, sx, cnt = _bootstrap_block(
            derive_array(seeds[short, None], B + extra),
            X[short], U[short], _rows(y, short), _rows(v, short), work,
        )
        deg_x[short] |= dx
        deg_y[short] |= dy
        oob_y[short] += sy
        oob_x[short] += sx
        oob_count[short] += cnt
    uncovered = oob_count == 0
    missing = np.where(uncovered.any(axis=1), uncovered.argmax(axis=1), -1)

    # _W_IN * full-sample prediction + _W_OOB * (oob / oob_count), in place:
    # the same products and sum, without their temporaries
    suu, svv, suv = sums
    y_hat = np.multiply((suv / suu)[:, None], U)
    x_hat = np.multiply((suv / svv)[:, None], v)
    for hat, oob in ((y_hat, oob_y), (x_hat, oob_x)):
        hat *= _W_IN
        oob /= oob_count
        oob *= _W_OOB
        hat += oob
    return y_hat, x_hat, deg_x, deg_y, missing


def _loo_rows(X, U, y, v, sums, scheme, seeds, work):
    suu, svv, suv = sums
    e_y, margin_x = loo_residuals(U, v, suu, suv)
    e_x, margin_y = loo_residuals(v, U, svv, suv)
    deg_x = (margin_x <= LEVERAGE_GUARD).any(axis=-1)
    deg_y = (margin_y <= LEVERAGE_GUARD).any(axis=-1)  # one flag for a shared y
    return v - e_y / margin_x, U - e_x / margin_y, deg_x, deg_y, None


# Out-of-sample predictions of both directions for every row of ``X``, as
# ``_SCHEME_ROWS[scheme.kind](X, U, y, v, sums, scheme, seeds, work)``.
# ``y`` is shared (n,) or one sample per row (rows, n).  ``U`` and ``v`` are
# ``X`` and ``y`` minus their means, ``sums`` their
# :func:`~dcal.core.centred_sums`; predictions come back on that centred
# scale as ``(y_hat, x_hat)``, each (rows, L).  Also returns flags,
# broadcastable to one per row, for a degenerate training set in each
# direction (``deg_x`` for y-from-x) and, for the bootstrap, the first sample
# left in every bag after all retries (-1 when every sample was out of bag;
# None for the other schemes).
_SCHEME_ROWS = {"loo": _loo_rows, "kfold": _kfold_rows, "boot632": _boot632_rows}


def _row_bytes(scheme: OosScheme, n: int) -> int:
    """Bytes of work space one row of the out-of-sample step is charged,
    from the traced peaks (tracemalloc) of ``_calibrate`` calls."""
    if scheme.kind == "boot632":
        # a row of one sub-block of replicates: per replicate and sample,
        # two 8-byte buffers and bincount's output (which then holds the
        # weighted du), and per replicate its stream and about ten vectors
        # (means, sums, slopes and their stack).  Traced per replicate of
        # one sub-block: about 25 n + 110 bytes from n = 4 to 200 (213 at
        # n = 4, 1339 at 50, 2573 at 100); charged 33 n alone, 300 rows at
        # n = 4 peaked at 2.14 MB.  The
        # chunk's own arrays (its gathered and centred rows, out-of-bag sums
        # and counts, predictions and their centred copies) are charged
        # _chunk_row_bytes: a chunk row traced 52, 44 and 43 n bytes with a
        # shared y and 69, 60 and 59 n with one y per row.  A sub-block
        # holds no more rows than a chunk may, so at few replicates the
        # chunk's charge bounds it: at 8 times that charge, as the chunk's
        # arrays have an eighth of the budget.
        return max(scheme.replicates * (33 * n + 96), 8 * _chunk_row_bytes(n))
    if scheme.kind == "loo":
        # peak 48 per sample at 163 rows, but charged about what k-fold is,
        # so that its chunks keep 163 rows at n = 50: a loo-only run such as
        # the null battery allocates nothing larger, and 546-row chunks
        # raised its peak RSS by 0.4 MB.
        return 160 * n
    # per repeat, on the slot-major grid of slots * folds >= n entries (see
    # _kfold_rows): buffer "a" (du and dv, or the three fold-pair arrays of
    # folds**2 entries), five grid arrays (the two samples, their places
    # twice and du * dv) and the five per-fold sums are held throughout;
    # while the training sums are formed about 20 per-fold temporaries more
    # (160 folds), and in the calibrated correlation three n-sample arrays
    # (24 n) instead.  Traced peaks per repeat of 18-row chunks (shared y,
    # one y per row): 4691 and 4700 bytes at n = 12, 5922 and 5962 at 50,
    # 14996 and 15148 at 200 (10 folds); 3749 and 3788 at 2 folds and n = 50;
    # 16601 and 16679 at 20 folds and n = 100.  Once per row, the chunk's
    # gathered and centred rows and targets (32 n with one y per row) and a
    # margin take 160 n, which keeps fig2's chunks (n = 50) at 18 rows; the
    # terms alone would give 20.  Charged 16 n per repeat instead, one
    # repeat at n = 299 and 2 folds peaked at 1.43 MB.
    folds = scheme.folds
    grid = -(-n // folds) * folds
    return scheme.repeats * (8 * max(2 * grid, 3 * folds * folds) + 40 * grid + 40 * folds
                             + max(160 * folds, 24 * n)) + 160 * n


def _chunk_row_bytes(n: int) -> int:
    """A boot632 chunk row's own arrays' charge (see :func:`_row_bytes`)."""
    return 64 * n + 128


def _chunk_rows(scheme: OosScheme, n: int) -> int:
    """Rows of one chunk of the out-of-sample step: as many as fit the
    budget at :func:`_row_bytes` each.  For boot632 that is one sub-block of
    its replicates, and a chunk holds as many whole sub-blocks as fit an
    eighth of the budget at :func:`_chunk_row_bytes` a row."""
    step = units_per_block(_row_bytes(scheme, n))
    if scheme.kind == "boot632":
        step *= units_per_block(8 * _chunk_row_bytes(n) * step)
    return step


def _coverage_error(scheme: OosScheme, missing: int) -> ResampleCoverageError:
    return ResampleCoverageError(
        f"sample {missing} was never out-of-bag in "
        f"{scheme.replicates + _MAX_COVERAGE_RETRIES} bootstrap replicates"
    )


def oos_predict(pair: DataPair, direction: Direction, scheme: OosScheme) -> np.ndarray:
    """Out-of-sample predictions in the requested direction.

    ``loo`` and ``boot632`` return one value per sample.  ``kfold`` returns
    ``repeats`` stacked blocks of per-sample values (repeat-major, original
    sample order); averaging the blocks would wash out the repeat-to-repeat
    spread that the calibrated test is supposed to see.  Deterministic given
    ``(pair, direction, scheme)``; resampling consumes only streams derived
    from ``scheme.seed``.
    """
    if direction not in (Y_FROM_X, X_FROM_Y):
        raise ValueError(f"unknown direction {direction!r}")
    X = pair.x[None, :]
    U, v, sums = centred_rows(X, pair.y)
    seeds = np.array([scheme.seed], dtype=np.uint64)
    with np.errstate(divide="ignore", invalid="ignore"):
        y_hat, x_hat, deg_x, deg_y, missing = _SCHEME_ROWS[scheme.kind](
            X, U, pair.y, v, sums, scheme, seeds, _Work())
    if np.any(deg_x if direction == Y_FROM_X else deg_y):  # 0-d for loo's shared y
        if scheme.kind == "boot632":
            raise DegenerateVarianceError("bootstrap training sample has zero predictor variance")
        raise DegenerateVarianceError("a training set has zero predictor variance")
    if missing is not None and missing[0] >= 0:
        raise _coverage_error(scheme, int(missing[0]))
    return y_hat[0] + pair.y.mean() if direction == Y_FROM_X else x_hat[0] + pair.x.mean()


def _calibrate(X, y, scheme, seeds, r, work):
    """Out-of-sample step and calibrated correlation for rows that run it,
    which it centres (:func:`~dcal.core.centred_rows`).

    Returns the rows' calibrated r and 1 - r**2, whether each row keeps them
    (the others get the sentinel), the sign-flip flags and a dict from row
    to the error that row raised.
    """
    rows = X.shape[0]
    U, v, sums = centred_rows(X, y)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            y_hat, x_hat, deg_x, deg_y, missing = _SCHEME_ROWS[scheme.kind](
                X, U, y, v, sums, scheme, seeds, work)
            r_cal, rest_cal = correlation_from_sums(*centred_sums(centred(x_hat), centred(y_hat)))
    except InsufficientDataError as exc:
        errors = {k: InsufficientDataError(str(exc)) for k in range(rows)}
        no_row = np.zeros(rows, dtype=bool)
        return np.zeros(rows), np.zeros(rows), no_row, no_row, errors
    # the per-pair order: y-from-x degeneracy, bootstrap coverage, then
    # x-from-y degeneracy, then the calibrated pair itself
    out = deg_x | deg_y
    errors = {}
    failed = np.zeros(rows, dtype=bool)
    if missing is not None:
        failed = (missing >= 0) & ~deg_x
        for k in np.flatnonzero(failed):
            errors[int(k)] = _coverage_error(scheme, int(missing[k]))
        out = out | failed
    for hat in (x_hat, y_hat):  # constant predictions
        out |= np.maximum.reduce(hat, axis=1) == np.minimum.reduce(hat, axis=1)
    out |= np.sign(r_cal) * np.sign(r) <= 0.0  # zero or contrary calibrated sign
    keep = ~out
    out_of_range = keep & np.isnan(r_cal)  # predictions or their sums overflow
    keep &= ~out_of_range
    for k in np.flatnonzero(out_of_range).tolist():
        errors[k] = range_error("out-of-sample predictions or their centred sums")
    return r_cal, rest_cal, keep, out & ~failed, errors


def classical_phase(X, y, invalid=None) -> Classical:
    """The classical half of the test for every row of ``X`` against ``y``
    (shapes as in :func:`dcal_matrix`).  A row that ``DataPair`` would
    reject, or whose centred sums leave the float64 range, carries that
    error; non-finite values raise ``ValueError`` for the whole call.
    ``invalid`` is ``pair_errors(X, y)`` when the caller has it."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape not in (X.shape[1:], X.shape):
        raise ValueError("X must be (m, n) with y of length n or of the shape of X")
    r, rest, errors = classical_rows(X, y, pair_errors(X, y) if invalid is None else invalid)
    return Classical(X, y, r, t_pvalues(r, rest, X.shape[1] - 2), tuple(errors))


def calibration_phase(
    classical: Classical, scheme: OosScheme, seeds, alpha: float = 0.05, fast: bool = False
) -> DcalBatch:
    """The calibrated half of the test on the rows of ``classical``, with
    ``seeds`` as in :func:`dcal_matrix`: the fast guard, the out-of-sample
    step in chunks of the rows that run it and one t tail for them all."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    X, y, r, p, errors = classical
    m, n = X.shape
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.shape != (m,):
        raise ValueError(f"need one seed per row, got {seeds.shape} for {m} rows")

    errors = list(errors)
    tested = ~np.isnan(r)  # r is NaN exactly on the rows in error
    skipped = tested & ~(p < alpha) if fast else np.zeros(m, dtype=bool)
    # the out-of-sample step, in chunks of the rows that run it
    run = np.flatnonzero(tested & ~skipped)
    r_cal, rest_cal = np.zeros(m), np.zeros(m)
    keep, flipped = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    step = _chunk_rows(scheme, n)
    work = _Work()
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, run.size, step):
            part = run[start : start + step]
            at = slice(None) if part.size == m else part  # every row: a view, not a copy
            r_cal[part], rest_cal[part], keep[part], flipped[part], part_errors = _calibrate(
                X[at], _rows(y, at), scheme, seeds[at], r[at], work
            )
            for k, error in part_errors.items():
                errors[part[k]] = error
    # one t tail for every calibrated pair; k-fold stacks repeats * n predictions
    p_dcal = np.where(keep, 0.0, 0.5)
    p_dcal[keep] = t_pvalues(
        r_cal[keep], rest_cal[keep], (scheme.repeats if scheme.kind == "kfold" else 1) * n - 2
    )
    r_dcal = np.where(keep, r_cal, 0.0)

    # a row in error was neither skipped nor flipped; its numbers are NaN
    failed = [k for k, error in enumerate(errors) if error is not None]
    r, p = r.copy(), p.copy()
    if failed:
        r[failed] = p[failed] = r_dcal[failed] = p_dcal[failed] = np.nan
    return DcalBatch(r, p, r_dcal, p_dcal, flipped, skipped, tuple(errors))


def dcal_matrix(
    X, y, scheme: OosScheme, seeds, alpha: float = 0.05, fast: bool = False
) -> DcalBatch:
    """Run the calibrated correlation test for every row of ``X`` against ``y``.

    ``X`` is (m, n); ``y`` is one target (n,) shared by every row, or one
    target per row (m, n).  ``seeds`` gives each row's resampling seed (m
    values in [0, 2**64), ignored by ``loo``); row ``j`` gets exactly the
    result of ``dcal_test(DataPair(X[j], y_j), alpha, fast,
    scheme.reseeded(seeds[j]))``, ``y_j`` being its target, including its
    sentinel and skip flags.  A row that test would raise a
    :class:`~dcal.errors.DcalError` for carries that error in ``errors``
    instead, out-of-sample predictions out of the float64 range included.
    Only arguments it cannot read raise ``ValueError`` for the whole call:
    shapes, non-finite input, alpha, seeds, or more folds than samples.
    This is :func:`calibration_phase` of :func:`classical_phase`.
    """
    return calibration_phase(classical_phase(X, y), scheme, seeds, alpha, fast)


def dcal_test(
    pair: DataPair,
    alpha: float = 0.05,
    fast: bool = False,
    scheme: OosScheme = OosScheme.loo(),
) -> DcalResult:
    """Run the calibrated correlation test on one pair.

    Computes the classical (r, p) first.  Unless ``fast`` is set and the
    classical test is already non-significant at ``alpha``, both mutual
    out-of-sample prediction vectors are computed and correlated; a
    calibrated sign that is zero or contradicts the classical sign resets the
    calibrated result to the (0.0, 0.5) sentinel with the flip flag set.

    A degenerate out-of-sample step (a leave-one-out or bootstrap training
    subset without predictor spread, or prediction vectors with no variance)
    means the relationship has no generalizable support; it is reported as a
    sign flip rather than an error.  This is :func:`dcal_matrix` on one row.
    """
    batch = dcal_matrix(pair.x[None, :], pair.y, scheme, [scheme.seed], alpha, fast)
    raise_first(batch.errors)
    return DcalResult(
        r=float(batch.r[0]),
        p=float(batch.p[0]),
        r_dcal=float(batch.r_dcal[0]),
        p_dcal=float(batch.p_dcal[0]),
        sign_flip_triggered=bool(batch.sign_flip[0]),
        skipped_by_fast_flag=bool(batch.skipped[0]),
        scheme=scheme,
    )


def dcal_in_sample_check(pair: DataPair) -> float:
    """Correlation of the full-sample (non-OOS) mutual predictions.

    Both in-sample prediction maps are affine with slopes sharing the sign of
    r, so this must reproduce the classical r exactly; it is the algebraic
    sanity anchor showing that out-of-sample prediction, not prediction per
    se, is what changes the test.
    """
    classical = pearson(pair)
    if classical.r == 0.0:
        raise UndefinedSignError("correlation is exactly zero; prediction sign undefined")
    fit_y = ols_fit(pair.x, pair.y)
    fit_x = ols_fit(pair.y, pair.x)
    calibrated = pearson(DataPair(fit_x.predict(pair.y), fit_y.predict(pair.x)))
    return calibrated.r
