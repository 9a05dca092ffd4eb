"""Frozen per-pair references of the calibrated test and of the outlier
suite's generator and detector, kept as test oracles.

The first part is the per-pair implementation that the batched engine
replaced: one ``ols_fit`` refit per k-fold training set, gathered bootstrap
samples per replicate, and one Pearson evaluation per pair.  It is copied
unchanged except that it calls the library's ``ols_fit``, ``DataPair`` and t
tail, and that names are made module-local.  Tests compare ``dcal_matrix``
with it row by row.

The second part is the per-pair contaminated-pair generator (one ``Stream``
per pair, with its Box-Muller normals) and the projection outlier detector
that reads medians with ``np.median`` over a (n, directions) matrix, as they
were before the outlier suite was batched by cell.  Tests compare
``contaminated_rows``, ``detect_bivariate_outliers`` and
``skipped_correlation`` with them bit for bit.

The third part is the per-column battery generator (one ``Stream`` per
column) and the correlation Bayes factor by adaptive trapezoid integration,
as they were before the battery was drawn in one block of stream words and
the Bayes factor was summed as a series.  Tests compare ``_battery_columns``
with the first bit for bit and ``bf_rows`` with the second at rtol 1e-6,
the trapezoid's own stopping rule.

The fourth part is the batched bootstrap as it was before its kernel kept
one float count array: the SplitMix64 draw of every replicate's indices
(with its own copy of the word mixer), the block kernel with its separate
integer counts, in-bag mask and out-of-bag float copy, the degeneracy flags
from two full compares, and the coverage retries.  Tests compare the
engine's bootstrap with it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from dcal import core
from dcal.core import CorrelationResult, DataPair, _as_sample, ols_fit
from dcal.engine import X_FROM_Y, Y_FROM_X, DcalResult, OosScheme
from dcal.errors import (
    ConvergenceError,
    DegenerateGeometryError,
    DegenerateVarianceError,
    InsufficientDataError,
    ResampleCoverageError,
)
from dcal.rng import Stream, derive, derive_array
from dcal.special import student_t_sf_two_sided

_LEVERAGE_GUARD = 1e-10
_W_IN = 0.368
_W_OOB = 0.632
_MAX_COVERAGE_RETRIES = 10


def pearson(pair: DataPair) -> CorrelationResult:
    """Pearson correlation with the exact two-sided t-test p-value.

    The p-value is the Student-t tail probability of
    t = r * sqrt((n - 2) / (1 - r^2)) at n - 2 degrees of freedom, evaluated
    through the incomplete beta identity so that near-perfect correlations do
    not lose precision to cancellation.
    """
    x = pair.x
    y = pair.y
    n = pair.n
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.dot(xc, xc))
    syy = float(np.dot(yc, yc))
    sxy = float(np.dot(xc, yc))
    denom2 = sxx * syy
    r = max(-1.0, min(1.0, sxy / math.sqrt(denom2)))
    df = n - 2
    # 1 - r^2 computed from the sums directly; exact 0 for collinear input
    one_minus_r2 = max(0.0, (denom2 - sxy * sxy) / denom2)
    if one_minus_r2 == 0.0:
        p = 0.0
    else:
        t_squared = r * r * df / one_minus_r2
        p = min(1.0, student_t_sf_two_sided(t_squared, df))
    return CorrelationResult(r=r, p=p, n=n, df=df)


def loo_predictions(predictor, response) -> np.ndarray:
    """Leave-one-out predictions of ``response`` at each ``predictor`` value.

    Uses the hat-matrix shortcut yhat_i = y_i - e_i / (1 - h_ii), which is the
    full n-refit answer in O(n) total.  A leverage of (numerically) 1 means
    the remaining points have no predictor spread, i.e. the leave-one-out fit
    itself would be degenerate, and raises accordingly.
    """
    x = _as_sample(predictor, "predictor")
    if x.shape[0] < 4:
        raise InsufficientDataError(f"need at least 4 points for LOO, got {x.shape[0]}")
    fit = ols_fit(x, response)
    margin = 1.0 - fit.leverages
    if np.any(margin <= _LEVERAGE_GUARD):
        bad = int(np.argmin(margin))
        raise DegenerateVarianceError(
            f"leave-one-out subset excluding index {bad} has zero predictor variance"
        )
    return np.asarray(response, dtype=np.float64) - fit.residuals / margin


def _kfold_predictions(predictor: np.ndarray, response: np.ndarray, scheme: OosScheme) -> np.ndarray:
    n = predictor.shape[0]
    if scheme.folds > n:
        raise ValueError(f"folds={scheme.folds} exceeds sample size {n}")
    largest_fold = -(-n // scheme.folds)
    if n - largest_fold < 3:
        raise InsufficientDataError(
            f"k-fold training sets would have {n - largest_fold} points; need >= 3"
        )
    sizes = [n // scheme.folds + (1 if i < n % scheme.folds else 0) for i in range(scheme.folds)]
    blocks = np.empty((scheme.repeats, n))
    for rep in range(scheme.repeats):
        # the partition depends only on (seed, repeat): both prediction
        # directions of one test see the same folds
        order = Stream(derive(scheme.seed, rep)).permutation(n)
        preds = blocks[rep]
        start = 0
        for size in sizes:
            fold = order[start : start + size]
            start += size
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            fit = ols_fit(predictor[mask], response[mask])
            preds[fold] = fit.predict(predictor[fold])
    return blocks.reshape(-1)


def _boot632_predictions(predictor: np.ndarray, response: np.ndarray, scheme: OosScheme) -> np.ndarray:
    n = predictor.shape[0]
    draws = [Stream(derive(scheme.seed, b)).integers(n, n) for b in range(scheme.replicates)]
    idx = np.vstack(draws)

    oob_sum = np.zeros(n)
    oob_count = np.zeros(n, dtype=np.int64)

    def accumulate(index_rows: np.ndarray) -> None:
        xs = predictor[index_rows]
        ys = response[index_rows]
        mx = xs.mean(axis=1, keepdims=True)
        my = ys.mean(axis=1, keepdims=True)
        sxx = ((xs - mx) ** 2).sum(axis=1)
        if np.any(sxx == 0.0):
            raise DegenerateVarianceError("bootstrap training sample has zero predictor variance")
        slope = ((xs - mx) * (ys - my)).sum(axis=1) / sxx
        intercept = my[:, 0] - slope * mx[:, 0]
        rows = index_rows.shape[0]
        flat = index_rows + (np.arange(rows) * n)[:, None]
        in_bag = np.bincount(flat.ravel(), minlength=rows * n).reshape(rows, n) > 0
        preds = intercept[:, None] + slope[:, None] * predictor[None, :]
        np.add(oob_sum, np.where(~in_bag, preds, 0.0).sum(axis=0), out=oob_sum)
        np.add(oob_count, (~in_bag).sum(axis=0), out=oob_count)

    accumulate(idx)
    extra = 0
    while np.any(oob_count == 0) and extra < _MAX_COVERAGE_RETRIES:
        more = Stream(derive(scheme.seed, scheme.replicates + extra)).integers(n, n)
        accumulate(more[None, :])
        extra += 1
    if np.any(oob_count == 0):
        missing = int(np.flatnonzero(oob_count == 0)[0])
        raise ResampleCoverageError(
            f"sample {missing} was never out-of-bag in "
            f"{scheme.replicates + extra} bootstrap replicates"
        )

    full = ols_fit(predictor, response)
    return _W_IN * full.predict(predictor) + _W_OOB * (oob_sum / oob_count)


def oos_predict(pair: DataPair, direction: str, scheme: OosScheme) -> np.ndarray:
    """Out-of-sample predictions in the requested direction.

    ``loo`` and ``boot632`` return one value per sample.  ``kfold`` returns
    ``repeats`` stacked blocks of per-sample values (repeat-major, original
    sample order); averaging the blocks would wash out the repeat-to-repeat
    spread that the calibrated test is supposed to see.  Deterministic given
    ``(pair, direction, scheme)``; resampling consumes only streams derived
    from ``scheme.seed``.
    """
    if direction == Y_FROM_X:
        predictor, response = pair.x, pair.y
    elif direction == X_FROM_Y:
        predictor, response = pair.y, pair.x
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if scheme.kind == "loo":
        return loo_predictions(predictor, response)
    if scheme.kind == "kfold":
        return _kfold_predictions(predictor, response, scheme)
    return _boot632_predictions(predictor, response, scheme)


def _sign(v: float) -> int:
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


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
    sign flip rather than an error.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    classical = pearson(pair)
    r_dcal, p_dcal = 0.0, 0.5
    flipped = False
    skipped = bool(fast and not (classical.p < alpha))
    if not skipped:
        try:
            y_hat = oos_predict(pair, Y_FROM_X, scheme)
            x_hat = oos_predict(pair, X_FROM_Y, scheme)
            calibrated = pearson(DataPair(x_hat, y_hat))
        except DegenerateVarianceError:
            flipped = True
        else:
            if calibrated.r == 0.0 or _sign(calibrated.r) != _sign(classical.r):
                flipped = True
            else:
                r_dcal, p_dcal = calibrated.r, calibrated.p
    return DcalResult(
        r=classical.r,
        p=classical.p,
        r_dcal=r_dcal,
        p_dcal=p_dcal,
        sign_flip_triggered=flipped,
        skipped_by_fast_flag=skipped,
        scheme=scheme,
    )


def _normals(stream: Stream, count: int) -> np.ndarray:
    """``count`` standard normal draws via Box-Muller pairs."""
    pairs = (count + 1) // 2
    r = stream.raw(2 * pairs)
    u1 = ((r[0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0 ** -53
    u2 = (r[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def gen_contaminated(n: int, rho: float, kind, fraction: float, seed: int) -> DataPair:
    """Pair with floor(fraction * n) samples replaced by the outlier model.

    With fraction = 0 this is bit-identical to :func:`gen_pair`.  The clean
    draws always come first in the stream, so changing only the fraction
    keeps the underlying clean sample fixed.
    """
    if not 0.0 <= fraction <= 0.5:
        raise ValueError(f"fraction must lie in [0, 0.5], got {fraction}")
    stream = Stream(seed)
    x = _normals(stream, n)
    noise = _normals(stream, n)
    y = rho * x + math.sqrt(1.0 - rho * rho) * noise
    count = int(fraction * n)
    if fraction > 0.0 and count < 1:
        raise ValueError(f"fraction {fraction} selects no samples at n={n}")
    if count:
        idx = stream.permutation(n)[:count]
        if kind.kind == "high_variance":
            g1 = _normals(stream, count)
            g2 = _normals(stream, count)
            x[idx] = kind.sd_outlier * g1
            y[idx] = kind.sd_outlier * (rho * g1 + math.sqrt(1.0 - rho * rho) * g2)
        elif kind.kind == "univariate":
            x[idx] += kind.magnitude
        else:
            x[idx] += kind.magnitude
            y[idx] += kind.magnitude
    return DataPair(x, y)


DEFAULT_CUTOFF = 2.2414027276049473
_MAD_TO_SIGMA = 0.6744897501960817
_IQR_TO_SIGMA = 1.3489795003921634
_MIN_SAMPLES = 10


def detect_bivariate_outliers(pair: DataPair, cutoff: float = DEFAULT_CUTOFF) -> np.ndarray:
    """Indices of bivariate outliers found by the projection sweep.

    Needs at least 10 points; with fewer, median/MAD estimates of the
    projections are too unstable to trust.
    """
    n = pair.n
    if n < _MIN_SAMPLES:
        raise InsufficientDataError(
            f"projection outlier detection needs >= {_MIN_SAMPLES} points, got {n}"
        )
    points = np.column_stack([pair.x, pair.y])
    centered = points - np.median(points, axis=0)

    norms = np.hypot(centered[:, 0], centered[:, 1])
    anchors = norms > 0.0  # a point sitting on the center spans no direction
    if not np.any(anchors):
        raise DegenerateGeometryError("all points coincide with the median center")
    directions = centered[anchors] / norms[anchors, None]

    projections = centered @ directions.T  # (n, n_directions)
    medians = np.median(projections, axis=0)
    mad = np.median(np.abs(projections - medians), axis=0)
    scales = mad / _MAD_TO_SIGMA
    flat = scales == 0.0
    if np.any(flat):
        q75, q25 = np.percentile(projections[:, flat], [75, 25], axis=0)
        scales[flat] = (q75 - q25) / _IQR_TO_SIGMA
        if np.any(scales == 0.0):
            raise DegenerateGeometryError(
                "a projection direction has zero MAD and zero interquartile spread"
            )
    flagged = np.any(projections > medians + cutoff * scales, axis=1)
    return np.flatnonzero(flagged)


def skipped_correlation(pair: DataPair, cutoff: float = DEFAULT_CUTOFF) -> tuple:
    """(r, p, n_used, outlier_indices) of Pearson on the points that survive
    outlier removal."""
    flagged = detect_bivariate_outliers(pair, cutoff=cutoff)
    keep = np.ones(pair.n, dtype=bool)
    keep[flagged] = False
    n_used = int(keep.sum())
    if n_used < 4:
        raise InsufficientDataError(
            f"only {n_used} points remain after outlier removal; need >= 4"
        )
    # the library's Pearson kernel, as the skipped correlation called it
    retained = core.pearson(DataPair(pair.x[keep], pair.y[keep]))
    return retained.r, retained.p, n_used, tuple(int(i) for i in flagged)


def battery_columns(base: int, n: int, m_true: int, m_null: int, rho: float) -> tuple:
    """One repetition's battery (X, y): the first m_true rows correlate with y at rho."""
    y = _normals(Stream(derive(base, 0)), n)
    X = np.empty((m_true + m_null, n))
    mix = math.sqrt(1.0 - rho * rho)
    for j in range(m_true + m_null):
        g = _normals(Stream(derive(base, j + 1)), n)
        X[j] = rho * y + mix * g if j < m_true else g
    return X, y


_BF_REL_TOL = 1e-6
_BF_START_INTERVALS = 128
_BF_MAX_INTERVALS = 2 ** 21
_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)


def _log_bf_trapezoid(r: float, n: int, intervals: int) -> float:
    """log of the uniform-prior integral of the correlation sampling kernel.

    The kernel in rho is (1 - rho^2)^((n-1)/2) * (1 - rho r)^-(n - 3/2); the
    factor depending on r alone cancels against the rho = 0 denominator, so
    the Bayes factor is half the integral of the kernel over (-1, 1).
    Evaluated in log space so large n cannot overflow midway.
    """
    rho = np.linspace(-1.0, 1.0, intervals + 1)
    inner = rho[1:-1]
    log_kernel = np.empty(intervals + 1)
    log_kernel[0] = -np.inf  # (1 - rho^2) term vanishes at both endpoints
    log_kernel[-1] = -np.inf
    log_kernel[1:-1] = 0.5 * (n - 1) * np.log1p(-inner * inner) - (n - 1.5) * np.log1p(
        -inner * r
    )
    peak = float(np.max(log_kernel))
    weights = np.ones(intervals + 1)
    weights[0] = weights[-1] = 0.5
    h = 2.0 / intervals
    total = float(np.dot(weights, np.exp(log_kernel - peak))) * h
    return math.log(0.5) + peak + math.log(total)


def trapezoid_bf(r: float, n: int) -> float:
    """Bayes factor BF10 at sample correlation r, uniform prior on rho, with
    trapezoid refinement until log BF is stable to 1e-6.  Perfect
    correlation returns +inf."""
    if abs(r) >= 1.0:
        return math.inf
    intervals = _BF_START_INTERVALS
    log_bf = _log_bf_trapezoid(r, n, intervals)
    while intervals < _BF_MAX_INTERVALS:
        intervals *= 2
        refined = _log_bf_trapezoid(r, n, intervals)
        done = abs(refined - log_bf) < _BF_REL_TOL
        log_bf = refined
        if done:
            if log_bf > _LOG_DBL_MAX:
                return math.inf
            return math.exp(log_bf)
    raise ConvergenceError(
        f"Bayes factor integration did not stabilize within {_BF_MAX_INTERVALS} intervals"
    )


def correlation_bf(pair: DataPair) -> float:
    """Bayes factor BF10 of a pair at the library's Pearson r."""
    return trapezoid_bf(core.pearson(pair).r, pair.n)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix_words(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def bootstrap_draw(streams: np.ndarray, n: int) -> np.ndarray:
    """Each stream's n bootstrap sample indices, (rows, B, n)."""
    raw = _mix_words(streams[..., None] + np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN)
    return ((raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 * n).astype(np.int64)


def _gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    if a.ndim == 1:
        return a[idx]
    return np.take_along_axis(a.reshape((a.shape[0],) + (1,) * (idx.ndim - 2) + (-1,)), idx, -1)


def bootstrap_block(idx, X, U, y, v):
    """One block of bootstrap replicates, ``idx`` (rows, B, n) sample indices.

    Returns whether any replicate's x or y sample is one repeated value, the
    out-of-bag prediction sums of both directions and the out-of-bag counts.
    """
    rows, B, n = idx.shape
    flat = idx.reshape(rows * B, n) + (np.arange(rows * B) * n)[:, None]
    counts = np.bincount(flat.ravel(), minlength=rows * B * n).reshape(rows, B, n)
    in_bag = counts > 0
    first = idx[..., 0]  # always in the bag
    x_first = np.take_along_axis(X, first, axis=1)
    deg_x = ~np.any(in_bag & (X[:, None, :] != x_first[..., None]), axis=-1)
    deg_y = ~np.any(in_bag & (y[..., None, :] != _gather(y, first)[..., None]), axis=-1)

    weights = counts.astype(np.float64)
    mu = np.einsum("rbn,rn->rb", weights, U) / n
    mv = np.einsum("rbn,rn->rb" if v.ndim == 2 else "rbn,n->rb", weights, v) / n
    du = U[:, None, :] - mu[..., None]
    dv = v[..., None, :] - mv[..., None]
    weighted_du = weights * du
    sxy = np.einsum("rbn,rbn->rb", weighted_du, dv)
    slope_y = sxy / np.einsum("rbn,rbn->rb", weighted_du, du)
    slope_x = sxy / np.einsum("rbn,rbn,rbn->rb", weights, dv, dv)
    out_of_bag = ~in_bag
    coef = np.stack([mv - slope_y * mu, slope_y, mu - slope_x * mv, slope_x], axis=1)
    a_y, b_y, a_x, b_x = np.einsum("rkb,rbn->krn", coef, out_of_bag.astype(np.float64))
    return (
        deg_x.any(axis=-1),
        deg_y.any(axis=-1),
        a_y + b_y * U,
        a_x + b_x * v,
        out_of_bag.sum(axis=1),
    )


def boot632_rows(X, U, y, v, sums, scheme: OosScheme, seeds: np.ndarray):
    """Bootstrap .632 predictions of both directions for every row, with the
    degeneracy flags and the first never-out-of-bag sample (-1 if none)."""
    n = U.shape[1]
    B = scheme.replicates
    idx = bootstrap_draw(derive_array(seeds[:, None], np.arange(B)), n)
    deg_x, deg_y, oob_y, oob_x, oob_count = bootstrap_block(idx, X, U, y, v)
    for extra in range(_MAX_COVERAGE_RETRIES):
        short = np.flatnonzero((oob_count == 0).any(axis=1))
        if not short.size:
            break
        more = bootstrap_draw(derive_array(seeds[short, None], B + extra), n)
        dx, dy, sy, sx, cnt = bootstrap_block(
            more, X[short], U[short], y if y.ndim == 1 else y[short],
            v if v.ndim == 1 else v[short],
        )
        deg_x[short] |= dx
        deg_y[short] |= dy
        oob_y[short] += sy
        oob_x[short] += sx
        oob_count[short] += cnt
    uncovered = oob_count == 0
    missing = np.where(uncovered.any(axis=1), uncovered.argmax(axis=1), -1)

    suu, svv, suv = sums
    full_y = (suv / suu)[:, None] * U
    full_x = (suv / svv)[:, None] * v
    y_hat = _W_IN * full_y + _W_OOB * (oob_y / oob_count)
    x_hat = _W_IN * full_x + _W_OOB * (oob_x / oob_count)
    return y_hat, x_hat, deg_x, deg_y, missing
