"""Foundational numerics: Pearson correlation, simple OLS, and fast leave-one-out.

Pearson correlation and leave-one-out prediction each have one row-wise
kernel: every row of a matrix against a shared sample or against its own
row.  The single-pair functions are one-row calls of those kernels.
Pearson's, :func:`classical_rows`, centres in row blocks of ``_CENTRE_BYTES``
(defined here) per sample and has the one error rule; :func:`pearson_rows`,
``engine.classical_phase`` and skipped correlation call it too.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVarianceError, InsufficientDataError, NumericRangeError, raise_first
from .special import student_t_sf_two_sided_rows

__all__ = [
    "DataPair",
    "CorrelationResult",
    "OlsFit",
    "pearson",
    "pearson_rows",
    "pair_errors",
    "ols_fit",
    "loo_predictions",
]

# 1 - leverage below this is treated as an exactly degenerate leave-one-out
# subset (the remaining predictor values carry no usable spread)
LEVERAGE_GUARD = 1e-10

# Bytes of work space that one block of any blocked loop may take; each
# loop charges its unit of work by a figure next to its kernel.  The budget
# was the k-fold chunk of 16 rows at n = 50 with 10 repeats (about 1.3 MB).
# Larger chunks would cost peak memory for no time: at fig2's size a 100-row
# bootstrap call takes 28-32 ms with 7 to 20 rows per chunk (about 80 ms
# with one row), and a k-fold call 19-23 ms with 16 to 100.
CHUNK_BYTES = 16 * 500 * 163


def units_per_block(unit_bytes: int) -> int:
    """Units of work, charged ``unit_bytes`` each, in one block of a blocked
    loop: as many as fit ``CHUNK_BYTES`` (read at call time), at least one."""
    return max(1, CHUNK_BYTES // max(1, unit_bytes))


def _as_sample(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class DataPair:
    """Two equal-length real-valued samples under test.

    Construction enforces: length >= 4, all values finite, and strictly
    positive variance in both coordinates.  Degenerate (constant) columns are
    a hard error here so they can never silently contribute r = 0 to a
    battery's false-positive counts.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _as_sample(self.x, "x")
        y = _as_sample(self.y, "y")
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
        if x.shape[0] < 4:
            raise InsufficientDataError(f"need at least 4 samples, got {x.shape[0]}")
        # max == min, without np.ptp's wrapper: pairs are built once per test
        if np.maximum.reduce(x) == np.minimum.reduce(x):
            raise DegenerateVarianceError("x has zero variance")
        if np.maximum.reduce(y) == np.minimum.reduce(y):
            raise DegenerateVarianceError("y has zero variance")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def pair_errors(X: np.ndarray, y: np.ndarray) -> list:
    """The error ``DataPair(X[i], y)`` would raise for each row (None if valid).

    ``y`` is one shared sample (n,) or one sample per row (m, n).
    Non-finite values raise ``ValueError`` for the whole call, as there.
    """
    m, n = X.shape
    if n == 0:
        hi = lo = np.zeros(m)
    else:
        # NaN and inf show in these; ufunc reductions, as method calls cost
        # more than the work on one row
        hi, lo = np.maximum.reduce(X, axis=1), np.minimum.reduce(X, axis=1)
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise ValueError("x contains non-finite values")
    if not np.isfinite(y).all():
        raise ValueError("y contains non-finite values")
    if n < 4:
        return [InsufficientDataError(f"need at least 4 samples, got {n}") for _ in range(m)]
    constant_x = hi == lo
    constant_y = np.maximum.reduce(y, axis=-1) == np.minimum.reduce(y, axis=-1)
    if not (constant_y.any() or constant_x.any()):
        return [None] * m
    constant_y = np.broadcast_to(constant_y, (m,))
    return [
        DegenerateVarianceError("x has zero variance") if cx
        else DegenerateVarianceError("y has zero variance") if cy
        else None
        for cx, cy in zip(constant_x.tolist(), constant_y.tolist())
    ]


def range_error(what: str = "centred sums of squares or products") -> NumericRangeError:
    """The error of a pair whose ``what`` leave the float64 range."""
    return NumericRangeError(f"{what} leave the float64 range")


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p: float
    n: int
    df: int


@dataclass(frozen=True)
class OlsFit:
    """Simple-linear OLS fit with the per-sample hat-matrix diagonals."""

    intercept: float
    slope: float
    residuals: np.ndarray = field(repr=False)
    leverages: np.ndarray = field(repr=False)

    def predict(self, predictor) -> np.ndarray:
        return self.intercept + self.slope * np.asarray(predictor, dtype=np.float64)


def centred(values: np.ndarray) -> np.ndarray:
    """Values minus their mean along the last axis, in one pass (see :func:`centred_rows`)."""
    return values - np.add.reduce(values, axis=-1, keepdims=True) / values.shape[-1]


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # pairwise summation along each row: a row's result does not depend on
    # its place in the matrix (BLAS products can)
    return np.add.reduce(a * b, axis=-1)


def centred_sums(xc: np.ndarray, yc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise (sxx, syy, sxy) of mean-centred rows (either may be shared)."""
    return _dot_rows(xc, xc), _dot_rows(yc, yc), _dot_rows(xc, yc)


def centred_rows(X: np.ndarray, y: np.ndarray):
    """``X`` and ``y`` centred along the last axis, and their :func:`centred_sums`.

    The one centring of observed samples, so every surface gives a pair the
    same classical r and p.  After a large offset the mean is off by its
    rounding; a second pass removes that residue, as the leave-one-out
    identity needs rows of mean zero.  Returns ``(xc, yc, (sxx, syy, sxy))``.
    """
    xc, yc = centred(centred(X)), centred(centred(y))
    return xc, yc, centred_sums(xc, yc)


def correlation_from_sums(sxx, syy, sxy) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise r and 1 - r**2 from centred sums of squares and products.

    A row without spread, or whose sums are not finite, gives NaN for both.
    Where ``sxx * syy`` leaves the float64 range although both sums are
    finite and positive, the denominator is ``sqrt(sxx) * sqrt(syy)``; every
    other row uses ``sqrt(sxx * syy)``, the single-pair formula.
    """
    with np.errstate(all="ignore"):
        denom2 = sxx * syy
        r = np.minimum(np.maximum(sxy / np.sqrt(denom2), -1.0), 1.0)
        # 1 - r^2 computed from the sums directly; exact 0 for collinear input
        rest = np.maximum(0.0, (denom2 - sxy * sxy) / denom2)
        fits = (0.0 < denom2) & (denom2 < math.inf)
        if not fits.all():
            r, rest = np.where(fits, r, np.nan), np.where(fits, rest, np.nan)
            rescue = ~fits & (0.0 < sxx) & (sxx < math.inf) & (0.0 < syy) & (syy < math.inf)
            if rescue.any():
                sx, sy, s = (np.broadcast_to(v, r.shape)[rescue] for v in (sxx, syy, sxy))
                r_far = np.minimum(np.maximum(s / (np.sqrt(sx) * np.sqrt(sy)), -1.0), 1.0)
                r[rescue] = r_far
                rest[rescue] = np.maximum(0.0, (1.0 - r_far) * (1.0 + r_far))
    return r, rest


# Work space of one row of a t-tail block: the traced peak of
# ``special.student_t_sf_two_sided_rows`` is about 562 bytes per entry from
# 2,000 to 20,000 entries (Python float lists for the prefactor and the
# continued fraction's arrays), and ``t_pvalues`` adds its own vectors.
_TAIL_BYTES = 590


def t_pvalues(r: np.ndarray, one_minus_r2: np.ndarray, df) -> np.ndarray:
    """Exact two-sided p of each correlation at ``df`` degrees of freedom.

    ``df`` is one value for all rows or one per row.  A NaN correlation (see
    :func:`correlation_from_sums`) gets a NaN p, and 1 - r**2 = 0 gives 0.
    The tail runs in row blocks of ``_TAIL_BYTES`` each; every entry takes
    its scalar twin's bits, so the blocks do not change a p.
    """
    p = one_minus_r2 * 0.0  # NaN stays NaN, the rest (never negative) 0
    tail = one_minus_r2 > 0.0
    rt = r[tail]
    per_row = isinstance(df, np.ndarray)
    if per_row:
        df = df[tail]
    # t**2 stays finite: a nonzero 1 - r**2 from the sums is at least 2**-106
    t2 = rt * rt * df / one_minus_r2[tail]
    step = units_per_block(_TAIL_BYTES)
    for start in range(0, t2.size, step):  # each block's tails replace its t**2
        at = slice(start, start + step)
        t2[at] = student_t_sf_two_sided_rows(t2[at], df[at] if per_row else df)
    p[tail] = np.minimum(1.0, t2)
    return p


# bytes per sample of a row whose centred sums :func:`classical_rows` forms
# in one block: the traced peak of centred_rows, 24 with a shared target and
# 32 with one per row (the centred rows, their first pass and the products)
_CENTRE_BYTES = 33


def classical_rows(X: np.ndarray, y: np.ndarray, errors) -> tuple[np.ndarray, np.ndarray, list]:
    """Pearson r and 1 - r**2 of every row of ``X`` (m, n) against ``y``, (n,)
    or (m, n), and each row's error: its pair error from ``errors`` (None
    for a valid pair), else :func:`range_error` where its centred sums leave
    the float64 range.  A row in error gets NaN for both numbers.  The rows
    are centred (:func:`centred_rows`) in blocks of ``_CENTRE_BYTES`` per
    sample, which keep only their sums."""
    m = X.shape[0]
    r, rest = np.empty(m), np.empty(m)
    step = units_per_block(_CENTRE_BYTES * X.shape[1])
    # sums that overflow are row errors (NaN r), not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m, step):
            at = slice(start, start + step)
            sums = centred_rows(X[at], y if y.ndim == 1 else y[at])[2]
            r[at], rest[at] = correlation_from_sums(*sums)
    errors = list(errors)
    for k in np.flatnonzero(np.isnan(r)).tolist():
        if errors[k] is None:
            errors[k] = range_error()
    if errors.count(None) < m:
        failed = [k for k, error in enumerate(errors) if error is not None]
        r[failed] = rest[failed] = np.nan
    return r, rest, errors


def pearson_rows(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Pearson r and exact two-sided p of every row of ``X`` against ``y``.

    ``X`` is (m, n); ``y`` is one shared sample (n,) or one sample per row
    (m, n).  The p-value is the Student-t tail probability of
    t = r * sqrt((n - 2) / (1 - r^2)) at n - 2 degrees of freedom, evaluated
    through the incomplete beta identity so that near-perfect correlations do
    not lose precision to cancellation.  Inputs are not validated; see
    :class:`DataPair` for the conditions the statistic needs.  A row whose
    centred sums leave the float64 range gets NaN for r and p.
    """
    X = np.asarray(X, dtype=np.float64)
    r, one_minus_r2, _ = classical_rows(X, np.asarray(y, dtype=np.float64), [None] * len(X))
    return r, t_pvalues(r, one_minus_r2, X.shape[-1] - 2)


def pearson(pair: DataPair) -> CorrelationResult:
    """Pearson correlation with the exact two-sided t-test p-value
    (:func:`classical_rows` on one row).

    Raises :class:`~dcal.errors.NumericRangeError` when the centred sums of
    squares of the pair leave the float64 range, e.g. for a value near
    +-1e308 among ordinary ones.
    """
    r, one_minus_r2, errors = classical_rows(pair.x[None, :], pair.y, [None])
    raise_first(errors)
    p = t_pvalues(r, one_minus_r2, pair.n - 2)
    return CorrelationResult(r=float(r[0]), p=float(p[0]), n=pair.n, df=pair.n - 2)


def ols_fit(predictor, response) -> OlsFit:
    """Least-squares line fit of ``response`` on ``predictor``.

    Requires at least 3 points and nonzero predictor variance.
    """
    x = _as_sample(predictor, "predictor")
    y = _as_sample(response, "response")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    if n < 3:
        raise InsufficientDataError(f"need at least 3 points for a line fit, got {n}")
    xbar = x.mean()
    xc = x - xbar
    sxx = float(np.dot(xc, xc))
    # a constant sample need not centre to zeros, and a tiny spread can square to 0
    if np.maximum.reduce(x) == np.minimum.reduce(x) or sxx == 0.0:
        raise DegenerateVarianceError("predictor has zero variance")
    ybar = y.mean()
    slope = float(np.dot(xc, y - ybar)) / sxx
    intercept = float(ybar) - slope * float(xbar)
    residuals = y - (intercept + slope * x)
    leverages = 1.0 / n + xc * xc / sxx
    residuals.flags.writeable = False
    leverages.flags.writeable = False
    return OlsFit(intercept=intercept, slope=slope, residuals=residuals, leverages=leverages)


def loo_residuals(xc: np.ndarray, yc: np.ndarray, sxx, sxy) -> tuple[np.ndarray, np.ndarray]:
    """Full-fit residuals and 1 - leverage for each row of mean-centred data.

    ``xc`` (predictor) and ``yc`` (response) are (m, n) rows or one shared
    (n,) sample, with their centred sums ``sxx`` and ``sxy``.  The
    leave-one-out prediction of each response value is
    ``response - residual / margin``.
    """
    n = xc.shape[-1]
    sxx = sxx[..., None]
    margin = 1.0 - (1.0 / n + xc * xc / sxx)
    return yc - (sxy[..., None] / sxx) * xc, margin


def loo_predictions(predictor, response) -> np.ndarray:
    """Leave-one-out predictions of ``response`` at each ``predictor`` value.

    Uses the hat-matrix shortcut yhat_i = y_i - e_i / (1 - h_ii), which is the
    full n-refit answer in O(n) total.  A leverage of (numerically) 1 means
    the remaining points have no predictor spread, i.e. the leave-one-out fit
    itself would be degenerate, and raises accordingly.  The predictions are
    formed on the centred scale and shifted back by the response mean, the
    arithmetic of the engine's leave-one-out kernel.
    """
    x = _as_sample(predictor, "predictor")
    if x.shape[0] < 4:
        raise InsufficientDataError(f"need at least 4 points for LOO, got {x.shape[0]}")
    y = _as_sample(response, "response")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    xc, yc, (sxx, _, sxy) = centred_rows(x, y)
    if sxx == 0.0:
        raise DegenerateVarianceError("predictor has zero variance")
    residuals, margin = loo_residuals(xc, yc, sxx, sxy)
    if np.any(margin <= LEVERAGE_GUARD):
        bad = int(np.argmin(margin))
        raise DegenerateVarianceError(
            f"leave-one-out subset excluding index {bad} has zero predictor variance"
        )
    return yc - residuals / margin + y.mean()
