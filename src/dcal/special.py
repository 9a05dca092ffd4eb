"""Special functions backing the exact t-test: regularized incomplete beta.

The continued fraction is evaluated with the modified Lentz scheme.  It must
converge to 1e-14 within 300 iterations; exceeding the cap raises
:class:`~dcal.errors.ConvergenceError` rather than returning a half-converged
value.

:func:`student_t_sf_two_sided_rows` is the two-sided t tail of many
statistics at once, one df per entry.  Its continued fraction runs over an
array (Lentz 1976; Numerical Recipes ``betacf``) with the scalar code's
operations in the scalar code's order, and each entry takes the value of
the iteration at which its scalar twin stops, so every entry gets the
scalar function's bits.  The prefactor
``exp(_ln_beta(a, b) + a log x + b log1p(-x))`` stays a per-entry
``math`` expression: ``np.log``, ``np.log1p`` and ``np.exp`` differ from
the C library in the last bit for some inputs, which would move report
bytes.  Calls with fewer than ``ARRAY_MIN_ROWS`` entries take the
scalar path, whose cost is per entry where the array loop's is per call.

Accuracy of the t tail, against 40-digit I_x(df/2, 1/2) at the exact
x = df/(df + t**2) of the given t**2, for df from 1 to 20,000: a tail at
or below 1/2, as at every t**2 >= 1, has relative error below 5e-14 * df.
The largest errors measured were 3.6e-15 at df 1, 3.7e-13 at df 95,
7.9e-12 at df 832 and 3.5e-10 at df 16,932, near t**2 = 3, where the tail
is 1 - I_{1-x}(1/2, df/2) and the rounding of ``lgamma`` is amplified
about tenfold.  A tail below the normal float range is only within
``sys.float_info.min`` of exact.  Near a tail of 1, x itself loses t**2
to rounding: at df 98 and t**2 = 5.6e-15 the relative error is 6e-8, at
df 19,998 and t**2 = 1.8e-12 it is 1e-6.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

_EPS = 1e-14
_MAX_ITER = 300
_FPMIN = 1e-300

# Calls with fewer entries than this evaluate entry by entry.  On a 2-core
# Xeon at df 48 and 98 the scalar tail took 6-13 us per entry and the array
# tail 0.4-0.6 ms per call at one entry; they broke even near 80 entries,
# and at 96 the array tail took 0.7-0.8 of the scalar time.
ARRAY_MIN_ROWS = 96

# Iterations of the array continued fraction between convergence checks: an
# entry that converges early rides along for the rest of its block.
_BLOCK = 8

# From this larger shape parameter up, _ln_beta takes Stirling's series and
# _shifted sums above the mode; every t tail of fewer than 20,000 samples
# stays below it, and keeps its bits.
_STIRLING_MIN = 1e4


def _ln_beta(a: float, b: float) -> float:
    """lgamma(a + b) - lgamma(a) - lgamma(b).  From ``_STIRLING_MIN`` up,
    lgamma(s + t) - lgamma(t), s the smaller shape and t the larger, which
    lost about log2(t) bits to cancellation, is Stirling's series with its
    leading terms cancelled: (t - 1/2) log1p(s/t) + s log(s + t) - s plus
    the difference of the 1/(12 z) corrections (the next term's is below
    3e-15)."""
    s, t = (a, b) if a <= b else (b, a)
    if t < _STIRLING_MIN:
        return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    u = t + s
    correction = (1.0 / u - 1.0 / t) / 12.0
    return (t - 0.5) * math.log1p(s / t) + s * math.log(u) - s + correction - math.lgamma(s)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge in {_MAX_ITER} "
        f"iterations (a={a}, b={b}, x={x})"
    )


def _shifted(a: float, b: float, x: float, front: float) -> float | None:
    """I_x(a, b) above the mode for a < ``_STIRLING_MIN`` <= b, where
    1 - I_{1-x}(b, a) loses about log2(b/a) bits; None for other shapes or
    more than ``_MAX_ITER`` shifts.  With t_n = (a+b)_n x^n / (a+1)_n and k
    the first shift that puts x below the mode of (a + k, b), it is the
    positive sum front / a * (t_0 + ... + t_{k-1} + t_k CF(a + k, b, x))."""
    k = math.floor((x * (a + b + 2.0) - a - 1.0) / (1.0 - x)) + 1
    if not a < _STIRLING_MIN <= b or k > _MAX_ITER:
        return None
    term, total = front / a, 0.0
    for n in range(k):
        total += term
        term *= (a + b + n) * x / (a + 1.0 + n)
    # front's relative error, below 1e-11 at these shapes, can carry a
    # value within that of 1 past it
    return min(1.0, total + term * _beta_continued_fraction(a + k, b, x))


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0, x in [0, 1].

    A value outside [0, 1] raises :class:`~dcal.errors.ConvergenceError`
    naming the input; it takes both shape parameters large, about 1e14 or
    more, where lgamma of the smaller one and ``a log x`` cancel.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if x < 0.0 or x > 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = _ln_beta(a, b) + a * math.log(x) + b * math.log1p(-x)
    try:
        front = math.exp(ln_front)
    except OverflowError:
        front = math.inf
    # the continued fraction converges fastest below the distribution mode
    if x < (a + 1.0) / (a + b + 2.0):
        value = front * _beta_continued_fraction(a, b, x) / a
    elif (value := _shifted(a, b, x, front)) is None:
        value = 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b
    if not 0.0 <= value <= 1.0:
        raise ConvergenceError(
            f"incomplete beta left [0, 1] (a={a}, b={b}, x={x}): got {value}"
        )
    return value


def student_t_cdf(t: float, df: int) -> float:
    """CDF of Student's t distribution with ``df`` degrees of freedom, from
    half the :func:`student_t_sf_two_sided` tail at t**2.

    Raises ``ValueError`` for ``df < 1`` or non-numeric ``t``.
    """
    if not df < 1 and math.isnan(t):  # a df below 1 is reported first, by the tail
        raise ValueError("t must be a number")
    tail = 0.5 * student_t_sf_two_sided(t * t, df)
    return 1.0 - tail if t > 0 else tail


def student_t_sf_two_sided(t_abs_squared: float, df: int) -> float:
    """Two-sided tail probability 2*(1 - CDF(|t|)) given t**2.

    Computed directly as I_{df/(df+t^2)}(df/2, 1/2), which avoids the
    1 - CDF cancellation for large statistics.  Raises ``ValueError`` for
    ``df < 1`` and for a negative or NaN ``t_abs_squared``.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isnan(t_abs_squared):
        raise ValueError("t squared must be a number")
    if t_abs_squared < 0.0:
        raise ValueError("t squared cannot be negative")
    if math.isinf(t_abs_squared):
        return 0.0
    return regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t_abs_squared))


def _continued_fraction_rows(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`_beta_continued_fraction` of every entry, NaN where not settled.

    The loop leaves out the scalar code's clamps.  A clamp fires only when
    ``1 + q`` is exactly 0 (for q within a factor of 2 of -1 the sum is
    exact and a multiple of 2**-53; otherwise it exceeds 1/2 in size), and
    without it that 0 turns h into 0, an infinity or NaN for good.  So an
    entry whose stored value is finite and nonzero matches the scalar code,
    and any other entry (a clamp, no convergence in ``_MAX_ITER``
    iterations) comes back NaN for the caller to recompute.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d[np.abs(d) < _FPMIN] = _FPMIN
    d = 1.0 / d
    h = d
    out = np.full(x.shape, np.nan)
    live = np.arange(x.size)
    for start in range(1, _MAX_ITER + 1, _BLOCK):
        m = np.arange(start, min(start + _BLOCK, _MAX_ITER + 1), dtype=np.float64)[:, None]
        m2 = 2.0 * m
        am2 = a + m2
        even = m * (b - m) * x / ((qam + m2) * am2)
        odd = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        deltas = np.empty(even.shape)
        hs = np.empty(even.shape)
        for j in range(m.shape[0]):
            d = 1.0 / (1.0 + even[j] * d)
            c = 1.0 + even[j] / c
            h = h * (d * c)
            d = 1.0 / (1.0 + odd[j] * d)
            c = 1.0 + odd[j] / c
            h = np.multiply(h, np.multiply(d, c, out=deltas[j]), out=hs[j])
        converged = np.abs(deltas - 1.0) < _EPS
        ended = converged.any(axis=0)
        if ended.any():
            k = np.flatnonzero(ended)
            out[live[k]] = hs[converged.argmax(axis=0)[k], k]
            keep = ~ended
            if not keep.any():
                break
            live = live[keep]
            a, b, x, qab, qap, qam, c, d, h = (
                v[keep] for v in (a, b, x, qab, qap, qam, c, d, h)
            )
    out[~np.isfinite(out) | (out == 0.0)] = np.nan
    return out


def student_t_sf_two_sided_rows(t_abs_squared, df) -> np.ndarray:
    """:func:`student_t_sf_two_sided` of every entry of ``t_abs_squared``.

    ``df`` is one value for all entries or one per entry.  Each entry gets
    the bits of the scalar function, and inputs for which calling it entry
    by entry raises ``ValueError`` or
    :class:`~dcal.errors.ConvergenceError` raise the same error.
    """
    t2 = np.asarray(t_abs_squared, dtype=np.float64)
    df = np.asarray(df)
    if t2.size < ARRAY_MIN_ROWS or not ((df >= 1).all() and (t2 >= 0.0).all()):
        # entry by entry, which also raises each input's error in entry order
        dfs = df.tolist() if df.ndim else [df.item()] * t2.size
        return np.array(
            [student_t_sf_two_sided(t, k) for t, k in zip(t2.tolist(), dfs)], dtype=np.float64
        )
    df = np.broadcast_to(df, t2.shape)
    a = 0.5 * df
    x = df / (df + t2)  # 0 for an infinite statistic, whose tail is 0
    out = np.where(x == 1.0, 1.0, 0.0)
    rows = np.flatnonzero((0.0 < x) & (x < 1.0))
    if not rows.size:
        return out
    a, x = a[rows], x[rows]
    b = 0.5
    # the continued fraction converges fastest below the distribution mode
    low = x < (a + 1.0) / (a + b + 2.0)
    with np.errstate(all="ignore"):  # entries that leave the range are redone
        cf = _continued_fraction_rows(
            np.where(low, a, b), np.where(low, b, a), np.where(low, x, 1.0 - x)
        )
    front = []
    ln_beta: dict[float, float] = {}  # per df
    for ak, xk in zip(a.tolist(), x.tolist()):
        if ak not in ln_beta:
            ln_beta[ak] = _ln_beta(ak, b)
        front.append(math.exp(ln_beta[ak] + ak * math.log(xk) + b * math.log1p(-xk)))
    front = np.array(front)
    value = np.where(low, front * cf / a, 1.0 - front * cf / b)
    out[rows] = value
    # entries not settled (NaN) or outside [0, 1] take the scalar path,
    # which raises where the scalar function does
    for k in rows[~((0.0 <= value) & (value <= 1.0))].tolist():
        out[k] = student_t_sf_two_sided(float(t2[k]), df[k].item())
    return out
