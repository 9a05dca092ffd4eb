"""Special functions backing the exact t-test: regularized incomplete beta.

The continued fraction is evaluated with the modified Lentz scheme.  It must
converge to 1e-14 within 300 iterations; exceeding the cap raises
:class:`~dcal.errors.ConvergenceError` rather than returning a half-converged
value.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError

_EPS = 1e-14
_MAX_ITER = 300
_FPMIN = 1e-300


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


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0, x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if x < 0.0 or x > 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fastest below the distribution mode
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: int) -> float:
    """CDF of Student's t distribution with ``df`` degrees of freedom.

    Raises ``ValueError`` for ``df < 1`` or non-numeric ``t``.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isnan(t):
        raise ValueError("t must be a number")
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, x)
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
