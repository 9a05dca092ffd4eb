"""Posterior-style p-value calibrations and the Bayes-factor baseline.

These are the comparison methods: monotone transforms mapping a p-value to
an (approximate lower bound on the) posterior probability of the null, plus
a correlation Bayes factor.  Each returns a value in [0, 1] that is compared
against alpha the same way a p-value would be.

The Bayes factor BF10 integrates the approximate sampling density of r given
rho, (1 - rho^2)^((n-1)/2) (1 - rho r)^-(n - 3/2), against a uniform prior on
rho and divides by its value at rho = 0.  It has the closed form (Jeffreys
1961; Ly, Verhagen & Wagenmakers 2016, J. Math. Psych.)::

    BF10 = 1/2 B(1/2, a + 1) (1 - r^2)^((4 - n)/2) 2F1(7/4, 5/4; (n + 2)/2; r^2)

with a = (n - 1)/2; it is the Euler transform of the term-by-term integral
B(1/2, a + 1) 2F1((2n - 3)/4, (2n - 1)/4; a + 3/2; r^2).  :func:`bf_rows`
sums the series for a vector of r, each row until its next term no longer
changes the sum (the terms decrease for n >= 3), so each row gets the
float64 sum of its whole series whatever rows it is batched with.

The result agrees with an adaptive trapezoid of the integral (refined until
log BF moved by under 1e-6) to 4e-8 relative on random pairs and to 6e-7 at
n = 3 to 30 near |r| = 1, where that integrator stops converging once
1 - |r| falls below 1e-5 to 5e-5.  Near |r| = 1 the number of terms grows
like 1 / (1 - r^2) at small n (about 130,000 at n = 3 and 1 - |r| = 1e-4)
but stays small at larger n (40 terms at n = 50 and r = 0.9999999).  A row
still changing after 2^22 terms raises ConvergenceError: at n = 3 to 5 once
1 - |r| is below about 2e-6, at n = 6 below 6e-7 and at n = 7 below 6e-8.
|r| = 1, and a log BF beyond the float64 range, give inf.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DataPair, pearson, units_per_block
from .errors import ConvergenceError, raise_first

__all__ = [
    "pcal_sellke", "pcal_bickel", "pcal_sellke_rows", "pcal_bickel_rows", "bf_to_posterior",
    "bf_rows", "correlation_bf",
]

_INV_E = 1.0 / math.e

# Bayes-factor series: the term cap, and the bytes charged per term of a
# block, the largest traced per-term peak of its blocks (33-51 B)
_SERIES_MAX_TERMS = 2 ** 22
_TERM_BYTES = 51
_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)


def _check_p(p) -> np.ndarray:
    """``p`` as a float64 array; raises ValueError on its first entry
    outside [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    bad = ~((p >= 0.0) & (p <= 1.0))  # NaN too
    if bad.any():
        raise ValueError(f"p must lie in [0, 1], got {float(p[bad][0])}")
    return p


def _logs(p: np.ndarray) -> np.ndarray:
    """``math.log`` of each entry: ``np.log`` may differ in the last bit."""
    return np.fromiter(map(math.log, p.tolist()), dtype=np.float64, count=p.size)


def pcal_sellke_rows(p) -> np.ndarray:
    """:func:`pcal_sellke` of each entry of the array ``p``."""
    p = _check_p(p)
    out = np.where(p == 0.0, 0.0, 0.5)
    inside = (p > 0.0) & (p < _INV_E)
    q = p[inside]
    bound = -math.e * q * _logs(q)
    with np.errstate(over="ignore"):  # 1 / bound is inf below p ~ 3e-312, as in Python
        out[inside] = 1.0 / (1.0 + 1.0 / bound)
    return out


def pcal_sellke(p: float) -> float:
    """Sellke-style lower bound on the posterior probability of the null.

    For p < 1/e the bound is (1 + (-e p ln p)^-1)^-1; beyond 1/e the bound
    saturates at its maximum of 0.5.  p = 0 maps to the limit 0.
    """
    return float(pcal_sellke_rows(float(p)))


def pcal_bickel_rows(p) -> np.ndarray:
    """:func:`pcal_bickel` of each entry of the array ``p``."""
    p = _check_p(p)
    out = np.zeros(p.shape)
    inside = p > 0.0
    q = p[inside]
    a = np.abs(2.7 * q * _logs(q))
    out[inside] = np.minimum(1.0, np.maximum(0.0, (1.0 - a) * q + 2.0 * a))
    return out


def pcal_bickel(p: float) -> float:
    """Bickel-style calibration (1 - |2.7 p ln p|) p + 2 |2.7 p ln p|.

    The 2.7 constant is used literally, not as e.  The raw expression can
    exceed 1 for mid-range p, so the result is clamped to [0, 1].  p = 0 maps
    to the limit 0.
    """
    return float(pcal_bickel_rows(float(p)))


def bf_to_posterior(bf10: float, prior_h1: float = 0.5) -> float:
    """Posterior P(H1 | data) from a Bayes factor and a prior P(H1)."""
    if not 0.0 < prior_h1 < 1.0:
        raise ValueError(f"prior must lie strictly between 0 and 1, got {prior_h1}")
    if math.isnan(bf10) or bf10 <= 0.0:
        raise ValueError(f"bf10 must be positive, got {bf10}")
    if math.isinf(bf10):
        return 1.0
    odds = bf10 * prior_h1
    return odds / (odds + (1.0 - prior_h1))


def _hyp2f1_rows(z: np.ndarray, c: float) -> np.ndarray:
    """2F1(7/4, 5/4; c; z) for each z in [0, 1) and c >= 5/2, NaN where
    the sum still changes after ``_SERIES_MAX_TERMS`` terms.

    Term k + 1 is term k times (k + 7/4)(k + 5/4) z / ((k + c)(k + 1)), a
    ratio below z for c >= 5/2, so the terms decrease: once a term leaves
    the sum unchanged every later one does.  Each block extends the active
    rows by ``width`` terms with one running product and one running sum,
    the same sequential operations as a term-by-term loop, so a row's
    result does not depend on the block widths or on the other rows.  A row
    past 1024 terms whose term at the cap (the current term times z^(cap - k)
    and a ratio of gamma functions) exceeds two ulps of its sum's bound total
    + term z / (1 - z) cannot converge by the cap: it gets NaN at once.
    """
    def log_gammas(k):  # log of Γ(k + 7/4) Γ(k + 5/4) / (Γ(k + c) Γ(k + 1))
        return (math.lgamma(k + 1.75) + math.lgamma(k + 1.25)
                - math.lgamma(k + c) - math.lgamma(k + 1))

    total, term = np.ones(z.shape), np.ones(z.shape)
    active, k, width = np.arange(z.size), 0, 8
    while active.size and k < _SERIES_MAX_TERMS:
        if k >= 1024:  # most rows converge well before; the check is not free
            za, now = z[active], term[active]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                at_cap = np.exp(np.log(now) + (_SERIES_MAX_TERMS - k) * np.log(za)
                                + (log_gammas(_SERIES_MAX_TERMS) - log_gammas(k)))
                doomed = at_cap > 2.0 * np.spacing(total[active] + now * za / (1.0 - za))
            total[active[doomed]] = np.nan
            active = active[~doomed]
        j = np.arange(k, k + width, dtype=np.float64)
        ratios = z[active, None] * ((j + 1.75) * (j + 1.25) / ((j + c) * (j + 1.0)))
        terms = np.cumprod(np.column_stack([term[active], ratios]), axis=1)
        term[active] = terms[:, -1]
        terms[:, 0] = total[active]
        sums = np.cumsum(terms, axis=1)
        total[active] = sums[:, -1]
        active = active[sums[:, -1] != sums[:, -2]]
        k += width
        # double the block while the active rows' terms fit in the budget
        width = min(max(8, min(2 * width, units_per_block(_TERM_BYTES * active.size))),
                    _SERIES_MAX_TERMS - k)
    total[active] = np.nan
    return total


def _bf_series(r: np.ndarray, n: int) -> tuple[np.ndarray, tuple]:
    """BF10 at each r in [-1, 1] and, per entry in flat order, the
    ConvergenceError of a series that did not converge (its BF10 is NaN)
    or None."""
    a = 0.5 * (n - 1)
    bf = np.full(r.shape, np.inf)
    inside = np.abs(r) < 1.0
    s = np.abs(r[inside])
    log_bf = (math.log(0.5) + math.lgamma(0.5) + math.lgamma(a + 1.0) - math.lgamma(a + 1.5)
              + (0.5 * (4 - n)) * (np.log1p(-s) + np.log1p(s))
              + np.log(_hyp2f1_rows(s * s, 0.5 * (n + 2))))
    bf[inside] = np.where(log_bf > _LOG_DBL_MAX, np.inf, np.exp(np.minimum(log_bf, _LOG_DBL_MAX)))
    errors = tuple(
        ConvergenceError(f"Bayes-factor series did not converge within {_SERIES_MAX_TERMS} terms"
                         f" at n={n}, r={rv!r}") if math.isnan(b) else None
        for rv, b in zip(r.ravel().tolist(), bf.ravel().tolist())
    )
    return bf, errors


def bf_rows(r, n: int) -> np.ndarray:
    """Bayes factor BF10 for a nonzero correlation at each sample
    correlation in ``r`` of a pair of ``n`` samples, uniform prior on rho.

    Sums the closed-form series of the module docstring for every entry
    of ``r`` at once; the result has the shape of ``r``.  |r| = 1, or a
    BF10 beyond the float64 range, gives inf.  Raises ConvergenceError,
    naming n and r, for a row whose series has not converged after 2^22
    terms (only very near |r| = 1 at small n).
    """
    r = np.asarray(r, dtype=np.float64)
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if not (np.abs(r) <= 1.0).all():
        raise ValueError("r must lie in [-1, 1]")
    bf, errors = _bf_series(r, n)
    raise_first(errors)
    return bf


def correlation_bf(pair: DataPair) -> float:
    """Bayes factor BF10 of one pair at its Pearson r (:func:`bf_rows` on
    one row); perfect correlation returns +inf."""
    return float(bf_rows(np.array([pearson(pair).r]), pair.n)[0])
