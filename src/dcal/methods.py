"""The table of methods that score a pair, and the battery corrections.

Every surface that scores pairs (``dcal test --methods``, ``dcal anscombe``,
the batteries, the effect grid and the outlier suite) resolves its method
names through :func:`score_rows` or :func:`pair_fields`.  A method maps
:class:`Rows`, the pairs ``(X[i], Y[i])``, to :class:`Scores`.  The battery
corrections adjust one vector of classical p-values (:func:`correct`), for the
batteries and for ``dcal screen``.  Method names are compared in this module
only; :func:`check` rejects a name given twice.  :class:`Rows` computes the
calibrated test's classical phase (:func:`~dcal.engine.classical_phase`) once:
Pearson's r and p, the p-value calibrations and the Bayes factor read it, and
the calibrated test hands it to :func:`~dcal.engine.calibration_phase`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .calibration import _bf_series, pcal_bickel_rows, pcal_sellke_rows
from .core import pair_errors
from .engine import Classical, DcalBatch, OosScheme, calibration_phase, classical_phase
from .errors import raise_first
from .multitest import PermutationPlan, bh_adjust, holm_adjust, permutation_pvalues
from .robust import SkippedBatch, skipped_rows

__all__ = [
    "Scores", "Rows", "PAIR_METHODS", "CORRECTIONS",
    "BATTERY_METHODS", "OUTLIER_METHODS", "TEST_METHODS", "QUARTET_METHODS", "check",
    "score_rows", "battery_scores", "shuffles", "correct", "pair_fields", "quartet_row",
]


class Scores(NamedTuple):
    """Per row: a score compared with alpha the way a p-value is, an
    estimate of the correlation, and the DcalError the method's single-pair
    call raises (None where it runs; the score is NaN where it fails)."""

    score: np.ndarray
    estimate: np.ndarray
    errors: tuple


class Rows:
    """The pairs ``(X[i], Y[i])`` that methods score, with the calibrated
    test's settings.  ``X`` is (m, n); ``Y`` is one sample (n,) or one per
    row (m, n); ``seeds`` are the calibrated test's per-row resampling seeds.
    ``valid`` says that the caller has found every pair valid with
    :func:`~dcal.core.pair_errors`.  Each test runs once, on first use, for
    every method that reads it."""

    def __init__(self, X, Y, scheme: OosScheme = OosScheme.loo(), seeds=None,
                 alpha: float = 0.05, fast: bool = False, valid: bool = False):
        self.X, self.Y = np.asarray(X, dtype=np.float64), np.asarray(Y, dtype=np.float64)
        self.seeds = np.zeros(len(self.X), np.uint64) if seeds is None else seeds
        self.scheme, self.alpha, self.fast = scheme, alpha, fast
        if valid:
            self.invalid = [None] * len(self.X)

    @cached_property
    def invalid(self) -> list:
        """Per pair the error ``DataPair`` raises on it (None if valid)."""
        return pair_errors(self.X, self.Y)

    @cached_property
    def phase(self) -> Classical:
        """The classical phase of the calibrated test, for every method."""
        return classical_phase(self.X, self.Y, self.invalid)

    @cached_property
    def classical(self) -> Scores:
        """Pearson's p and r; an invalid pair, or one whose sums leave the
        float64 range, fails."""
        return Scores(self.phase.p, self.phase.r, self.phase.errors)

    @cached_property
    def calibrated(self) -> DcalBatch:
        return calibration_phase(self.phase, self.scheme, self.seeds, self.alpha, self.fast)

    @cached_property
    def skipped(self) -> SkippedBatch:
        """Skipped correlation; an invalid pair fails with its ``DataPair``
        error (its retained points have no spread either)."""
        batch = skipped_rows(self.X, np.broadcast_to(self.Y, self.X.shape))
        errors = tuple(a if a is not None else b for a, b in zip(self.invalid, batch.errors))
        return batch._replace(errors=errors)


def _calibration(rows: Rows, transform: Callable[[np.ndarray], np.ndarray]) -> Scores:
    """A p-value calibration of every valid row's classical p, with Pearson's r."""
    p, r, errors = rows.classical
    valid = [i for i, error in enumerate(errors) if error is None]
    score = np.full(len(p), np.nan)
    score[valid] = transform(p[valid])
    return Scores(score, r, errors)


def _ppbf(rows: Rows) -> Scores:
    """The posterior probability of the null at prior 0.5, 1 - P(H1 | data),
    from each pair's Bayes factor at its Pearson r (one series call)."""
    _, r, errors = rows.classical
    valid = [i for i, error in enumerate(errors) if error is None]
    bf, errors = np.full(len(r), np.nan), list(errors)
    if valid:
        bf[valid], failed = _bf_series(r[valid], rows.X.shape[1])
        for i, error in zip(valid, failed):
            errors[i] = error
    odds = 0.5 * bf  # bf_to_posterior's arithmetic at prior 0.5
    posterior = np.divide(odds, odds + 0.5, out=np.ones(len(bf)), where=~np.isinf(bf))
    return Scores(1.0 - posterior, r, tuple(errors))


# by report name, in the per-pair error order: Pearson, the calibrated
# test, then the baselines
_SCORERS = {
    "uncorrected": lambda rows: rows.classical,
    "dcal": lambda rows: Scores(rows.calibrated.p_dcal, rows.calibrated.r_dcal,
                                rows.calibrated.errors),
    "pcal_sellke": lambda rows: _calibration(rows, pcal_sellke_rows),
    "pcal_bickel": lambda rows: _calibration(rows, pcal_bickel_rows),
    "ppbf": _ppbf,
    "skipped": lambda rows: Scores(rows.skipped.p, rows.skipped.r, rows.skipped.errors),
}
# the outlier suite's, ``dcal anscombe``'s and ``dcal test --methods``' spellings
_ALIASES = {"pearson": "uncorrected", "cor": "uncorrected",
            "sellke": "pcal_sellke", "bickel": "pcal_bickel"}

PAIR_METHODS = ("uncorrected", "dcal", "pcal_sellke", "pcal_bickel", "ppbf")
CORRECTIONS = ("holm", "bh", "perm", "perm_max")
BATTERY_METHODS = ("uncorrected", *CORRECTIONS, *PAIR_METHODS[1:])
OUTLIER_METHODS = ("pearson", "dcal", "skipped")
TEST_METHODS = ("sellke", "bickel", "ppbf", "skipped")
QUARTET_METHODS = ("cor", "dcal", "pcal_sellke", "pcal_bickel", "ppbf", "skipped")


def check(names, allowed: tuple[str, ...], what: str = "method") -> list[str]:
    """``names`` as a list; raises ValueError on a name outside ``allowed`` or given twice."""
    names = list(names)
    for i, name in enumerate(names):
        if name not in allowed:
            raise ValueError(f"unknown {what} {name!r} (choose from {', '.join(allowed)})")
        if name in names[:i]:
            raise ValueError(f"{what} {name!r} is given twice")
    return names


def score_rows(rows: Rows, names) -> tuple[dict[str, Scores], list]:
    """Each named method's scores, and per row the first error among them
    in the per-pair order (None where every method ran)."""
    keys = {name: _ALIASES.get(name, name) for name in names}
    scored = {key: scorer(rows) for key, scorer in _SCORERS.items() if key in keys.values()}
    first = [None] * len(rows.X)
    for scores in scored.values():
        first = [a if a is not None else b for a, b in zip(first, scores.errors)]
    return {name: scored[key] for name, key in keys.items()}, first


def battery_scores(rows: Rows, names, plan: PermutationPlan | None) -> dict:
    """Each named method's or correction's (score, estimate) on a battery
    with one target; a correction adjusts the classical p and keeps r.
    Raises an error of any, so that a failed repetition is dropped whole."""
    corrections = [name for name in names if name in CORRECTIONS]
    methods = [name for name in names if name not in CORRECTIONS]
    scored, errors = score_rows(rows, methods + ["uncorrected"] * bool(corrections))
    raise_first(errors)
    p, r, _ = scored.get("uncorrected", (None, None, None))
    adjusted = correct(p, corrections, lambda: permutation_pvalues(rows.X, rows.Y, plan))
    return {name: (adjusted[name], r) if name in adjusted else scored[name][:2] for name in names}


def shuffles(names) -> bool:
    """Whether ``names`` holds a permutation correction."""
    return "perm" in names or "perm_max" in names


def correct(p: np.ndarray, names, shuffled: Callable[[], tuple]) -> dict[str, np.ndarray]:
    """The corrections ``names`` of one battery's classical p-values.
    ``shuffled()`` gives the battery's per-test and max-statistic
    permutation p-values; it runs once, if ``perm`` or ``perm_max`` is named."""
    out = dict(zip(("perm", "perm_max"), shuffled())) if shuffles(names) else {}
    adjust = {"holm": holm_adjust, "bh": bh_adjust}
    return {name: out[name] if name in out else adjust[name](p) for name in names}


def pair_fields(name: str, rows: Rows) -> dict:
    """``dcal test``'s fields of a ``--methods`` name on one pair: the score
    by report name (its error raised), or skipped correlation's r, p and
    retained count (or its error)."""
    key = _ALIASES.get(name, name)
    score, estimate, errors = _SCORERS[key](rows)
    if key != "skipped":
        raise_first(errors)
        return {key: float(score[0])}
    if errors[0] is not None:
        return {"r_skipped": None, "p_skipped": None, "skipped_error": str(errors[0])}
    return {"r_skipped": float(estimate[0]), "p_skipped": float(score[0]),
            "n_skipped": int(rows.skipped.n_used[0])}


def quartet_row(scored: dict[str, Scores], rows: Rows, i: int) -> dict:
    """``dcal anscombe``'s entry for pair ``i``: r and p of Pearson, the
    calibrated test (and its sign-guard flag) and skipped correlation, the
    score of the other methods.  Only skipped correlation's error is shown."""
    row = {}
    for name, (score, estimate, errors) in scored.items():
        if errors[i] is not None and name != "skipped":
            raise errors[i]
        if errors[i] is not None:
            row[name] = {"r": None, "p": None, "error": str(errors[i])}
        elif name in ("cor", "dcal", "skipped"):
            row[name] = {"r": float(estimate[i]), "p": float(score[i])}
        else:
            row[name] = {"p": float(score[i])}
    row["dcal"]["flip"] = bool(rows.calibrated.sign_flip[i])
    return row
