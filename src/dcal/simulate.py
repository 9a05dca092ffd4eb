"""Seeded data generators and experiment runners for the simulation studies.

Every random draw comes from a stream seeded by
``derive(master_seed, repetition, column, ...)``, so a report is a pure
function of its design.  Reports are tidy long-format tables (one row per
design cell x method x metric) serializable to CSV and JSON.

The single-pair designs (effect grid, outlier suite) score a cell at once:
every repetition's pair is drawn in one block of stream words
(:func:`contaminated_rows`), and Pearson and the calibrated test run on the
(repetitions, n) rows with one target per row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .calibration import bf_to_posterior, correlation_bf, pcal_bickel, pcal_sellke
from .core import DataPair, pair_errors, pearson_rows, range_error
from .engine import OosScheme, dcal_matrix
from .errors import DcalError
from .multitest import PermutationPlan, bh_adjust, holm_adjust, permutation_pvalues
from .robust import skipped_rows
from .rng import Stream, derive, derive_array, normals_of, permutation_of, raw_block

__all__ = [
    "OutlierKind",
    "NullBattery",
    "CorrelatedBattery",
    "EffectGrid",
    "Contaminated",
    "ExperimentReport",
    "gen_pair",
    "gen_contaminated",
    "contaminated_rows",
    "run_battery_experiment",
    "run_oos_comparison",
    "run_effect_grid",
    "run_outlier_suite",
    "BATTERY_METHODS",
    "PAIR_METHODS",
]

# substream roles inside one repetition (columns occupy 1..m)
_KEY_TARGET = 0
_KEY_SCHEME = 2 ** 33
_KEY_PERM = 2 ** 34


@dataclass(frozen=True)
class OutlierKind:
    """Contamination model: redrawn high-variance points, or +shift outliers.

    ``sd_outlier`` applies to the high-variance kind (must exceed the unit
    population sd).  ``magnitude`` is the shift, in population sds, applied
    to x (univariate) or to both coordinates (bivariate).
    """

    kind: str  # "high_variance" | "univariate" | "bivariate"
    sd_outlier: float = 3.0
    magnitude: float = 8.0

    def __post_init__(self):
        if self.kind not in ("high_variance", "univariate", "bivariate"):
            raise ValueError(f"unknown outlier kind {self.kind!r}")
        if self.kind == "high_variance" and self.sd_outlier <= 1.0:
            raise ValueError("sd_outlier must exceed the unit population sd")


@dataclass(frozen=True)
class NullBattery:
    """m independent x variables tested against one independent y."""

    m: int
    n: int
    seed: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"a null battery needs m >= 1 columns, got {self.m}")


@dataclass(frozen=True)
class CorrelatedBattery:
    """m_true columns correlated with y at rho, plus m_null independent ones."""

    m_true: int
    m_null: int
    rho: float
    n: int
    seed: int

    def __post_init__(self):
        if self.m_true < 0 or self.m_null < 0 or self.m_true + self.m_null < 1:
            raise ValueError(
                "need m_true, m_null >= 0 and at least one column, "
                f"got {self.m_true}, {self.m_null}"
            )


@dataclass(frozen=True)
class EffectGrid:
    """One pair per (rho, n) cell and repetition, for effect-size sweeps."""

    rho_list: tuple[float, ...]
    n_list: tuple[int, ...]
    seed: int


@dataclass(frozen=True)
class Contaminated:
    """Single contaminated-pair design cell."""

    rho: float
    outlier: OutlierKind
    fraction: float
    n: int
    seed: int


@dataclass
class ExperimentReport:
    """Tidy records (design cell x method x metric) plus run metadata."""

    records: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, design: str, cell: str, method: str, metric: str, value: float | None) -> None:
        self.records.append(
            {"design": design, "cell": cell, "method": method, "metric": metric, "value": value}
        )

    def value(self, method: str, metric: str, cell: str | None = None) -> float:
        hits = [
            rec["value"]
            for rec in self.records
            if rec["method"] == method
            and rec["metric"] == metric
            and (cell is None or rec["cell"] == cell)
        ]
        if len(hits) != 1:
            raise KeyError(
                f"expected exactly one record for ({method}, {metric}, {cell}), found {len(hits)}"
            )
        return hits[0]

    def write_csv(self, path) -> None:
        lines = ["design,cell,method,metric,value"]
        for rec in self.records:
            value = "" if rec["value"] is None else repr(rec["value"])
            lines.append(
                f"{rec['design']},\"{rec['cell']}\",{rec['method']},{rec['metric']},{value}"
            )
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump({"meta": self.meta, "records": self.records}, fh, indent=2)
            fh.write("\n")


def _check_pair_design(n: int, rho: float) -> None:
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly inside (-1, 1), got {rho}")


def gen_pair(n: int, rho: float, seed: int) -> DataPair:
    """Bivariate Gaussian pair with population correlation exactly rho."""
    _check_pair_design(n, rho)
    return gen_contaminated(n, rho, None, 0.0, seed)


def contaminated_rows(
    n: int, rho: float, kind: OutlierKind | None, fraction: float, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) rows of contaminated pairs, one per seed, each (len(seeds), n).

    Row i is bit for bit the pair ``gen_contaminated(n, rho, kind, fraction,
    seeds[i])``, but the rows are not validated (see :func:`pair_errors`).
    Each row's stream words are drawn in one block: n normals for x, n for
    the noise, then, with a contamination count, n words for the permutation
    that picks the replaced samples and, for the high-variance kind, two
    times count normals for the redrawn points.  ``kind`` is unused when no
    sample is replaced.
    """
    if not 0.0 <= fraction <= 0.5:
        raise ValueError(f"fraction must lie in [0, 0.5], got {fraction}")
    mix = math.sqrt(1.0 - rho * rho)
    count = int(fraction * n)
    if fraction > 0.0 and count < 1:
        raise ValueError(f"fraction {fraction} selects no samples at n={n}")
    half = 2 * ((n + 1) // 2)  # words of n normals (Box-Muller pairs)
    redrawn = 2 * ((count + 1) // 2) if count and kind.kind == "high_variance" else 0
    raw = raw_block(seeds, 2 * half + (n + 2 * redrawn if count else 0))
    clean = normals_of(raw[:, : 2 * half])
    x = clean[:, :n].copy()
    y = rho * x + mix * clean[:, half : half + n]
    if count:
        idx = permutation_of(raw[:, 2 * half : 2 * half + n])[:, :count]
        rows = np.arange(raw.shape[0])[:, None]
        if redrawn:
            g = normals_of(raw[:, 2 * half + n :])
            g1, g2 = g[:, :count], g[:, redrawn : redrawn + count]
            x[rows, idx] = kind.sd_outlier * g1
            y[rows, idx] = kind.sd_outlier * (rho * g1 + mix * g2)
        else:
            x[rows, idx] += kind.magnitude
            if kind.kind == "bivariate":
                y[rows, idx] += kind.magnitude
    return x, y


def gen_contaminated(
    n: int, rho: float, kind: OutlierKind | None, fraction: float, seed: int
) -> DataPair:
    """Pair with floor(fraction * n) samples replaced by the outlier model.

    With fraction = 0 this is bit-identical to :func:`gen_pair`.  The clean
    draws always come first in the stream, so changing only the fraction
    keeps the underlying clean sample fixed.  This is
    :func:`contaminated_rows` on one seed.
    """
    x, y = contaminated_rows(n, rho, kind, fraction, np.array([seed % 2 ** 64], dtype=np.uint64))
    return DataPair(x[0], y[0])


def _cell_rows(
    n: int, rho: float, kind: OutlierKind | None, fraction: float, seed: int, repetitions: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every repetition's pair of one design cell; repetition ``rep`` draws
    from ``derive(seed, rep)``.  Raises the first invalid pair's error."""
    seeds = derive_array(seed, np.arange(repetitions, dtype=np.uint64))
    X, Y = contaminated_rows(n, rho, kind, fraction, seeds)
    for error in pair_errors(X, Y):
        if error is not None:
            raise error
    return X, Y


def _battery_columns(
    base: int, n: int, m_true: int, m_null: int, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """One repetition's battery (X, y): the first m_true rows correlate with y at rho."""
    y = Stream(derive(base, _KEY_TARGET)).normals(n)
    X = np.empty((m_true + m_null, n))
    mix = math.sqrt(1.0 - rho * rho)
    for j in range(m_true + m_null):
        g = Stream(derive(base, j + 1)).normals(n)
        X[j] = rho * y + mix * g if j < m_true else g
    return X, y


BATTERY_METHODS = (
    "uncorrected",
    "holm",
    "bh",
    "perm",
    "perm_max",
    "dcal",
    "pcal_sellke",
    "pcal_bickel",
    "ppbf",
)

PAIR_METHODS = ("uncorrected", "dcal", "pcal_sellke", "pcal_bickel", "ppbf")


def _check_methods(methods: Iterable[str], allowed: tuple[str, ...]) -> list[str]:
    out = list(methods)
    if not out:
        raise ValueError("methods must be nonempty")
    for name in out:
        if name not in allowed:
            raise ValueError(f"unknown method {name!r} (choose from {', '.join(allowed)})")
    return out


def _battery_scores(
    X: np.ndarray,
    y: np.ndarray,
    methods: list[str],
    base: int,
    alpha: float,
    scheme: OosScheme,
    plan: PermutationPlan,
    fast: bool,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-method (score, estimate) vectors; reject where score < alpha."""
    r, p = pearson_rows(X, y)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    perm_cache: tuple[np.ndarray, np.ndarray] | None = None
    for method in methods:
        if method == "uncorrected":
            out[method] = (p, r)
        elif method == "holm":
            out[method] = (holm_adjust(p), r)
        elif method == "bh":
            out[method] = (bh_adjust(p), r)
        elif method in ("perm", "perm_max"):
            if perm_cache is None:
                perm_cache = permutation_pvalues(
                    X, y, PermutationPlan(plan.n_permutations, derive(base, _KEY_PERM))
                )
            out[method] = (perm_cache[0] if method == "perm" else perm_cache[1], r)
        elif method == "dcal":
            out[method] = _dcal_scores(X, y, base, alpha, scheme, fast)
        elif method == "pcal_sellke":
            out[method] = (np.array([pcal_sellke(v) for v in p]), r)
        elif method == "pcal_bickel":
            out[method] = (np.array([pcal_bickel(v) for v in p]), r)
        elif method == "ppbf":
            scores = np.array(
                [1.0 - bf_to_posterior(correlation_bf(DataPair(X[j], y))) for j in range(X.shape[0])]
            )
            out[method] = (scores, r)
    return out


def _dcal_scores(
    X: np.ndarray, y: np.ndarray, base: int, alpha: float, scheme: OosScheme, fast: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(p_dcal, r_dcal) per column; column j resamples from (base, _KEY_SCHEME + j)."""
    seeds = derive_array(base, _KEY_SCHEME + np.arange(X.shape[0], dtype=np.uint64))
    batch = dcal_matrix(X, y, scheme, seeds, alpha, fast)
    for error in batch.errors:
        if error is not None:
            raise error
    return batch.p_dcal, batch.r_dcal


class _Accumulator:
    """Sums per-method rejection and estimate statistics across repetitions."""

    def __init__(self, methods: list[str]):
        self.methods = methods
        self.reps = 0
        self.reject_true = {m: 0 for m in methods}
        self.reject_null = {m: 0 for m in methods}
        self.reps_with_false_positive = {m: 0 for m in methods}
        self.sum_est = {m: 0.0 for m in methods}
        self.count_est = {m: 0 for m in methods}
        self.sum_est_sig = {m: 0.0 for m in methods}
        self.count_sig = {m: 0 for m in methods}

    def add(self, scores: dict, m_true: int, alpha: float) -> None:
        self.reps += 1
        for method, (score, estimate) in scores.items():
            sig = score < alpha
            self.reject_true[method] += int(sig[:m_true].sum())
            null_hits = int(sig[m_true:].sum())
            self.reject_null[method] += null_hits
            self.reps_with_false_positive[method] += null_hits > 0
            self.sum_est[method] += float(estimate.sum())
            self.count_est[method] += estimate.size
            self.sum_est_sig[method] += float(estimate[sig].sum())
            self.count_sig[method] += int(sig.sum())

    def emit(self, report: ExperimentReport, design_name: str, cell: str, m_true: int, m_null: int):
        for method in self.methods:
            rejected = self.reject_true[method] + self.reject_null[method]
            report.add(design_name, cell, method, "rejections_mean", rejected / self.reps)
            if m_null:
                report.add(
                    design_name, cell, method, "fpr",
                    self.reject_null[method] / (m_null * self.reps),
                )
                report.add(
                    design_name, cell, method, "fwer",
                    self.reps_with_false_positive[method] / self.reps,
                )
            if m_true:
                report.add(
                    design_name, cell, method, "sensitivity",
                    self.reject_true[method] / (m_true * self.reps),
                )
            report.add(
                design_name, cell, method, "mean_r_overall",
                self.sum_est[method] / self.count_est[method],
            )
            mean_sig = (
                self.sum_est_sig[method] / self.count_sig[method]
                if self.count_sig[method]
                else None
            )
            report.add(design_name, cell, method, "mean_r_significant", mean_sig)


def _check_run(alpha: float, repetitions: int) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")


def _run_battery(
    design: NullBattery | CorrelatedBattery,
    name: str,
    labels: list[str],
    score_rep: Callable[[np.ndarray, np.ndarray, int], dict],
    alpha: float,
    repetitions: int,
    meta: dict,
) -> ExperimentReport:
    """Score every repetition's battery with ``score_rep(X, y, base)`` and
    aggregate the per-label rejections into a report for design ``name``.

    Repetitions that abort with a toolkit error are excluded from the
    averages and counted in the report metadata; ``meta`` adds run keys.
    """
    if isinstance(design, NullBattery):
        m_true, m_null, rho = 0, design.m, 0.0
        cell = f"m={design.m},n={design.n}"
    else:
        m_true, m_null, rho = design.m_true, design.m_null, design.rho
        cell = f"m_true={design.m_true},m_null={design.m_null},rho={design.rho},n={design.n}"
    acc = _Accumulator(labels)
    errors = 0
    for rep in range(repetitions):
        base = derive(design.seed, rep)
        try:
            X, y = _battery_columns(base, design.n, m_true, m_null, rho)
            scores = score_rep(X, y, base)
        except DcalError:
            errors += 1
            continue
        acc.add(scores, m_true, alpha)
    if acc.reps == 0:
        raise DcalError("every repetition failed")

    report = ExperimentReport(
        meta={
            "design": name,
            "cell": cell,
            "alpha": alpha,
            "seed": design.seed,
            "repetitions_requested": repetitions,
            "repetitions_completed": acc.reps,
            "errors": errors,
            "methods": labels,
            **meta,
        }
    )
    acc.emit(report, name, cell, m_true, m_null)
    return report


def run_battery_experiment(
    design: NullBattery | CorrelatedBattery,
    methods: Iterable[str] = ("uncorrected", "holm", "bh", "dcal"),
    alpha: float = 0.05,
    repetitions: int = 1,
    scheme: OosScheme = OosScheme.loo(),
    plan: PermutationPlan = PermutationPlan(),
    fast: bool = False,
) -> ExperimentReport:
    """Generate batteries, run every method, and aggregate rejection counts.

    The calibrated test runs without any additional correction; its score is
    p_dcal itself.  Repetitions that abort with a toolkit error are excluded
    from the averages and counted in the report metadata.
    """
    methods = _check_methods(methods, BATTERY_METHODS)
    _check_run(alpha, repetitions)
    name = "null_battery" if isinstance(design, NullBattery) else "correlated_battery"
    return _run_battery(
        design, name, methods,
        lambda X, y, base: _battery_scores(X, y, methods, base, alpha, scheme, plan, fast),
        alpha, repetitions,
        {"scheme": scheme.label, "n_permutations": plan.n_permutations, "fast": fast},
    )


def run_oos_comparison(
    design: NullBattery | CorrelatedBattery,
    schemes: Iterable[OosScheme],
    alpha: float = 0.05,
    repetitions: int = 1,
) -> ExperimentReport:
    """Same battery, calibrated test only, one method entry per OOS scheme."""
    schemes = list(schemes)
    if not schemes:
        raise ValueError("schemes must be nonempty")
    _check_run(alpha, repetitions)
    labels = [f"dcal-{scheme.label}" for scheme in schemes]

    def score_rep(X, y, base):
        return {
            label: _dcal_scores(X, y, base, alpha, scheme, False)
            for label, scheme in zip(labels, schemes)
        }

    return _run_battery(design, "oos_comparison", labels, score_rep, alpha, repetitions, {})


def run_effect_grid(
    design: EffectGrid,
    methods: Iterable[str] = PAIR_METHODS,
    alpha: float = 0.05,
    repetitions: int = 100,
) -> ExperimentReport:
    """Single-pair sweep over (rho, n) cells; means of scores and estimates.

    The calibrated test runs with the fast guard off so the full p_dcal
    distribution is observed, not just its rejections.
    """
    methods = _check_methods(methods, PAIR_METHODS)
    _check_run(alpha, repetitions)
    report = ExperimentReport(
        meta={
            "design": "effect_grid",
            "alpha": alpha,
            "seed": design.seed,
            "repetitions": repetitions,
            "methods": methods,
            "rho_list": list(design.rho_list),
            "n_list": list(design.n_list),
        }
    )
    cells = [(rho, n) for rho in design.rho_list for n in design.n_list]
    for ci, (rho, n) in enumerate(cells):
        _check_pair_design(n, rho)
        X, Y = _cell_rows(n, rho, None, 0.0, derive(design.seed, ci), repetitions)
        r, p = (v.tolist() for v in pearson_rows(X, Y))
        if "dcal" in methods:
            batch = dcal_matrix(X, Y, OosScheme.loo(), np.zeros(repetitions, np.uint64), alpha)
            r_dcal, p_dcal = batch.r_dcal.tolist(), batch.p_dcal.tolist()
        sums = {m: [0.0, 0.0, 0.0, 0] for m in methods}  # score, est, |est|, rejections
        for rep in range(repetitions):
            # the per-pair order: Pearson, the calibrated test, then the baselines
            if math.isnan(r[rep]):
                raise range_error()
            per_method = {"uncorrected": (p[rep], r[rep])}
            if "dcal" in sums:
                if batch.errors[rep] is not None:
                    raise batch.errors[rep]
                per_method["dcal"] = (p_dcal[rep], r_dcal[rep])
            if "pcal_sellke" in sums:
                per_method["pcal_sellke"] = (pcal_sellke(p[rep]), r[rep])
            if "pcal_bickel" in sums:
                per_method["pcal_bickel"] = (pcal_bickel(p[rep]), r[rep])
            if "ppbf" in sums:
                bf = correlation_bf(DataPair(X[rep], Y[rep]))
                per_method["ppbf"] = (1.0 - bf_to_posterior(bf), r[rep])
            for m in methods:
                score, est = per_method[m]
                sums[m][0] += score
                sums[m][1] += est
                sums[m][2] += abs(est)
                sums[m][3] += score < alpha
        cell = f"rho={rho},n={n}"
        for m in methods:
            score_sum, est_sum, abs_sum, rejected = sums[m]
            report.add("effect_grid", cell, m, "mean_p", score_sum / repetitions)
            report.add("effect_grid", cell, m, "mean_estimate", est_sum / repetitions)
            report.add("effect_grid", cell, m, "mean_abs_estimate", abs_sum / repetitions)
            report.add("effect_grid", cell, m, "rejection_rate", rejected / repetitions)
    return report


def _outlier_scores(
    X: np.ndarray, Y: np.ndarray, methods: list[str], alpha: float
) -> tuple[dict[str, tuple[list, list]], np.ndarray]:
    """Per-method (score, estimate) lists over the rows (X[i], Y[i]), and the
    rows that some method failed on with a toolkit error."""
    failed = np.zeros(X.shape[0], dtype=bool)
    out = {}
    if "pearson" in methods:
        r, p = pearson_rows(X, Y)
        failed |= np.isnan(r)
        out["pearson"] = (p.tolist(), r.tolist())
    if "dcal" in methods:
        batch = dcal_matrix(X, Y, OosScheme.loo(), np.zeros(X.shape[0], np.uint64), alpha)
        failed |= np.array([error is not None for error in batch.errors])
        out["dcal"] = (batch.p_dcal.tolist(), batch.r_dcal.tolist())
    if "skipped" in methods:
        # only where the other methods ran: a row with a failed method is
        # dropped whole
        p, r = np.full(X.shape[0], np.nan), np.full(X.shape[0], np.nan)
        rows = np.flatnonzero(~failed)
        batch = skipped_rows(X[rows], Y[rows])
        failed[rows] = [error is not None for error in batch.errors]
        p[rows], r[rows] = batch.p, batch.r
        out["skipped"] = (p.tolist(), r.tolist())
    return out, failed


def run_outlier_suite(
    cells: Sequence[Contaminated],
    methods: Iterable[str] = ("pearson", "dcal", "skipped"),
    alpha: float = 0.05,
    repetitions: int = 100,
) -> ExperimentReport:
    """Contaminated-pair sweep comparing classical, calibrated, and skipped.

    A repetition on which any method fails with a toolkit error is left out
    of its cell's averages and counted once in the ``errors`` metadata.
    """
    methods = list(methods)
    for name in methods:
        if name not in ("pearson", "dcal", "skipped"):
            raise ValueError(f"unknown outlier-suite method {name!r}")
    _check_run(alpha, repetitions)
    report = ExperimentReport(
        meta={
            "design": "outlier_suite",
            "alpha": alpha,
            "repetitions": repetitions,
            "methods": methods,
            "errors": 0,
        }
    )
    for ci, cell_design in enumerate(cells):
        kind = cell_design.outlier
        extra = (
            f",sd={kind.sd_outlier}" if kind.kind == "high_variance" else f",mag={kind.magnitude}"
        )
        cell = (
            f"kind={kind.kind},rho={cell_design.rho},fraction={cell_design.fraction}"
            f",n={cell_design.n}{extra}"
        )
        X, Y = _cell_rows(
            cell_design.n, cell_design.rho, kind, cell_design.fraction,
            derive(cell_design.seed, ci), repetitions,
        )
        scores, failed = _outlier_scores(X, Y, methods, alpha)
        sums = {m: [0.0, 0.0, 0] for m in methods}  # est, est among sig, n sig
        for rep in np.flatnonzero(~failed).tolist():
            for m in methods:
                score, est = scores[m][0][rep], scores[m][1][rep]
                sums[m][0] += est
                if score < alpha:
                    sums[m][1] += est
                    sums[m][2] += 1
        errors = int(failed.sum())
        done = repetitions - errors
        if done == 0:
            raise DcalError(f"every repetition of outlier-suite cell {cell} failed")
        report.meta["errors"] += errors
        for m in methods:
            est_sum, est_sig_sum, n_sig = sums[m]
            report.add("outlier_suite", cell, m, "mean_estimate", est_sum / done)
            report.add(
                "outlier_suite", cell, m, "mean_estimate_significant",
                est_sig_sum / n_sig if n_sig else None,
            )
            report.add("outlier_suite", cell, m, "sensitivity", n_sig / done)
    return report
