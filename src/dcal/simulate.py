"""Seeded data generators and experiment runners for the simulation studies.

Every random draw comes from a stream seeded by
``derive(master_seed, repetition, column, ...)``, so a report is a pure
function of its design.  Reports are tidy long-format tables (one row per
design cell x method x metric) serializable to CSV and JSON.

Every design scores its pairs through the method table of
:mod:`dcal.methods`.  The single-pair designs (effect grid, outlier suite)
score whole cells at once: every repetition's pair of a cell is drawn in
one block of stream words (:func:`contaminated_rows`), the cells of one n
share one (rows, n) array, as many whole cells as fit the work-space
budget ``core.CHUNK_BYTES`` at ``_SAMPLE_BYTES`` per value of X, and the
methods run on those rows in one call with one target per row.  Every
report mean, of a single-pair cell or of a battery, is a sum in repetition
order (:func:`_ordered_sum`).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import DataPair, pair_errors, units_per_block
from .engine import OosScheme, calibration_phase, classical_phase
from .errors import DcalError, raise_first
from .methods import BATTERY_METHODS, OUTLIER_METHODS, PAIR_METHODS, Rows
from .methods import battery_scores, check, score_rows
from .multitest import PermutationPlan
from .rng import derive, derive_array, normals_of, permutation_of, raw_block

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
]

# substream roles inside one repetition (the target is 0, columns occupy 1..m)
_KEY_SCHEME = 2 ** 33
_KEY_PERM = 2 ** 34

# bytes charged per value of a group's (rows, n) X in the single-pair
# designs, below a fig6 call's traced 43, so that fig6's 9 cells share one
_SAMPLE_BYTES = 8


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
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
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
    raise_first(pair_errors(X, Y))
    return X, Y


def _battery_columns(
    base: int, n: int, m_true: int, m_null: int, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """One repetition's battery (X, y): the first m_true rows correlate with y at rho.

    y is the n normals of the stream ``derive(base, 0)`` and column j's
    noise those of ``derive(base, j + 1)``; every stream's words come from
    one block.
    """
    keys = np.arange(m_true + m_null + 1, dtype=np.uint64)
    normals = normals_of(raw_block(derive_array(base, keys), 2 * ((n + 1) // 2)))[:, :n]
    y, X = normals[0], np.ascontiguousarray(normals[1:])
    X[:m_true] = rho * y + math.sqrt(1.0 - rho * rho) * X[:m_true]
    return X, y


def _check_methods(methods: Iterable[str], allowed: tuple, what: str = "method") -> list[str]:
    out = check(methods, allowed, what)
    if not out:
        raise ValueError("methods must be nonempty")
    return out


def _scheme_seeds(base: int, m: int) -> np.ndarray:
    """One repetition's resampling seeds: column j's is (base, _KEY_SCHEME + j)."""
    return derive_array(base, _KEY_SCHEME + np.arange(m, dtype=np.uint64))


def _ordered_sum(values) -> float:
    """``values`` added left to right from 0.0, the bits of a Python ``+=``
    loop in repetition order (``sum()`` compensates from Python 3.12,
    ``np.sum`` sums pairwise)."""
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


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
    # per label and completed repetition: planted hits, null hits, the
    # estimate sum and the rejected estimates' sum
    tallies: dict[str, list[tuple]] = {label: [] for label in labels}
    for rep in range(repetitions):
        base = derive(design.seed, rep)
        try:
            X, y = _battery_columns(base, design.n, m_true, m_null, rho)
            scores = score_rep(X, y, base)
        except DcalError:
            continue
        for label in labels:
            score, estimate = scores[label]
            sig = score < alpha
            tallies[label].append((int(sig[:m_true].sum()), int(sig[m_true:].sum()),
                                   float(estimate.sum()), float(estimate[sig].sum())))
    done = len(tallies[labels[0]])
    if done == 0:
        raise DcalError("every repetition failed")

    report = ExperimentReport(
        meta={
            "design": name,
            "cell": cell,
            "alpha": alpha,
            "seed": design.seed,
            "repetitions_requested": repetitions,
            "repetitions_completed": done,
            "errors": repetitions - done,
            "methods": labels,
            **meta,
        }
    )
    for label in labels:
        add = functools.partial(report.add, name, cell, label)
        true_hits, null_hits, estimates, significant = zip(*tallies[label])
        rejected = sum(true_hits) + sum(null_hits)
        add("rejections_mean", rejected / done)
        if m_null:
            add("fpr", sum(null_hits) / (m_null * done))
            add("fwer", sum(hits > 0 for hits in null_hits) / done)
        if m_true:
            add("sensitivity", sum(true_hits) / (m_true * done))
        add("mean_r_overall", _ordered_sum(estimates) / ((m_true + m_null) * done))
        add("mean_r_significant", _ordered_sum(significant) / rejected if rejected else None)
    return report


def run_battery_experiment(
    design: NullBattery | CorrelatedBattery,
    methods: Iterable[str] = ("uncorrected", "holm", "bh", "dcal"),
    alpha: float = 0.05,
    repetitions: int = 1,
    scheme: OosScheme = OosScheme.loo(),
    plan: PermutationPlan = PermutationPlan(),
) -> ExperimentReport:
    """Generate batteries, run every method, and aggregate rejection counts.

    The calibrated test runs with the fast guard off (the report meta
    records ``"fast": false``) and without any additional correction; its
    score is p_dcal itself.  Repetitions that abort with a toolkit error are
    excluded from the averages and counted in the report metadata.
    """
    methods = _check_methods(methods, BATTERY_METHODS)
    _check_run(alpha, repetitions)
    name = "null_battery" if isinstance(design, NullBattery) else "correlated_battery"

    def score_rep(X, y, base):
        rows = Rows(X, y, scheme, _scheme_seeds(base, len(X)), alpha)
        return battery_scores(
            rows, methods, PermutationPlan(plan.n_permutations, derive(base, _KEY_PERM))
        )

    return _run_battery(
        design, name, methods, score_rep, alpha, repetitions,
        {"scheme": scheme.label, "n_permutations": plan.n_permutations, "fast": False},
    )


def run_oos_comparison(
    design: NullBattery | CorrelatedBattery,
    schemes: Iterable[OosScheme],
    alpha: float = 0.05,
    repetitions: int = 1,
) -> ExperimentReport:
    """Same battery, calibrated test only, one method entry per OOS scheme.
    Each repetition's classical phase runs once and is calibrated per scheme."""
    schemes = list(schemes)
    if not schemes:
        raise ValueError("schemes must be nonempty")
    _check_run(alpha, repetitions)
    labels = [f"dcal-{scheme.label}" for scheme in schemes]

    def score_rep(X, y, base):
        phase, seeds = classical_phase(X, y), _scheme_seeds(base, len(X))
        out = {}
        for label, scheme in zip(labels, schemes):
            batch = calibration_phase(phase, scheme, seeds, alpha)
            raise_first(batch.errors)
            out[label] = batch.p_dcal, batch.r_dcal
        return out

    return _run_battery(design, "oos_comparison", labels, score_rep, alpha, repetitions, {})


def _score_cells(
    cells: list[tuple[int, Callable[[], tuple[np.ndarray, np.ndarray]]]],
    methods: list[str],
    alpha: float,
    repetitions: int,
) -> Iterator[tuple[dict, list]]:
    """Score single-pair design cells with every method (the calibrated
    test at loo, fast guard off).  A cell is ``(n, draw)``; ``draw()``
    checks its design and returns its (repetitions, n) pairs (X, Y), or
    raises its first invalid pair's error (:func:`_cell_rows`).

    Cells of the same n are drawn into one array, as many whole cells as
    fit the work-space budget (at least one), and scored in one call.
    Yields per cell, in the order given, per method the (score, estimate,
    rejected) arrays of the repetitions on which no method failed, in
    repetition order, and each repetition's first error; a cell whose draw
    failed raises that error in its turn.
    """
    out: list = [None] * len(cells)
    by_n: dict[int, list[int]] = {}
    for ci, (n, _) in enumerate(cells):
        by_n.setdefault(n, []).append(ci)
    for n, members in by_n.items():
        per_group = units_per_block(_SAMPLE_BYTES * repetitions * n)
        for start in range(0, len(members), per_group):
            group = members[start : start + per_group]
            # a design with n < 0 fails its draw before it could fill this
            X = np.empty((len(group) * repetitions, max(n, 0)))
            Y = np.empty_like(X)
            drawn = []
            for ci in group:
                try:
                    x, y = cells[ci][1]()
                except (DcalError, ValueError) as exc:  # raised in its cell's turn
                    out[ci] = exc
                    continue
                rows = slice(len(drawn) * repetitions, (len(drawn) + 1) * repetitions)
                X[rows], Y[rows] = x, y
                drawn.append(ci)
            if not drawn:
                continue
            used = len(drawn) * repetitions
            # each draw raised its first invalid pair: the drawn pairs are valid
            scored, errors = score_rows(Rows(X[:used], Y[:used], alpha=alpha, valid=True), methods)
            for k, ci in enumerate(drawn):
                reps = slice(k * repetitions, (k + 1) * repetitions)
                ok = np.array([error is None for error in errors[reps]])
                kept = {m: (s.score[reps][ok], s.estimate[reps][ok]) for m, s in scored.items()}
                out[ci] = ({m: (p, r, p < alpha) for m, (p, r) in kept.items()}, errors[reps])
    for outcome in out:
        if isinstance(outcome, Exception):
            raise outcome
        yield outcome


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

    def draw(ci: int, rho: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        _check_pair_design(n, rho)
        return _cell_rows(n, rho, None, 0.0, derive(design.seed, ci), repetitions)

    scored = _score_cells(
        [(n, functools.partial(draw, ci, rho, n)) for ci, (rho, n) in enumerate(cells)],
        methods, alpha, repetitions,
    )
    for (rho, n), (cell_scores, errors) in zip(cells, scored):
        raise_first(errors)
        for m in methods:
            add = functools.partial(report.add, "effect_grid", f"rho={rho},n={n}", m)
            score, estimate, rejected = cell_scores[m]
            add("mean_p", _ordered_sum(score) / repetitions)
            add("mean_estimate", _ordered_sum(estimate) / repetitions)
            add("mean_abs_estimate", _ordered_sum(np.abs(estimate)) / repetitions)
            add("rejection_rate", int(rejected.sum()) / repetitions)
    return report


def run_outlier_suite(
    cells: Sequence[Contaminated],
    methods: Iterable[str] = OUTLIER_METHODS,
    alpha: float = 0.05,
    repetitions: int = 100,
) -> ExperimentReport:
    """Contaminated-pair sweep comparing classical, calibrated, and skipped.

    A repetition on which any method fails with a toolkit error is left out
    of its cell's averages and counted once in the ``errors`` metadata.
    """
    methods = _check_methods(methods, OUTLIER_METHODS, "outlier-suite method")
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
    draws = [
        (c.n, functools.partial(
            _cell_rows, c.n, c.rho, c.outlier, c.fraction, derive(c.seed, ci), repetitions
        ))
        for ci, c in enumerate(cells)
    ]
    scored = _score_cells(draws, methods, alpha, repetitions)
    for cell_design, (cell_scores, errors) in zip(cells, scored):
        kind = cell_design.outlier
        extra = (
            f",sd={kind.sd_outlier}" if kind.kind == "high_variance" else f",mag={kind.magnitude}"
        )
        cell = (
            f"kind={kind.kind},rho={cell_design.rho},fraction={cell_design.fraction}"
            f",n={cell_design.n}{extra}"
        )
        done = errors.count(None)
        if done == 0:
            raise DcalError(f"every repetition of outlier-suite cell {cell} failed")
        report.meta["errors"] += repetitions - done
        for m in methods:
            add = functools.partial(report.add, "outlier_suite", cell, m)
            _, estimate, rejected = cell_scores[m]
            hits = int(rejected.sum())
            add("mean_estimate", _ordered_sum(estimate) / done)
            add("mean_estimate_significant",
                _ordered_sum(estimate[rejected]) / hits if hits else None)
            add("sensitivity", hits / done)
    return report
