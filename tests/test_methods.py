"""The method table against the single-pair calls, the shared corrections,
and the summation order of the simulation reports' means."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcal import (
    DataPair,
    DcalError,
    DegenerateVarianceError,
    FeatureMatrix,
    NullBattery,
    NumericRangeError,
    OosScheme,
    PermutationPlan,
    bf_to_posterior,
    bh_adjust,
    correlation_bf,
    dcal_test,
    holm_adjust,
    pcal_bickel,
    pcal_sellke,
    pearson,
    pearson_rows,
    permutation_pvalues,
    run_oos_comparison,
    screen,
    skipped_correlation,
)
from dcal.methods import (
    CORRECTIONS,
    QUARTET_METHODS,
    Rows,
    Scores,
    battery_scores,
    correct,
    quartet_row,
    score_rows,
)
from dcal import batchio, core, simulate
from dcal.engine import classical_phase
from dcal.rng import Stream, derive
from dcal.simulate import _ordered_sum

# every spelling the table accepts, and the method it names
SPELLINGS = {
    "uncorrected": "uncorrected", "pearson": "uncorrected", "cor": "uncorrected",
    "dcal": "dcal", "pcal_sellke": "pcal_sellke", "sellke": "pcal_sellke",
    "pcal_bickel": "pcal_bickel", "bickel": "pcal_bickel", "ppbf": "ppbf",
    "skipped": "skipped",
}

# the per-pair error order: Pearson, the calibrated test, then the baselines
ORDER = ["uncorrected", "dcal", "pcal_sellke", "pcal_bickel", "ppbf", "skipped"]


def _single_pair(method: str, pair_of, scheme: OosScheme, alpha: float, fast: bool):
    """(score, estimate) of the single-pair call of ``method`` on the pair
    ``pair_of()``, or the (type, message) of the DcalError it raises."""

    def classical():
        res = pearson(pair_of())
        return res.p, res.r

    def calibrated():
        res = dcal_test(pair_of(), alpha, fast, scheme)
        return res.p_dcal, res.r_dcal

    def ppbf():
        pair = pair_of()
        return 1.0 - bf_to_posterior(correlation_bf(pair)), pearson(pair).r

    def skipped():
        res = skipped_correlation(pair_of())
        return res.p, res.r

    calls = {
        "uncorrected": classical,
        "dcal": calibrated,
        "pcal_sellke": lambda: (pcal_sellke(classical()[0]), classical()[1]),
        "pcal_bickel": lambda: (pcal_bickel(classical()[0]), classical()[1]),
        "ppbf": ppbf,
        "skipped": skipped,
    }
    try:
        return calls[method](), None
    except DcalError as exc:
        return None, (type(exc), str(exc))


@st.composite
def _samples(draw, n):
    """One sample of n values: Gaussian, rounded to integers, constant, or
    with one value near the float64 limit."""
    kind = draw(st.sampled_from(["gauss", "gauss", "gauss", "grid", "constant", "huge"]))
    values = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal(n)
    if kind == "grid":
        values = np.round(values)
    elif kind == "constant":
        values = np.full(n, draw(st.sampled_from([0.0, 3.5, -1e300])))
    elif kind == "huge":
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1e308, 1e308, 3e200]))
    return values


@st.composite
def _rows(draw):
    """(X, Y): 1 to 4 rows at n = 4 to 60, Y shared or one per row.  A row
    may be an exact line of its target (r = +-1)."""
    n = draw(st.integers(4, 60))
    m = draw(st.integers(1, 4))
    shared = draw(st.booleans())
    Y = draw(_samples(n)) if shared else np.array([draw(_samples(n)) for _ in range(m)])
    X = np.array([draw(_samples(n)) for _ in range(m)])
    for i in range(m):
        if draw(st.integers(0, 3)) == 0:
            with np.errstate(over="ignore"):
                line = draw(st.sampled_from([2.0, -0.5])) * (Y if shared else Y[i]) + 1.0
            if np.isfinite(line).all():
                X[i] = line
    return X, Y


def _pair_of(X, Y, i):
    return lambda: DataPair(X[i], Y if Y.ndim == 1 else Y[i])


def _same(got: tuple, expected: tuple) -> bool:
    return all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, expected))


class TestTableMatchesSinglePairCalls:
    def test_spellings_and_surface_lists(self):
        table = Rows(np.arange(8.0)[None, :], np.arange(8.0) % 3)
        for spelling, method in SPELLINGS.items():
            scores = score_rows(table, [spelling, method])[0]
            assert scores[spelling] is scores[method], spelling
        with pytest.raises(KeyError):
            score_rows(table, ["bogus"])
        assert simulate.PAIR_METHODS == ("uncorrected", "dcal", "pcal_sellke", "pcal_bickel", "ppbf")
        assert simulate.BATTERY_METHODS == (
            "uncorrected", "holm", "bh", "perm", "perm_max", "dcal", "pcal_sellke",
            "pcal_bickel", "ppbf",
        )
        assert batchio.CORRECTIONS == CORRECTIONS == ("holm", "bh", "perm", "perm_max")

    @settings(max_examples=150, deadline=None)
    @given(rows=_rows(), data=st.data())
    def test_every_spelling_bitwise(self, rows, data):
        X, Y = rows
        seed = data.draw(st.integers(0, 2 ** 64 - 1))
        scheme = data.draw(st.sampled_from(
            [OosScheme.loo(), OosScheme.repeated_kfold(3, 2, seed), OosScheme.boot632(12, seed)]
        ))
        alpha = data.draw(st.sampled_from([0.05, 0.5]))
        fast = data.draw(st.booleans())
        table = Rows(X, Y, scheme, np.full(len(X), seed, dtype=np.uint64), alpha, fast)
        for spelling, method in SPELLINGS.items():
            score, estimate, errors = score_rows(table, [spelling])[0][spelling]
            for i in range(len(X)):
                expected, error = _single_pair(method, _pair_of(X, Y, i), scheme, alpha, fast)
                if error is None:
                    assert errors[i] is None, (spelling, i, errors[i])
                    got = (float(score[i]), float(estimate[i]))
                    assert _same(got, expected), (spelling, i, got, expected)
                else:
                    assert (type(errors[i]), str(errors[i])) == error, (spelling, i)
                    assert math.isnan(score[i]), (spelling, i)

    @settings(max_examples=60, deadline=None)
    @given(rows=_rows(), names=st.lists(st.sampled_from(sorted(SPELLINGS)), min_size=1))
    def test_first_error_follows_the_per_pair_order(self, rows, names):
        X, Y = rows
        table = Rows(X, Y)
        scored, first = score_rows(table, names)
        assert list(scored) == list(dict.fromkeys(names))
        requested = [method for method in ORDER if method in {SPELLINGS[n] for n in names}]
        for i in range(len(X)):
            errors = [score_rows(table, [method])[0][method].errors[i] for method in requested]
            expected = next((error for error in errors if error is not None), None)
            assert (type(first[i]), str(first[i])) == (type(expected), str(expected))

    @settings(max_examples=40, deadline=None)
    @given(rows=_rows(), fast=st.booleans())
    def test_calibrated_rows_use_the_tests_classical_half(self, rows, fast):
        X, Y = rows
        table = Rows(X, Y, fast=fast)
        for spelling in ("cor", "sellke", "bickel"):
            score, estimate, errors = score_rows(table, [spelling])[0][spelling]
            for i in range(len(X)):
                try:
                    res = dcal_test(_pair_of(X, Y, i)(), fast=fast)
                except DcalError as exc:
                    assert (type(errors[i]), str(errors[i])) == (type(exc), str(exc))
                    continue
                transform = {"cor": lambda p: p, "sellke": pcal_sellke, "bickel": pcal_bickel}
                assert (score[i], estimate[i]) == (transform[spelling](res.p), res.r)


@st.composite
def _offset_rows(draw):
    """(X, Y): Gaussian rows at n = 5 to 40, each sample shifted by up to
    1e6 and scaled, Y shared or one per row.  Either a few rows or more than
    ``special.ARRAY_MIN_ROWS``, so that the t tail runs both its paths."""
    n = draw(st.integers(5, 40))  # k-fold at 3 folds trains on 3 points
    m = draw(st.sampled_from([1, 2, 5, 97, 120]))
    shared = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def shifted(rows):
        offset = rng.uniform(-1e6, 1e6, (rows, 1))
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        return offset + scale * rng.standard_normal((rows, n))

    Y = shifted(1)[0] if shared else shifted(m)
    X = shifted(m)
    X[: m // 2] += 0.5 * (Y if shared else Y[: m // 2])  # some related rows
    return X, Y


_SCHEMES = [OosScheme.loo(), OosScheme.repeated_kfold(3, 2, 0), OosScheme.boot632(15, 0)]


@st.composite
def _edge_rows(draw):
    """``_offset_rows`` with some rows, and some per-row targets, replaced:
    a -1e308 value (the centred sums overflow), values near 1e-170 (they
    underflow to 0) or one value repeated (0.1 and 1/3 do not centre to
    zeros in one pass).  Some batteries keep 3 samples, too few for a pair,
    though their sums give an r."""
    X, Y = draw(_offset_rows())
    short = draw(st.sampled_from([None] * 9 + [3]))
    X, Y = X[:, :short], Y[..., :short]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = X.shape[1]

    def replace_some(rows):
        for i in np.flatnonzero(rng.random(len(rows)) < rng.random()):
            kind = rng.integers(3)
            if kind == 0:
                rows[i, rng.integers(n)] = -1e308
            elif kind == 1:
                rows[i] = 1e-170 * rng.standard_normal(n)
            else:
                rows[i] = rng.choice([0.1, 1.0 / 3.0, -2.5e6])

    replace_some(X)
    if Y.ndim == 2:
        replace_some(Y)
    return X, Y


class TestOneClassicalPhase:
    @settings(max_examples=40, deadline=None)
    @given(rows=_offset_rows(), scheme=st.sampled_from(_SCHEMES), fast=st.booleans())
    def test_every_surface_gives_the_same_r_and_p(self, rows, scheme, fast):
        # pearson_rows, Rows.classical, dcal_matrix, dcal_test and pearson
        # centre each sample the same way, so a pair has one classical r and p
        X, Y = rows
        seeds = np.arange(len(X), dtype=np.uint64) * 7919
        r, p = pearson_rows(X, Y)
        table = Rows(X, Y, scheme, seeds, fast=fast)
        score, estimate, errors = table.classical
        batch = table.calibrated
        for i in range(len(X)):
            pair = _pair_of(X, Y, i)()
            single = dcal_test(pair, fast=fast, scheme=scheme.reseeded(int(seeds[i])))
            classical = pearson(pair)
            assert errors[i] is None and batch.errors[i] is None
            expected = (float(r[i]), float(p[i]))
            assert (float(estimate[i]), float(score[i])) == expected, i
            assert (float(batch.r[i]), float(batch.p[i])) == expected, i
            assert (single.r, single.p) == expected, i
            assert (classical.r, classical.p) == expected, i

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(rows=_edge_rows())
    def test_one_kernel_gives_each_row_one_result(self, rows):
        # pearson, pearson_rows and the classical phase share the kernel and
        # its error rule: one row's bits, or its error, at every block size
        X, Y = rows
        want = []
        for i in range(len(X)):
            try:
                single = pearson(_pair_of(X, Y, i)())
            except DcalError as exc:
                want.append((type(exc), str(exc)))
            else:
                want.append((float(single.r).hex(), float(single.p).hex()))
        for budget in (1, 3 * core._CENTRE_BYTES * X.shape[1], core.CHUNK_BYTES, 2 ** 40):
            with mock.patch.object(core, "CHUNK_BYTES", budget):
                r, p = pearson_rows(X, Y)
                phase = classical_phase(X, Y)
            for i, expected in enumerate(want):
                error = phase.errors[i]
                if error is None:
                    got = (float(phase.r[i]).hex(), float(phase.p[i]).hex())
                    assert (float(r[i]).hex(), float(p[i]).hex()) == got == expected, (budget, i)
                    continue
                assert (type(error), str(error)) == expected, (budget, i)
                assert np.isnan(phase.r[i]) and np.isnan(phase.p[i])
                if isinstance(error, NumericRangeError):  # unvalidated rows are NaN there only
                    assert np.isnan(r[i]) and np.isnan(p[i])

    @staticmethod
    def _count_centring(monkeypatch) -> list:
        """Calls of ``centred_rows``, wrapped in every dcal module that
        imports it by name."""
        calls, original = [], core.centred_rows

        def counted(*args):
            calls.append(1)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("dcal") and getattr(module, "centred_rows", None) is original:
                monkeypatch.setattr(module, "centred_rows", counted)
        return calls

    def test_one_row_set_centres_once_per_phase(self, monkeypatch):
        # the classical phase (one block) is shared by every method; the
        # calibrated test's one chunk centres its own rows again
        calls = self._count_centring(monkeypatch)
        X, y = _battery()
        score_rows(Rows(X, y), ["uncorrected", "dcal", "ppbf", "pcal_sellke"])
        assert len(calls) == 2

    def test_scheme_comparison_centres_once_per_phase(self, monkeypatch):
        # per repetition: one classical phase, then one chunk per scheme
        calls = self._count_centring(monkeypatch)
        run_oos_comparison(NullBattery(m=20, n=30, seed=3), _SCHEMES, repetitions=3)
        assert len(calls) == 3 * (1 + len(_SCHEMES))


def _battery(m=30, n=20, seed=4):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    X = rng.standard_normal((m, n))
    X[:4] += 0.8 * y
    return X, y


class TestQuartetRow:
    def test_only_the_skipped_error_is_shown(self):
        # pair 0 has 8 samples, too few for the sweep; pair 1 a constant x,
        # which every method fails
        x = Stream(1).normals(8)
        rows = Rows(np.vstack([x, np.full(8, 2.0)]), Stream(2).normals(8))
        scored, _ = score_rows(rows, QUARTET_METHODS)
        row = quartet_row(scored, rows, 0)
        assert row["skipped"] == {"r": None, "p": None, "error": str(scored["skipped"].errors[0])}
        assert row["cor"]["r"] == float(scored["cor"].estimate[0])
        with pytest.raises(DegenerateVarianceError, match="x has zero variance"):
            quartet_row(scored, rows, 1)


class TestSharedCorrections:
    def test_battery_corrections_match_multitest(self):
        X, y = _battery()
        plan = PermutationPlan(199, 17)
        scores = battery_scores(Rows(X, y), ["uncorrected", *CORRECTIONS], plan)
        r, p = pearson_rows(X, y)
        per_test, max_stat = permutation_pvalues(X, y, plan)
        expected = {"uncorrected": p, "holm": holm_adjust(p), "bh": bh_adjust(p),
                    "perm": per_test, "perm_max": max_stat}
        for name, (score, estimate) in scores.items():
            assert score.tolist() == expected[name].tolist(), name
            assert estimate.tolist() == r.tolist(), name

    def test_screen_corrections_match_multitest(self):
        X, y = _battery()
        names = ["target"] + [f"f{j:02d}" for j in range(len(X))]
        matrix = FeatureMatrix(tuple(names), np.vstack([y, X]), tuple(f"s{k}" for k in range(20)))
        scheme = OosScheme.boot632(20, 9)
        report = screen(matrix, "target", scheme=scheme, corrections=CORRECTIONS,
                        plan=PermutationPlan(199, 0))
        p = report.batch.p
        per_test, max_stat = permutation_pvalues(
            X, y, PermutationPlan(199, derive(scheme.seed, 2 ** 35))
        )
        expected = {"holm": holm_adjust(p), "bh": bh_adjust(p),
                    "perm": per_test, "perm_max": max_stat}
        for name in CORRECTIONS:
            assert report.adjusted[name].tolist() == expected[name].tolist(), name

    def test_permutations_run_once_and_only_when_named(self):
        calls = []

        def shuffled():
            calls.append(1)
            return np.array([0.25, 0.5]), np.array([0.5, 0.75])

        p = np.array([0.01, 0.2])
        out = correct(p, ["perm_max", "holm", "perm", "bh", "perm"], shuffled)
        assert len(calls) == 1
        assert out["perm"].tolist() == [0.25, 0.5] and out["perm_max"].tolist() == [0.5, 0.75]
        assert out["holm"].tolist() == holm_adjust(p).tolist()
        correct(p, ["holm", "bh"], shuffled)
        assert len(calls) == 1


class TestCellSumsOrder:
    """Report means are sums in repetition order from 0.0, as a Python
    ``+=`` loop adds, and a rejection is a score strictly below alpha."""

    VALUES = [1e16, 1.0, -1e16, 0.1]
    SEQUENTIAL = ((1e16 + 1.0) + -1e16) + 0.1

    @staticmethod
    def _fixed_scores(monkeypatch, score, estimate):
        """Make every method of a single-pair cell score ``(score, estimate)``
        per repetition."""
        def fixed(rows, names):
            out = Scores(np.array(score), np.array(estimate), (None,) * len(score))
            return {name: out for name in names}, [None] * len(score)
        monkeypatch.setattr(simulate, "score_rows", fixed)

    def test_sums_are_sequential(self):
        # left to right, 1.0 is lost against 1e16; a compensated sum keeps it
        assert self.SEQUENTIAL != math.fsum(self.VALUES)
        assert _ordered_sum(self.VALUES) == self.SEQUENTIAL
        assert _ordered_sum(np.array(self.VALUES)) == self.SEQUENTIAL
        assert _ordered_sum(np.abs(self.VALUES)) == ((1e16 + 1.0) + 1e16) + 0.1
        assert _ordered_sum([]) == 0.0
        # long enough that np.sum's pairwise blocks give other bits
        rng = np.random.default_rng(3)
        values = rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 8, 1000)
        total = 0.0
        for value in values.tolist():
            total += value
        assert total != float(np.sum(values))
        assert _ordered_sum(values) == total

    def test_effect_grid_means_sum_in_repetition_order(self, monkeypatch):
        self._fixed_scores(monkeypatch, self.VALUES, self.VALUES)
        report = simulate.run_effect_grid(simulate.EffectGrid((0.3,), (10,), 5), ["dcal"],
                                          repetitions=4)
        # dividing by 4 is exact
        assert report.value("dcal", "mean_p") == self.SEQUENTIAL / 4
        assert report.value("dcal", "mean_estimate") == self.SEQUENTIAL / 4
        assert report.value("dcal", "mean_abs_estimate") == (((1e16 + 1.0) + 1e16) + 0.1) / 4

    def test_rejections_count_scores_below_alpha(self, monkeypatch):
        scores, estimates = [0.01, 0.05, 0.2, 0.0], [0.5, -0.25, 0.125, -0.5]
        self._fixed_scores(monkeypatch, scores, estimates)
        grid = simulate.run_effect_grid(simulate.EffectGrid((0.3,), (10,), 5), ["dcal"],
                                        alpha=0.05, repetitions=4)
        assert grid.value("dcal", "rejection_rate") == 0.5
        assert grid.value("dcal", "mean_abs_estimate") == 1.375 / 4
        cell = simulate.Contaminated(0.3, simulate.OutlierKind("bivariate"), 0.1, 10, 5)
        suite = simulate.run_outlier_suite([cell], ["dcal"], alpha=0.05, repetitions=4)
        assert suite.value("dcal", "sensitivity") == 0.5
        assert suite.value("dcal", "mean_estimate_significant") == 0.0  # 0.5 + -0.5

    def test_battery_tallies_sum_in_repetition_order(self):
        # repetition k's estimates sum to VALUES[k]; the first planted and
        # the second null column reject in every repetition
        sums = iter(self.VALUES)

        def score_rep(X, y, base):
            return {"x": (np.array([0.01, 0.05, 0.2, 0.0]), np.array([next(sums), 0.0, 0.0, 0.0]))}

        design = simulate.CorrelatedBattery(m_true=2, m_null=2, rho=0.3, n=10, seed=5)
        report = simulate._run_battery(design, "b", ["x"], score_rep, 0.05, 4, {})
        assert report.value("x", "rejections_mean") == 2.0
        assert report.value("x", "sensitivity") == 0.5
        assert report.value("x", "fpr") == 0.5
        assert report.value("x", "fwer") == 1.0
        assert report.value("x", "mean_r_overall") == self.SEQUENTIAL / 16
        assert report.value("x", "mean_r_significant") == self.SEQUENTIAL / 8
