import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairwise_reference

from dcal import (
    Contaminated,
    DcalError,
    bf_to_posterior,
    correlation_bf,
    pcal_bickel,
    pcal_sellke,
    CorrelatedBattery,
    EffectGrid,
    NullBattery,
    OosScheme,
    OutlierKind,
    dcal_test,
    gen_contaminated,
    gen_pair,
    pearson,
    run_battery_experiment,
    run_effect_grid,
    run_oos_comparison,
    run_outlier_suite,
)
from dcal import cli, core, engine, simulate
from dcal import methods as method_table
from dcal.rng import derive, derive_array
from dcal.simulate import _battery_columns, contaminated_rows

KINDS = [
    OutlierKind("high_variance", sd_outlier=3.0),
    OutlierKind("high_variance", sd_outlier=1.5),
    OutlierKind("univariate"),
    OutlierKind("univariate", magnitude=-2.5),
    OutlierKind("bivariate"),
]


def _outcome(run):
    try:
        return run(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


class TestGenPair:
    def test_bit_identical_across_runs(self):
        a = gen_pair(100, 0.3, 42)
        b = gen_pair(100, 0.3, 42)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_null_sample_correlation_near_zero(self):
        pair = gen_pair(100_000, 0.0, 7)
        assert abs(pearson(pair).r) <= 0.01

    def test_half_correlation_recovered(self):
        pair = gen_pair(100_000, 0.5, 8)
        assert 0.49 <= pearson(pair).r <= 0.51

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_pair(3, 0.0, 1)
        with pytest.raises(ValueError):
            gen_pair(10, 1.0, 1)


class TestContaminatedRows:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(10, 120),
        rho=st.sampled_from([0.0, 0.3, -0.5, 0.9, 1.0, -1.0, 1.5]),
        kind=st.sampled_from(KINDS),
        fraction=st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.25, 0.37, 0.5, 0.6, -0.1]),
        seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4),
    )
    def test_matches_frozen_generator(self, n, rho, kind, fraction, seeds):
        rows, error = _outcome(
            lambda: contaminated_rows(n, rho, kind, fraction, np.array(seeds, dtype=np.uint64))
        )
        for i, seed in enumerate(seeds):
            want, want_error = _outcome(
                lambda: pairwise_reference.gen_contaminated(n, rho, kind, fraction, seed)
            )
            if want_error == (ValueError, "math domain error"):  # |rho| > 1, now named
                want_error = (ValueError, f"rho must lie in [-1, 1], got {rho}")
            got, got_error = _outcome(lambda: gen_contaminated(n, rho, kind, fraction, seed))
            assert got_error == want_error
            if want is None:
                assert error == want_error
                continue
            assert error is None
            for values in (rows[0][i], got.x):
                assert np.array_equal(values, want.x)
            for values in (rows[1][i], got.y):
                assert np.array_equal(values, want.y)

    def test_cell_seeds_are_repetition_streams(self):
        kind = OutlierKind("bivariate")
        X, Y = contaminated_rows(30, 0.4, kind, 0.1, derive_array(derive(5, 2), np.arange(7)))
        for rep in range(7):
            pair = gen_contaminated(30, 0.4, kind, 0.1, derive(5, 2, rep))
            assert np.array_equal(X[rep], pair.x) and np.array_equal(Y[rep], pair.y)


class TestBatteryColumns:
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 60),
        m=st.integers(1, 30),
        data=st.data(),
        rho=st.sampled_from([0.0, 0.3, 1.0]),
        base=st.integers(0, 2 ** 64 - 1),
    )
    def test_matches_frozen_generator(self, n, m, data, rho, base):
        m_true = data.draw(st.integers(0, m))
        X, y = _battery_columns(base, n, m_true, m - m_true, rho)
        want_X, want_y = pairwise_reference.battery_columns(base, n, m_true, m - m_true, rho)
        assert X.shape == want_X.shape and X.flags.c_contiguous
        assert X.tobytes() == want_X.tobytes() and y.tobytes() == want_y.tobytes()


class TestGenContaminated:
    def test_zero_fraction_identical_to_gen_pair(self):
        kind = OutlierKind("univariate")
        clean = gen_pair(50, 0.4, 99)
        same = gen_contaminated(50, 0.4, kind, 0.0, 99)
        assert np.array_equal(clean.x, same.x) and np.array_equal(clean.y, same.y)

    def test_exact_contamination_count(self):
        kind = OutlierKind("bivariate")
        base = gen_contaminated(80, 0.3, kind, 0.0, 5)
        dirty = gen_contaminated(80, 0.3, kind, 0.1, 5)
        changed = np.flatnonzero(base.x != dirty.x)
        assert changed.size == 8
        assert np.array_equal(dirty.x[changed], base.x[changed] + 8.0)
        assert np.array_equal(dirty.y[changed], base.y[changed] + 8.0)

    def test_univariate_leaves_y_untouched(self):
        kind = OutlierKind("univariate")
        base = gen_contaminated(60, 0.3, kind, 0.0, 6)
        dirty = gen_contaminated(60, 0.3, kind, 0.1, 6)
        assert np.array_equal(base.y, dirty.y)
        assert np.flatnonzero(base.x != dirty.x).size == 6

    def test_high_variance_redraws_both(self):
        kind = OutlierKind("high_variance", sd_outlier=4.0)
        base = gen_contaminated(60, 0.5, kind, 0.0, 16)
        dirty = gen_contaminated(60, 0.5, kind, 0.1, 16)
        changed = np.flatnonzero(base.x != dirty.x)
        assert changed.size == 6
        assert np.all(base.y[changed] != dirty.y[changed])

    def test_fraction_validation(self):
        kind = OutlierKind("univariate")
        with pytest.raises(ValueError):
            gen_contaminated(50, 0.3, kind, 0.6, 1)
        with pytest.raises(ValueError):
            gen_contaminated(5, 0.3, kind, 0.1, 1)  # selects no samples

    def test_outlier_kind_validation(self):
        with pytest.raises(ValueError):
            OutlierKind("weird")
        with pytest.raises(ValueError):
            OutlierKind("high_variance", sd_outlier=0.5)

    def test_bivariate_inflates_pearson(self):
        kind = OutlierKind("bivariate")
        estimates = [
            pearson(gen_contaminated(100, 0.3, kind, 0.1, derive(1401, k))).r
            for k in range(100)
        ]
        assert np.mean(estimates) > 0.3 + 0.2

    def test_high_variance_drags_dcal_down(self):
        kind = OutlierKind("high_variance", sd_outlier=3.0)
        clean, dirty = [], []
        for k in range(100):
            seed = derive(1402, k)
            clean.append(dcal_test(gen_contaminated(50, 0.5, kind, 0.0, seed)).r_dcal)
            dirty.append(dcal_test(gen_contaminated(50, 0.5, kind, 0.1, seed)).r_dcal)
        assert np.mean(dirty) < np.mean(clean)


class TestBatteryExperiment:
    def test_report_structure_and_determinism(self):
        design = NullBattery(m=20, n=30, seed=11)
        kwargs = dict(
            methods=["uncorrected", "holm", "bh", "dcal"], alpha=0.05, repetitions=3
        )
        first = run_battery_experiment(design, **kwargs)
        second = run_battery_experiment(design, **kwargs)
        assert first.records == second.records and first.meta == second.meta
        assert first.meta["repetitions_completed"] == 3
        fpr = first.value("uncorrected", "fpr")
        assert 0.0 <= fpr <= 0.2
        assert first.value("holm", "fwer") <= first.value("uncorrected", "fwer")

    def test_correlated_battery_sensitivity(self):
        design = CorrelatedBattery(m_true=10, m_null=10, rho=0.7, n=100, seed=12)
        report = run_battery_experiment(
            design, methods=["uncorrected", "dcal"], repetitions=2
        )
        assert report.value("uncorrected", "sensitivity") >= 0.9
        assert report.value("dcal", "sensitivity") >= 0.8

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_battery_experiment(NullBattery(5, 20, 1), methods=["nope"])

    def test_composition_bookkeeping(self):
        # declared composition is exact: with rho ~ 1 every true column and
        # (almost) no null column rejects
        design = CorrelatedBattery(m_true=5, m_null=15, rho=0.95, n=80, seed=13)
        report = run_battery_experiment(design, methods=["uncorrected"], repetitions=4)
        assert report.value("uncorrected", "sensitivity") == 1.0
        assert report.value("uncorrected", "fpr") <= 0.2


class TestOosComparison:
    def test_schemes_recover_planted_effects(self):
        design = CorrelatedBattery(m_true=10, m_null=0, rho=0.5, n=200, seed=21)
        schemes = [
            OosScheme.loo(),
            OosScheme.repeated_kfold(10, 10, 0),
            OosScheme.boot632(100, 0),
        ]
        report = run_oos_comparison(design, schemes, repetitions=3)
        for label in ("dcal-loo", "dcal-cv10x10", "dcal-boot632"):
            assert report.value(label, "sensitivity") >= 0.8, label

    def test_failed_repetition_is_dropped(self):
        # two replicates at n = 6: one repetition's bootstrap leaves a sample
        # in every bag and fails; the report averages the other 19
        report = run_oos_comparison(NullBattery(2, 6, 1), [OosScheme.boot632(2, 0)],
                                    repetitions=20)
        assert report.meta["repetitions_completed"] == 19
        assert report.meta["errors"] == 1

    def test_every_repetition_failing_raises(self):
        # two folds of five samples train on two points, too few for a line
        with pytest.raises(DcalError, match="every repetition failed"):
            run_oos_comparison(NullBattery(3, 5, 1), [OosScheme.repeated_kfold(2, 1, 0)],
                               repetitions=3)

    def test_argument_checks(self):
        with pytest.raises(ValueError, match="schemes must be nonempty"):
            run_oos_comparison(NullBattery(3, 10, 1), [])
        for m_true, m_null in ((-1, 3), (3, -1), (0, 0)):
            with pytest.raises(ValueError, match="at least one column"):
                CorrelatedBattery(m_true, m_null, 0.5, 20, 1)

    def test_repeat_runs_deterministic(self):
        design = NullBattery(m=10, n=40, seed=22)
        schemes = [OosScheme.loo(), OosScheme.boot632(20, 0)]
        a = run_oos_comparison(design, schemes, repetitions=2)
        b = run_oos_comparison(design, schemes, repetitions=2)
        assert a.records == b.records and a.meta == b.meta


class TestEffectGrid:
    def test_cells_and_metrics(self):
        design = EffectGrid(rho_list=(0.2, 0.8), n_list=(30,), seed=31)
        report = run_effect_grid(
            design, methods=["uncorrected", "dcal", "pcal_sellke"], repetitions=40
        )
        strong = report.value("uncorrected", "mean_p", cell="rho=0.8,n=30")
        weak = report.value("uncorrected", "mean_p", cell="rho=0.2,n=30")
        assert strong < weak
        assert report.value("dcal", "mean_p", cell="rho=0.2,n=30") > weak

    def test_determinism(self):
        design = EffectGrid(rho_list=(0.5,), n_list=(25,), seed=32)
        a = run_effect_grid(design, repetitions=10)
        b = run_effect_grid(design, repetitions=10)
        assert a.records == b.records and a.meta == b.meta


class TestOutlierSuite:
    def test_structure(self):
        cells = [
            Contaminated(rho=0.3, outlier=OutlierKind("univariate"), fraction=0.1, n=50, seed=41),
            Contaminated(rho=0.3, outlier=OutlierKind("bivariate"), fraction=0.1, n=50, seed=41),
        ]
        report = run_outlier_suite(cells, repetitions=20)
        uni_cell = "kind=univariate,rho=0.3,fraction=0.1,n=50,mag=8.0"
        bi_cell = "kind=bivariate,rho=0.3,fraction=0.1,n=50,mag=8.0"
        assert report.value("pearson", "mean_estimate", cell=uni_cell) < 0.3
        assert report.value("pearson", "mean_estimate", cell=bi_cell) > 0.5
        assert report.value("skipped", "sensitivity", cell=bi_cell) <= 1.0

    def test_no_methods_rejected(self):
        # as the effect grid and the batteries do, not a report of 0 records
        cells = [Contaminated(0.3, OutlierKind("bivariate"), 0.1, 30, 4)]
        with pytest.raises(ValueError, match="methods must be nonempty"):
            run_outlier_suite(cells, methods=[], repetitions=5)

    @pytest.mark.parametrize("rho", [1.5, -1.0000001, float("nan")])
    def test_rho_outside_unit_interval_rejected(self, rho):
        # named, where math.sqrt(1 - rho**2) would raise "math domain error"
        for kind in KINDS:
            cell = Contaminated(rho, kind, 0.1, 30, 4)
            with pytest.raises(ValueError, match=r"rho must lie in \[-1, 1\], got"):
                run_outlier_suite([cell], repetitions=5)


def _per_pair_outlier_records(cells, methods, alpha, repetitions):
    """The outlier suite's records and error count from the per-pair loop it
    replaced, one frozen generator and detector call per repetition."""
    records, errors = [], 0
    for ci, cell in enumerate(cells):
        sums = {m: [0.0, 0.0, 0] for m in methods}
        failed = 0
        for rep in range(repetitions):
            pair = pairwise_reference.gen_contaminated(
                cell.n, cell.rho, cell.outlier, cell.fraction, derive(cell.seed, ci, rep)
            )
            try:
                per_method = {}
                for m in methods:
                    if m == "pearson":
                        res = pearson(pair)
                        per_method[m] = (res.p, res.r)
                    elif m == "dcal":
                        res = dcal_test(pair, alpha=alpha)
                        per_method[m] = (res.p_dcal, res.r_dcal)
                    else:
                        r, p, _, _ = pairwise_reference.skipped_correlation(pair)
                        per_method[m] = (p, r)
            except DcalError:
                failed += 1
                continue
            for m in methods:
                score, est = per_method[m]
                sums[m][0] += est
                if score < alpha:
                    sums[m][1] += est
                    sums[m][2] += 1
        done = repetitions - failed
        errors += failed
        for m in methods:
            est_sum, est_sig_sum, n_sig = sums[m]
            records += [est_sum / done, est_sig_sum / n_sig if n_sig else None, n_sig / done]
    return records, errors


class TestBatchedCells:
    @pytest.mark.parametrize("n, fraction, methods", [
        (100, 0.1, ["pearson", "dcal", "skipped"]),
        (12, 0.25, ["skipped", "pearson", "dcal"]),
        (11, 0.5, ["dcal", "skipped"]),
        (31, 0.0, ["pearson"]),
    ])
    def test_outlier_suite_matches_per_pair_loop(self, n, fraction, methods):
        cells = [
            Contaminated(0.5, OutlierKind("high_variance", sd_outlier=3.0), fraction, n, 61),
            Contaminated(-0.3, OutlierKind("univariate", magnitude=4.0), fraction, n, 62),
            Contaminated(0.2, OutlierKind("bivariate"), fraction, n, 61),
        ]
        report = run_outlier_suite(cells, methods, alpha=0.1, repetitions=40)
        records, errors = _per_pair_outlier_records(cells, methods, 0.1, 40)
        assert [rec["value"] for rec in report.records] == records
        assert report.meta["errors"] == errors

    @pytest.mark.parametrize("methods", [["pearson", "dcal", "skipped"], ["dcal", "pearson"]])
    def test_mixed_n_cells_match_per_pair_loop(self, monkeypatch, methods):
        cells = [
            Contaminated(0.5, OutlierKind("bivariate"), 0.1, 11, 71),
            Contaminated(0.3, OutlierKind("univariate"), 0.1, 30, 72),
            Contaminated(-0.2, OutlierKind("high_variance", sd_outlier=3.0), 0.25, 11, 73),
            Contaminated(0.4, OutlierKind("bivariate"), 0.1, 30, 71),
            Contaminated(0.0, OutlierKind("univariate"), 0.1, 30, 74),
        ]
        if "skipped" not in methods:  # the sweep needs n >= 10
            cells.insert(1, Contaminated(0.6, OutlierKind("bivariate"), 0.25, 9, 75))
        records, errors = _per_pair_outlier_records(cells, methods, 0.1, 40)
        # groups of one cell (the per-cell scoring), of two cells at n = 30,
        # and the default, which holds every cell of one n
        for budget in (1, 2 * simulate._SAMPLE_BYTES * 40 * 30, core.CHUNK_BYTES):
            monkeypatch.setattr(core, "CHUNK_BYTES", budget)
            report = run_outlier_suite(cells, methods, alpha=0.1, repetitions=40)
            assert [rec["value"] for rec in report.records] == records, budget
            assert report.meta["errors"] == errors

    def test_benchmark_groups_unchanged(self, monkeypatch):
        # fig6 at 100 repetitions scores its 9 cells of n = 100 in one call;
        # at 1311 repetitions (tools/compare_reports.py) one cell per call
        calls, score = [], simulate.score_rows
        monkeypatch.setattr(simulate, "score_rows",
                            lambda rows, methods: calls.append(len(rows.X)) or score(rows, methods))
        config = cli._parse_config(str(resources.files("dcal.fixtures") / "fig6.cfg"))
        run_outlier_suite(cli._outlier_cells(config, 0), ["pearson"], repetitions=100)
        assert calls == [900]
        assert core.units_per_block(simulate._SAMPLE_BYTES * 1311 * 100) == 1

    @pytest.mark.parametrize("budget", [1, None])
    def test_first_failing_cell_in_config_order_raises(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(core, "CHUNK_BYTES", budget)
        kind = OutlierKind("bivariate")
        fine = Contaminated(0.5, kind, 0.1, 30, 81)
        short = Contaminated(0.5, kind, 0.25, 4, 82)  # skipped fails every repetition
        empty = Contaminated(0.5, kind, 0.25, 3, 83)  # contaminates no sample
        unscored = Contaminated(0.5, kind, 0.01, 30, 84)  # nor does this one
        # the cells of n = 30 are drawn and scored before those of n = 4
        with pytest.raises(DcalError, match=r"every repetition .*,n=4,"):
            run_outlier_suite([fine, short, empty, unscored], ["skipped"], repetitions=5)
        with pytest.raises(ValueError, match="selects no samples at n=3"):
            run_outlier_suite([fine, empty, short, unscored], ["skipped"], repetitions=5)
        with pytest.raises(ValueError, match="selects no samples at n=30"):
            run_outlier_suite([fine, unscored, short, empty], ["skipped"], repetitions=5)
        # cells (0.5, 12), (0.5, 3), (1.0, 12), (1.0, 3): the group of n = 12
        # meets the error of (1.0, 12) first
        design = EffectGrid(rho_list=(0.5, 1.0), n_list=(12, 3), seed=85)
        with pytest.raises(ValueError, match="need n >= 4, got 3"):
            run_effect_grid(design, ["uncorrected"], repetitions=5)

    def test_each_pair_validated_once(self, monkeypatch):
        # a cell's pairs go through pair_errors when they are drawn, and not
        # again when the classical phase or skipped correlation scores them
        checked = []

        def counting(X, y):
            checked.append(len(X))
            return core.pair_errors(X, y)

        for module in (simulate, engine, method_table):
            monkeypatch.setattr(module, "pair_errors", counting)
        kind = OutlierKind("univariate")
        cells = [Contaminated(rho, kind, 0.1, 30, 91) for rho in (0.0, 0.5, -0.5)]
        run_outlier_suite(cells, ["pearson", "dcal", "skipped"], repetitions=20)
        assert checked == [20, 20, 20]
        checked.clear()
        design = EffectGrid(rho_list=(0.0, 0.5), n_list=(12,), seed=92)
        run_effect_grid(design, ["uncorrected", "dcal"], repetitions=20)
        assert checked == [20, 20]

    def test_overflowing_outliers_fail_every_repetition(self):
        cell = Contaminated(0.5, OutlierKind("high_variance", sd_outlier=1e300), 0.1, 30, 5)
        with pytest.raises(DcalError, match="every repetition of outlier-suite cell"):
            run_outlier_suite([cell], repetitions=4)

    def test_effect_grid_matches_per_pair_loop(self, monkeypatch):
        design = EffectGrid(rho_list=(0.0, 0.45, -0.8), n_list=(4, 9, 40, 11), seed=63)
        methods = ["uncorrected", "dcal", "pcal_sellke", "pcal_bickel", "ppbf"]
        values = []
        for ci, (rho, n) in enumerate((r, n) for r in design.rho_list for n in design.n_list):
            sums = {m: [0.0, 0.0, 0.0, 0] for m in methods}
            for rep in range(25):
                pair = pairwise_reference.gen_contaminated(
                    n, rho, None, 0.0, derive(design.seed, ci, rep)
                )
                classical = pearson(pair)
                res = dcal_test(pair, alpha=0.1)
                bf = correlation_bf(pair)
                per_method = {
                    "uncorrected": (classical.p, classical.r),
                    "dcal": (res.p_dcal, res.r_dcal),
                    "pcal_sellke": (pcal_sellke(classical.p), classical.r),
                    "pcal_bickel": (pcal_bickel(classical.p), classical.r),
                    "ppbf": (1.0 - bf_to_posterior(bf), classical.r),
                }
                for m in methods:
                    score, est = per_method[m]
                    sums[m][0] += score
                    sums[m][1] += est
                    sums[m][2] += abs(est)
                    sums[m][3] += score < 0.1
            for m in methods:
                values += [sums[m][0] / 25, sums[m][1] / 25, sums[m][2] / 25, sums[m][3] / 25]
        # groups of one cell (the per-cell scoring), of two cells at n = 40,
        # and the default, which holds every cell of one n
        for budget in (1, 2 * simulate._SAMPLE_BYTES * 25 * 40, core.CHUNK_BYTES):
            monkeypatch.setattr(core, "CHUNK_BYTES", budget)
            report = run_effect_grid(design, methods, alpha=0.1, repetitions=25)
            assert [rec["value"] for rec in report.records] == values, budget


class TestRepeatedMethods:
    """A name given twice is rejected, naming it: a report keeps one block
    of records per name, which ``ExperimentReport.value`` looks up."""

    def test_effect_grid_rejects_a_repeated_method(self):
        design = EffectGrid((0.5,), (20,), 1)
        for methods in (["uncorrected", "uncorrected"], ["ppbf", "dcal", "ppbf", "dcal"]):
            with pytest.raises(ValueError, match=f"method {methods[0]!r} is given twice"):
                run_effect_grid(design, methods, repetitions=5)

    def test_battery_rejects_a_repeated_method_or_correction(self):
        design = NullBattery(m=5, n=20, seed=2)
        for methods in (["dcal", "holm", "dcal"], ["holm", "uncorrected", "holm"]):
            with pytest.raises(ValueError, match=f"method {methods[0]!r} is given twice"):
                run_battery_experiment(design, methods, repetitions=2)

    def test_outlier_suite_rejects_a_repeated_method(self):
        cells = [Contaminated(0.4, OutlierKind("bivariate"), 0.1, 30, 9)]
        with pytest.raises(ValueError, match="method 'pearson' is given twice"):
            run_outlier_suite(cells, ["pearson", "skipped", "pearson"], repetitions=12)


class TestReportSerialization:
    def test_csv_and_json_round_trip(self, tmp_path):
        design = NullBattery(m=5, n=25, seed=51)
        report = run_battery_experiment(design, methods=["uncorrected"], repetitions=2)
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        report.write_csv(csv_path)
        report.write_json(json_path)

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "design,cell,method,metric,value"
        assert len(lines) == 1 + len(report.records)
        loaded = json.loads(json_path.read_text())
        assert loaded["records"] == [
            {**rec, "value": rec["value"]} for rec in report.records
        ]
        # identical runs produce identical bytes
        report2 = run_battery_experiment(design, methods=["uncorrected"], repetitions=2)
        csv2 = tmp_path / "report2.csv"
        report2.write_csv(csv2)
        assert csv2.read_bytes() == csv_path.read_bytes()

    def test_value_lookup_requires_unique_match(self):
        design = EffectGrid(rho_list=(0.2, 0.4), n_list=(20,), seed=52)
        report = run_effect_grid(design, methods=["uncorrected"], repetitions=5)
        with pytest.raises(KeyError):
            report.value("uncorrected", "mean_p")  # ambiguous: two cells
