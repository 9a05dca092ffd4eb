import contextlib
import csv
import json
import math
import re
import tempfile
import warnings
from functools import partial
from itertools import compress, islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcal import (
    FeatureMatrix,
    NumericRangeError,
    OosScheme,
    ParseError,
    PermutationPlan,
    TargetError,
    load_matrix,
    screen,
    write_report,
)
from dcal.batchio import CORRECTIONS
from dcal import batchio, core, engine
from dcal.rng import Stream, derive

import screen_reference
from conftest import csv_tables, steep_pair
from test_work_space import assert_fits, traced_peak


def _rows(report) -> list[tuple]:
    """Per feature of a screen report: its name, the batch's numbers and
    flags, its adjusted p per correction, and its error's text ('' if none)."""
    batch = report.batch
    columns = [batch.r, batch.p, batch.r_dcal, batch.p_dcal, batch.sign_flip, batch.skipped]
    columns += [report.adjusted[corr] for corr in report.corrections]
    errors = ["" if error is None else str(error) for error in batch.errors]
    return list(zip(report.names, *(column.tolist() for column in columns), errors))


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


WELL_FORMED = """id,s1,s2,s3,s4,s5
g1,1.0,2.0,3.0,4.0,5.0
g2,2.0,1.5,3.5,2.5,4.5
g3,5.0,4.0,3.0,2.0,1.0
"""


def _synthetic_matrix(n_features=30, n_true=6, n=60, rho=0.6, seed=2026):
    """Feature matrix with a 'target' row plus planted correlates."""
    y = Stream(derive(seed, 0)).normals(n)
    names = ["target"]
    rows = [y]
    for j in range(n_features):
        g = Stream(derive(seed, j + 1)).normals(n)
        if j < n_true:
            rows.append(rho * y + math.sqrt(1 - rho * rho) * g)
        else:
            rows.append(g)
        names.append(f"f{j:03d}")
    return FeatureMatrix(
        feature_names=tuple(names),
        values=np.vstack(rows),
        sample_names=tuple(f"s{i}" for i in range(n)),
    )


class TestFeatureMatrix:
    @pytest.mark.parametrize("names, values, message", [
        (("a", "a"), np.ones((2, 4)), "feature names must be unique"),
        (("a", ""), np.ones((2, 4)), "feature names must be nonempty"),
        (("a", "b"), np.ones(4), "values must be a"),
        (("a", "b"), np.ones((3, 4)), "values must be a"),
        (("a", "b"), np.array([[1.0, np.inf], [1.0, 2.0]]), "non-finite values"),
    ])
    def test_checks(self, names, values, message):
        with pytest.raises(ValueError, match=message):
            FeatureMatrix(names, values, tuple(f"s{i}" for i in range(np.shape(values)[-1])))

    @pytest.mark.parametrize("text, reason", [
        ("id,s1,s2,s3,s4,s5\nt,2,2,2,2,2\ng1,1,2,3,4,5\n", "was excluded: constant value"),
        ("id,s1,s2,s3,s4,s5\nt,1,NA,3,4,5\ng1,1,2,3,4,5\n", "was dropped: missing values"),
        ("id,s1,s2,s3,s4,s5\ng1,1,2,3,4,5\n", "not found in matrix"),
    ])
    def test_a_missing_target_is_named_with_its_reason(self, tmp_path, text, reason):
        matrix = load_matrix(_write(tmp_path, "m.csv", text))
        with pytest.raises(TargetError, match=f"^feature 't' {reason}$"):
            screen(matrix, "t")


class TestLoadMatrix:
    def test_argument_checks(self, tmp_path):
        path = _write(tmp_path, "m.csv", WELL_FORMED)
        with pytest.raises(ValueError, match="unknown orientation 'sideways'"):
            load_matrix(path, orientation="sideways")
        with pytest.raises(ValueError, match="unknown missing policy 'ignore'"):
            load_matrix(path, missing_policy="ignore")
        with pytest.raises(ParseError, match="^line 1: expected a name column plus data columns$"):
            load_matrix(_write(tmp_path, "names.csv", "id\ng1\n"))

    def test_benchmark_blocks_unchanged(self, tmp_path, monkeypatch):
        # the benchmark's rows of 100 data cells are converted 163 at a time
        sizes, parse = [], batchio._parse_block
        monkeypatch.setattr(batchio, "_parse_block",
                            lambda cells, lines: sizes.append(len(lines)) or parse(cells, lines))
        values = Stream(3).normals(400 * 100).reshape(400, 100)
        text = "id," + ",".join(f"s{k}" for k in range(100)) + "\n" + "".join(
            f"g{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(values.tolist())
        )
        assert load_matrix(_write(tmp_path, "m.csv", text)).values.tobytes() == values.tobytes()
        assert sizes == [163, 163, 74]

    def test_well_formed_round_trip(self, tmp_path):
        matrix = load_matrix(_write(tmp_path, "m.csv", WELL_FORMED))
        assert matrix.feature_names == ("g1", "g2", "g3")
        assert matrix.sample_names == ("s1", "s2", "s3", "s4", "s5")
        assert matrix.values.shape == (3, 5)
        assert matrix.warnings == ()

    def test_constant_feature_dropped_with_warning(self, tmp_path):
        text = WELL_FORMED + "flat,7.0,7.0,7.0,7.0,7.0\n"
        matrix = load_matrix(_write(tmp_path, "m.csv", text))
        assert "flat" not in matrix.feature_names
        assert any("flat" in w for w in matrix.warnings)

    def test_non_numeric_cell_cites_position(self, tmp_path):
        text = "id,s1,s2,s3,s4\ng1,1,2,oops,4\n"
        with pytest.raises(ParseError, match=r"line 2, column 4"):
            load_matrix(_write(tmp_path, "m.csv", text))

    def test_ragged_row_cites_line(self, tmp_path):
        text = "id,s1,s2\ng1,1,2\ng2,1\n"
        with pytest.raises(ParseError, match="line 3"):
            load_matrix(_write(tmp_path, "m.csv", text))

    def test_duplicate_name_rejected(self, tmp_path):
        text = "id,s1,s2\ng1,1,2\ng1,3,4\n"
        with pytest.raises(ParseError, match="g1"):
            load_matrix(_write(tmp_path, "m.csv", text))

    def test_missing_policy_drop_vs_fail(self, tmp_path):
        text = "id,s1,s2,s3\ng1,1,NA,3\ng2,4,5,6.5\n"
        path = _write(tmp_path, "m.csv", text)
        dropped = load_matrix(path, missing_policy="drop_feature")
        assert dropped.feature_names == ("g2",)
        assert any("g1" in w for w in dropped.warnings)
        with pytest.raises(ParseError, match="g1"):
            load_matrix(path, missing_policy="fail")

    def test_samples_in_rows_orientation(self, tmp_path):
        text = "sample,g1,g2\ns1,1.0,9.0\ns2,2.0,8.0\ns3,3.5,6.0\n"
        matrix = load_matrix(_write(tmp_path, "m.csv", text), orientation="samples_in_rows")
        assert matrix.feature_names == ("g1", "g2")
        assert matrix.sample_names == ("s1", "s2", "s3")
        assert np.allclose(matrix.values[0], [1.0, 2.0, 3.5])

    @pytest.mark.parametrize("token", ["inf", " -Infinity", "-nan", "+NaN", "1e999"])
    def test_non_finite_cell_cites_position(self, tmp_path, token):
        # the row errors even though it also has a missing cell
        text = f"id,s1,s2,s3,s4\ng1,1,2,3,4\ng2,NA,2,{token},4\n"
        message = f"line 3, column 4: '{token.strip()}' is not a finite number"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_matrix(_write(tmp_path, "m.csv", text))

    def test_duplicate_names_report_the_first_in_sort_order(self, tmp_path):
        text = "id,s1,s2\ng2,1,2\ng1,3,4\ng2,5,6\ng1,7,8\n"
        with pytest.raises(ParseError, match="duplicate feature name 'g1'"):
            load_matrix(_write(tmp_path, "m.csv", text))

    def test_first_error_in_file_order(self, tmp_path):
        # a bad token on line 2 wins over the ragged line 3 and the duplicate
        text = "id,s1,s2\ng1,1,x\ng1,1\n"
        with pytest.raises(ParseError, match="line 2, column 3"):
            load_matrix(_write(tmp_path, "m.csv", text))

    def test_oversized_field_cites_line(self, tmp_path):
        # csv.reader refuses fields over its limit (131072 characters)
        text = "id,s1,s2\ng1,1,2\ng2,1," + "1" * 200_000 + "\n"
        with pytest.raises(ParseError, match="line 3: field larger than field limit"):
            load_matrix(_write(tmp_path, "m.csv", text))

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        with pytest.raises(ValueError, match="one character"):
            load_matrix(_write(tmp_path, "m.csv", WELL_FORMED), delimiter=delimiter)

    def test_bad_cell_after_a_multi_line_record_cites_its_physical_line(self, tmp_path):
        # the quoted name spans lines 2 and 3, so the bad cell sits on line 4
        text = 'id,s1,s2\n"multi\nline",1,2\ng2,1,x\n'
        with pytest.raises(ParseError, match=re.escape("line 4, column 3: 'x' is not a number")):
            load_matrix(_write(tmp_path, "m.csv", text))

    def test_ragged_row_after_a_multi_line_record_cites_its_physical_line(self, tmp_path):
        text = 'id,s1,s2\n"multi\nline",1,2\ng2,1\n'
        with pytest.raises(ParseError, match=re.escape("line 4: expected 3 columns, got 2")):
            load_matrix(_write(tmp_path, "m.csv", text))

    def test_row_with_a_missing_cell_is_converted_on_its_own(self, tmp_path):
        # the rows around it keep their block conversion; only its cells,
        # on line 6, are parsed again one by one
        rows = [f"g{i},{i},{i % 3}.5\n" for i in range(8)]
        rows[4] = "m,NA,1\n"
        with mock.patch.object(batchio, "_parse_cell", wraps=batchio._parse_cell) as per_cell:
            matrix = load_matrix(_write(tmp_path, "m.csv", "id,s1,s2\n" + "".join(rows)))
        assert [call.args for call in per_cell.call_args_list] == [("NA", 6, 2), ("1", 6, 3)]
        assert matrix.feature_names == ("g0", "g1", "g2", "g3", "g5", "g6", "g7")
        assert matrix.warnings == ("feature 'm' dropped: missing values",)

    @pytest.mark.parametrize("later", [
        "g9,1\n", "\n", "g9,1," + "1" * 200_000 + "\n", "g9,inf,1\n", "g9,NA,1\n", 'g9,"1",y\n',
    ], ids=["ragged", "blank", "oversized", "non-finite", "missing", "quoted"])
    def test_cell_error_comes_before_a_later_bad_row_of_its_block(self, tmp_path, later):
        # every row here falls in one block at the default budget
        text = "id,s1,s2\n" + "g1,1,2\n" * 5 + "g2,1,x\ng3,3,4\n" + later
        with pytest.raises(ParseError, match=re.escape("line 7, column 3: 'x' is not a number")):
            load_matrix(_write(tmp_path, "m.csv", text))


_reference_parse_cell = screen_reference._parse_cell


def _finite_parse_cell(token, line_no, col_no):
    """The frozen per-cell parser plus the rule that a parsed number must be
    finite, the one deliberate change of the array loader."""
    value = _reference_parse_cell(token, line_no, col_no)
    if value is not None and not math.isfinite(value):
        raise ParseError(f"line {line_no}, column {col_no}: {token.strip()!r} is not a finite number")
    return value


def _loaded(load, path, **options):
    try:
        matrix = load(path, **options)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return (
        matrix.feature_names, matrix.values.shape, matrix.values.tobytes(),
        matrix.sample_names, matrix.warnings,
    )


def _reference_loaded(path, **options):
    """The frozen loader's result, with a record that csv.reader cannot read
    (a field over its limit) put in file order.

    The frozen loader reads every record before it parses one, so such a
    record raised csv.Error first.  The array loader cites it, as a
    ParseError of its line, after the errors of the rows before it: those
    rows alone are given to the frozen loader, and its error stands if it
    names a line."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=options["delimiter"])
        try:
            for _ in reader:
                pass
        except csv.Error as exc:
            bad_line, csv_error = reader.line_num, (ParseError, f"line {reader.line_num}: {exc}")
        else:
            return _loaded(screen_reference.load_matrix, path, **options)
    with open(path, encoding="utf-8", newline="") as fh:
        head = "".join(islice(fh, bad_line - 1))
    prefix = path.with_name("head.csv")
    prefix.write_text(head, encoding="utf-8", newline="")
    expected = _loaded(screen_reference.load_matrix, prefix, **options)
    if expected[0] is ParseError and expected[1].startswith("line "):
        return expected
    return csv_error


class TestLoaderEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(
        table=csv_tables(),
        orientation=st.sampled_from(["features_in_rows", "samples_in_rows"]),
        missing_policy=st.sampled_from(["drop_feature", "fail"]),
        budget=st.sampled_from([1, 2 * batchio._CELL_BYTES, 5 * batchio._CELL_BYTES,
                                core.CHUNK_BYTES]),
    )
    def test_matches_per_cell_reference(self, table, orientation, missing_policy, budget):
        # small blocks end on every kind of row, error rows included
        text, delimiter, _, has_nonfinite = table
        options = dict(delimiter=delimiter, orientation=orientation, missing_policy=missing_policy)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_text(text, encoding="utf-8", newline="")
            with mock.patch.object(core, "CHUNK_BYTES", budget):
                got = _loaded(load_matrix, path, **options)
            finite = (
                mock.patch.object(screen_reference, "_parse_cell", _finite_parse_cell)
                if has_nonfinite else contextlib.nullcontext()
            )
            with finite:
                expected = _reference_loaded(path, **options)
        assert got == expected

    def test_reference_differs_only_on_non_finite_cells(self, tmp_path):
        # the frozen loader dropped this row (missing cell); the array
        # loader names its infinite cell
        path = _write(tmp_path, "m.csv", "id,s1,s2,s3\ng1,inf,NA,1\ng2,1,2,3\n")
        assert screen_reference.load_matrix(path).feature_names == ("g2",)
        with pytest.raises(ParseError, match="line 2, column 2: 'inf' is not a finite number"):
            load_matrix(path)


class TestLoadMemory:
    """The traced peak of one warm ``load_matrix`` call: the kept blocks
    and their one concatenation, plus each feature's name (row
    ``load_matrix`` of ``tests/test_work_space.py``).  The per-row arrays,
    their stack and the compacting copy that earlier versions made peaked at
    3.26 times the matrix at this size."""

    def test_traced_peak(self):
        assert_fits("load_matrix", m=2000, n=200)


class TestScreenMemory:
    """The traced peak of one warm ``screen`` call beyond the loaded matrix
    stays within one budget of block work space, the (B, n) shuffled
    targets of ``perm_max`` and 250 bytes per feature for the per-feature
    vectors (162 to 208 bytes per feature measured).  It holds no (m, n)
    copy: from 2000 to 8000 features at n = 100 the peak grows by less than
    a copy of the added rows.  Gathering the tested rows, centring them and
    standardizing them for the permutations took 22 MB at 8000 features."""

    ROW_BYTES = 250

    @pytest.mark.parametrize("scheme", [OosScheme.loo(), OosScheme.boot632(20, 1)],
                             ids=lambda scheme: scheme.label)
    def test_traced_peak(self, scheme):
        n, plan, peaks = 100, PermutationPlan(199, 0), {}
        for m in (2000, 8000):
            values = Stream(m).normals(m * n).reshape(m, n)
            values[1 : m // 50] += 0.5 * values[0]  # planted features run the calibration
            matrix = FeatureMatrix(tuple(f"f{i}" for i in range(m)), values,
                                   tuple(f"s{j}" for j in range(n)))
            run = partial(screen, matrix, "f0", scheme=scheme,
                          corrections=("holm", "bh", "perm_max"), plan=plan)
            assert run().summary["tested"] == m - 1
            peaks[m] = traced_peak(run)
            targets = 8 * plan.n_permutations * n
            assert peaks[m] <= core.CHUNK_BYTES + targets + self.ROW_BYTES * m
        assert peaks[8000] - peaks[2000] < 8 * n * 6000


class TestScreen:
    def test_planted_correlates_found(self):
        matrix = _synthetic_matrix()
        report = screen(matrix, "target", corrections=("holm", "bh"))
        assert len(report.names) == len(report.batch.p) == 30  # target excluded
        assert "target" not in report.names
        sets = report.significant_sets()
        planted = {f"f{j:03d}" for j in range(6)}
        assert planted <= sets["uncorrected"]
        assert report.summary["significant"]["uncorrected"] >= 6

    def test_target_missing_raises(self):
        matrix = _synthetic_matrix()
        with pytest.raises(TargetError):
            screen(matrix, "nope")

    def test_constant_target_raises(self):
        matrix = FeatureMatrix(
            feature_names=("a", "b"),
            values=np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0]]),
            sample_names=("s1", "s2", "s3", "s4"),
        )
        with pytest.raises(TargetError, match="constant"):
            screen(matrix, "a")

    def test_target_spread_beyond_float64_is_not_constant(self):
        # max - min of this target overflows; the constant check compares
        # them instead, so nothing warns, and every feature fails alone on
        # its centred sums
        target = np.repeat([1.7e308, -1.7e308], 6)
        matrix = FeatureMatrix(
            feature_names=("t", "a", "b", "c"),
            values=np.vstack([target, Stream(5).normals(36).reshape(3, 12)]),
            sample_names=tuple(f"s{k}" for k in range(12)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = screen(matrix, "t")
        assert report.summary["failed"] == 3

    def test_degenerate_feature_recorded_not_fatal(self):
        matrix = FeatureMatrix(
            feature_names=("target", "flat", "ok"),
            values=np.array(
                [
                    [0.3, -1.2, 0.8, 1.9, -0.4, 0.6],
                    [2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
                    [1.0, 2.0, 1.5, 3.0, 2.5, 0.5],
                ]
            ),
            sample_names=tuple("abcdef"),
        )
        report = screen(matrix, "target", corrections=("holm",))
        flat, ok = report.names.index("flat"), report.names.index("ok")
        assert "zero variance" in str(report.batch.errors[flat])
        assert report.batch.errors[ok] is None
        assert report.summary["failed"] == 1
        # corrections computed over successfully tested features only
        assert report.adjusted["holm"][ok] == report.batch.p[ok]  # m = 1

    @pytest.mark.parametrize("fast", [True, False])
    def test_overflowing_feature_recorded_not_fatal(self, fast):
        # a feature holding -1e308 has centred sums beyond float64; it fails
        # alone and the other rows are those of the screen without it
        clean = _synthetic_matrix()
        huge = clean.values[3].copy()
        huge[5] = -1e308
        matrix = FeatureMatrix(
            feature_names=clean.feature_names + ("huge",),
            values=np.vstack([clean.values, huge]),
            sample_names=clean.sample_names,
        )
        options = dict(corrections=CORRECTIONS, fast=fast, plan=PermutationPlan(200, 3))
        report = screen(matrix, "target", **options)
        assert report.names[-1] == "huge"
        assert _rows(report)[-1][-1] == (
            "centred sums of squares or products leave the float64 range"
        )
        assert report.summary["failed"] == 1
        assert _rows(report)[:-1] == _rows(screen(clean, "target", **options))

    @pytest.mark.parametrize("scheme", [OosScheme.repeated_kfold(10, 10, 0), OosScheme.boot632()],
                             ids=lambda scheme: scheme.label)
    def test_out_of_range_predictions_recorded_not_fatal(self, scheme):
        # the steep feature's out-of-sample predictions leave the float64
        # range; it fails alone and the other rows are those of the screen
        # without it (this used to end the whole screen with ValueError)
        x, y = steep_pair()
        noise = np.vstack([Stream(derive(7, j)).normals(12) * 1e150 for j in range(4)])
        names = ("target", "a", "b", "c", "d")
        clean = FeatureMatrix(names, np.vstack([y, noise]), tuple(f"s{k}" for k in range(12)))
        matrix = FeatureMatrix(names + ("steep",), np.vstack([clean.values, x]),
                               clean.sample_names)
        options = dict(scheme=scheme, corrections=CORRECTIONS, fast=False,
                       plan=PermutationPlan(100, 3))
        report = screen(matrix, "target", **options)
        assert report.names[-1] == "steep"
        assert _rows(report)[-1][-1] == (
            "out-of-sample predictions or their centred sums leave the float64 range"
        )
        assert report.summary["failed"] == 1
        assert _rows(report)[:-1] == _rows(screen(clean, "target", **options))

    def test_fast_matches_full_on_significant_sets(self):
        matrix = _synthetic_matrix()
        fast = screen(matrix, "target", fast=True)
        full = screen(matrix, "target", fast=False)
        assert fast.significant_sets() == full.significant_sets()
        # the guard actually skipped OOS work, and only on non-significant tests
        assert fast.summary["fast_skipped"] > 0
        assert full.summary["fast_skipped"] == 0
        skipped = set(compress(fast.names, fast.batch.skipped.tolist()))
        assert skipped.isdisjoint(fast.significant_sets()["dcal"])

    def test_order_independence(self):
        matrix = _synthetic_matrix(n_features=12)
        report = screen(matrix, "target", scheme=OosScheme.boot632(30, 5))
        order = np.arange(len(matrix.feature_names))[::-1]
        shuffled = FeatureMatrix(
            feature_names=tuple(matrix.feature_names[i] for i in order),
            values=matrix.values[order],
            sample_names=matrix.sample_names,
        )
        report2 = screen(shuffled, "target", scheme=OosScheme.boot632(30, 5))
        a = {row[0]: row for row in _rows(report)}
        b = {row[0]: row for row in _rows(report2)}
        assert a == b

    def test_holm_subset_of_bh(self):
        matrix = _synthetic_matrix(n_features=40, n_true=10, rho=0.45)
        report = screen(matrix, "target", corrections=("holm", "bh"))
        sets = report.significant_sets()
        assert sets["holm"] <= sets["bh"]

    def test_repeat_runs_deterministic(self):
        # 700 features of 60 samples span several out-of-sample chunks
        matrix = _synthetic_matrix(n_features=700)
        a = screen(matrix, "target", scheme=OosScheme.boot632(20, 3), corrections=CORRECTIONS)
        b = screen(matrix, "target", scheme=OosScheme.boot632(20, 3), corrections=CORRECTIONS)
        assert _rows(a) == _rows(b) and a.summary == b.summary

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("scheme", [
        OosScheme.loo(), OosScheme.repeated_kfold(3, 2, 5), OosScheme.boot632(10, 5)
    ], ids=["loo", "cv3x2", "boot632"])
    def test_report_does_not_depend_on_chunking(self, tmp_path, scheme, fast):
        # one row per chunk, a few (loo at n = 20 takes 3 rows of 60 * 160
        # bytes; four rows of any scheme leave one row to the last chunk of
        # the 45 that run), the default budget and every row in one chunk;
        # the feature holding -1e308 fails
        clean = _synthetic_matrix(n_features=45, n=20)
        huge = clean.values[7].copy()
        huge[2] = -1e308
        matrix = FeatureMatrix(
            feature_names=clean.feature_names[:20] + ("huge",) + clean.feature_names[20:],
            values=np.vstack([clean.values[:20], huge, clean.values[20:]]),
            sample_names=clean.sample_names,
        )
        reports = []
        budgets = (1, 60 * 160, 4 * engine._row_bytes(scheme, 20), core.CHUNK_BYTES, 2 ** 40)
        for budget in budgets:
            with mock.patch.object(core, "CHUNK_BYTES", budget):
                report = screen(matrix, "target", scheme=scheme, corrections=CORRECTIONS,
                                fast=fast, plan=PermutationPlan(199, 4))
            for fmt in ("csv", "json"):
                write_report(report, tmp_path / f"{budget}.{fmt}", format=fmt)
            reports.append(tuple((tmp_path / f"{budget}.{fmt}").read_bytes()
                                 for fmt in ("csv", "json")))
        assert all(report == reports[0] for report in reports)
        assert b"float64 range" in reports[0][0]

    def test_perm_corrections_attach(self):
        matrix = _synthetic_matrix(n_features=10, n_true=3, n=40)
        report = screen(matrix, "target", corrections=("perm", "perm_max"))
        assert set(report.adjusted) == {"perm", "perm_max"}
        for perm, perm_max in zip(report.adjusted["perm"], report.adjusted["perm_max"]):
            assert perm_max >= perm


class TestWriteReport:
    def test_csv_round_trip_bit_equal(self, tmp_path):
        matrix = _synthetic_matrix(n_features=8)
        report = screen(matrix, "target")
        path = tmp_path / "screen.csv"
        write_report(report, path, format="csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        for parsed, name, r, p_dcal in zip(rows, report.names, report.batch.r.tolist(),
                                           report.batch.p_dcal.tolist()):
            assert parsed["name"] == name
            assert float(parsed["r"]) == r
            assert float(parsed["p_dcal"]) == p_dcal
            assert parsed["flip"] in ("true", "false")

    def test_csv_header_on_empty_battery(self, tmp_path):
        matrix = FeatureMatrix(
            feature_names=("target",),
            values=np.array([[0.1, 0.9, 0.4, 0.7]]),
            sample_names=tuple("abcd"),
        )
        report = screen(matrix, "target")
        path = tmp_path / "empty.csv"
        write_report(report, path, format="csv")
        lines = path.read_text().splitlines()
        assert lines == ["name,r,p,r_dcal,p_dcal,flip,p_holm,p_bh,error"]
        assert report.summary["significant"]["dcal"] == 0

    def test_json_summary_matches_recount(self, tmp_path):
        matrix = _synthetic_matrix(n_features=10)
        report = screen(matrix, "target")
        path = tmp_path / "screen.json"
        write_report(report, path, format="json")
        doc = json.loads(path.read_text())
        recount = sum(
            1 for row in doc["rows"] if not row["error"] and row["p_dcal"] < doc["alpha"]
        )
        assert doc["summary"]["significant"]["dcal"] == recount
        assert doc["summary"]["tested"] == len(
            [row for row in doc["rows"] if not row["error"]]
        )

    @pytest.mark.parametrize("scheme", [OosScheme.loo(), OosScheme.repeated_kfold(3, 2)],
                             ids=lambda scheme: scheme.label)
    def test_json_flips_are_booleans(self, tmp_path, scheme):
        # full mode with every feature tested in one chunk used to write 0/1
        report = screen(_synthetic_matrix(n_features=10), "target", scheme=scheme, fast=False)
        path = tmp_path / "screen.json"
        write_report(report, path, format="json")
        flips = [row["flip"] for row in json.loads(path.read_text())["rows"] if not row["error"]]
        assert len(flips) == 10 and all(isinstance(flip, bool) for flip in flips)

    def test_unknown_format(self, tmp_path):
        matrix = _synthetic_matrix(n_features=4)
        report = screen(matrix, "target")
        with pytest.raises(ValueError):
            write_report(report, tmp_path / "x.bin", format="parquet")
        assert not (tmp_path / "x.bin").exists()

    @staticmethod
    def _mixed_report():
        """A screen report whose features have non-ASCII and quoted names,
        including two that failed (null numbers) with commas in their error
        text, and a summary counted from it."""
        report = screen(_synthetic_matrix(n_features=12), "target",
                        corrections=CORRECTIONS, plan=PermutationPlan(199, 3))
        batch = report.batch
        errors = list(batch.errors)
        for k in (2, 9):
            errors[k] = NumericRangeError(f"row {k}, say, left the range")
            for column in (batch.r, batch.p, batch.r_dcal, batch.p_dcal,
                           *report.adjusted.values()):
                column[k] = np.nan
        report.names = tuple(f'f{k}-é"ß\u2603,{{}}' for k in range(len(report.names)))
        report.batch = batch._replace(errors=tuple(errors))
        report.build_summary()
        return report

    @staticmethod
    def _indented(report) -> str:
        """The report as one ``json.dumps(doc, indent=2)`` call writes it."""
        batch = report.batch
        numbers = {"r": batch.r, "p": batch.p, "r_dcal": batch.r_dcal, "p_dcal": batch.p_dcal,
                   **{f"p_{corr}": report.adjusted[corr] for corr in report.corrections}}
        rows = []
        for k, (name, error) in enumerate(zip(report.names, batch.errors)):
            row = {"name": name}
            row.update((key, None if error else column[k].item())
                       for key, column in list(numbers.items())[:4])
            row["flip"] = bool(batch.sign_flip[k])
            row.update((key, None if error else column[k].item())
                       for key, column in list(numbers.items())[4:])
            row["error"] = "" if error is None else str(error)
            rows.append(row)
        doc = {"target": report.target, "alpha": report.alpha, "scheme": report.scheme,
               "n_samples": report.n_samples, "corrections": list(report.corrections),
               "rows": rows, "summary": report.summary}
        return json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("budget", [1, 3000, core.CHUNK_BYTES])
    def test_json_bytes_match_the_indented_encoder(self, tmp_path, monkeypatch, budget):
        # one row per block, a few rows per block, and one block
        report = self._mixed_report()
        monkeypatch.setattr(core, "CHUNK_BYTES", budget)
        write_report(report, tmp_path / "r.json", format="json")
        text = (tmp_path / "r.json").read_text(encoding="utf-8")
        assert text == self._indented(report)
        assert sum(row["error"] != "" for row in json.loads(text)["rows"]) == 2

    def test_json_bytes_of_an_empty_battery(self, tmp_path):
        matrix = FeatureMatrix(("target",), np.array([[0.1, 0.9, 0.4, 0.7]]), tuple("abcd"))
        report = screen(matrix, "target")
        write_report(report, tmp_path / "r.json", format="json")
        assert (tmp_path / "r.json").read_text(encoding="utf-8") == self._indented(report)

    def test_csv_bytes_do_not_depend_on_the_blocks(self, tmp_path, monkeypatch):
        report = self._mixed_report()
        texts = []
        for budget in (1, 3000, core.CHUNK_BYTES):
            monkeypatch.setattr(core, "CHUNK_BYTES", budget)
            write_report(report, tmp_path / "r.csv", format="csv")
            texts.append((tmp_path / "r.csv").read_bytes())
        assert texts[0] == texts[1] == texts[2]
        lines = texts[0].decode("utf-8").splitlines()
        assert lines[3].endswith(",,,,,,,,,,row 2; say; left the range")
