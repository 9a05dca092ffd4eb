import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcal import batchio, calibration, cli, core, engine, multitest, robust, simulate
from dcal.cli import main
from dcal.rng import Stream, derive

from conftest import (
    ANSCOMBE, CSV_BAD, CSV_MISSING, CSV_NONFINITE, CSV_NUMBERS, csv_tables, steep_pair,
)


@pytest.fixture
def anscombe_a_file(tmp_path):
    x, y = ANSCOMBE["A"]
    path = tmp_path / "a.csv"
    path.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y)))
    return str(path)


def _matrix_file(tmp_path, n_features=20, n_true=4, n=60, rho=0.6, seed=404):
    y = Stream(derive(seed, 0)).normals(n)
    lines = ["id," + ",".join(f"s{i}" for i in range(n))]
    lines.append("target," + ",".join(repr(float(v)) for v in y))
    for j in range(n_features):
        g = Stream(derive(seed, j + 1)).normals(n)
        row = rho * y + math.sqrt(1 - rho * rho) * g if j < n_true else g
        lines.append(f"f{j:03d}," + ",".join(repr(float(v)) for v in row))
    path = tmp_path / "matrix.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestCmdTest:
    def test_file_input(self, anscombe_a_file, capsys):
        rc = main(["test", "--input", anscombe_a_file])
        out = capsys.readouterr().out
        assert rc == 0
        values = {line.split()[0]: line.split()[1] for line in out.splitlines() if line}
        assert float(values["r"]) == pytest.approx(0.8164, abs=1e-3)
        assert float(values["p"]) == pytest.approx(0.00217, abs=1e-4)
        assert float(values["p_dcal"]) == pytest.approx(0.0392, abs=1e-3)

    def test_json_matches_human(self, anscombe_a_file, capsys):
        rc = main(["test", "--input", anscombe_a_file, "--methods", "sellke,bickel"])
        human = capsys.readouterr().out
        rc2 = main(
            ["test", "--input", anscombe_a_file, "--methods", "sellke,bickel", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert rc == rc2 == 0
        shown = {line.split()[0]: line.split()[1] for line in human.splitlines() if line}
        for key in ("r", "p", "r_dcal", "p_dcal", "pcal_sellke", "pcal_bickel"):
            assert float(shown[key]) == pytest.approx(doc[key], rel=1e-5), key

    def test_inline_vectors(self, capsys):
        rc = main(["test", "--x", "1,2,3,4,5", "--y", "1.1,2.3,2.9,4.2,4.8"])
        assert rc == 0
        assert "r_dcal" in capsys.readouterr().out

    def test_constant_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n1,5\n2,5\n3,5\n4,5\n")
        rc = main(["test", "--input", str(path)])
        assert rc == 2
        assert "variance" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["cv10x10", "boot632"])
    def test_negative_seed_is_read_modulo_2_64(self, scheme, capsys):
        # a negative seed raised OverflowError (a traceback) in the
        # resampling schemes
        args = ["test", "--x", "1,2,3,4,5,6,7,8,9,10,11,12", "--y",
                "2,1,4,3,6,5,8,7,10,9,12,11", "--scheme", scheme, "--json"]
        assert main(args + ["--seed", "-3"]) == 0
        negative = json.loads(capsys.readouterr().out)
        assert main(args + ["--seed", str(2 ** 64 - 3)]) == 0
        assert json.loads(capsys.readouterr().out) == negative

    def test_missing_input_exits_2(self, capsys):
        assert main(["test"]) == 2

    @pytest.mark.parametrize("methods, message", [
        ("sellke,sellke", "method 'sellke' is given twice"),
        ("sellke,bogus", "unknown method 'bogus' (choose from sellke, bickel, ppbf, skipped)"),
    ])
    def test_bad_methods_exit_2_before_the_test(self, tmp_path, methods, message, capsys):
        # the repeated name was accepted (exit 0); both are now rejected
        # before the pair is read or tested: a constant column would
        # otherwise fail on its variance
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n1,5\n2,5\n3,5\n4,5\n")
        for source in (["--input", str(path)], ["--x", "1,2,3,4,5", "--y", "1,3,2,5,4"]):
            assert main(["test", *source, "--methods", methods]) == 2
            captured = capsys.readouterr()
            assert message in captured.err and captured.out == ""

    def test_ppbf_is_the_null_posterior_anscombe_reports(self, anscombe_a_file, capsys):
        # this printed P(H1), 0.958 here, where every other surface reports
        # the posterior probability of the null
        assert main(["test", "--input", anscombe_a_file, "--json", "--methods", "ppbf"]) == 0
        ppbf = json.loads(capsys.readouterr().out)["ppbf"]
        assert main(["anscombe", "--json"]) == 0
        assert ppbf == json.loads(capsys.readouterr().out)["A"]["ppbf"]["p"]
        assert ppbf < 0.05

    def test_ppbf_near_perfect_correlation(self, tmp_path, capsys):
        # the trapezoid Bayes factor did not converge at r = 1 - 1e-7, n = 50,
        # and this exited 2
        x = np.arange(50.0)
        y = x + 6.45e-3 * np.where(np.arange(50) % 2 == 0, 1.0, -1.0)
        path = tmp_path / "near.csv"
        path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
        assert main(["test", "--input", str(path), "--json", "--methods", "ppbf"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 5e-8 < 1.0 - doc["r"] < 5e-7
        assert doc["ppbf"] == 0.0  # BF10 near 1e153: the null posterior rounds to 0

    @pytest.mark.parametrize("x, y", [
        ("-1,2,3,5", "1,2,3,4"), ("1,2,3,5", "-1,-2,4,3"), ("-1e-3,2,3,5", "-0,2,1,4"),
    ])
    def test_negative_leading_inline_values(self, x, y, capsys):
        # argparse took a value such as -1,2,3,5 for an option and exited 2
        assert main(["test", "--x", x, "--y", y, "--json"]) == 0
        spaced = capsys.readouterr().out
        assert main(["test", f"--x={x}", f"--y={y}", "--json"]) == 0
        assert capsys.readouterr().out == spaced

    def test_skipped_error_is_a_field(self, capsys):
        # 8 samples are too few for the sweep: the error is printed, exit 0
        x, y = "1,2,3,4,5,6,7,8", "2,1,4,3,6,5,8,7"
        assert main(["test", "--x", x, "--y", y, "--methods", "skipped", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r_skipped"] is None and doc["p_skipped"] is None
        assert doc["skipped_error"] == "projection outlier detection needs >= 10 points, got 8"

    def test_non_numeric_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pair.csv"
        path.write_text("x,y\n1,2\n2,x\n3,4\n4,3\n")
        assert main(["test", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path} line 3: non-numeric value\n"

    def test_out_of_range_predictions_name_the_predictions(self, tmp_path, capsys):
        # the steep pair's own centred sums are finite (sxx near 9e279)
        path = tmp_path / "steep.csv"
        x, y = steep_pair()
        path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
        assert main(["test", "--input", str(path), "--scheme", "cv10x10"]) == 2
        assert capsys.readouterr().err == (
            "error: out-of-sample predictions or their centred sums leave the float64 range\n"
        )

    def test_skipped_method_included(self, tmp_path, capsys):
        t = np.linspace(0, 5, 20)
        path = tmp_path / "line.csv"
        path.write_text("\n".join(f"{a},{2 * a + 0.01 * ((-1) ** i)}" for i, a in enumerate(t)))
        rc = main(["test", "--input", str(path), "--methods", "skipped", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["r_skipped"] == pytest.approx(1.0, abs=1e-3)


# flags a fuzzed test run may add; later flags override earlier ones
_TEST_FLAGS = (
    ("--scheme", "boot632"), ("--scheme", "cv10x10"), ("--fast",), ("--json",),
    ("--alpha", "0.5"), ("--alpha", "0"), ("--alpha", "nan"), ("--seed", "-3"), ("--seed", "7"),
)
_TEST_METHODS = ("sellke", "bickel", "ppbf", "skipped", "bogus", "")


@st.composite
def _pair_files(draw):
    """Text of a small two-column file: an optional header, separators of
    every kind and rows of two numbers.  Half the files have 4 to 14 such
    rows; in the others any row may instead hold one to three bad, missing,
    non-finite or numeric tokens."""
    number = st.one_of(
        st.sampled_from(CSV_NUMBERS), st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    )
    token = st.one_of(number, st.sampled_from(CSV_BAD + CSV_MISSING + CSV_NONFINITE))
    separator = st.sampled_from([",", " ", "\t", ", ", " , "])
    clean = draw(st.booleans())
    lines = [draw(st.sampled_from(["x,y", "a b", "x", ""]))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(4 if clean else 0, 14))):
        if clean or draw(st.integers(0, 5)):
            cells = [draw(number), draw(number)]
        else:
            cells = [draw(token) for _ in range(draw(st.integers(1, 3)))]
        lines.append(draw(separator).join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _run_test(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(["test", *args])
    return rc, out.getvalue()


class TestCmdTestFuzz:
    @settings(max_examples=80, deadline=None)
    @given(text=_pair_files(), data=st.data())
    def test_fuzzed_pairs_exit_cleanly(self, text, data):
        flags = data.draw(st.lists(st.sampled_from(_TEST_FLAGS), max_size=3))
        methods = ",".join(data.draw(st.lists(st.sampled_from(_TEST_METHODS), max_size=3)))
        extra = ["--methods", methods] + [flag for pair in flags for flag in pair]
        rows = [r for r in (line.replace(",", " ").split() for line in text.splitlines()) if r]
        # the same cells inline, first column as x
        inline = ["--x", ",".join(r[0] for r in rows), "--y", ",".join(r[-1] for r in rows)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pair.csv"
            path.write_text(text, encoding="utf-8")
            from_file = _run_test(["--input", str(path), *extra])
        assert from_file[0] in (0, 2, 3)
        if all(len(r) == 2 and all(map(_is_number, r)) for r in rows):
            # a file of number pairs only, without a header: both ways of
            # passing it give one result
            assert _run_test([*inline, *extra]) == from_file
        else:
            assert _run_test([*inline, *extra])[0] in (0, 2, 3)


# flags a fuzzed screen run may add; later flags override earlier ones
_SCREEN_FLAGS = (
    ("--scheme", "boot632"), ("--scheme", "cv10x10"), ("--no-fast",), ("--format", "json"),
    ("--orientation", "samples_in_rows"), ("--missing-policy", "fail"),
    ("--corrections", "holm,bh,perm,perm_max"), ("--corrections", ""),
    ("--corrections", "perm,bogus"), ("--permutations", "50"), ("--alpha", "0.5"),
)


class TestCmdScreen:
    def test_end_to_end(self, tmp_path, capsys):
        matrix = _matrix_file(tmp_path)
        out = tmp_path / "report.csv"
        rc = main([
            "screen", "--matrix", matrix, "--target", "target",
            "--output", str(out), "--seed", "5",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert out.exists()
        assert "significant (dcal)" in captured.out
        lines = out.read_text().splitlines()
        assert lines[0] == "name,r,p,r_dcal,p_dcal,flip,p_holm,p_bh,error"
        assert len(lines) == 21

    def test_missing_target_exits_3(self, tmp_path, capsys):
        matrix = _matrix_file(tmp_path)
        rc = main([
            "screen", "--matrix", matrix, "--target", "missing",
            "--output", str(tmp_path / "r.csv"),
        ])
        assert rc == 3

    @pytest.mark.parametrize("cell, reason", [
        ("2", "was excluded: constant value"), ("NA", "was dropped: missing values"),
    ])
    def test_excluded_target_exits_3_naming_the_reason(self, tmp_path, capsys, cell, reason):
        # ingestion left the target out: the error names why, not "not found"
        matrix = tmp_path / "m.csv"
        matrix.write_text("id,s1,s2,s3,s4,s5\nT,2,2,%s,2,2\ng1,1,2,3,4,5\ng2,5,3,4,1,2\n" % cell)
        args = ["screen", "--matrix", str(matrix), "--target", "T", "--output", str(tmp_path / "r")]
        assert main(args) == 3
        warning = "feature 'T' " + reason.split(" ", 1)[1]
        assert capsys.readouterr().err == f"warning: {warning}\nerror: feature 'T' {reason}\n"

    def test_constant_target_of_a_given_matrix_exits_3(self, tmp_path, capsys, monkeypatch):
        # ingestion drops a constant row, so only a matrix built in code
        # reaches the screen's own constant check
        matrix = batchio.FeatureMatrix(
            feature_names=("T", "g1"),
            values=np.array([[2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]]),
            sample_names=("s1", "s2", "s3", "s4"),
        )
        monkeypatch.setattr(cli, "load_matrix", lambda *args, **kwargs: matrix)
        args = ["screen", "--matrix", "m.csv", "--target", "T", "--output", str(tmp_path / "r")]
        assert main(args) == 3
        assert capsys.readouterr().err == "error: target 'T' is constant\n"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,s1,s2\n g1,1\n")
        rc = main([
            "screen", "--matrix", str(bad), "--target", "t",
            "--output", str(tmp_path / "r.csv"),
        ])
        assert rc == 2

    def test_byte_identical_runs_across_threads(self, tmp_path):
        # --threads is accepted and has no effect
        matrix = _matrix_file(tmp_path, n_features=700)
        args = ["screen", "--matrix", matrix, "--target", "target", "--seed", "7"]
        reports = []
        for threads in (1, 2, 3):
            out = tmp_path / f"r{threads}.csv"
            assert main(args + ["--output", str(out), "--threads", str(threads)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_permutations_checked_only_when_shuffling(self, tmp_path, capsys):
        matrix = _matrix_file(tmp_path, n_features=6)
        args = ["screen", "--matrix", matrix, "--target", "target", "--permutations", "10",
                "--output", str(tmp_path / "r.csv")]
        assert main(args + ["--corrections", "holm"]) == 0
        assert main(args + ["--corrections", "holm,perm_max"]) == 2
        assert "need at least 100 permutations" in capsys.readouterr().err

    def test_repeated_correction_exits_2_naming_it(self, tmp_path, capsys):
        matrix = _matrix_file(tmp_path, n_features=6)
        out = tmp_path / "r.csv"
        rc = main(["screen", "--matrix", matrix, "--target", "target",
                   "--corrections", "holm,bh,holm", "--output", str(out)])
        assert rc == 2
        assert "correction 'holm' is given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_cell_exits_2_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,s1,s2,s3,s4\nt,1,2,3,4\ng1,NA,-nan,1,2\n")
        rc = main(["screen", "--matrix", str(bad), "--target", "t",
                   "--output", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "line 3, column 3: '-nan' is not a finite number" in capsys.readouterr().err

    @settings(max_examples=80, deadline=None)
    @given(table=csv_tables(max_rows=10, max_cols=10), data=st.data())
    def test_fuzzed_matrices_exit_cleanly(self, table, data):
        text, delimiter, (row_names, column_names), _ = table
        flags = data.draw(st.lists(st.sampled_from(_SCREEN_FLAGS), max_size=4))
        features = column_names if ("--orientation", "samples_in_rows") in flags else row_names
        target = data.draw(st.sampled_from(features * 4 + ["absent"]))
        delimiter = data.draw(st.sampled_from([delimiter] * 18 + ["", ";;"]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_text(text, encoding="utf-8")
            args = ["screen", "--matrix", str(path), "--target", target, "--delimiter", delimiter,
                    "--output", str(Path(tmp) / "r"), "--permutations", "100"]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = main(args + [flag for pair in flags for flag in pair])
        assert rc in (0, 2, 3)

    def test_overflowing_feature_is_an_error_row(self, tmp_path, capsys):
        matrix = _matrix_file(tmp_path, n_features=6)
        lines = Path(matrix).read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = "-1e308"
        lines[3] = ",".join(cells)
        Path(matrix).write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.csv"
        args = ["screen", "--matrix", matrix, "--target", "target", "--output", str(out)]
        for extra in ([], ["--no-fast", "--corrections", "holm,bh,perm,perm_max"]):
            assert main(args + extra) == 0
            rows = out.read_text().splitlines()
            assert rows[2].startswith("f001,") and rows[2].endswith(
                ",centred sums of squares or products leave the float64 range"
            )
            assert all(row.endswith(",") for row in rows[1:2] + rows[3:])

    @pytest.mark.parametrize("scheme", ["cv10x10", "boot632"])
    def test_out_of_range_predictions_are_an_error_row(self, tmp_path, scheme):
        # a 12-sample screen whose steep feature is predicted out of the
        # float64 range used to exit 2; now only its row records the error
        x, y = steep_pair()
        rows = [("target", y), ("steep", x), ("noise", Stream(3).normals(12) * 1e150)]
        matrix = tmp_path / "steep.csv"
        matrix.write_text("id," + ",".join(f"s{k}" for k in range(12)) + "\n" + "".join(
            name + "," + ",".join(repr(float(v)) for v in values) + "\n" for name, values in rows
        ))
        out = tmp_path / "r.csv"
        assert main(["screen", "--matrix", str(matrix), "--target", "target", "--output",
                     str(out), "--scheme", scheme, "--no-fast"]) == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("steep,") and lines[1].endswith(
            ",out-of-sample predictions or their centred sums leave the float64 range"
        )
        assert lines[2].startswith("noise,") and lines[2].endswith(",")

    def test_json_format(self, tmp_path):
        matrix = _matrix_file(tmp_path, n_features=8)
        out = tmp_path / "report.json"
        rc = main([
            "screen", "--matrix", matrix, "--target", "target",
            "--output", str(out), "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["target"] == "target"
        assert len(doc["rows"]) == 8


SMALL_CONFIG = """# tiny null battery
design = null_battery
m = 8
n = 30
seed = 99
repetitions = 2
alpha = 0.05
methods = uncorrected,holm,dcal
"""


# keys each design cannot run without, and a small config that runs
REQUIRED_KEYS = {
    "null_battery": ("m", "n"),
    "correlated_battery": ("m_true", "m_null", "rho", "n"),
    "oos_comparison": ("m_null", "n"),
    "effect_grid": ("rho_list", "n_list"),
    "outlier_suite": ("kinds", "rho_list", "n"),
}
COMPLETE_CONFIGS = {
    "null_battery": {"m": 6, "n": 20},
    "correlated_battery": {"m_true": 2, "m_null": 4, "rho": 0.5, "n": 20},
    "oos_comparison": {"m_null": 4, "n": 20, "schemes": "loo,boot632"},
    "effect_grid": {"rho_list": "0.3", "n_list": 20},
    "outlier_suite": {"kinds": "univariate", "rho_list": "0.5", "n": 20},
}

_NUMBERS = ("-1", "0", "1", "2", "4", "5", "12", "0.5", "nan", "inf", "-inf", "x", "")
_FUZZ_VALUES = {
    **dict.fromkeys(("m", "m_true", "m_null"), st.sampled_from(_NUMBERS)),
    "n": st.sampled_from(_NUMBERS + ("10", "30")),
    "repetitions": st.sampled_from(_NUMBERS[:5] + ("3", "nan", "x")),
    "permutations": st.sampled_from(("-5", "0", "99", "100", "150", "x")),
    "seed": st.sampled_from(("0", "-3", "7", "x", "1e3")),
    **dict.fromkeys(
        ("alpha", "rho", "fraction", "magnitude"),
        st.sampled_from(_NUMBERS + ("0.05", "0.25", "0.99")),
    ),
}
_FUZZ_LISTS = {
    "rho_list": _NUMBERS + ("0.3", "-0.5"),
    "n_list": _NUMBERS + ("10", "30"),
    "sd_list": _NUMBERS + ("3",),
    "kinds": ("high_variance", "univariate", "bivariate", "bogus", ""),
    "methods": (
        "uncorrected", "holm", "bh", "perm", "perm_max", "dcal", "pcal_sellke",
        "pcal_bickel", "ppbf", "pearson", "skipped", "bogus", "",
    ),
    "schemes": ("loo", "cv10x10", "boot632", "bogus", ""),
    "scheme": ("loo", "cv10x10", "boot632", "bogus", ""),
}


def _config_text(design, keys):
    return f"design = {design}\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())


@st.composite
def _fuzzed_config(draw):
    """A small working config with keys dropped and up to four keys set to
    small, negative, non-finite, non-numeric or unknown values."""
    values = dict(_FUZZ_VALUES)
    for key, items in _FUZZ_LISTS.items():
        values[key] = st.lists(st.sampled_from(items), max_size=3).map(",".join)
    design = draw(st.sampled_from(sorted(COMPLETE_CONFIGS)))
    keys = dict(COMPLETE_CONFIGS[design])
    for key in draw(st.sets(st.sampled_from(sorted(keys)))):
        del keys[key]
    for key in draw(st.lists(st.sampled_from(sorted(values)), max_size=4)):
        keys[key] = draw(values[key])
    return _config_text(design, keys)


class TestCmdSimulate:
    def test_runs_and_writes_both_formats(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert rc == 0
        assert (tmp_path / "out.csv").exists()
        assert (tmp_path / "out.json").exists()
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["meta"]["repetitions_completed"] == 2

    def test_repeated_method_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("design = null_battery\nm = 5\nn = 20\nmethods = dcal,holm,dcal\n")
        rc = main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "method 'dcal' is given twice" in capsys.readouterr().err

    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("design = null_battery\nm = 5\nn = 20\nwibble = 3\n")
        rc = main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "wibble" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, extra",
        [
            # skipped correlation needs n >= 10, so every repetition fails
            (
                "design = outlier_suite\nkinds = univariate\nrho_list = 0.5\n"
                "fraction = 0.25\nn = 8\nrepetitions = 3\n",
                [],
            ),
            ("design = null_battery\nm = 0\nn = 20\nmethods = uncorrected\n", []),
            ("design = effect_grid\nrho_list = 0.5\nn_list = 20\n", ["--repetitions", "0"]),
        ],
    )
    def test_empty_results_exit_2_without_traceback(self, tmp_path, capsys, config, extra):
        cfg = tmp_path / "degenerate.cfg"
        cfg.write_text(config)
        rc = main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o"), *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "config, key",
        [
            # no method calls the calibrated test, which checks alpha itself
            pytest.param(
                "design = null_battery\nm = 5\nn = 20\nmethods = uncorrected\nalpha = 2\n",
                "alpha", id="battery-alpha",
            ),
            pytest.param(
                "design = effect_grid\nrho_list = 0.5\nn_list = 20\nalpha = 0\n"
                "methods = uncorrected,pcal_sellke\n",
                "alpha", id="grid-alpha",
            ),
            pytest.param(
                "design = effect_grid\nrho_list = ,\nn_list = 20\n", "'rho_list'", id="empty-list",
            ),
            pytest.param("design = outlier_suite\nkinds = ,\nn = 20\n", "'kinds'", id="empty-kinds"),
        ],
    )
    def test_invalid_value_exits_2_naming_it(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "invalid.cfg"
        cfg.write_text(config)
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "design, key",
        [(design, key) for design, keys in REQUIRED_KEYS.items() for key in keys],
    )
    def test_missing_required_key_exits_2(self, tmp_path, capsys, design, key):
        cfg = tmp_path / "partial.cfg"
        cfg.write_text(
            _config_text(design, {k: v for k, v in COMPLETE_CONFIGS[design].items() if k != key})
        )
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert f"config key {key!r} is required" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ("design = null_battery\nm = five\nn = 20\n", "config key 'm': expected an integer"),
        ("design = null_battery\nm = 5\nn = 20\nalpha = x\n",
         "config key 'alpha': expected a number"),
        ("design = effect_grid\nrho_list = ,\nn_list = 20\n",
         "config key 'rho_list': expected at least one item"),
        ("design = null_battery\nm 5\n", "{path} line 2: expected 'key = value'"),
        ("m = 5\nn = 20\n", "{path}: missing required key 'design'"),
        ("design = outlier_suite\nkinds = sideways\nn = 20\n",
         "config key 'kinds': unknown outlier kind 'sideways'"),
        ("design = tournament\n", "config key 'design': unknown design 'tournament'"),
        ("design = null_battery\nm = 5\nn = 20\nscheme = cv5x5\n", "unknown scheme 'cv5x5'"),
    ])
    def test_config_value_messages(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=cfg)}\n"

    def test_complete_configs_run(self, tmp_path):
        for design, keys in COMPLETE_CONFIGS.items():
            cfg = tmp_path / f"{design}.cfg"
            cfg.write_text(_config_text(design, keys))
            assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / design)]) == 0

    @settings(max_examples=60, deadline=None)
    @given(config=_fuzzed_config())
    def test_fuzzed_configs_exit_cleanly(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "fuzz.cfg"
            cfg.write_text(config)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = main(["simulate", "--config", str(cfg), "--output", str(Path(tmp) / "o")])
        assert rc in (0, 2, 3)

    def test_permutations_checked_only_when_shuffling(self, tmp_path, capsys):
        cfg = tmp_path / "null.cfg"
        keys = {"m": 6, "n": 20, "permutations": 50}
        cfg.write_text(_config_text("null_battery", {**keys, "methods": "uncorrected"}))
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "a")]) == 0
        cfg.write_text(_config_text("null_battery", {**keys, "methods": "uncorrected,perm_max"}))
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "b")]) == 2
        assert "need at least 100 permutations" in capsys.readouterr().err

    def test_all_failed_outlier_cell_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "outlier.cfg"
        cfg.write_text(
            "design = outlier_suite\nkinds = univariate\nrho_list = 0.5\n"
            "fraction = 0.25\nn = 8\nrepetitions = 3\n"
        )
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert "kind=univariate,rho=0.5,fraction=0.25,n=8" in capsys.readouterr().err

    def test_repeat_runs_identical(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SMALL_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([
            "simulate", "--config", str(cfg), "--output", str(a),
            "--repetitions", "1", "--seed", "7",
        ]) == 0
        assert main([
            "simulate", "--config", str(cfg), "--output", str(b),
            "--repetitions", "1", "--seed", "7",
        ]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_bundled_configs_parse(self, tmp_path):
        from importlib import resources

        for name in ("fig2.cfg", "fig4a.cfg", "fig4b.cfg", "fig6.cfg"):
            ref = resources.files("dcal.fixtures").joinpath(name)
            assert ref.is_file(), name

    @pytest.mark.parametrize("name", ["fig2.cfg", "fig4a.cfg", "fig4b.cfg", "fig6.cfg"])
    def test_bundled_configs_run_at_one_repetition(self, tmp_path, name):
        from importlib import resources

        cfg = tmp_path / name
        cfg.write_text(resources.files("dcal.fixtures").joinpath(name).read_text())
        out = tmp_path / name.replace(".cfg", "")
        rc = main([
            "simulate", "--config", str(cfg), "--output", str(out),
            "--repetitions", "1",
        ])
        assert rc == 0
        assert out.with_suffix(".csv").exists() and out.with_suffix(".json").exists()

    def test_effect_grid_config(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "design = effect_grid\nrho_list = 0.3,0.7\nn_list = 25\n"
            "seed = 4\nrepetitions = 5\nmethods = uncorrected,dcal\n"
        )
        out = tmp_path / "grid"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        text = (tmp_path / "grid.csv").read_text()
        assert "rho=0.3,n=25" in text and "rho=0.7,n=25" in text


class TestCmdAnscombe:
    def test_tables_print(self, capsys):
        rc = main(["anscombe"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "r values" in out and "p values" in out
        assert "(flip)" in out  # dataset D

    def test_json_structure(self, capsys):
        rc = main(["anscombe", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert set(doc) == {"A", "B", "C", "D"}
        assert doc["D"]["dcal"]["flip"] is True
        assert doc["D"]["dcal"]["r"] == 0.0 and doc["D"]["dcal"]["p"] == 0.5
        for name in "ABCD":
            assert doc[name]["pcal_sellke"]["p"] == pytest.approx(0.035, abs=0.002)
            assert doc[name]["cor"]["r"] == pytest.approx(0.816, abs=0.002)

    def test_scheme_and_seed_are_those_of_dcal_test(self, tmp_path, capsys):
        # each dataset's calibrated r and p are dcal test's on that dataset
        flags = ["--scheme", "boot632", "--seed", "3", "--json"]
        assert main(["anscombe", *flags]) == 0
        doc = json.loads(capsys.readouterr().out)
        for name, (x, y) in ANSCOMBE.items():
            path = tmp_path / f"{name}.csv"
            path.write_text("".join(f"{a},{b}\n" for a, b in zip(x, y)))
            assert main(["test", "--input", str(path), *flags]) == 0
            single = json.loads(capsys.readouterr().out)
            assert (doc[name]["dcal"]["r"], doc[name]["dcal"]["p"]) == (
                single["r_dcal"], single["p_dcal"]
            ), name
            assert doc[name]["dcal"]["flip"] == single["sign_flip"], name
        assert main(["anscombe", "--scheme", "boot632", "--seed", "4", "--json"]) == 0
        other = json.loads(capsys.readouterr().out)
        assert other["A"]["dcal"] != doc["A"]["dcal"]
        assert main(["anscombe", "--json"]) == 0  # the default stays loo
        default = json.loads(capsys.readouterr().out)
        assert default["A"]["dcal"]["p"] == pytest.approx(0.039197, abs=1e-6)


class TestMain:
    @pytest.mark.parametrize("command, argv", [
        ("cmd_screen", ["screen", "--matrix", "m.csv", "--target", "t", "--output", "r"]),
        ("cmd_simulate", ["simulate", "--config", "c.cfg", "--output", "o"]),
    ])
    def test_memory_error_exits_2(self, monkeypatch, capsys, command, argv):
        # a count too large to allocate, such as --permutations 10**12,
        # ends in exit 2, not a traceback; raised here without allocating
        def exhausted(args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli, command, exhausted)
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"

    @pytest.mark.parametrize("argv, code", [
        (["test", "--bogus"], 2), (["test", "--scheme", "cv5x5"], 2), (["frobnicate"], 2),
        (["--help"], 0), (["screen", "--help"], 0),
        # the report format comes from --format; no printed quartet value depends on alpha
        (["screen", "--matrix", "m.csv", "--target", "t", "--output", "r", "--json"], 2),
        (["anscombe", "--alpha", "0.05"], 2),
    ])
    def test_argument_errors_and_help(self, capsys, argv, code):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert ("usage: dcal" in captured.out) if code == 0 else ("error:" in captured.err)

    def test_entry_exits_with_the_status_of_main(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["dcal", "test", "--x", "1,2,3,4", "--y", "1,1,1,1"])
        with pytest.raises(SystemExit) as exit_info:
            cli.entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == "error: y has zero variance\n"

    @pytest.mark.parametrize("module", ["dcal", "dcal.cli"])
    @pytest.mark.parametrize("argv, code", [
        (["test", "--x", "1,2,3,4,5", "--y", "2,1,4,3,5"], 0), (["test", "--bogus"], 2),
    ])
    def test_module_runs_exit_with_the_status_of_main(self, module, argv, code):
        done = _run_module(module, argv)
        assert done.returncode == code
        assert ("p_dcal" in done.stdout) if code == 0 else ("--bogus" in done.stderr)


def _run_module(module, argv, **env):
    """``python -m module *argv`` in a fresh interpreter of this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", module, *map(str, argv)], env=env,
                          capture_output=True, text=True)


def _tied_matrix(tmp_path, n, n_features=37, seed=11):
    """A features x samples CSV of a few integer levels, so nearly every
    value is tied, with a target row and a feature count no multiple of four."""
    rng = np.random.default_rng(seed)
    target = rng.integers(0, 3, n)
    rows = [("target", target)] + [
        (f"f{j:02d}", np.clip(target * (j % 2) + rng.integers(-1, 2, n), 0, 3))
        for j in range(n_features)
    ]
    path = tmp_path / f"tied{n}.csv"
    path.write_text("id," + ",".join(f"s{i}" for i in range(n)) + "\n" + "".join(
        name + "," + ",".join(map(str, row.tolist())) + "\n" for name, row in rows))
    return path


class TestBlasThreads:
    """Reports are byte-identical at any BLAS thread count: the products that
    run through BLAS (the permutation blocks and observed statistics, the
    sweep's stacked projection product, the least-squares fits) give every
    row the same bits whatever OpenBLAS's pool.  The pool's size is read at
    import, so each count runs in fresh interpreters."""

    def test_reports_identical_at_one_and_three_threads(self, tmp_path):
        fig6 = resources.files("dcal.fixtures").joinpath("fig6.cfg")
        sim_null = Path(__file__).resolve().parents[1] / "benchmarks" / "configs" / "sim-null.cfg"
        commands = [
            ["simulate", "--config", fig6, "--repetitions", "30", "--output", "fig6"],
            ["simulate", "--config", sim_null, "--repetitions", "1", "--output", "null"],
        ]
        # perm_max on each side of the float32 scoring limit
        for n in (multitest._FLOAT32_MAX_SAMPLES - 4, multitest._FLOAT32_MAX_SAMPLES + 6):
            commands.append(["screen", "--matrix", _tied_matrix(tmp_path, n), "--target", "target",
                             "--corrections", "holm,perm_max", "--permutations", "199",
                             "--output", f"screen{n}.csv"])
        reports = {}
        for threads in ("1", "3"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            for argv in commands:
                argv = argv[:-1] + [out / argv[-1]]
                done = _run_module("dcal", argv, OPENBLAS_NUM_THREADS=threads)
                assert done.returncode == 0, done.stderr
            reports[threads] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        assert len(reports["1"]) == 6
        assert reports["1"] == reports["3"]


class TestWorkSpaceBudget:
    """Every blocked loop sizes its blocks from ``core.CHUNK_BYTES``, read at
    call time: one row, shuffle, pair, cell or term per block, the default,
    and every unit in one block give the same report bytes."""

    # the function each loop calls once per block, and its block's units
    # (the simulations run 3 repetitions per cell)
    BLOCK_CALLS = (
        (batchio, "_parse_block", lambda cells, lines: len(lines)),
        (engine, "_calibrate", lambda X, *rest: len(X)),
        (multitest, "raw_block", lambda seeds, *rest: seeds.size),
        (robust, "_sweep", lambda X, *rest: len(X)),
        (simulate, "score_rows", lambda rows, methods: len(rows.X) // 3),
        (calibration, "units_per_block", core.units_per_block),  # terms per active row
    )

    def test_reports_do_not_depend_on_the_budget(self, tmp_path, monkeypatch, capsys):
        calls = {}
        for module, name, units in self.BLOCK_CALLS:
            def counted(*args, real=getattr(module, name), name=name, units=units):
                calls.setdefault(name, []).append(units(*args))
                return real(*args)
            monkeypatch.setattr(module, name, counted)
        matrix = _matrix_file(tmp_path, n_features=30, n=24)
        fig6 = tmp_path / "fig6.cfg"
        fig6.write_text(resources.files("dcal.fixtures").joinpath("fig6.cfg").read_text())
        grid = tmp_path / "grid.cfg"
        grid.write_text("design = effect_grid\nrho_list = 0.3,0.8\nn_list = 12,25\nseed = 4\n")
        runs, blocks = [], []
        for budget in (1, core.CHUNK_BYTES, 2 ** 40):
            monkeypatch.setattr(core, "CHUNK_BYTES", budget)
            calls.clear()
            out = []
            for scheme in ("loo", "boot632"):
                report = tmp_path / f"{budget}-{scheme}.csv"
                assert main([
                    "screen", "--matrix", matrix, "--target", "target", "--scheme", scheme,
                    "--corrections", "holm,bh,perm,perm_max", "--permutations", "100",
                    "--no-fast", "--seed", "3", "--output", str(report),
                ]) == 0
                out.append(report.read_bytes())
            for config in (fig6, grid):
                base = tmp_path / f"{budget}-{config.stem}"
                assert main(["simulate", "--config", str(config), "--output", str(base),
                             "--repetitions", "3"]) == 0
                out += [base.with_suffix(".csv").read_bytes(), base.with_suffix(".json").read_bytes()]
            capsys.readouterr()
            assert main(["anscombe", "--json"]) == 0
            out.append(capsys.readouterr().out)
            runs.append(out)
            blocks.append(dict(calls))
        assert runs[0] == runs[1] == runs[2]
        # the one patch reached every loop
        for _, name, _ in self.BLOCK_CALLS:
            assert max(blocks[0][name]) == 1 < max(blocks[2][name]), name
