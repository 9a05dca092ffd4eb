import json
import math

import numpy as np
import pytest

from dcal.cli import main
from dcal.rng import Stream, derive

from conftest import ANSCOMBE


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

    def test_missing_input_exits_2(self, capsys):
        assert main(["test"]) == 2

    def test_skipped_method_included(self, tmp_path, capsys):
        t = np.linspace(0, 5, 20)
        path = tmp_path / "line.csv"
        path.write_text("\n".join(f"{a},{2 * a + 0.01 * ((-1) ** i)}" for i, a in enumerate(t)))
        rc = main(["test", "--input", str(path), "--methods", "skipped", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["r_skipped"] == pytest.approx(1.0, abs=1e-3)


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

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,s1,s2\n g1,1\n")
        rc = main([
            "screen", "--matrix", str(bad), "--target", "t",
            "--output", str(tmp_path / "r.csv"),
        ])
        assert rc == 2

    def test_byte_identical_runs_across_threads(self, tmp_path):
        # enough features for several row chunks, so threads share the work
        matrix = _matrix_file(tmp_path, n_features=700)
        args = ["screen", "--matrix", matrix, "--target", "target", "--seed", "7"]
        reports = []
        for threads in (1, 2, 3):
            out = tmp_path / f"r{threads}.csv"
            assert main(args + ["--output", str(out), "--threads", str(threads)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]

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
