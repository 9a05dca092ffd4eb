"""The tools, checked without a paired or timed run: a renamed ``dcal`` flag
or a moved config fails ``tools/bench_pairs.py``'s case table here, and a
renamed stage or a floor that no longer runs fails ``tools/minor_faults.py``."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import dcal
from dcal import engine
from dcal.cli import build_parser
from dcal.multitest import PermutationPlan

ROOT = Path(__file__).resolve().parents[1]


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path  # the tool puts benchmarks/ on the path
    return module


bench_pairs = _load_tool("bench_pairs")
minor_faults = _load_tool("minor_faults")


@pytest.mark.parametrize("case", sorted(bench_pairs.SCALED))
def test_scaled_case_arguments_parse(case):
    copy, matrix = Path("copy"), Path("matrix.csv")
    argv, reports = bench_pairs.scaled_command(case, copy, matrix, 7)
    args = build_parser().parse_args(argv)
    assert reports and all(report.parent == copy for report in reports)
    if args.command == "simulate":  # its config, as a path within the copy
        assert (ROOT / Path(args.config).relative_to(copy)).is_file()
    else:
        assert bench_pairs.SCALED[case].matrix is not None and args.matrix == str(matrix)


def test_every_case_and_workload_has_a_shape():
    cases = set(bench_pairs.WORKLOADS) | set(bench_pairs.SCALED)
    assert set(bench_pairs.SHAPES) == cases
    assert all(set(shape) == {"n", "m", "scheme"} for shape in bench_pairs.SHAPES.values())


def test_every_stage_is_a_dcal_name():
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dcal"]
    for name in minor_faults.STAGES:
        assert any(hasattr(module, name) for module in modules), name
    cls, names = minor_faults.METHOD_STAGES
    assert all(callable(getattr(cls, name, None)) for name in names)


def _floor_arguments(stage: str) -> tuple:
    """Tiny arguments of a stage with floors, as the stage is called: 20 rows
    at n = 12, or 6 pairs for the sweep."""
    rng = np.random.default_rng(3)
    X, y = rng.standard_normal((20, 12)), rng.standard_normal(12)
    schemes = {"calibration_phase.kfold": dcal.OosScheme.repeated_kfold(),
               "calibration_phase.boot632": dcal.OosScheme.boot632()}
    if stage in schemes:
        return engine.classical_phase(X, y), schemes[stage], np.arange(20)
    return {"permutation_pvalues": (X, y, PermutationPlan(199, 1)),
            "skipped_rows": (X[:6], rng.standard_normal((6, 12)))}[stage]


@pytest.mark.parametrize("stage", sorted(minor_faults.CALL_FLOORS))
def test_every_floor_takes_time(stage):
    args = _floor_arguments(stage)
    for key, floor_of in minor_faults.CALL_FLOORS[stage]:
        assert key in minor_faults.FLOORS
        floor = floor_of(*args)
        assert floor["s"] > 0.0, key
        assert all(value >= 0.0 for name, value in floor.items() if name.endswith("_s")), key


compare_reports = _load_tool("compare_reports")

# a screen report and a `dcal test` output, each with one p-value to move
SCREEN_REPORT = ("name,r,p,r_dcal,p_dcal,flip,p_holm,p_bh,error\n"
                 "f1,0.61,0.0123,0.58,{p},false,0.0369,0.0246,\n"
                 "f2,-0.2,0.52,0.0,0.5,false,0.52,0.52,\n")
TEST_OUTPUT = "     n  12\n     r  0.61\n     p  0.0123\nr_dcal  0.58\np_dcal  {p}\n"
JUDGES = [(compare_reports.judge_screen, SCREEN_REPORT, "row f1 p_dcal"),
          (compare_reports.judge_text, TEST_OUTPUT, "p_dcal")]


@pytest.mark.parametrize("judge, template, column", JUDGES, ids=["screen", "stdout"])
def test_decision_gate_passes_a_last_bit_gap(judge, template, column):
    p = 0.0321
    verdict = judge(template.format(p=repr(p)), template.format(p=repr(p * (1 + 1e-12))))
    assert verdict.passed
    assert verdict.gaps["p_dcal"] == pytest.approx(1e-12, rel=1e-3)
    assert max(gap for name, gap in verdict.gaps.items() if name != "p_dcal") == 0.0


@pytest.mark.parametrize("judge, template, column", JUDGES, ids=["screen", "stdout"])
def test_decision_gate_fails_and_lists_a_changed_decision(judge, template, column):
    # a move far below checks.RTOL, across alpha
    base, head = 0.05 * (1 - 1e-13), 0.05 * (1 + 1e-13)
    verdict = judge(template.format(p=repr(base)), template.format(p=repr(head)))
    assert not verdict.passed
    assert verdict.decisions == [f"{column}: {base!r} -> {head!r} "
                                 "(margin to alpha -5e-15 -> +5e-15)"]
