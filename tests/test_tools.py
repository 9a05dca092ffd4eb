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
