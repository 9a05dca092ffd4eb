"""The case table of ``tools/bench_pairs.py``, checked without running a case:
a renamed ``dcal`` flag or a moved config fails here, not in a paired run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from dcal.cli import build_parser

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
