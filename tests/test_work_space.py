"""The work space of every blocked loop, from one table.

Each function that sizes its blocks with ``core.units_per_block`` names a
row of ``ROWS``: its shapes, a function that builds one shape's inputs and
returns the call, and the bound on that call's traced peak: the larger of
the budget ``core.CHUNK_BYTES`` and the smallest block the loop may take (a
unit charged more than the budget runs alone), plus the work space named
outside the blocks.  One property runs every row over its shapes.
"""

import ast
import math
import os
import pathlib
import tempfile
import tracemalloc
from functools import partial
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcal import batchio, calibration, core, engine, multitest, robust, simulate
from dcal.batchio import FeatureMatrix
from dcal.engine import OosScheme
from dcal.multitest import PermutationPlan
from dcal.rng import Stream

SLACK = 64 * 1024
ROW = 48  # a row's vectors and temporaries (the t tail's p, mask, r, 1 - r**2 and t**2)


def traced_peak(run: Callable[[], object]) -> int:
    """The traced peak (tracemalloc) of ``run()``, called once before."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_fits(name: str, within: float = math.inf, **shape) -> int:
    """The traced peak of row ``name`` at ``shape``, checked against its bound and ``within``."""
    peak, bound = traced_peak(ROWS[name].drive(**shape)), ROWS[name].bound(**shape)
    assert peak <= min(bound, within), (name, shape, peak, bound)
    return peak


class Row(NamedTuple):
    kernels: tuple  # the functions of src/dcal whose blocked loops the row runs
    shapes: object  # a strategy of shapes (keyword dicts)
    drive: Callable  # shape -> the call whose peak is traced
    bound: Callable  # shape -> bytes


def _budget(charge: int) -> int:
    return max(core.CHUNK_BYTES, charge)


def _normals(seed, *shape):
    return Stream(seed).normals(math.prod(shape)).reshape(shape)


def _rows(m, n, per_row=False):
    return _normals(m, m, n), _normals(n, *((m, n) if per_row else (n,)))


@st.composite
def _shapes(draw, step=None, least=3, most=300, rows=4000, charge=None, **keys):
    """n from ``least`` to ``most``, ``keys`` drawn, and m up to ``rows`` or beside one of
    the first blocks: ``step(**shape)`` units, or as many as fit at ``charge``."""
    shape = {key: draw(value) for key, value in dict(n=st.integers(least, most), **keys).items()}
    block = step(**shape) if step else core.units_per_block(charge(**shape))
    edge = draw(st.integers(1, max(1, rows // block))) * block + draw(st.integers(-1, 1))
    m = draw(st.one_of(st.integers(1, min(rows, 3 * block)), st.just(max(1, edge))))
    return dict(shape, m=m)


def _loaded(m, n):
    folder = tempfile.TemporaryDirectory()
    path = pathlib.Path(folder.name, "m.csv")
    rows = (",".join(map(repr, row)) for row in _normals(7, m, n).tolist())
    path.write_text("id," + ",".join(f"s{j}" for j in range(n)) + "\n"
                    + "".join(f"f{i},{row}\n" for i, row in enumerate(rows)))
    return partial(lambda folder: batchio.load_matrix(path), folder)  # the file lives with the call


def _written(m, n, fmt):
    values = _normals(m, m + 1, n)
    values[1 : 1 + m // 3] = 1.0  # constant features: rows in error
    names = tuple(f"feature_{i}" for i in range(m + 1))
    matrix = FeatureMatrix(names, values, tuple(f"s{j}" for j in range(n)))
    return partial(batchio.write_report, batchio.screen(matrix, names[0]), os.devnull, fmt)


def _calibrated(kind, **keys):
    # one chunk (for boot632 a sub-block, and an eighth of the budget for the
    # chunk's own arrays), and a row's vectors
    def scheme(n, param=0, repeats=1, **_):  # k-fold: from n = 6 every training set holds 3
        if kind == "kfold":
            return OosScheme.repeated_kfold(min(param, n), repeats)
        return OosScheme.boot632(param) if kind == "boot632" else OosScheme.loo()

    own = core.CHUNK_BYTES // 8 if kind == "boot632" else 0
    return Row(("_chunk_rows", "_boot632_rows") if kind == "boot632" else ("_chunk_rows",),
               _shapes(lambda n, **params: engine._chunk_rows(scheme(n, **params), n),
                       6 if kind == "kfold" else 4, rows=600, per_row=st.booleans(),
                       kind=st.just(kind), **keys),
               lambda m, n, per_row, **params: partial(
                   engine.dcal_matrix, *_rows(m, n, per_row), scheme(n, **params), np.arange(m)),
               lambda m, n, per_row, **params: (
                   _budget(engine._row_bytes(scheme(n, **params), n)) + own + 64 * m + SLACK // 4))


def _cells(m, n, k):
    cells = [(n, partial(simulate.contaminated_rows, n, 0.3, simulate.OutlierKind("bivariate"),
                         0.1, np.arange(m, dtype=np.uint64) + m * i)) for i in range(k)]
    return lambda: list(simulate._score_cells(cells, ["pearson", "dcal", "skipped"], 0.05, m))


ROWS = {
    "classical_rows": Row(
        ("classical_rows",),
        _shapes(charge=lambda n, **_: core._CENTRE_BYTES * n, per_row=st.booleans()),
        lambda m, n, per_row: partial(core.classical_rows, *_rows(m, n, per_row), [None] * m),
        lambda m, n, per_row: _budget(core._CENTRE_BYTES * n) + ROW * m + SLACK),
    "t_pvalues": Row(  # n is the df, shared or from 1 to n a row
        ("t_pvalues",), _shapes(charge=lambda **_: core._TAIL_BYTES, least=1, rows=7000,
                                per_row=st.booleans()),
        lambda m, n, per_row: (lambda r: partial(core.t_pvalues, r, (1.0 - r) * (1.0 + r),
                                                 1 + np.arange(m) % n if per_row else n))(
            np.tanh(_normals(m, m))),
        lambda m, n, per_row: _budget(core._TAIL_BYTES) + ROW * m + SLACK),
    "load_matrix": Row(  # the kept rows beside a block or their joined copy, and the names
        ("load_matrix",), _shapes(charge=lambda n: batchio._line_bytes(n), least=1, rows=400),
        _loaded, lambda m, n: max(8 * m * n + _budget(batchio._line_bytes(n)), 16 * m * n)
        + 192 * m + SLACK),
    "write_report": Row(
        ("_field_blocks",), _shapes(charge=lambda **_: 9 * batchio._FIELD_BYTES, least=4, most=20,
                                    fmt=st.sampled_from(["csv", "json"])),
        _written, lambda m, n, fmt: _budget(9 * batchio._FIELD_BYTES) + SLACK),
    "bf_series": Row(  # the series capped, on rows near |r| = 1; the least block is 8 terms a row
        ("_hyp2f1_rows",), _shapes(charge=lambda **_: 8 * calibration._TERM_BYTES,
                                   gap=st.sampled_from([0.1, 1e-3, 1e-6])),
        lambda m, n, gap: mock.patch.object(calibration, "_SERIES_MAX_TERMS",
                                            max(2 ** 10, 2 ** 18 // m))(
            partial(calibration._bf_series, np.full(m, 1.0 - gap), n)),
        lambda m, n, gap: _budget(8 * (calibration._TERM_BYTES * m + calibration._RATIO_BYTES))),
    "skipped_rows": Row(  # and a pair's flags, retained points and results
        ("skipped_rows",), _shapes(charge=robust._pair_bytes, least=10, rows=1000),
        lambda m, n: partial(robust.skipped_rows, *_rows(m, n, True)),
        lambda m, n: _budget(robust._pair_bytes(n)) + (40 * n + 64) * m + SLACK),
    "shuffled": Row(  # m shuffles, at least 100
        ("_shuffled",), _shapes(charge=lambda n: 24 * n, least=2, rows=3000),
        lambda m, n: partial(multitest._shuffled, _normals(n, n), PermutationPlan(max(100, m), 0)),
        lambda m, n: 8 * max(100, m) * n + _budget(24 * n) + SLACK),
    "permutation_pvalues": Row(  # the (B, n) targets (and their float32 copy), a block of four
        # columns or more, a slice of the band's work, and a column's and a shuffle's vectors
        ("_column_edges",),
        _shapes(lambda n, B: multitest._column_edges(10 ** 6, n, B)[1], B=st.integers(100, 5000)),
        lambda m, n, B: partial(multitest.permutation_pvalues, *_rows(m, n), PermutationPlan(B, 0)),
        lambda m, n, B: ((12 if multitest._scoring(n)[0] is np.float32 else 8) * B * n
                         + _budget(4 * multitest._column_bytes(n, B)) + multitest._BAND_BYTES
                         + 96 * m + 64 * B + SLACK)),
    "loo": _calibrated("loo"),
    "kfold": _calibrated("kfold", param=st.integers(2, 10), repeats=st.integers(1, 20)),
    "boot632": _calibrated("boot632", param=st.integers(1, 300)),
    "score_cells": Row(  # m repetitions of k cells: one budget, and 96 bytes a value of a group
        ("_score_cells",),
        _shapes(lambda **_: 100, least=10, most=200, rows=400, k=st.integers(1, 9)),
        _cells, lambda m, n, k: core.CHUNK_BYTES + 96 * m * n * min(
            k, core.units_per_block(simulate._SAMPLE_BYTES * m * n))),
}


def test_every_blocked_loop_has_a_row():
    blocked = {node.name for path in pathlib.Path(core.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and any(
                   isinstance(call, ast.Call) and "units_per_block" in (
                       getattr(call.func, "id", None), getattr(call.func, "attr", None))
                   for call in ast.walk(node))}
    assert blocked == {kernel for row in ROWS.values() for kernel in row.kernels}


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(ROWS)).flatmap(lambda row: st.tuples(st.just(row), ROWS[row].shapes)))
# each traced above its bound under the charge before: 2.14, 1.43, 1.64, 6.06 and 5.10 MB
@example(("boot632", dict(m=300, n=4, per_row=False, kind="boot632", param=100)))
@example(("kfold", dict(m=104, n=299, per_row=True, kind="kfold", param=2)))
@example(("bf_series", dict(m=1, n=3, gap=1e-4)))
@example(("permutation_pvalues", dict(m=2328, n=3, B=100)))
@example(("load_matrix", dict(m=16300, n=1)))
def test_traced_peak_within_the_bound(case):
    with np.errstate(all="ignore"):
        assert_fits(case[0], **case[1])
