"""Wall time and minor page faults of one benchmark workload, run in process.

Run from the repository root:

    python3 tools/minor_faults.py --workload sim-oos --runs 10

The workload's inputs and command-line arguments come from
``benchmarks/workloads.py`` (imported, not copied): its inputs are written
to a temporary directory and ``dcal.cli.main`` runs them in this process,
once untimed as a warm-up and then ``--runs`` times.  Faults are the growth
of ``getrusage(RUSAGE_SELF).ru_minflt`` over a call: pages the process had
to map in, which a freed and re-allocated work space costs again when the
allocator has returned it to the operating system.  Tracing tools such as
tracemalloc or ``benchmarks/spans.py`` see the bytes but not these faults.

Each stage below is wrapped in every ``dcal`` module that holds it by name,
so a call through an imported name is counted too: ``classical_phase``,
``calibration_phase`` (one stage per scheme kind), ``skipped_rows``,
``permutation_pvalues``, ``load_matrix`` and the report writers
(``write_report`` and the experiment report's ``write_csv`` and
``write_json``).  A stage's time and faults include the stages it calls.

A workload that reads a matrix (``screen``) also gets the floor under
``load_matrix`` after each run: the seconds to read the file's text plus one
``np.array(cells, dtype=np.float64)`` over the data cells of the rows that
convert to finite numbers (the cells are split out untimed), and the ratio
of ``load_matrix``'s seconds to that floor.

A workload that calls ``permutation_pvalues`` gets its floor after each
run: on the arguments of each call and in the call's own column blocks,
the seconds of the draws of the (B, n) shuffled targets (``_shuffled``)
plus one ``np.matmul`` of each block's standardized columns by the
targets, summed over the calls, and the ratio of ``permutation_pvalues``'s
seconds to that floor.  The product runs in the dtype the kernel scores
blocks of that n in (float32 up to ``multitest._FLOAT32_MAX_SAMPLES``
samples, float64 above), and the floor names it as ``dtype``.

A workload that runs the k-fold or bootstrap out-of-sample step
(``calibration_phase.kfold``, ``calibration_phase.boot632``) gets the floor
of its draws: on each call's seeds and in its blocks of the rows that run
(k-fold chunks, bootstrap sub-blocks; both ``engine._row_bytes`` rows, and a
bootstrap chunk holds whole sub-blocks), the seconds of ``raw_block`` (every
row's words) plus ``permutation_of`` (k-fold: one permutation per repeat) or
``integers_of`` (bootstrap: each replicate's sample indices), without the
coverage retries, and the ratio of the stage's seconds to that floor.  Each
also gets its arithmetic floor, on the same blocks and on operands made
untimed, and the ratio of the stage's seconds to it.  The bootstrap's is the
seconds of the ``np.bincount`` of the replicates' multiplicities and of the
six ``einsum`` contractions of ``engine._bootstrap_block`` (five replicate
moments and the out-of-bag sums).  The k-fold's is the seconds of the
per-fold reductions on the slot-major grid of ``engine._kfold_rows``
(slots x folds x rows·repeats): the sums of u and v and of their three
products (the products made too), plus one prediction pass (a multiply
and an add per direction).

A workload that calls ``skipped_rows`` gets the floor of the projection
sweep the same way: on each call's pairs and in its blocks, the seconds of
the (pairs, n, n) projection product and of its one ``np.sort`` of the
projections (the medians and MADs are read off the sorted rows), and the
ratio of ``skipped_rows``'s seconds to that floor.

The output is one JSON line: per run the wall seconds and faults of the
whole call and, per stage, its calls, seconds and faults (and the ingest,
permutation, draws, arithmetic and sweep floors); then the median of each
over the runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import dcal  # noqa: E402
from dcal import cli, core, engine, robust, simulate  # noqa: E402
from dcal.multitest import _column_edges, _scoring, _shuffled  # noqa: E402
from dcal.rng import derive_array, integers_of, permutation_of, raw_block  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STAGES = ("classical_phase", "calibration_phase", "skipped_rows", "permutation_pvalues",
          "load_matrix", "write_report")
METHOD_STAGES = (simulate.ExperimentReport, ("write_csv", "write_json"))
FLOORS = ("ingest_floor", "permutation_floor", "kfold_draws_floor", "kfold_arithmetic_floor",
          "boot632_draws_floor", "boot632_arithmetic_floor", "sweep_floor")


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Recorder:
    """Calls, seconds and faults per stage since the last :meth:`take`, and
    the arguments of each call of a stage in ``CALL_FLOORS`` (a
    ``calibration_phase`` stage is named after its scheme kind)."""

    def __init__(self):
        self.stages: dict[str, dict] = {}
        self.calls: dict[str, list[tuple]] = {name: [] for name in CALL_FLOORS}

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stage = name
            if name == "calibration_phase":
                scheme = args[1] if len(args) > 1 else kwargs["scheme"]
                stage = f"{name}.{scheme.kind}"
            if stage in self.calls:
                self.calls[stage].append((args, kwargs))
            faults, start = minor_faults(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = self.stages.setdefault(stage, {"calls": 0, "s": 0.0, "minflt": 0})
                entry["calls"] += 1
                entry["s"] += time.perf_counter() - start
                entry["minflt"] += minor_faults() - faults
        return timed

    def take(self) -> tuple[dict, dict[str, list[tuple]]]:
        stages, self.stages = self.stages, {}
        calls, self.calls = self.calls, {name: [] for name in CALL_FLOORS}
        return stages, calls


def install(recorder: Recorder) -> None:
    """Wrap every stage wherever a ``dcal`` module holds it by name."""
    modules = [m for name, m in sys.modules.items() if name == "dcal" or name.startswith("dcal.")]
    for name in STAGES:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))
        wrapped = recorder.wrap(name, original)
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, wrapped)
    cls, names = METHOD_STAGES
    for name in names:
        setattr(cls, name, recorder.wrap(name, getattr(cls, name)))


def ingest_floor(path: Path) -> dict:
    """Seconds to read the CSV ``path`` plus one float conversion of its data cells."""
    start = time.perf_counter()
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    read_s = time.perf_counter() - start
    cells: list[str] = []
    for line in text.splitlines()[1:]:
        row = line.split(",")[1:]
        try:
            if np.isfinite(np.array(row, dtype=np.float64)).all():
                cells += row
        except ValueError:
            pass
    start = time.perf_counter()
    np.array(cells, dtype=np.float64)
    convert_s = time.perf_counter() - start
    return {"cells": len(cells), "read_s": read_s, "convert_s": convert_s,
            "s": read_s + convert_s}


def permutation_floor(columns, target, plan, rows=None) -> dict:
    """Seconds of the draws of the (B, n) shuffled targets plus one product
    of the targets by each column block's standardized columns of one
    ``permutation_pvalues`` call, in that call's blocks and scoring dtype
    (the casts to it are not timed)."""
    X = np.asarray(columns, dtype=np.float64)
    X = X if rows is None else X[rows]
    y = np.asarray(target, dtype=np.float64)
    B, (m, n) = plan.n_permutations, X.shape
    edges = _column_edges(m, n, B)
    dtype = _scoring(n)[0]
    Xs = ((X - X.mean(axis=1, keepdims=True)) / X.std(axis=1)[:, None]).astype(dtype)
    ys = (y - y.mean()) / y.std()
    stats_buf = np.empty(B * max(np.diff(edges)), dtype)
    begin = time.perf_counter()
    targets = _shuffled(ys, plan)
    draws_s = time.perf_counter() - begin
    targets = targets.astype(dtype, copy=False)
    begin = time.perf_counter()
    for start, stop in zip(edges, edges[1:]):
        np.matmul(Xs[start:stop], targets.T, out=stats_buf[: (stop - start) * B].reshape(-1, B))
    product_s = time.perf_counter() - begin
    return {"dtype": np.dtype(dtype).name, "draws_s": draws_s, "product_s": product_s,
            "s": draws_s + product_s}


def _draw_blocks(classical, scheme, seeds, alpha, fast):
    """The rows of each block of one ``calibration_phase`` call whose draws
    run together (a k-fold chunk, a bootstrap sub-block) and their streams."""
    X, _, r, p, _ = classical
    tested = ~np.isnan(r)
    run = np.flatnonzero(tested & (p < alpha) if fast else tested)
    seeds = np.asarray(seeds, dtype=np.uint64)
    keys = np.arange(scheme.repeats if scheme.kind == "kfold" else scheme.replicates)
    step = core.units_per_block(engine._row_bytes(scheme, X.shape[1]))
    for start in range(0, run.size, step):
        rows = run[start : start + step]
        yield rows, derive_array(seeds[rows, None], keys)


def draws_floor(classical, scheme, seeds, alpha=0.05, fast=False) -> dict:
    """Seconds of the resampling draws of one k-fold or bootstrap
    ``calibration_phase`` call, in that call's blocks of the rows that run:
    ``raw_block`` of every row's words, then ``permutation_of`` (k-fold) or
    ``integers_of`` (bootstrap).  Coverage retries are left out."""
    n = classical.X.shape[1]
    raw_s = indices_s = 0.0
    for _, streams in _draw_blocks(classical, scheme, seeds, alpha, fast):
        words = np.empty(streams.shape + (n,), np.uint64)
        temp = np.empty_like(words)
        begin = time.perf_counter()
        raw_block(streams, n, words, temp)
        middle = time.perf_counter()
        if scheme.kind == "kfold":
            permutation_of(words)
        else:
            integers_of(words, n, words.view(np.int64), temp.view(np.float64))
        end = time.perf_counter()
        raw_s += middle - begin
        indices_s += end - middle
    return {"raw_block_s": raw_s, "indices_s": indices_s, "s": raw_s + indices_s}


def kfold_arithmetic_floor(classical, scheme, seeds, alpha=0.05, fast=False) -> dict:
    """Seconds of the k-fold's arithmetic in one cv ``calibration_phase``
    call, in its chunks of the rows that run, on the slot-major grid of
    ``engine._kfold_rows``: the sums over each fold's slots of u, v and
    their three products (the products made too), then one prediction pass,
    a multiply and an add per direction.  The grid holds each chunk's rows
    repeated once per repeat (its layout does not change the arithmetic)."""
    X, y = classical.X, classical.y
    n = X.shape[1]
    slots, folds = engine._kfold_layout(n, scheme)[0][0], scheme.folds
    reduce_s = predict_s = 0.0
    for rows, streams in _draw_blocks(classical, scheme, seeds, alpha, fast):
        U, v, _ = core.centred_rows(X[rows], y if y.ndim == 1 else y[rows])
        width = streams.size
        samples = np.stack([
            np.resize(np.broadcast_to(values, (len(rows), n)).repeat(scheme.repeats, axis=0).T,
                      (slots * folds, width)).reshape(slots, folds, width)
            for values in (U, v)])
        products = np.empty((3,) + samples.shape[1:])
        coef = samples[:, 0]  # (2, folds, width), as the kernel's means and slopes
        begin = time.perf_counter()
        np.multiply(samples, samples, out=products[:2])
        np.multiply(samples[0], samples[1], out=products[2])
        np.add.reduce(samples, axis=1)
        np.add.reduce(products, axis=1)
        middle = time.perf_counter()
        np.multiply(samples, coef[:, None], out=products[:2])
        np.add(products[:2], coef[:, None], out=products[:2])
        end = time.perf_counter()
        reduce_s += middle - begin
        predict_s += end - middle
    return {"reduce_s": reduce_s, "predict_s": predict_s, "s": reduce_s + predict_s}


def bootstrap_arithmetic_floor(classical, scheme, seeds, alpha=0.05, fast=False) -> dict:
    """Seconds of the bootstrap's arithmetic in one boot632
    ``calibration_phase`` call, in its sub-blocks of the rows that run: the
    ``np.bincount`` of the multiplicities and the six ``einsum`` contractions
    of ``engine._bootstrap_block``, on operands made untimed.  Coverage
    retries are left out."""
    X, y = classical.X, classical.y
    n = X.shape[1]
    bincount_s = einsum_s = 0.0
    for rows, streams in _draw_blocks(classical, scheme, seeds, alpha, fast):
        U, v, _ = core.centred_rows(X[rows], y if y.ndim == 1 else y[rows])
        shape = streams.shape + (n,)
        words = raw_block(streams, n, np.empty(shape, np.uint64), np.empty(shape, np.uint64))
        idx = integers_of(words, n, words.view(np.int64), np.empty(shape))
        idx += (np.arange(streams.size) * n).reshape(streams.shape + (1,))
        begin = time.perf_counter()
        counts = np.bincount(idx.ravel(), minlength=idx.size)
        bincount_s += time.perf_counter() - begin
        counts = counts.reshape(shape).astype(np.float64)
        mu = np.einsum("rbn,rn->rb", counts, U) / n
        mv = np.einsum("rbn,rn->rb" if v.ndim == 2 else "rbn,n->rb", counts, v) / n
        du, dv = U[:, None, :] - mu[..., None], v[..., None, :] - mv[..., None]
        weighted_du = counts * du
        coef = np.stack([mu, mv, mu, mv], axis=1)  # (rows, 4, B), as the kernel's
        out_of_bag = (counts == 0.0).astype(np.float64)
        begin = time.perf_counter()
        np.einsum("rbn,rn->rb", counts, U)
        np.einsum("rbn,rn->rb" if v.ndim == 2 else "rbn,n->rb", counts, v)
        np.einsum("rbn,rbn->rb", weighted_du, du)
        np.einsum("rbn,rbn->rb", weighted_du, dv)
        np.einsum("rbn,rbn,rbn->rb", counts, dv, dv)
        np.einsum("rkb,rbn->krn", coef, out_of_bag)
        einsum_s += time.perf_counter() - begin
    return {"bincount_s": bincount_s, "einsum_s": einsum_s, "s": bincount_s + einsum_s}


def sweep_floor(X, Y, cutoff=None) -> dict:
    """Seconds of the (pairs, n, n) projection product and its one
    ``np.sort`` of one ``skipped_rows`` call, in that call's blocks."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    m, n = X.shape
    product_s = sort_s = 0.0
    step = core.units_per_block(robust._pair_bytes(n))
    for start in range(0, m if n >= robust._MIN_SAMPLES else 0, step):
        points = np.stack([X[start : start + step], Y[start : start + step]], axis=1)
        centered = points - robust._sorted_median(np.sort(points))[..., None]
        norms = np.hypot(centered[:, 0], centered[:, 1])
        with np.errstate(invalid="ignore"):
            directions = np.ascontiguousarray((centered / norms[:, None]).transpose(0, 2, 1))
        begin = time.perf_counter()
        projections = directions @ centered
        middle = time.perf_counter()
        np.sort(projections)
        end = time.perf_counter()
        product_s += middle - begin
        sort_s += end - middle
    return {"product_s": product_s, "sort_s": sort_s, "s": product_s + sort_s}


# stage -> its floors: (the run's key for a floor, the floor of one call from
# the call's arguments)
CALL_FLOORS = {
    "permutation_pvalues": (("permutation_floor", permutation_floor),),
    "calibration_phase.kfold": (("kfold_draws_floor", draws_floor),
                                ("kfold_arithmetic_floor", kfold_arithmetic_floor)),
    "calibration_phase.boot632": (("boot632_draws_floor", draws_floor),
                                  ("boot632_arithmetic_floor", bootstrap_arithmetic_floor)),
    "skipped_rows": (("sweep_floor", sweep_floor),),
}


def run_once(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"dcal {' '.join(argv)} exited {code}")


def median_of(runs: list[dict]) -> dict:
    stages = sorted({name for run in runs for name in run["stages"]})
    median = {
        "wall_s": statistics.median(run["wall_s"] for run in runs),
        "minflt": statistics.median(run["minflt"] for run in runs),
        "stages": {
            name: {key: statistics.median(run["stages"].get(name, {}).get(key, 0) for run in runs)
                   for key in ("calls", "s", "minflt")}
            for name in stages
        },
    }
    for floor in FLOORS:
        if floor in runs[0]:
            median[floor] = {key: statistics.median(run[floor][key] for run in runs)
                             for key in runs[0][floor] if key != "dtype"}
            if "dtype" in runs[0][floor]:
                median[floor]["dtype"] = runs[0][floor]["dtype"]
    return median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="sim-oos", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed (default 1)")
    parser.add_argument("--runs", type=int, default=10, help="measured runs after the warm-up")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    recorder = Recorder()
    install(recorder)
    runs = []
    with tempfile.TemporaryDirectory(prefix="minor-faults-") as tmp:
        case = workload.prepare(args.seed, Path(tmp))
        argv = workload.argv(case, Path(tmp) / "report")
        run_once(argv)
        recorder.take()
        for _ in range(args.runs):
            faults, start = minor_faults(), time.perf_counter()
            run_once(argv)
            wall = time.perf_counter() - start
            stages, calls = recorder.take()
            run = {"wall_s": wall, "minflt": minor_faults() - faults, "stages": stages}
            if case.matrix is not None:
                floor = ingest_floor(case.matrix)
                floor["load_matrix_over_floor"] = stages["load_matrix"]["s"] / floor["s"]
                run["ingest_floor"] = floor
            for stage, stage_calls in calls.items():
                for key, floor_of in CALL_FLOORS[stage] if stage_calls else ():
                    parts = [floor_of(*args, **kwargs) for args, kwargs in stage_calls]
                    floor = {name: sum(part[name] for part in parts) for name in parts[0]
                             if name != "dtype"}
                    if "dtype" in parts[0]:  # the dtypes of the calls' products
                        floor["dtype"] = ",".join(sorted({part["dtype"] for part in parts}))
                    floor[f"{stage}_over_floor"] = (
                        stages[stage]["s"] / floor["s"] if floor["s"] else math.nan)
                    run[key] = floor
            runs.append(run)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "dcal": dcal.__file__,
                      "runs": runs, "median": median_of(runs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
