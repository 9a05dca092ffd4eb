"""Paired benchmark of two versions of the repository.

Run from the repository root:

    python3 tools/bench_pairs.py --base HEAD --pairs 10 --output BENCH_29.json \
        --cases screen,sim-oos,sim-null,sim-outlier,screen-boot632,screen-boot632-no-fast,sim-oos-x10

Each side is exported twice, as two clean copies of the committed files of
a revision (``git archive``), or of the working tree when ``--head`` is left
out (tracked and untracked files that are not ignored).
``benchmarks/run.py`` then runs in the copies, one workload at a time, in
alternating pairs: even pairs run the base first, odd pairs the head, and
each side runs in its first copy in pairs 1, 2, 5, 6, ... and in its second
in pairs 3, 4, 7, 8, ..., so each order meets each copy.  Every run records
its copy.  A copy can carry an offset in peak memory that holds over all
its runs, so next to each ``peak_rss_mb`` comparison the output gives each
side's copy gap: the median of its runs in the second copy minus the median
in the first.  A difference between the sides no larger than those gaps
shows no memory change.  Every run uses the benchmark's own command and run
length.  A case is a workload, or ``workload@seed`` to run it at another
benchmark seed than ``--seed``.  Afterwards each side gets one traced run
(``--trace 1``, in its first copy) of every workload at ``--seed`` for the
per-layer records.  Their counters compare across sides; their timings come
from one run per side and follow the host's drift between those runs, so
stage timings are ``tools/minor_faults.py``'s.  Both sides inherit this
tool's environment: the host field ``openblas_num_threads`` records
``OPENBLAS_NUM_THREADS`` (null when unset) for both.

Every other case is one entry of ``SCALED``: one ``dcal`` command, run in
a fresh interpreter of each copy in the same alternating pairs.  An entry
holds the case's battery shape, the writer of the CSV it screens (run once,
at ``--seed``) and its ``dcal`` arguments.  ``screen-20000x200`` screens a
20,000 x 200 CSV with 2% of its features planted at rho = 0.5;
``screen-boot632`` and ``screen-boot632-no-fast`` screen the benchmark's own
5000 x 100 CSV at boot632, which no workload runs, with and without the fast
guard; ``sim-null-x20``, ``sim-oos-x10`` and ``sim-outlier-x5`` run a
workload's config at 20, 10 and 500 repetitions, long enough that its
kernels outweigh the interpreter's start-up.

Their metrics are the wall time of the command and the child's peak
resident memory (VmHWM); the output also says, per scaled case, whether
every run of both sides wrote the same report bytes.

The output JSON holds every run's metrics, per-side medians and quartiles
in the record schema ``{case, layer, n, m, scheme, threads,
seconds_median, seconds_iqr}`` (plus metric name, unit, side, and each
run's value and copy), the per-pair comparison of each end-to-end metric
(with the copy gaps of ``peak_rss_mb``), the copy of each pair and the host
description.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from workloads import WORKLOADS, write_screen_matrix  # noqa: E402

# shape of each workload's battery, for the record schema
SHAPES = {
    "screen": {"n": 100, "m": 4989, "scheme": "loo"},
    "sim-oos": {"n": 50, "m": 100, "scheme": "loo,cv10x10,boot632"},
    "sim-null": {"n": 50, "m": 1000, "scheme": "loo"},
    "sim-outlier": {"n": 100, "m": 9, "scheme": "loo"},
}

BETTER = {"tests_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}
SCALED_BETTER = {"wall_s": "lower", "peak_rss_mb": "lower"}

# runs the dcal command line once; prints its exit code, wall seconds and
# this process's VmHWM
RUN_SCALED = """\
import contextlib, io, json, sys, time
from dcal.cli import main
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
wall = time.perf_counter() - start
with open("/proc/self/status", encoding="ascii") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "wall_s": wall, "peak_rss_kb": hwm_kb}))
"""


def write_scaled_matrix(seed: int, path: Path, features: int = 20000, samples: int = 200) -> None:
    """The scaled screen's CSV: row 0 is TARGET, and 2% of the other rows
    are planted at rho = 0.5 against it."""
    import numpy

    rng = numpy.random.default_rng(seed)
    values = rng.standard_normal((features, samples))
    planted = rng.choice(numpy.arange(1, features), features // 50, replace=False)
    values[planted] = 0.5 * values[0] + 0.75 ** 0.5 * values[planted]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("feature," + ",".join(f"S{j:03d}" for j in range(samples)) + "\n")
        for i, row in enumerate(values.tolist()):
            fh.write(("TARGET" if i == 0 else f"F{i:05d}") + "," + ",".join(map(repr, row)) + "\n")


class Scaled(NamedTuple):
    """A scaled case: its battery's shape, the writer ``(seed, path)`` of the
    CSV it screens (None for ``dcal simulate``), the reports it writes within
    the copy and its ``dcal`` arguments, in which ``{copy}``, ``{matrix}``
    and ``{seed}`` stand for a run's copy, CSV and seed."""

    shape: dict
    matrix: Callable[[int, Path], object] | None
    reports: tuple[str, ...]
    args: str


SCREEN = "screen --matrix {matrix} --target TARGET --output {copy}/scaled-report.csv"
SCREEN_REPORTS = ("scaled-report.csv",)
SIMULATE = "simulate --seed {seed} --output {copy}/scaled-report --config {copy}/"
SIMULATE_REPORTS = ("scaled-report.csv", "scaled-report.json")
SCALED = {
    "screen-20000x200": Scaled(
        {"n": 200, "m": 19999, "scheme": "loo"}, write_scaled_matrix, SCREEN_REPORTS,
        SCREEN + " --scheme loo --corrections holm,bh,perm_max --permutations 199"),
    "screen-boot632": Scaled(
        {"n": 100, "m": 4989, "scheme": "boot632"}, write_screen_matrix, SCREEN_REPORTS,
        SCREEN + " --scheme boot632 --corrections holm,bh --fast --seed {seed}"),
    "screen-boot632-no-fast": Scaled(
        {"n": 100, "m": 4989, "scheme": "boot632"}, write_screen_matrix, SCREEN_REPORTS,
        SCREEN + " --scheme boot632 --corrections holm,bh --no-fast --seed {seed}"),
    "sim-null-x20": Scaled(SHAPES["sim-null"], None, SIMULATE_REPORTS,
                           SIMULATE + "benchmarks/configs/sim-null.cfg --repetitions 20"),
    "sim-oos-x10": Scaled(SHAPES["sim-oos"], None, SIMULATE_REPORTS,
                          SIMULATE + "src/dcal/fixtures/fig2.cfg --repetitions 10"),
    "sim-outlier-x5": Scaled(SHAPES["sim-outlier"], None, SIMULATE_REPORTS,
                             SIMULATE + "src/dcal/fixtures/fig6.cfg --repetitions 500"),
}
SHAPES.update((case, scaled.shape) for case, scaled in SCALED.items())


def scaled_command(case: str, copy: Path, matrix: Path, seed: int) -> tuple[list[str], list[Path]]:
    """The ``dcal`` arguments of a scaled case in ``copy`` and the reports it
    writes; ``matrix`` is the CSV a screen case reads."""
    scaled = SCALED[case]
    return ([arg.format(copy=copy, matrix=matrix, seed=seed) for arg in scaled.args.split()],
            [copy / report for report in scaled.reports])


def run_scaled(case: str, copy: Path, matrix: Path, seed: int) -> dict:
    """One run of a scaled case in a fresh interpreter of ``copy``: its
    metrics and the bytes of its reports."""
    argv, reports = scaled_command(case, copy, matrix, seed)
    done = subprocess.run(
        [sys.executable, "-c", RUN_SCALED, *argv], cwd=copy, check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["exit"] != 0:
        raise SystemExit(f"{copy.name} {case}: dcal {argv[0]} exited {result['exit']}")
    return {
        "metrics": {"wall_s": {"value": result["wall_s"], "unit": "s"},
                    "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"}},
        "report": tuple(report.read_bytes() for report in reports),
    }


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_revision(rev: str, dest: Path) -> str:
    """Unpack the committed files of ``rev`` into ``dest``; return the commit id."""
    commit = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def export_worktree(dest: Path) -> str:
    """Copy the tracked and untracked, not ignored files of the working tree."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, names):
        src = ROOT / os.fsdecode(name)
        if src.is_file():
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)
    return "working tree on " + git("rev-parse", "HEAD").decode().strip()


def run_benchmark(copy: Path, workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=copy, check=True, capture_output=True, text=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {copy.name} {workload} seed {seed}: failed {result['failed']} "
              f"of {result['attempted']}", file=sys.stderr)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(runs: dict, side: str, case: str, default_seed: int) -> list[dict]:
    workload, seed = parse_case(case, default_seed)
    records = []
    for metric in SCALED_BETTER if case in SCALED else BETTER:
        values = [run["metrics"][metric]["value"] for run in runs[side][case]]
        q1, median, q3 = quartiles(values)
        # time per test for throughput, the value itself for set-up time
        seconds = {"tests_per_s": [1.0 / v for v in values], "setup_s": values,
                   "wall_s": values}.get(metric)
        sq1, smedian, sq3 = quartiles(seconds) if seconds else (None, None, None)
        records.append({
            "case": workload, "layer": "end_to_end", **SHAPES[workload], "threads": 1,
            "seconds_median": smedian, "seconds_iqr": None if seconds is None else sq3 - sq1,
            "metric": metric, "unit": runs[side][case][0]["metrics"][metric]["unit"],
            "side": side, "seed": seed, "median": median, "q1": q1, "q3": q3, "values": values,
            "copies": [run["copy"] for run in runs[side][case]],
        })
    return records


def copy_gap(side_runs: list[dict], metric: str) -> float | None:
    """Median of a side's runs in its second copy minus that in its first."""
    medians = [statistics.median(run["metrics"][metric]["value"] for run in side_runs
                                 if run["copy"] == copy) for copy in (0, 1)
               if any(run["copy"] == copy for run in side_runs)]
    return medians[1] - medians[0] if len(medians) == 2 else None


def compare(runs: dict, case: str) -> dict:
    out = {}
    for metric, better in (SCALED_BETTER if case in SCALED else BETTER).items():
        base = [run["metrics"][metric]["value"] for run in runs["base"][case]]
        head = [run["metrics"][metric]["value"] for run in runs["head"][case]]
        wins = sum((h > b) if better == "higher" else (h < b) for b, h in zip(base, head))
        q1, median, q3 = quartiles(base)
        head_median = quartiles(head)[1]
        out[metric] = {
            "better": better,
            "head_wins": wins,
            "pairs": len(base),
            "base_median": median,
            "head_median": head_median,
            "head_over_base": head_median / median,
            "base_iqr": q3 - q1,
            "median_gap_exceeds_base_iqr": abs(head_median - median) > q3 - q1,
        }
        if metric == "peak_rss_mb":
            out[metric]["copy_gap"] = {side: copy_gap(runs[side][case], metric)
                                       for side in ("base", "head")}
    return out


def parse_case(case: str, default_seed: int | None) -> tuple[str, int | None]:
    workload, _, seed = case.partition("@")
    if case in SCALED:
        return case, default_seed
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    return workload, int(seed) if seed else default_seed


def host() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("--head", default=None, help="head revision (default: the working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", default=",".join(WORKLOADS),
                        help="comma list of workload, workload@seed or scaled case")
    parser.add_argument("--scratch", default=None, help="directory for the two copies")
    parser.add_argument("--output", required=True)
    args = parser.parse_args()
    cases = [c for c in args.cases.split(",") if c]
    seeds = {case: parse_case(case, args.seed) for case in cases}

    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.scratch))
    try:
        copies = {side: [scratch / f"{side}-{k}" for k in (1, 2)] for side in ("base", "head")}
        exports = {"base": functools.partial(export_revision, args.base),
                   "head": (functools.partial(export_revision, args.head) if args.head
                            else export_worktree)}
        revisions = {}
        for side, paths in copies.items():
            for copy in paths:
                copy.mkdir()
                revisions[side] = exports[side](copy)
        runs = {side: {c: [] for c in cases} for side in copies}
        order = []
        # the CSV each screen case reads, by its writer
        writers = dict.fromkeys(SCALED[c].matrix for c in cases if c in SCALED)
        matrices = {writer: scratch / f"{writer.__name__}.csv" for writer in writers if writer}
        for writer, path in matrices.items():
            writer(args.seed, path)
        reports = {c: set() for c in cases if c in SCALED}  # over every run of both sides
        for pair in range(args.pairs):
            first = ("base", "head") if pair % 2 == 0 else ("head", "base")
            copy_index = pair // 2 % 2
            order.append(first[0])
            for case in cases:
                workload, seed = seeds[case]
                for side in first:
                    copy = copies[side][copy_index]
                    if case in SCALED:
                        run = run_scaled(case, copy, matrices.get(SCALED[case].matrix), seed)
                        reports[case].add(run.pop("report"))
                    else:
                        run = run_benchmark(copy, workload, seed, 0)
                    run["copy"] = copy_index
                    runs[side][case].append(run)
                    print(f"pair {pair + 1}/{args.pairs} {case} {copy.name}: " + ", ".join(
                        f"{name} {metric['value']:.4g}" for name, metric in run["metrics"].items()
                        if name in ("tests_per_s", "wall_s", "peak_rss_mb")), file=sys.stderr)
        traced = {side: run_benchmark(paths[0], "all", args.seed, 1)
                  for side, paths in copies.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    records = [r for side in copies for c in cases for r in summarise(runs, side, c, args.seed)]
    for side in copies:
        for name, metric in traced[side]["metrics"].items():
            workload, layer_metric = name.split(".", 1)
            records.append({
                "case": workload, "layer": layer_metric.split(".", 1)[0], **SHAPES[workload],
                "threads": 1,
                "seconds_median": metric["value"] if metric["unit"] == "s" else None,
                "seconds_iqr": None,
                "metric": layer_metric, "unit": metric["unit"], "side": side, "seed": args.seed,
                "median": metric["value"], "q1": None, "q3": None, "values": [metric["value"]],
            })
    doc = {
        "about": "Paired runs of benchmarks/run.py on two versions (tools/bench_pairs.py). "
                 "End-to-end records give per-side medians and quartiles over the pairs; "
                 "per-layer records come from one traced run per side: their counters "
                 "compare across sides, their timings follow the host's drift between the "
                 "two runs (stage timings: tools/minor_faults.py).",
        "base": revisions["base"],
        "head": revisions["head"],
        "seed": args.seed,
        "pairs": args.pairs,
        "first_in_pair": order,
        "copy_in_pair": [pair // 2 % 2 for pair in range(args.pairs)],
        "host": host(),
        "comparison": {c: compare(runs, c) for c in cases},
        **({"scaled_reports_identical": {c: len(r) == 1 for c, r in reports.items()}}
           if reports else {}),
        "records": records,
    }
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for case in cases:
        cmp = doc["comparison"][case]
        print(f"{case}: " + "; ".join(
            f"{metric} {c['base_median']:.4g} -> {c['head_median']:.4g} "
            f"(head better in {c['head_wins']}/{c['pairs']})" + (
                "" if "copy_gap" not in c else " [copy gap " + ", ".join(
                    f"{side} {gap:+.3g}" for side, gap in c["copy_gap"].items()
                    if gap is not None) + "]")
            for metric, c in cmp.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
