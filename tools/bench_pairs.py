"""Paired benchmark of two versions of the repository.

Run from the repository root:

    python3 tools/bench_pairs.py --base HEAD --pairs 10 --output BENCH_2.json \
        --cases screen,sim-oos,sim-null,sim-outlier,sim-oos@2718

Each side is a clean copy of the committed files of a revision (``git
archive``), or of the working tree when ``--head`` is left out (tracked and
untracked files that are not ignored).  ``benchmarks/run.py`` then runs in
each copy, one workload at a time, in alternating pairs: even pairs run the
base first, odd pairs the head.  Every run uses the benchmark's own command
and run length.  A case is a workload, or ``workload@seed`` to run it at
another benchmark seed than ``--seed``.  Afterwards each side gets one
traced run (``--trace 1``) of every workload at ``--seed`` for the
per-layer metrics.

The output JSON holds every run's metrics, per-side medians and quartiles
in the record schema ``{case, layer, n, m, scheme, threads,
seconds_median, seconds_iqr}`` (plus metric name, unit and side), the
per-pair comparison of each end-to-end metric and the host description.
"""

from __future__ import annotations

import argparse
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

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("screen", "sim-oos", "sim-null", "sim-outlier")

# shape of each workload's battery, for the record schema
SHAPES = {
    "screen": {"n": 100, "m": 4989, "scheme": "loo"},
    "sim-oos": {"n": 50, "m": 100, "scheme": "loo,cv10x10,boot632"},
    "sim-null": {"n": 50, "m": 1000, "scheme": "loo"},
    "sim-outlier": {"n": 100, "m": 9, "scheme": "loo"},
}

BETTER = {"tests_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}


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
    for metric in BETTER:
        values = [run["metrics"][metric]["value"] for run in runs[side][case]]
        q1, median, q3 = quartiles(values)
        # time per test for throughput, the value itself for set-up time
        seconds = {"tests_per_s": [1.0 / v for v in values], "setup_s": values}.get(metric)
        sq1, smedian, sq3 = quartiles(seconds) if seconds else (None, None, None)
        records.append({
            "case": workload, "layer": "end_to_end", **SHAPES[workload], "threads": 1,
            "seconds_median": smedian, "seconds_iqr": None if seconds is None else sq3 - sq1,
            "metric": metric, "unit": runs[side][case][0]["metrics"][metric]["unit"],
            "side": side, "seed": seed, "median": median, "q1": q1, "q3": q3, "values": values,
        })
    return records


def compare(runs: dict, case: str) -> dict:
    out = {}
    for metric, better in BETTER.items():
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
    return out


def parse_case(case: str, default_seed: int | None) -> tuple[str, int | None]:
    workload, _, seed = case.partition("@")
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
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("--head", default=None, help="head revision (default: the working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", default=",".join(WORKLOADS),
                        help="comma list of workload or workload@seed")
    parser.add_argument("--scratch", default=None, help="directory for the two copies")
    parser.add_argument("--output", default="BENCH_2.json")
    args = parser.parse_args()
    cases = [c for c in args.cases.split(",") if c]
    seeds = {case: parse_case(case, args.seed) for case in cases}

    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.scratch))
    try:
        copies = {"base": scratch / "base", "head": scratch / "head"}
        for copy in copies.values():
            copy.mkdir()
        revisions = {
            "base": export_revision(args.base, copies["base"]),
            "head": (export_revision(args.head, copies["head"]) if args.head
                     else export_worktree(copies["head"])),
        }
        runs = {side: {c: [] for c in cases} for side in copies}
        order = []
        for pair in range(args.pairs):
            first = ("base", "head") if pair % 2 == 0 else ("head", "base")
            order.append(first[0])
            for case in cases:
                workload, seed = seeds[case]
                for side in first:
                    runs[side][case].append(run_benchmark(copies[side], workload, seed, 0))
                    print(f"pair {pair + 1}/{args.pairs} {case} {side}: tests_per_s "
                          f"{runs[side][case][-1]['metrics']['tests_per_s']['value']:.1f}",
                          file=sys.stderr)
        traced = {side: run_benchmark(copy, "all", args.seed, 1) for side, copy in copies.items()}
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
                 "per-layer records come from one traced run per side.",
        "base": revisions["base"],
        "head": revisions["head"],
        "seed": args.seed,
        "pairs": args.pairs,
        "first_in_pair": order,
        "host": host(),
        "comparison": {c: compare(runs, c) for c in cases},
        "records": records,
    }
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for case in cases:
        cmp = doc["comparison"][case]
        print(f"{case}: " + "; ".join(
            f"{metric} {c['base_median']:.4g} -> {c['head_median']:.4g} "
            f"(head better in {c['head_wins']}/{c['pairs']})" for metric, c in cmp.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
