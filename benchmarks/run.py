"""Benchmark of the dcal command line: four workloads, one command.

Run from the repository root:

    python3 benchmarks/run.py --workload screen --seed 1 --seconds 15 --trace 0

``--workload all`` (the default) runs every workload in turn.  Each workload
calls ``dcal.cli.main`` in this process with ``--threads 1``: one untimed
warm-up run, then timed runs until ``--seconds`` have passed (at least
three).  It then checks the outputs: every run repeats the warm-up's report
bytes, a run on the reference seed's inputs matches the stored reference and
differs from this seed's report, screen rows match independent oracles, and
screen and sim-null give the same bytes at two threads.

End-to-end metrics (``--trace 0``), times in reference seconds (see
PROBE_REFERENCE_S):
  tests_per_s  tests per second of command time, median over timed runs
  setup_s      import dcal and build the CLI parser in a fresh interpreter,
               median over several interpreters
  peak_rss_mb  peak resident memory of a fresh process running the workload
Failures (error rows, dropped repetitions, non-zero exits and check
mismatches) are counted in ``failed`` against ``attempted``.

``--trace 1`` instead traces one more run through benchmarks/spans.py and
reports the per-layer metrics; the spans are written to
benchmarks/_out/trace-<workload>.json.  The last line of standard output is
one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import compare_with_reference, screen_oracles
from spans import METRICS, Tracer
from workloads import BENCH_DIR, REFERENCE_SEED, SRC, WORKLOADS

OUT_DIR = BENCH_DIR / "_out"

UNITS = {"tests_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

MIN_TIMED_RUNS = 3
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 60

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import dcal
from dcal.cli import build_parser
build_parser()
print(repr(time.perf_counter() - start))
"""

# Peak RSS is the child's VmHWM: getrusage's ru_maxrss would also count the
# memory of this process, which the child's address space was copied from
RSS_CODE = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from dcal.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[2:])
    except Exception:
        code = 1
with open("/proc/self/status", encoding="ascii") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "peak_rss_kb": hwm_kb}))
"""

# On a shared 2-vCPU KVM guest the host's speed drifts by up to 2x within
# minutes, which would swamp most changes to dcal.  Timings are therefore
# scaled by a fixed pure-Python probe loop that never touches dcal, timed
# before and after every timed run: one reference second is
# (median probe time) / PROBE_REFERENCE_S wall seconds.  There, the probe's
# time correlated with the workloads' per-call times (r = 0.75 to 0.88), and
# scaling cut the run-to-run spread of screen's tests_per_s from 0.31 to 0.04.
PROBE_REFERENCE_S = 0.01


def probe_seconds() -> float:
    """Median time of five runs of the probe loop."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for k in range(100_000):
            total += k * k % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Tally:
    """Operations attempted and failed: tests run by every invocation, plus
    every row or record an output check compares."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def invocation(self, workload, output: Path, exit_code: int) -> int:
        """Count one invocation's tests; return how many completed."""
        try:
            tests, failed = workload.tally(output)
        except (OSError, ValueError, KeyError):
            tests, failed = 1, 1
        if exit_code != 0:
            failed = tests
            self.problems.append(f"exit code {exit_code}")
        self.attempted += tests
        self.failed += failed
        return tests - failed

    def check(self, label: str, units: int, mismatches: list[str]) -> None:
        self.attempted += units
        self.failed += len(mismatches)
        self.problems += [f"{label}: {m}" for m in mismatches[:5]]


def run_cli(argv: list[str], tally: Tally, workload, output: Path) -> tuple[float, int]:
    """Run the CLI in this process; return its wall time in seconds and the
    number of tests it completed."""
    from dcal.cli import main

    gc.collect()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed invocation, not a dead benchmark
            code = 1
            tally.problems.append(traceback.format_exc(limit=3))
        wall = time.perf_counter() - start
    return wall, tally.invocation(workload, output, code)


def read_outputs(workload, output: Path) -> list[bytes | None]:
    return [p.read_bytes() if p.is_file() else None for p in workload.outputs(output)]


def child(code: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def setup_seconds() -> float:
    """Median set-up time over fresh interpreters, in reference seconds."""
    child(SETUP_CODE)  # fills the bytecode cache, as an installed package has
    samples, probes = [], [probe_seconds()]
    for _ in range(SETUP_RUNS):
        samples.append(float(child(SETUP_CODE)))
        probes.append(probe_seconds())
    return statistics.median(samples) * PROBE_REFERENCE_S / statistics.median(probes)


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    work = OUT_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    case = workload.prepare(seed, work)
    base = work / "run"
    argv = workload.argv(case, base)

    def same_bytes(label: str, output: Path) -> None:
        same = read_outputs(workload, output) == expected
        tally.check(label, 1, [] if same else ["report bytes differ"])

    run_cli(argv, tally, workload, base)  # warm-up
    expected = read_outputs(workload, base)
    walls: list[float] = []
    rates: list[float] = []  # tests per wall second
    probes: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_TIMED_RUNS or time.perf_counter() < deadline:
        probes.append(probe_seconds())
        wall, tests = run_cli(argv, tally, workload, base)
        walls.append(wall)
        rates.append(tests / wall)
        same_bytes("repeat run", base)
    probes.append(probe_seconds())
    host_speed = PROBE_REFERENCE_S / statistics.median(probes)

    metrics: dict[str, float] = {}
    if trace:
        tracer = Tracer()
        before = probe_seconds()
        tracer.install()
        try:
            traced_wall, _ = run_cli(argv, tally, workload, base)
        finally:
            tracer.uninstall()
        traced_host_speed = 2 * PROBE_REFERENCE_S / (before + probe_seconds())
        same_bytes("traced run", base)
        tracer.write(OUT_DIR / f"trace-{workload.name}.json")
        # both walls in reference seconds, so host drift does not show as overhead
        metrics.update(tracer.metrics(
            traced_wall * traced_host_speed, statistics.median(walls) * host_speed
        ))

    reference = work / "reference"
    run_cli(workload.argv(workload.prepare(REFERENCE_SEED, work), reference), tally, workload, reference)
    tally.check("reference", *compare_with_reference(workload, workload.outputs(reference)))
    # another benchmark seed must reach the program and change the report
    other = reference
    if seed == REFERENCE_SEED:
        other = work / "other-seed"
        run_cli(workload.argv(workload.prepare(seed + 1, work), other), tally, workload, other)
    differs = read_outputs(workload, other) != expected
    tally.check("other seed", 1, [] if differs else ["report bytes did not change"])
    if case.data is not None:
        tally.check("oracle", *screen_oracles(workload.outputs(base)[0], *case.data, seed))
    if workload.cross_checks:
        run_cli(workload.argv(case, work / "threads2", threads=2), tally, workload, work / "threads2")
        same_bytes("threads 2", work / "threads2")

    if not trace:
        metrics["tests_per_s"] = statistics.median(rates) / host_speed
        metrics["setup_s"] = setup_seconds()
        fresh = json.loads(child(RSS_CODE, *workload.argv(case, work / "fresh")))
        tally.invocation(workload, work / "fresh", fresh["exit"])
        same_bytes("fresh process", work / "fresh")
        metrics["peak_rss_mb"] = fresh["peak_rss_kb"] / 1024.0

    print(f"[{workload.name}] seed {seed}: {len(walls)} timed runs, median wall "
          f"{statistics.median(walls):.3f} s, {statistics.median(rates):.6g} tests per wall second, "
          f"host speed {host_speed:.4g}; a test is one of the {workload.unit}")
    return tally, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dcal" / "cli.py").is_file():
        print(f"error: no dcal sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dcal
    import numpy

    print(f"python {sys.version.split()[0]}, numpy {numpy.__version__}, dcal {dcal.__version__}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = Tally()
    metrics: dict[str, dict] = {}
    for name in names:
        workload = WORKLOADS[name]
        tally, values = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        for metric, value in values.items():
            unit = UNITS.get(metric) or METRICS[metric]
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
            print(f"  {metric:<44} {value:.6g} {unit}")
        print(f"  {'failed_frac':<44} {tally.failed / max(tally.attempted, 1):.6g} "
              f"({tally.failed} of {tally.attempted} operations)")
        for problem in tally.problems[:20]:
            print(f"  problem: {problem}")
        total.attempted += tally.attempted
        total.failed += tally.failed
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
