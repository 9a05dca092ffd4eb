"""Byte comparison of the simulation reports of two versions of the repository.

Run from the repository root:

    python3 tools/compare_reports.py --base HEAD
    python3 tools/compare_reports.py --base HEAD --repetitions 100

Each side is a clean copy of the committed files of a revision, or of the
working tree when ``--head`` is left out, made with the export helpers of
``tools/bench_pairs.py``.  Every bundled ``src/dcal/fixtures/fig*.cfg`` and
``benchmarks/configs/*.cfg`` of the head copy then runs through
``dcal simulate`` in each copy, at the config's own repetitions unless
``--repetitions`` is given.  The exit code, standard output and the CSV and
JSON report bytes of the two sides must be equal; the script exits 1 on the
first comparison that is not, after running every config.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export_revision, export_worktree  # noqa: E402

CONFIG_GLOBS = ("src/dcal/fixtures/fig*.cfg", "benchmarks/configs/*.cfg")

RUN_CLI = "import sys; from dcal.cli import main; sys.exit(main(sys.argv[1:]))"


def simulate(copy: Path, config: Path, output: Path, repetitions: int | None) -> tuple:
    """Run ``dcal simulate`` from ``copy``'s sources; return (exit code,
    stdout, csv bytes, json bytes), a report file that is missing as None."""
    args = [sys.executable, "-c", RUN_CLI, "simulate", "--config", str(config),
            "--output", str(output)]
    if repetitions is not None:
        args += ["--repetitions", str(repetitions)]
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    done = subprocess.run(args, cwd=copy, env=env, capture_output=True, text=True)
    reports = [output.with_suffix(suffix) for suffix in (".csv", ".json")]
    return (done.returncode, done.stdout.replace(str(output), "<output>"),
            *(path.read_bytes() if path.exists() else None for path in reports))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("--head", default=None, help="head revision (default: the working tree)")
    parser.add_argument("--repetitions", type=int, default=None,
                        help="repetitions of every config (default: each config's own)")
    parser.add_argument("--scratch", default=None, help="directory for the two copies")
    args = parser.parse_args()

    scratch = Path(tempfile.mkdtemp(prefix="compare-reports-", dir=args.scratch))
    try:
        copies = {"base": scratch / "base", "head": scratch / "head"}
        for copy in copies.values():
            copy.mkdir()
        export_revision(args.base, copies["base"])
        if args.head:
            export_revision(args.head, copies["head"])
        else:
            export_worktree(copies["head"])
        configs = sorted(p for pattern in CONFIG_GLOBS for p in copies["head"].glob(pattern))
        if not configs:
            print("no configs found", file=sys.stderr)
            return 1
        failures = 0
        for config in configs:
            name = config.relative_to(copies["head"])
            outcome = {
                side: simulate(copy, config, scratch / f"{side}-{config.stem}", args.repetitions)
                for side, copy in copies.items()
            }
            code, _, csv, json = outcome["head"]
            if outcome["base"] == outcome["head"]:
                sizes = "" if csv is None else f", csv {len(csv)} and json {len(json)} bytes"
                print(f"{name}: identical (exit {code}{sizes})")
            else:
                failures += 1
                fields = ("exit code", "stdout", "csv", "json")
                differing = [f for f, b, h in zip(fields, outcome["base"], outcome["head"]) if b != h]
                print(f"{name}: DIFFERENT {', '.join(differing)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
