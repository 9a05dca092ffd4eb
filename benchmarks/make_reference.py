"""Write the stored reference reports that the benchmark compares against.

Run from the repository root:

    python3 benchmarks/make_reference.py

Each workload runs once on its reference-seed inputs at ``--threads 1`` and
its report files are copied to benchmarks/reference/ (gzip-compressed when
larger than 100 kB).  The stored files were made at the commit that added the
benchmark; regenerate them only with a change that intends to alter report
values, and say so in that change.
"""

from __future__ import annotations

import gzip
import shutil
import sys

from checks import REFERENCE_DIR, reference_name
from run import OUT_DIR, Tally, run_cli
from workloads import REFERENCE_SEED, SRC, WORKLOADS

COMPRESS_ABOVE_BYTES = 100_000


def main() -> int:
    sys.path.insert(0, str(SRC))
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        work = OUT_DIR / workload.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        tally = Tally()
        case = workload.prepare(REFERENCE_SEED, work)
        base = work / "reference"
        run_cli(workload.argv(case, base), tally, workload, base)
        if tally.failed:
            print(f"{workload.name}: reference run failed: {tally.problems}", file=sys.stderr)
            return 1
        for path in workload.outputs(base):
            data = path.read_bytes()
            name = reference_name(workload, path)
            if len(data) > COMPRESS_ABOVE_BYTES:
                name, data = name + ".gz", gzip.compress(data, mtime=0)
            (REFERENCE_DIR / name).write_bytes(data)
            print(f"{workload.name}: wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
