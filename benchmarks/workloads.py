"""The benchmark's four workloads: seeded inputs, CLI arguments and test counts.

Every input is a pure function of the benchmark seed.  The program sees that
seed only through the files generated here and through its ``--seed`` flag.
All runs use ``--threads 1`` except the determinism check at two threads.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = SRC / "dcal" / "fixtures"

# Inputs of the stored reference reports (see make_reference.py).
REFERENCE_SEED = 20260101

# screen input: about 2% of features planted at rho = 0.5 against the
# target, plus rows with an NA cell and constant rows, which ingestion drops
SCREEN_FEATURES = 5000
SCREEN_SAMPLES = 100
SCREEN_PLANTED = 100
SCREEN_RHO = 0.5
SCREEN_NA_ROWS = 5
SCREEN_CONSTANT_ROWS = 5
SCREEN_TARGET = "TARGET"
SCREEN_PERMUTATIONS = 999


def program_seed(workload: str, seed: int) -> int:
    """The ``--seed`` passed to the program for a benchmark seed."""
    return random.Random(f"{workload}:{seed}").randrange(2 ** 31)


@dataclass(frozen=True)
class Case:
    """One set of inputs: the files a run reads and the program's seed.

    ``data`` holds the generated matrix (names, values) of a screen case, so
    the oracle checks need not parse the CSV back.
    """

    program_seed: int
    matrix: Path | None = None
    data: tuple | None = None


def write_screen_matrix(seed: int, path: Path) -> tuple[list[str], np.ndarray]:
    """Write the features x samples CSV for ``seed``; return the tested rows.

    The returned names and values cover the target and every feature that
    ingestion keeps (rows with an NA cell and constant rows are left out).
    """
    rng = np.random.default_rng(seed)
    n = SCREEN_SAMPLES
    rows = SCREEN_FEATURES - 1
    target = rng.standard_normal(n)
    values = rng.standard_normal((rows, n))
    special = rng.choice(rows, SCREEN_PLANTED + SCREEN_NA_ROWS + SCREEN_CONSTANT_ROWS, replace=False)
    planted = special[:SCREEN_PLANTED]
    na_rows = set(special[SCREEN_PLANTED : SCREEN_PLANTED + SCREEN_NA_ROWS].tolist())
    constant_rows = set(special[SCREEN_PLANTED + SCREEN_NA_ROWS :].tolist())
    values[planted] = SCREEN_RHO * target + math.sqrt(1.0 - SCREEN_RHO ** 2) * values[planted]

    names = [f"F{i:05d}" for i in range(rows)]
    lines = ["feature," + ",".join(f"S{j:03d}" for j in range(n))]
    lines.append(SCREEN_TARGET + "," + ",".join(map(repr, target.tolist())))
    kept_names = [SCREEN_TARGET]
    kept_values = [target]
    for i, name in enumerate(names):
        if i in constant_rows:
            lines.append(name + "," + ",".join(["2.5"] * n))
            continue
        cells = list(map(repr, values[i].tolist()))
        if i in na_rows:
            cells[int(rng.integers(n))] = "NA"
        else:
            kept_names.append(name)
            kept_values.append(values[i])
        lines.append(name + "," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return kept_names, np.vstack(kept_values)


class ScreenWorkload:
    """``dcal screen`` on a generated 5000 x 100 matrix, default fast guard."""

    name = "screen"
    unit = "features tested"
    cross_checks = True

    def prepare(self, seed: int, workdir: Path) -> Case:
        path = workdir / f"matrix-{seed}.csv"
        names, values = write_screen_matrix(seed, path)
        return Case(program_seed(self.name, seed), path, (names, values))

    def argv(self, case: Case, output: Path, threads: int = 1) -> list[str]:
        return [
            "screen", "--matrix", str(case.matrix), "--target", SCREEN_TARGET,
            "--scheme", "loo", "--corrections", "holm,bh,perm_max",
            "--permutations", str(SCREEN_PERMUTATIONS),
            "--output", str(output.with_suffix(".csv")), "--threads", str(threads),
            "--seed", str(case.program_seed),
        ]

    def outputs(self, output: Path) -> list[Path]:
        return [output.with_suffix(".csv")]

    def tally(self, output: Path) -> tuple[int, int]:
        """(tests attempted, tests failed) of one invocation's report."""
        with open(output.with_suffix(".csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        failed = sum(1 for line in lines if not line.endswith(","))
        return len(lines), failed


@dataclass(frozen=True)
class SimulateWorkload:
    """``dcal simulate`` on one config at a fixed repetition count.

    ``tests_per_error`` is the number of tests one error in the report's
    ``meta.errors`` stands for: batteries drop a whole repetition, the outlier
    suite one cell's repetition.
    """

    name: str
    config: Path
    repetitions: int
    tests_per_rep: int
    tests_per_error: int
    unit: str
    cross_checks: bool = False

    def prepare(self, seed: int, workdir: Path) -> Case:
        return Case(program_seed(self.name, seed))

    def argv(self, case: Case, output: Path, threads: int = 1) -> list[str]:
        return [
            "simulate", "--config", str(self.config), "--output", str(output),
            "--repetitions", str(self.repetitions), "--threads", str(threads),
            "--seed", str(case.program_seed),
        ]

    def outputs(self, output: Path) -> list[Path]:
        return [output.with_suffix(".csv"), output.with_suffix(".json")]

    def tally(self, output: Path) -> tuple[int, int]:
        meta = json.loads(output.with_suffix(".json").read_text(encoding="utf-8"))["meta"]
        return self.tests_per_rep * self.repetitions, meta["errors"] * self.tests_per_error


WORKLOADS = {
    wl.name: wl
    for wl in (
        ScreenWorkload(),
        # 100 columns x (loo, cv10x10, boot632) at n = 50
        SimulateWorkload(
            "sim-oos", FIXTURES / "fig2.cfg", 1, 100 * 3, 100 * 3,
            "columns x schemes x repetitions",
        ),
        # 1000 null columns at n = 50, every battery method
        SimulateWorkload(
            "sim-null", BENCH_DIR / "configs" / "sim-null.cfg", 2, 1000, 1000,
            "columns x repetitions", cross_checks=True,
        ),
        # 9 contamination cells at n = 100
        SimulateWorkload(
            "sim-outlier", FIXTURES / "fig6.cfg", 100, 9, 1,
            "cells x repetitions",
        ),
    )
}
