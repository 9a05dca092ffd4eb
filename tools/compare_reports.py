"""Byte comparison of the reports and outputs of two versions of the repository.

Run from the repository root:

    python3 tools/compare_reports.py --base HEAD
    python3 tools/compare_reports.py --base HEAD --repetitions 100

Each side is a clean copy of the committed files of a revision, or of the
working tree when ``--head`` is left out, made with the export helpers of
``tools/bench_pairs.py``.  Two kinds of case then run in each copy:

- ``dcal simulate`` on every bundled ``src/dcal/fixtures/fig*.cfg`` and
  ``benchmarks/configs/*.cfg`` of the head copy, plus four built-in
  configs: an effect grid with every pair method and n = 4, an outlier suite
  at the odd n = 11 with every contamination kind, an effect grid whose
  odd and even n include one too large for two of its cells to share a
  scoring call, and a correlated battery without null columns at an alpha
  where most methods reject nothing, each at the config's own repetitions
  unless ``--repetitions`` is given;
- built-in CLI cases, all run in one interpreter per side: a small
  ``dcal screen`` with every correction at loo, cv10x10 and boot632, a wide
  one (800 features of 24 samples) fast and ``--no-fast`` as CSV and JSON,
  a 12-sample screen at cv10x10 and boot632 with a feature whose
  out-of-sample predictions leave the float64 range (and at cv10x10 as JSON
  with every correction, which writes that row's nulls), a screen with
  every missing-cell spelling and a whitespace-only cell in a block of
  rows, and the same with a ``1e999`` cell later in that block (each at the
  default missing policy, at ``--missing-policy fail`` and with
  ``--orientation samples_in_rows``), ``dcal anscombe`` as
  text and JSON and at ``--scheme boot632 --seed 3 --json``, and
  ``dcal test`` on the Anscombe pairs for
  each ``--methods`` spelling, each scheme, plain, ``--fast`` and
  ``--json``, from a file and inline (also with the x values negated).

The inputs of the built-in cases are written to the scratch directory.  The
exit code, standard output (with the output path and the screen's elapsed
time masked), the CLI cases' standard error (warnings and error messages)
and the report bytes of the two sides must be equal; for a
differing standard output the differing lines are shown.  A differing field
or line whose text differs in numbers only is marked with the largest
relative difference between its numbers.  The script exits 1 if any case
differs, after running every case.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export_revision, export_worktree  # noqa: E402

CONFIG_GLOBS = ("src/dcal/fixtures/fig*.cfg", "benchmarks/configs/*.cfg")

RUN_CLI = "import sys; from dcal.cli import main; sys.exit(main(sys.argv[1:]))"

# runs a JSON list of argument lists through the CLI; prints [exit code or
# exception, stdout, stderr] per list
RUN_MANY = """
import contextlib, io, json, sys
from dcal.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException as exc:
            code = f"{type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

EFFECT_GRID = """\
design = effect_grid
rho_list = 0.0,0.5,-0.9
n_list = 4,12,40
methods = uncorrected,dcal,pcal_sellke,pcal_bickel,ppbf
seed = 11
repetitions = 30
"""

OUTLIER_SUITE_ODD_N = """\
design = outlier_suite
kinds = high_variance,univariate,bivariate
rho = 0.4
rho_list = 0.0,0.6
sd_list = 2,5
fraction = 0.2
magnitude = 6.0
n = 11
seed = 13
repetitions = 200
alpha = 0.1
methods = pearson,dcal,skipped
"""

# two cells of 1311 x 100 values at 8 bytes each exceed the work-space
# budget dcal.core.CHUNK_BYTES: one cell per call
EFFECT_GRID_GROUPS = """\
design = effect_grid
rho_list = 0.0,0.3,-0.6
n_list = 7,20,1311
methods = uncorrected,dcal,pcal_sellke,pcal_bickel,ppbf
seed = 17
repetitions = 100
"""

# no null columns (no fpr or fwer records), and an alpha at which five of
# the seven methods reject nothing (empty mean_r_significant)
CORRELATED_BATTERY = """\
design = correlated_battery
m_true = 40
m_null = 0
rho = 0.3
n = 30
seed = 1
repetitions = 3
alpha = 1e-4
scheme = boot632
methods = uncorrected,holm,bh,perm_max,dcal,pcal_sellke,pcal_bickel
permutations = 199
"""

BUILT_IN_CONFIGS = {
    "effect_grid.cfg": EFFECT_GRID,
    "outlier_suite_odd_n.cfg": OUTLIER_SUITE_ODD_N,
    "effect_grid_groups.cfg": EFFECT_GRID_GROUPS,
    "correlated_battery.cfg": CORRELATED_BATTERY,
}

ELAPSED = re.compile(r" in \d+\.\d+ s$", re.MULTILINE)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

WIDE_FEATURES = 800

TEST_METHODS = ("sellke", "bickel", "ppbf", "skipped", "sellke,bickel,ppbf,skipped")
SCHEMES = ("loo", "cv10x10", "boot632")


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


def write_inputs(copy: Path, scratch: Path) -> list[tuple[str, list[str], str | None]]:
    """Write the inputs of the built-in CLI cases to ``scratch``; return the
    cases as (name, arguments, report file name or None).  ``{out}`` in an
    argument stands for the side's output directory."""
    rng = random.Random(5)
    target = [rng.gauss(0.0, 1.0) for _ in range(24)]
    lines = ["id," + ",".join(f"s{i}" for i in range(24))]
    for j in range(40):
        noise = [rng.gauss(0.0, 1.0) for _ in target]
        planted = [0.6 * t + 0.8 * e for t, e in zip(target, noise)]
        row = target if j == 0 else planted if j < 6 else noise
        lines.append(f"f{j:02d}," + ",".join(repr(v) for v in row))
    matrix = scratch / "matrix.csv"
    matrix.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cases = [
        (f"screen --scheme {scheme} --format {fmt}",
         ["screen", "--matrix", str(matrix), "--target", "f00", "--corrections",
          "holm,bh,perm,perm_max", "--scheme", scheme, "--seed", "3", "--format", fmt,
          "--output", f"{{out}}/screen-{scheme}.{fmt}"],
         f"screen-{scheme}.{fmt}")
        for scheme, fmt in (("loo", "csv"), ("cv10x10", "csv"), ("boot632", "csv"), ("loo", "json"))
    ]
    # more features than one chunk of rows held in earlier versions
    # (8192 // 24 = 341), a tenth of them planted
    lines = lines[:1] + ["t," + ",".join(repr(v) for v in target)]
    for j in range(WIDE_FEATURES):
        noise = [rng.gauss(0.0, 1.0) for _ in target]
        row = [0.5 * t + 0.9 * e for t, e in zip(target, noise)] if j % 10 == 0 else noise
        lines.append(f"w{j:03d}," + ",".join(repr(v) for v in row))
    wide = scratch / "wide.csv"
    wide.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cases += [
        (f"screen wide {fast} --format {fmt}",
         ["screen", "--matrix", str(wide), "--target", "t", "--corrections", "holm,bh,perm_max",
          fast, "--seed", "4", "--format", fmt, "--output", f"{{out}}/wide{fast}.{fmt}"],
         f"wide{fast}.{fmt}")
        for fast in ("--fast", "--no-fast") for fmt in ("csv", "json")
    ]
    # a steep feature: noise of about 1e-150 but for one far sample, against
    # a target of about 1e150; k-fold and the bootstrap predict its far
    # sample out of the float64 range, which fails its row alone
    steep = np.random.default_rng(0)
    x = steep.standard_normal(12) * 1e-150
    far = int(steep.integers(12))
    x[far] = 1e140
    y = steep.standard_normal(12) * 1e150
    y[far] = 1e153
    rows = [("target", y), ("steep", x)]
    rows += [(f"n{j}", [rng.gauss(0.0, 1.0) * 1e150 for _ in range(12)]) for j in range(4)]
    small = scratch / "steep.csv"
    small.write_text("id," + ",".join(f"s{i}" for i in range(12)) + "\n" + "".join(
        name + "," + ",".join(repr(float(v)) for v in row) + "\n" for name, row in rows
    ), encoding="utf-8")
    cases += [
        (f"screen steep --scheme {scheme}",
         ["screen", "--matrix", str(small), "--target", "target", "--scheme", scheme,
          "--output", f"{{out}}/steep-{scheme}.csv"],
         f"steep-{scheme}.csv")
        for scheme in ("cv10x10", "boot632")
    ]
    # the failed row as JSON nulls, with every correction
    cases.append(
        ("screen steep --scheme cv10x10 --format json --corrections holm,bh,perm,perm_max",
         ["screen", "--matrix", str(small), "--target", "target", "--scheme", "cv10x10",
          "--format", "json", "--corrections", "holm,bh,perm,perm_max",
          "--output", "{out}/steep-cv10x10.json"],
         "steep-cv10x10.json")
    )
    # the loader's ladder: every missing spelling (rows 3-9 convert alone),
    # a whitespace-only cell in a shared block and, in the second file, a
    # 1e999 cell in a later row of that block
    ladder = np.random.default_rng(1).standard_normal((30, 12)).tolist()
    texts = [[repr(v) for v in row] for row in ladder]
    for i, j, token in ((3, 3, "NA"), (5, 4, "nan"), (7, 5, "NULL"), (9, 6, ""), (11, 7, "   ")):
        texts[i][j] = token
    for name, bad in (("missing", None), ("infinite", (14, 8))):
        cells = [row[:] for row in texts]
        if bad:
            cells[bad[0]][bad[1]] = "1e999"
        path = scratch / f"ladder-{name}.csv"
        path.write_text("id," + ",".join(f"c{j:02d}" for j in range(12)) + "\n" + "".join(
            f"r{i:02d}," + ",".join(row) + "\n" for i, row in enumerate(cells)
        ), encoding="utf-8")
        for k, (flags, target) in enumerate((([], "r00"), (["--missing-policy", "fail"], "r00"),
                                             (["--orientation", "samples_in_rows"], "c00"))):
            cases.append((f"screen ladder-{name} {' '.join(flags)}".rstrip(),
                          ["screen", "--matrix", str(path), "--target", target, *flags,
                           "--output", f"{{out}}/ladder-{name}-{k}.csv"],
                          f"ladder-{name}-{k}.csv"))
    cases += [("anscombe", ["anscombe"], None), ("anscombe --json", ["anscombe", "--json"], None),
              ("anscombe --scheme boot632 --seed 3 --json",
               ["anscombe", "--scheme", "boot632", "--seed", "3", "--json"], None)]

    quartet: dict[str, tuple[list[str], list[str]]] = {}
    fixture = copy / "src/dcal/fixtures/anscombe.csv"
    for line in fixture.read_text(encoding="utf-8").splitlines()[1:]:
        name, x, y = line.split(",")
        quartet.setdefault(name, ([], []))
        quartet[name][0].append(x)
        quartet[name][1].append(y)
    for name, (xs, ys) in sorted(quartet.items()):
        pair = scratch / f"anscombe-{name}.csv"
        pair.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in zip(xs, ys)), encoding="utf-8")
        for methods in TEST_METHODS:
            for scheme in SCHEMES:
                for flags in ([], ["--fast"], ["--json"]):
                    args = ["--methods", methods, "--scheme", scheme, *flags]
                    cases.append((f"test {name} {' '.join(args)}",
                                  ["test", "--input", str(pair), *args], None))
        negated = ",".join(x[1:] if x.startswith("-") else "-" + x for x in xs)
        for x in (",".join(xs), negated):
            args = ["--x", x, "--y", ",".join(ys), "--json", "--methods", TEST_METHODS[-1]]
            cases.append((f"test {name} inline {args[1]}", ["test", *args], None))
    return cases


def run_cli(copy: Path, cases: list, out_dir: Path) -> list[tuple]:
    """Run every case in one interpreter from ``copy``'s sources; return
    per case (exit code, stdout, report bytes or None, stderr)."""
    out_dir.mkdir()
    argvs = [[arg.replace("{out}", str(out_dir)) for arg in argv] for _, argv, _ in cases]
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    done = subprocess.run([sys.executable, "-c", RUN_MANY], input=json.dumps(argvs), cwd=copy,
                          env=env, capture_output=True, text=True, check=True)
    results = []
    for (_, _, report), (code, stdout, stderr) in zip(cases, json.loads(done.stdout)):
        stdout = ELAPSED.sub(" in <t> s", stdout.replace(str(out_dir), "<output>"))
        stderr = stderr.replace(str(out_dir), "<output>")
        path = out_dir / report if report else None
        results.append((code, stdout, path.read_bytes() if path and path.exists() else None,
                        stderr))
    return results


def numeric_change(base: str, head: str) -> float | None:
    """The largest relative difference between the numbers of two texts
    that differ in numbers only, or None if any other text differs."""
    if NUMBER.split(base) != NUMBER.split(head):
        return None
    pairs = [(float(b), float(h)) for b, h in zip(NUMBER.findall(base), NUMBER.findall(head))]
    return max((abs(b - h) / max(abs(b), abs(h)) for b, h in pairs if b != h), default=0.0)


def numbers_note(base, head) -> str:
    """For two texts that differ in numbers only, their largest relative
    difference; otherwise nothing."""
    if isinstance(base, bytes) and isinstance(head, bytes):
        base, head = base.decode("utf-8", "replace"), head.decode("utf-8", "replace")
    change = numeric_change(base, head) if isinstance(base, str) and isinstance(head, str) else None
    return "" if change is None else f" (numbers only, largest relative difference {change:.3g})"


def describe(fields: tuple[str, ...], base: tuple, head: tuple) -> str:
    """The fields that differ, with the differing stdout lines; a field or
    line that differs in numbers only shows their largest relative difference."""
    differing = [f + numbers_note(b, h) for f, b, h in zip(fields, base, head) if b != h]
    text = ", ".join(differing)
    if base[1] != head[1]:
        lines = zip(base[1].splitlines(), head[1].splitlines())
        changed = [f"\n    - {b}\n    + {h}{numbers_note(b, h)}" for b, h in lines if b != h]
        if base[1].count("\n") != head[1].count("\n"):
            changed.append("\n    (line counts differ)")
        text += "".join(changed[:6])
    return text


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
        inputs = scratch / "inputs"
        inputs.mkdir()
        for name, text in BUILT_IN_CONFIGS.items():
            (inputs / name).write_text(text, encoding="utf-8")
            configs.append(inputs / name)
        failures = 0
        for config in configs:
            name = config.relative_to(scratch if config.parent == inputs else copies["head"])
            outcome = {
                side: simulate(copy, config, scratch / f"{side}-{config.stem}", args.repetitions)
                for side, copy in copies.items()
            }
            code, _, csv, json_bytes = outcome["head"]
            if outcome["base"] == outcome["head"]:
                sizes = "" if csv is None else f", csv {len(csv)} and json {len(json_bytes)} bytes"
                print(f"{name}: identical (exit {code}{sizes})")
            else:
                failures += 1
                fields = ("exit code", "stdout", "csv", "json")
                print(f"{name}: DIFFERENT {describe(fields, outcome['base'], outcome['head'])}")

        cases = write_inputs(copies["head"], inputs)
        outcome = {side: run_cli(copy, cases, scratch / f"{side}-cli")
                   for side, copy in copies.items()}
        identical = 0
        for (name, _, _), base, head in zip(cases, outcome["base"], outcome["head"]):
            if base == head:
                identical += 1
            else:
                failures += 1
                fields = ("exit code", "stdout", "report", "stderr")
                print(f"{name}: DIFFERENT {describe(fields, base, head)}")
        print(f"CLI cases: {identical} of {len(cases)} identical")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
