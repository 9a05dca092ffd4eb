"""Output checks: stored reference reports and independent oracles.

Each check returns ``(units, mismatches)``: how many rows or records it
compared and a description of each one that did not match.  Numbers are
compared within a relative tolerance, so a kernel that only changes the
order of a summation still passes; flags, error strings, labels and
significant counts must match exactly.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

import numpy as np

from workloads import BENCH_DIR

REFERENCE_DIR = BENCH_DIR / "reference"

RTOL = 1e-9
ATOL = 1e-14

# screen report columns holding numbers, and the p-value columns whose
# counts below alpha are the report's significant counts
SCREEN_NUMBERS = ("r", "p", "r_dcal", "p_dcal", "p_holm", "p_bh", "p_perm_max")
SCREEN_PVALUES = ("p", "p_dcal", "p_holm", "p_bh", "p_perm_max")
ALPHA = 0.05

# oracle rows drawn per run from each side of the fast guard
ORACLE_ROWS = 15
ORACLE_R_RTOL = 1e-9
ORACLE_P_RTOL = 1e-6


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + ATOL


def reference_name(workload, output: Path) -> str:
    return workload.name + output.suffix


def read_reference(name: str) -> bytes:
    """Stored reference bytes; large files are kept gzip-compressed."""
    plain = REFERENCE_DIR / name
    if plain.is_file():
        return plain.read_bytes()
    return gzip.decompress((REFERENCE_DIR / (name + ".gz")).read_bytes())


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def compare_screen(got: str, ref: str) -> tuple[int, list[str]]:
    got_rows, ref_rows = _rows(got), _rows(ref)
    if len(got_rows) != len(ref_rows) or (got_rows and got_rows[0].keys() != ref_rows[0].keys()):
        return 1, ["screen report shape or header differs from the reference"]
    bad = []
    for g, r in zip(got_rows, ref_rows):
        if (g["name"], g["error"], g["flip"]) != (r["name"], r["error"], r["flip"]):
            bad.append(f"row {r['name']}: name, error or flip differs")
        elif not r["error"] and not all(
            close(float(g[col]), float(r[col])) for col in SCREEN_NUMBERS
        ):
            bad.append(f"row {r['name']}: numbers differ beyond rtol {RTOL}")
    for col in SCREEN_PVALUES:
        counts = [sum(1 for row in rows if not row["error"] and float(row[col]) < ALPHA)
                  for rows in (got_rows, ref_rows)]
        if counts[0] != counts[1]:
            bad.append(f"significant count of {col}: {counts[0]} vs reference {counts[1]}")
    return len(ref_rows) + len(SCREEN_PVALUES), bad


def compare_simulate_csv(got: str, ref: str) -> tuple[int, list[str]]:
    got_rows, ref_rows = _rows(got), _rows(ref)
    if len(got_rows) != len(ref_rows):
        return 1, [f"{len(got_rows)} records vs reference {len(ref_rows)}"]
    bad = []
    for g, r in zip(got_rows, ref_rows):
        key = [r[k] for k in ("design", "cell", "method", "metric")]
        if [g[k] for k in ("design", "cell", "method", "metric")] != key:
            bad.append(f"record {key}: labels differ")
        elif (g["value"] == "") != (r["value"] == "") or (
            r["value"] and not close(float(g["value"]), float(r["value"]))
        ):
            bad.append(f"record {key}: {g['value']} vs reference {r['value']}")
    return len(ref_rows), bad


def compare_simulate_json(got: str, ref: str) -> tuple[int, list[str]]:
    # the records repeat the CSV; the run metadata must match exactly
    if json.loads(got)["meta"] != json.loads(ref)["meta"]:
        return 1, ["report meta differs from the reference"]
    return 1, []


def compare_with_reference(workload, outputs: list[Path]) -> tuple[int, list[str]]:
    units, bad = 0, []
    for path in outputs:
        if not path.is_file():
            units, bad = units + 1, bad + [f"{path.name} was not written"]
            continue
        got = path.read_text(encoding="utf-8")
        ref = read_reference(reference_name(workload, path)).decode("utf-8")
        if workload.name == "screen":
            compare = compare_screen
        elif path.suffix == ".csv":
            compare = compare_simulate_csv
        else:
            compare = compare_simulate_json
        u, b = compare(got, ref)
        units, bad = units + u, bad + b
    return units, bad


def _naive_loo(predictor: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Leave-one-out predictions by n separate least-squares refits."""
    n = predictor.shape[0]
    out = np.empty(n)
    for i in range(n):
        keep = np.arange(n) != i
        slope, intercept = np.polyfit(predictor[keep], response[keep], 1)
        out[i] = intercept + slope * predictor[i]
    return out


def screen_oracles(report: Path, names: list[str], values: np.ndarray, seed: int) -> tuple[int, list[str]]:
    """Spot-check a seeded sample of screen rows against independent code.

    (r, p) come from ``scipy.stats.pearsonr``.  On rows that pass the fast
    guard (p < alpha), (r_dcal, p_dcal) come from an n-refit leave-one-out
    followed by ``pearsonr`` and the sign rule; other rows must carry the
    (0.0, 0.5) sentinel unflipped.
    """
    from scipy.stats import pearsonr

    y = values[0]
    x_of = dict(zip(names[1:], values[1:]))
    rows = [row for row in _rows(report.read_text(encoding="utf-8")) if not row["error"]]
    rng = np.random.default_rng([seed, 1])
    sample = []
    for passed in (True, False):
        side = [row for row in rows if (float(row["p"]) < ALPHA) == passed]
        picks = rng.choice(len(side), min(ORACLE_ROWS, len(side)), replace=False)
        sample += [side[i] for i in sorted(picks)]

    bad = []
    for row in sample:
        x = x_of[row["name"]]
        r, p = (float(row[k]) for k in ("r", "p"))
        r_o, p_o = pearsonr(x, y)
        if not (close(r, r_o, ORACLE_R_RTOL) and close(p, p_o, ORACLE_P_RTOL)):
            bad.append(f"row {row['name']}: (r, p) = ({r}, {p}) vs pearsonr ({r_o}, {p_o})")
            continue
        expected = (0.0, 0.5, "false")
        if p < ALPHA:
            rc, pc = pearsonr(_naive_loo(y, x), _naive_loo(x, y))
            if rc == 0.0 or math.copysign(1.0, rc) != math.copysign(1.0, r):
                expected = (0.0, 0.5, "true")
            else:
                expected = (float(rc), float(pc), "false")
        got = (float(row["r_dcal"]), float(row["p_dcal"]), row["flip"])
        if got[2] != expected[2] or not (
            close(got[0], expected[0], ORACLE_P_RTOL) and close(got[1], expected[1], ORACLE_P_RTOL)
        ):
            bad.append(f"row {row['name']}: (r_dcal, p_dcal, flip) = {got} vs oracle {expected}")
    return len(sample), bad
