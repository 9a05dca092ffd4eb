"""Frozen per-cell CSV loader and per-shuffle permutation loop, kept as test
oracles for the screen's ingestion and permutation layers.

``load_matrix`` is the loader that parsed every cell with ``_parse_cell`` and
built a list of lists of floats; ``permutation_pvalues`` is the loop that
drew one ``Stream`` and ran one matrix-vector product per shuffle.  Both are
copied unchanged except that names are made module-local and the plan is
passed as its two numbers.  Tests compare the library's array versions with
them.
"""

from __future__ import annotations

import csv

import numpy as np

from dcal.batchio import FeatureMatrix
from dcal.errors import DegenerateVarianceError, ParseError
from dcal.rng import Stream, derive

_MISSING_TOKENS = {"", "na", "nan", "null"}


def _parse_cell(token: str, line_no: int, col_no: int) -> float | None:
    stripped = token.strip()
    if stripped.lower() in _MISSING_TOKENS:
        return None
    try:
        return float(stripped)
    except ValueError:
        raise ParseError(
            f"line {line_no}, column {col_no}: {stripped!r} is not a number"
        ) from None


def load_matrix(
    path,
    delimiter: str = ",",
    orientation: str = "features_in_rows",
    missing_policy: str = "drop_feature",
) -> FeatureMatrix:
    if orientation not in ("features_in_rows", "samples_in_rows"):
        raise ValueError(f"unknown orientation {orientation!r}")
    if missing_policy not in ("drop_feature", "fail"):
        raise ValueError(f"unknown missing policy {missing_policy!r}")

    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    if not rows:
        raise ParseError(f"{path}: file is empty")
    header = rows[0]
    if len(header) < 2:
        raise ParseError(f"line 1: expected a name column plus data columns")
    width = len(header)
    axis_names = tuple(cell.strip() for cell in header[1:])

    names: list[str] = []
    data: list[list[float | None]] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(f"line {line_no}: expected {width} columns, got {len(row)}")
        names.append(row[0].strip())
        data.append([_parse_cell(tok, line_no, c + 2) for c, tok in enumerate(row[1:])])

    if orientation == "features_in_rows":
        feature_names, sample_names = names, axis_names
        cells = data
    else:
        feature_names, sample_names = list(axis_names), tuple(names)
        cells = [list(col) for col in zip(*data)] if data else [[] for _ in axis_names]

    dupes = {n for n in feature_names if feature_names.count(n) > 1}
    if dupes:
        raise ParseError(f"duplicate feature name {sorted(dupes)[0]!r}")

    kept_names: list[str] = []
    kept_rows: list[list[float]] = []
    warnings: list[str] = []
    for name, row in zip(feature_names, cells):
        if any(v is None for v in row):
            if missing_policy == "fail":
                raise ParseError(f"feature {name!r} has missing values")
            warnings.append(f"feature {name!r} dropped: missing values")
            continue
        if len(row) and min(row) == max(row):
            warnings.append(f"feature {name!r} excluded: constant value")
            continue
        kept_names.append(name)
        kept_rows.append(row)

    values = np.asarray(kept_rows, dtype=np.float64) if kept_rows else np.empty((0, len(sample_names)))
    return FeatureMatrix(
        feature_names=tuple(kept_names),
        values=values,
        sample_names=tuple(sample_names),
        warnings=tuple(warnings),
    )


def permutation_pvalues(
    columns: np.ndarray, target: np.ndarray, n_permutations: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(columns, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != y.shape[0]:
        raise ValueError("columns must be (m, n) with n matching the target length")
    m, n = X.shape
    sd_x = X.std(axis=1)
    for j in np.flatnonzero(sd_x == 0.0):
        raise DegenerateVarianceError(f"column {int(j)} has zero variance")
    if y.std() == 0.0:
        raise DegenerateVarianceError("target has zero variance")

    Xs = (X - X.mean(axis=1, keepdims=True)) / sd_x[:, None]
    ys = (y - y.mean()) / y.std()
    observed = np.abs(Xs @ ys) / n

    B = n_permutations
    count_per = np.zeros(m, dtype=np.int64)
    count_max = np.zeros(m, dtype=np.int64)
    for b in range(B):
        shuffled = ys[Stream(derive(seed, b)).permutation(n)]
        stats = np.abs(Xs @ shuffled) / n
        count_per += stats >= observed
        count_max += stats.max() >= observed
    per_test = (1.0 + count_per) / (B + 1.0)
    max_stat = (1.0 + count_max) / (B + 1.0)
    return per_test, max_stat
