"""Feature-matrix ingestion and batch screening against one target variable.

The screening workflow mirrors the co-expression use case: load a features x
samples table, run the calibrated correlation test for every feature against
a chosen target, attach classical multiple-testing corrections over the
battery of classical p-values, and persist the per-feature report.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Iterable, Sequence

import numpy as np

from .core import units_per_block
from .engine import DcalBatch, OosScheme, dcal_matrix
from .errors import InsufficientDataError, ParseError, TargetError
from .methods import CORRECTIONS, check, correct
from .multitest import PermutationPlan, permutation_pvalues
from .rng import derive, derive_text

__all__ = [
    "FeatureMatrix",
    "ScreenReport",
    "load_matrix",
    "screen",
    "write_report",
]

_MISSING_TOKENS = {"", "na", "nan", "null"}

# bytes charged per data cell of a block of rows converted by one numpy
# call (its string, its list slot and its float); a block holds whole rows
_CELL_BYTES = 80

# bytes charged per field of a report row written in one block (its Python
# value, its text and its share of the block's lines)
_FIELD_BYTES = 200

# substream roles under the screen seed
_KEY_SCREEN_PERM = 2 ** 35


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense feature-major matrix with unique feature names.

    ``warnings`` lists features excluded at ingestion (constant values, or
    missing cells under the drop policy).
    """

    feature_names: tuple[str, ...]
    values: np.ndarray
    sample_names: tuple[str, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature names must be unique")
        if any(not name for name in self.feature_names):
            raise ValueError("feature names must be nonempty")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] != len(self.feature_names):
            raise ValueError("values must be a (features x samples) matrix")
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("matrix contains non-finite values")
        object.__setattr__(self, "values", vals)

    @property
    def sample_count(self) -> int:
        return self.values.shape[1]

    def index_of(self, name: str) -> int:
        """Row of feature ``name``; TargetError, naming why ingestion left it out."""
        if name in self.feature_names:
            return self.feature_names.index(name)
        named = f"feature {name!r} "
        why = [w[len(named):] for w in self.warnings if w.startswith(named)]
        raise TargetError(named + (f"was {why[0]}" if why else "not found in matrix"))


def _parse_cell(token: str, line_no: int, col_no: int) -> float:
    """One cell as a finite float, or NaN for a missing cell."""
    stripped = token.strip()
    if stripped.lower() in _MISSING_TOKENS:
        return math.nan
    try:
        value = float(stripped)
    except ValueError:
        raise ParseError(
            f"line {line_no}, column {col_no}: {stripped!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"line {line_no}, column {col_no}: {stripped!r} is not a finite number")
    return value


def _parse_block(cells: list[str], lines: list[int]) -> np.ndarray:
    """Consecutive rows' data cells, concatenated, as a (rows, cells per row)
    float matrix, NaN marking a missing cell; ``lines`` holds each row's
    line number.

    One numpy call, which converts each token with Python's ``float``,
    converts the whole block.  Only a block that fails to convert or holds a
    non-finite value is parsed again: a block of several rows one row at a
    time, in file order, and a single row cell by cell, so the error names
    the first bad cell of the file.
    """
    try:
        values = np.array(cells, dtype=np.float64).reshape(len(lines), -1)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    if len(lines) == 1:
        return np.array([[_parse_cell(tok, lines[0], c) for c, tok in enumerate(cells, start=2)]])
    k = len(cells) // len(lines)
    return np.concatenate([
        _parse_block(cells[i * k:(i + 1) * k], [line_no]) for i, line_no in enumerate(lines)
    ])


def _may_be_missing(row: list[str], data: str) -> bool:
    """Whether a row's data cells ``row``, whose characters are those of
    ``data``, may hold a missing cell: an empty cell, or a token with an
    ``a`` or an ``l`` in either case ('NA', 'nan', 'null').  Such a row is
    converted as a block of its own: numpy cannot make its missing cells
    finite values, so in a shared block it would send every row down the
    cell-by-cell path."""
    return not all(row) or "a" in data or "A" in data or "l" in data or "L" in data


class _Kept:
    """The feature rows that pass ingestion's checks, gathered block by block.

    A row with a missing cell or a constant value is left out with a
    warning; the first feature with a missing cell is remembered for the
    ``fail`` policy, which is decided after the duplicate-name check.
    """

    def __init__(self):
        self.names: list[str] = []
        self.blocks: list[np.ndarray] = []
        self.warnings: list[str] = []
        self.first_missing: str | None = None

    def add(self, values: np.ndarray, names: Sequence[str]) -> None:
        missing = np.isnan(values).any(axis=1)
        constant = values.min(axis=1, initial=np.inf) == values.max(axis=1, initial=-np.inf)
        gaps = missing.tolist()
        self.warnings += [
            f"feature {name!r} dropped: missing values" if gap
            else f"feature {name!r} excluded: constant value"
            for name, gap, flat in zip(names, gaps, constant.tolist())
            if gap or flat
        ]
        if self.first_missing is None and any(gaps):
            self.first_missing = names[gaps.index(True)]
        keep = ~(missing | constant)
        self.names += compress(names, keep.tolist())
        if keep.all():
            self.blocks.append(values)
        elif keep.any():
            self.blocks.append(values[keep])

    def matrix(self, n_samples: int) -> np.ndarray:
        """The kept rows as one C-ordered matrix; the blocks are released."""
        blocks, self.blocks = self.blocks, []
        if not blocks:
            return np.empty((0, n_samples))
        return np.ascontiguousarray(blocks[0]) if len(blocks) == 1 else np.concatenate(blocks)


def load_matrix(
    path,
    delimiter: str = ",",
    orientation: str = "features_in_rows",
    missing_policy: str = "drop_feature",
) -> FeatureMatrix:
    """Parse a delimited table into a FeatureMatrix.

    The first column holds names and the header row holds the other axis'
    identifiers; ``orientation`` says whether rows are features (default) or
    samples.  Missing cells ('', NA, NaN, null) follow ``missing_policy``:
    ``drop_feature`` removes the affected feature with a warning, ``fail``
    raises.  Constant-valued features are always excluded with a warning,
    since they cannot participate in any correlation test.

    A plain line -- not blank, with no quote character, no NUL and no more
    characters than ``csv.field_size_limit()`` -- is split on the delimiter
    with ``str.split``; any other line starts a record that ``csv.reader``
    reads, as it would the whole file.  Rows are converted in blocks of as
    many as fit the work-space budget ``core.CHUNK_BYTES``, one numpy call
    per block, and features in rows are checked and compacted block by
    block, so no per-row arrays are made and the kept rows are copied once,
    into the returned matrix.

    Errors come in file order first -- a row of the wrong width, a cell that
    is not a number or not finite (``inf``, ``-nan``), a record ``csv``
    cannot read -- cited by the physical line that ends the row; then a
    duplicate feature name; then a missing cell under the ``fail`` policy.
    """
    if orientation not in ("features_in_rows", "samples_in_rows"):
        raise ValueError(f"unknown orientation {orientation!r}")
    if missing_policy not in ("drop_feature", "fail"):
        raise ValueError(f"unknown missing policy {missing_policy!r}")
    if len(delimiter) != 1:
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")

    by_row = orientation == "features_in_rows"
    names: list[str] = []
    kept = _Kept()
    sample_blocks: list[np.ndarray] = []
    cells: list[str] = []
    lines: list[int] = []

    def flush() -> None:
        nonlocal cells, lines
        block_cells, block_lines, cells, lines = cells, lines, [], []
        if block_lines:
            values = _parse_block(block_cells, block_lines)
            if by_row:
                kept.add(values, names[len(names) - len(block_lines):])
            else:
                sample_blocks.append(values)

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ParseError(f"line {reader.line_num}: {exc}") from None
        if header is None:
            raise ParseError(f"{path}: file is empty")
        if len(header) < 2:
            raise ParseError("line 1: expected a name column plus data columns")
        width = len(header)
        block_rows = units_per_block(_CELL_BYTES * (width - 1))
        limit = csv.field_size_limit()
        line_no = reader.line_num
        error = None
        try:
            for line in fh:
                line_no += 1
                text = line.rstrip("\r\n")
                # a plain line, which csv.reader would split the same way
                # (before Python 3.11 it refused a NUL)
                if text and '"' not in text and "\0" not in text and len(text) <= limit:
                    row = text.split(delimiter)
                    data = text[len(row[0]) + 1:]
                else:
                    record = csv.reader(chain((line,), fh), delimiter=delimiter)
                    try:
                        row = next(record)
                    except csv.Error as exc:
                        raise ParseError(f"line {line_no - 1 + record.line_num}: {exc}") from None
                    line_no += record.line_num - 1
                    data = "".join(row[1:])
                if len(row) != width:
                    raise ParseError(f"line {line_no}: expected {width} columns, got {len(row)}")
                name = row.pop(0)
                alone = _may_be_missing(row, data)
                if alone:
                    flush()
                names.append(name.strip())
                cells += row
                lines.append(line_no)
                if alone or len(lines) == block_rows:
                    flush()
        except (ParseError, UnicodeDecodeError) as exc:
            error = exc
        # the cell errors of the rows read before a bad record come first
        flush()
        if error is not None:
            raise error
    axis_names = tuple(cell.strip() for cell in header[1:])

    if by_row:
        feature_names, sample_names = names, axis_names
    else:
        feature_names, sample_names = axis_names, tuple(names)
        values = np.concatenate(sample_blocks) if sample_blocks else np.empty((0, width - 1))
        sample_blocks.clear()
        kept.add(values.T, axis_names)

    dupes = sorted(name for name, count in Counter(feature_names).items() if count > 1)
    if dupes:
        raise ParseError(f"duplicate feature name {dupes[0]!r}")
    if missing_policy == "fail" and kept.first_missing is not None:
        raise ParseError(f"feature {kept.first_missing!r} has missing values")
    return FeatureMatrix(
        feature_names=tuple(kept.names),
        values=kept.matrix(len(sample_names)),
        sample_names=tuple(sample_names),
        warnings=tuple(kept.warnings),
    )


@dataclass(eq=False)
class ScreenReport:
    """One screen: ``names``, the features in matrix order without the
    target; ``batch``, the :class:`~dcal.engine.DcalBatch` of their one
    :func:`~dcal.engine.dcal_matrix` call, row i for ``names[i]``;
    ``adjusted``, one array of p-values per correction, NaN on the rows that
    could not be tested; and battery-level ``summary`` counts."""

    target: str
    alpha: float
    scheme: str
    n_samples: int
    corrections: tuple[str, ...]
    names: tuple[str, ...]
    batch: DcalBatch
    adjusted: dict[str, np.ndarray]
    summary: dict = field(default_factory=dict)

    def significant_sets(self) -> dict[str, set[str]]:
        """Feature-name sets significant at alpha, per method.  A row that
        could not be tested has NaN scores, which are never below alpha."""
        scores = {"uncorrected": self.batch.p, "dcal": self.batch.p_dcal, **self.adjusted}
        return {
            method: set(compress(self.names, (score < self.alpha).tolist()))
            for method, score in scores.items()
        }

    def build_summary(self) -> None:
        sets = self.significant_sets()
        methods = sorted(sets)
        failed = sum(error is not None for error in self.batch.errors)
        self.summary = {
            "tested": len(self.names) - failed,
            "failed": failed,
            "fast_skipped": int(self.batch.skipped.sum()),
            "significant": {method: len(s) for method, s in sets.items()},
            "intersections": {
                f"{a}&{b}": len(sets[a] & sets[b])
                for i, a in enumerate(methods)
                for b in methods[i + 1 :]
            },
        }


def screen(
    matrix: FeatureMatrix,
    target: str,
    alpha: float = 0.05,
    scheme: OosScheme = OosScheme.loo(),
    corrections: Iterable[str] = ("holm", "bh"),
    fast: bool = True,
    plan: PermutationPlan = PermutationPlan(),
) -> ScreenReport:
    """Screen every non-target feature against the target.

    ``fast`` enables the calibrated test's guard, skipping out-of-sample work
    for features whose classical p is already non-significant -- the
    high-throughput mode.  The guard reports those features with the
    (0.0, 0.5) sentinel, so it can shrink the ``dcal`` significant set: a
    calibrated p below alpha is possible when the classical p is not.  On
    the benchmark's generated 5000 x 100 matrix (seed 1, loo), fast mode
    found 105 dcal-significant features where full mode found 123.
    Corrections are computed over the classical p-values of the
    successfully tested features only.  Per-feature failures are recorded
    in the batch's ``errors``, not raised.

    One :func:`~dcal.engine.dcal_matrix` call tests every row of the loaded
    matrix, the target's against itself, and drops the target's row from the
    batch; the permutation correction reads the same matrix with the target
    and the failed rows masked out.  No step copies the tested rows: each
    works in blocks of rows, so the work space beyond the loaded matrix is
    about one budget (``core.CHUNK_BYTES``) plus vectors of one entry per
    feature (and the (B, n) shuffled targets under ``perm`` or ``perm_max``).
    The report does not depend on the blocks or on the order of the rows.
    """
    corrections = tuple(check(corrections, CORRECTIONS, "correction"))
    target_idx = matrix.index_of(target)
    if matrix.sample_count < 4:
        raise InsufficientDataError(f"need >= 4 samples, got {matrix.sample_count}")
    y = matrix.values[target_idx]
    if y.min() == y.max():
        raise TargetError(f"target {target!r} is constant")

    names = matrix.feature_names[:target_idx] + matrix.feature_names[target_idx + 1:]
    # per-feature seeds follow the feature NAME, so permuting matrix
    # rows permutes report rows with identical values; loo reads none
    if scheme.kind == "loo":
        seeds = np.zeros(len(matrix.feature_names), dtype=np.uint64)
    else:
        seeds = [derive_text(scheme.seed, name) for name in matrix.feature_names]
    every = dcal_matrix(matrix.values, y, scheme, seeds, alpha, fast)
    batch = DcalBatch(*(np.delete(column, target_idx) for column in every[:-1]),
                      every.errors[:target_idx] + every.errors[target_idx + 1:])

    ok = np.array([error is None for error in batch.errors], dtype=bool)
    adjusted = {corr: np.full(len(names), np.nan) for corr in corrections}
    if ok.any() and corrections:
        columns = correct(
            batch.p[ok], corrections,
            lambda: permutation_pvalues(
                matrix.values, y,
                PermutationPlan(plan.n_permutations, derive(scheme.seed, _KEY_SCREEN_PERM)),
                np.insert(ok, target_idx, False),
            ),
        )
        for corr, column in columns.items():
            adjusted[corr][ok] = column

    report = ScreenReport(
        target=target,
        alpha=alpha,
        scheme=scheme.label,
        n_samples=matrix.sample_count,
        corrections=corrections,
        names=names,
        batch=batch,
        adjusted=adjusted,
    )
    report.build_summary()
    return report


def _field_blocks(report: ScreenReport):
    """The per-feature fields of both formats, in file order (name, r, p,
    r_dcal, p_dcal, flip, p_<correction>, error): the key list, then one
    dict of field lists per block of rows."""
    batch = report.batch
    numbers = {"r": batch.r, "p": batch.p, "r_dcal": batch.r_dcal, "p_dcal": batch.p_dcal,
               "flip": batch.sign_flip}
    numbers.update((f"p_{corr}", report.adjusted[corr]) for corr in report.corrections)
    keys = ["name", *numbers, "error"]
    yield keys
    step = units_per_block(_FIELD_BYTES * len(keys))
    for start in range(0, len(report.names), step):
        at = slice(start, start + step)
        yield {"name": report.names[at], **{key: column[at].tolist() for key, column in numbers.items()},
               "error": ["" if error is None else str(error) for error in batch.errors[at]]}


def _csv_text(report: ScreenReport):
    """The CSV report in pieces: the header, then each block's lines."""
    blocks = _field_blocks(report)
    yield ",".join(next(blocks)) + "\n"
    for fields in blocks:
        texts = [
            column if key in ("name", "error")
            else ["true" if flag else "false" for flag in column] if key == "flip"
            else list(map(repr, column))
            for key, column in fields.items()
        ]
        yield "".join(
            ",".join([name, *[""] * len(cells), error.replace(",", ";")]) + "\n" if error
            else ",".join([name, *cells, ""]) + "\n"
            for name, *cells, error in zip(*texts)
        )


# the C encoder, one JSON text per entry of a list: JSON escapes a newline
# inside a string, so the separator splits the entries
_encode_entries = json.JSONEncoder(separators=("\n", ": ")).encode


def _json_text(report: ScreenReport):
    """The JSON report in pieces, the bytes of ``json.dumps(doc, indent=2)``
    with the rows listed under "rows": each block's values are encoded one
    column at a time by the C encoder and set into a row template."""
    doc = json.dumps({
        "target": report.target,
        "alpha": report.alpha,
        "scheme": report.scheme,
        "n_samples": report.n_samples,
        "corrections": list(report.corrections),
        "rows": [],
        "summary": report.summary,
    }, indent=2)
    head, empty, tail = doc.partition('"rows": []')
    blocks = _field_blocks(report)
    keys = next(blocks)
    row = "    {{\n" + ",\n".join(f"      {json.dumps(key)}: {{}}" for key in keys) + "\n    }}"
    yield head + ('"rows": [' if report.names else empty)
    for k, fields in enumerate(blocks):
        failed = [i for i, error in enumerate(fields["error"]) if error]
        for key in keys[1:-1]:
            if key != "flip":  # a failed row's numbers are null
                for i in failed:
                    fields[key][i] = None
        columns = [_encode_entries(list(column))[1:-1].split("\n") for column in fields.values()]
        yield ("\n" if k == 0 else ",\n") + ",\n".join(row.format(*values)
                                                    for values in zip(*columns))
    yield ("\n  ]" if report.names else "") + tail + "\n"


def write_report(report: ScreenReport, path, format: str = "csv") -> None:
    """Persist a ScreenReport as CSV (one row per feature) or JSON.

    Numbers are written with full round-trip precision, so reloading the file
    reproduces them bit for bit: both formats write each Python float's
    ``repr``.  A feature that could not be tested has empty cells (CSV) or
    nulls (JSON) in place of its numbers.  Rows are formatted and written
    in blocks of the work-space budget, so the text of the whole report is
    never held.
    """
    text = {"csv": _csv_text, "json": _json_text}.get(format)
    if text is None:
        raise ValueError(f"unknown report format {format!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(text(report))
