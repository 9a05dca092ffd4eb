"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: LOO is a
refit per fold through np.polyfit (SVD least squares), and the step-down /
step-up adjustments follow their textbook definitions with explicit loops.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import strategies as st

from dcal import DataPair, gen_pair

ANSCOMBE = {
    "A": (
        [10, 8, 13, 9, 11, 14, 6, 4, 12, 7, 5],
        [8.04, 6.95, 7.58, 8.81, 8.33, 9.96, 7.24, 4.26, 10.84, 4.82, 5.68],
    ),
    "B": (
        [10, 8, 13, 9, 11, 14, 6, 4, 12, 7, 5],
        [9.14, 8.14, 8.74, 8.77, 9.26, 8.10, 6.13, 3.10, 9.13, 7.26, 4.74],
    ),
    "C": (
        [10, 8, 13, 9, 11, 14, 6, 4, 12, 7, 5],
        [7.46, 6.77, 12.74, 7.11, 7.81, 8.84, 6.08, 5.39, 8.15, 6.42, 5.73],
    ),
    "D": (
        [8, 8, 8, 8, 8, 8, 8, 19, 8, 8, 8],
        [6.58, 5.76, 7.71, 8.84, 8.47, 7.04, 5.25, 12.50, 5.56, 7.91, 6.89],
    ),
}


@pytest.fixture
def anscombe_pairs():
    return {name: DataPair(x, y) for name, (x, y) in ANSCOMBE.items()}


def naive_loo(predictor, response):
    """Leave-one-out by refitting n times with np.polyfit."""
    predictor = np.asarray(predictor, dtype=float)
    response = np.asarray(response, dtype=float)
    n = len(predictor)
    out = np.empty(n)
    for i in range(n):
        mask = np.ones(n, dtype=bool)
        mask[i] = False
        if np.ptp(predictor[mask]) == 0:
            raise ZeroDivisionError(f"degenerate leave-one-out subset at {i}")
        slope, intercept = np.polyfit(predictor[mask], response[mask], 1)
        out[i] = intercept + slope * predictor[i]
    return out


def brute_holm(p):
    """Step-down definition evaluated literally, ties broken by index."""
    p = np.asarray(p, dtype=float)
    m = len(p)
    order = sorted(range(m), key=lambda i: (p[i], i))
    rank = {idx: pos for pos, idx in enumerate(order)}
    out = np.empty(m)
    for i in range(m):
        candidates = [
            min(1.0, (m - rank[j]) * p[j]) for j in range(m) if rank[j] <= rank[i]
        ]
        out[i] = max(candidates)
    return out


def brute_bh(p):
    """Step-up definition evaluated literally, ties broken by index."""
    p = np.asarray(p, dtype=float)
    m = len(p)
    order = sorted(range(m), key=lambda i: (p[i], i))
    rank = {idx: pos for pos, idx in enumerate(order)}
    out = np.empty(m)
    for i in range(m):
        candidates = [
            min(1.0, m * p[j] / (rank[j] + 1)) for j in range(m) if rank[j] >= rank[i]
        ]
        out[i] = min(candidates)
    return out


def seeded_pair(n, rho, seed):
    return gen_pair(n, rho, seed)


def steep_pair():
    """(x, y) of 12 samples: x is noise of about 1e-150 but for one far
    sample, y noise of about 1e150 but for that sample, 1e153.  A training
    set without the far sample has a slope of about 1e300, so cv10x10 and
    boot632 at seed 0 predict the far sample out of the float64 range."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(12) * 1e-150
    far = int(rng.integers(12))
    x[far] = 1e140
    y = rng.standard_normal(12) * 1e150
    y[far] = 1e153
    return x, y


# Cell tokens for generated feature-matrix CSVs.  Missing tokens come in
# every spelling the loader accepts, padded or not; numbers include
# underscores, full-width digits, signed zero and values near the float
# limits; names include the delimiters, which the writer then quotes.
CSV_NUMBERS = (
    "0", "1", "-2.5", "3", "1e-3", "7", " 4 ", "1_0", "-0", "+.5e1", "１２",
    "1e308", "-1e308", "1e-320", "0.1", "2", "-7.25", "1000000.5",
)
CSV_MISSING = ("", " ", "NA", "na", "Na", "nan", "NaN", "NAN", " nan ", "null", "NULL", "Null")
CSV_BAD = ("x", "1.2.3", "--1", "0x10", "1,5", "1 2", "nan(1)", "1__0")
CSV_NONFINITE = ("inf", "-inf", "Infinity", " -INF ", "-nan", "+nan", "1e999")
CSV_NAMES = ("g1", "g2", "g3", " g1 ", "a,b", "a;b", "t\tab", 'q"t', "ä", "")


# Tokens only the feature-matrix tables use, where a plain split of a line
# and csv.reader could part: no-break-space padding, blank cells, a NaN
# payload and NUL characters.
CSV_PADDED = ("\xa01\xa0", "\xa0-2.5", " 3\xa0")
CSV_BLANK = ("\xa0", " \xa0 ", "\xa0NA\xa0", "\xa0nan")
CSV_NUL = ("nan(123)", "1\x002", "\x00", "\x001")
# a field one character over csv.reader's limit
CSV_OVERSIZED = "1" * (csv.field_size_limit() + 1)


@st.composite
def csv_tables(draw, max_rows=6, max_cols=6):
    """(text, delimiter, names, has_nonfinite) of a small delimited table.

    Half the tables are plain: unique names (``f<i>`` for rows, ``s<j>``
    for columns) and rows that are numeric, constant or numeric with
    missing cells.  The others draw names from a pool (duplicates, empty
    names, names holding a delimiter) and may also hold mixed rows (any
    token kind), ragged rows (one cell short or long), blank lines and a
    field over ``csv.field_size_limit()``.  Any table may end its lines
    with ``\\n``, ``\\r\\n`` or ``\\r``, leave the last one without a line
    end, and quote every cell.  A table may be header-only, or the file
    empty.  ``names`` holds the stripped row names and column names, the
    feature names of either orientation.
    """
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    if draw(st.integers(0, 30)) == 0:
        return "", delimiter, ([], []), False
    plain = draw(st.booleans())
    number = st.one_of(
        st.sampled_from(CSV_NUMBERS + CSV_PADDED),
        st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    )
    kinds = ["number"] * 4 + ["missing", "bad", "nonfinite"]
    pools = {
        "missing": CSV_MISSING + CSV_BLANK, "bad": CSV_BAD + CSV_NUL, "nonfinite": CSV_NONFINITE,
    }
    has_nonfinite = False

    def name(unique):
        return unique if plain else draw(st.sampled_from(CSV_NAMES + (unique,)))

    def token(kind):
        nonlocal has_nonfinite
        has_nonfinite |= kind == "nonfinite"
        return draw(number) if kind == "number" else draw(st.sampled_from(pools[kind]))

    width = draw(st.integers(1, max_cols))
    table = [["id"] + [name(f"s{j}") for j in range(width)]]
    shapes = ["numbers"] * 4 + ["constant", "missing"] + ([] if plain else ["mixed", "ragged"])
    for i in range(draw(st.integers(0, max_rows))):
        shape = draw(st.sampled_from(shapes))
        if shape == "numbers":
            cells = [draw(number) for _ in range(width)]
        elif shape == "constant":
            cells = [draw(number)] * width
        elif shape == "missing":
            cells = [token(draw(st.sampled_from(["number", "missing"]))) for _ in range(width)]
        else:
            cells = [token(draw(st.sampled_from(kinds))) for _ in range(width)]
            if shape == "ragged":
                cells = cells[:-1] if draw(st.booleans()) else cells + [draw(number)]
        table.append([name(f"f{i}")] + cells)
    if not plain and draw(st.integers(0, 7)) == 0:
        row = draw(st.integers(0, len(table) - 1))
        table[row][draw(st.integers(0, len(table[row]) - 1))] = CSV_OVERSIZED
    terminator = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL] * 3 + [csv.QUOTE_ALL]))
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator=terminator, quoting=quoting)
    for i, row in enumerate(table):
        if i and not plain and draw(st.integers(0, 9)) == 0:
            out.write(terminator)  # a blank line, which csv reads as 0 columns
        writer.writerow(row)
    text = out.getvalue()
    if draw(st.booleans()):
        text = text[:-len(terminator)]
    names = ([row[0].strip() for row in table[1:]], [cell.strip() for cell in table[0][1:]])
    return text, delimiter, names, has_nonfinite
