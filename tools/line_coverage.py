"""Statements of ``src/dcal`` that a pytest run never executes.

Run from the repository root, with pytest's own arguments after ``--``:

    python3 tools/line_coverage.py
    python3 tools/line_coverage.py -- tests/test_engine.py -q

pytest runs in this process under a standard-library line trace
(``sys.settrace`` and ``threading.settrace``) that records the lines it
executes in the files of ``src/dcal`` and nowhere else.  A statement is a
line on which some compiled code object of the module starts an
instruction (``co_lines``), so docstrings and comments are not counted.
Code that only runs in a subprocess, such as a test that starts
``python -m dcal``, is not seen.

The output lists, per module, the statements never executed, one range per
line with its first source line, and then the totals.  The exit status is
pytest's.  The trace makes the tier-1 suite several times slower, so this
is run by hand, not as part of the suite.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dcal"


def _statements(path: Path) -> set[int]:
    """Lines of ``path`` on which a compiled instruction starts."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: none
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def _ranges(statements: set[int], missing: set[int]) -> list[tuple[int, int]]:
    """The missing statements as (first, last) runs with no executed
    statement between them."""
    runs: list[list[int]] = []
    previous = None
    for line in sorted(statements):
        if line in missing:
            if runs and previous == runs[-1][1]:
                runs[-1][1] = line
            else:
                runs.append([line, line])
        previous = line
    return [(first, last) for first, last in runs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pytest_args", nargs="*", help="arguments passed on to pytest")
    args = parser.parse_args(argv)

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        # frames torn down at interpreter exit may carry no file name
        if filename is None or not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # after the path: the run imports dcal under the trace

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args.pytest_args or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missing_total = statements_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        statements = _statements(path)
        missing = statements - executed.get(str(path), set())
        statements_total += len(statements)
        missing_total += len(missing)
        if not missing:
            continue
        source = path.read_text(encoding="utf-8").splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missing)} of {len(statements)} never executed")
        for first, last in _ranges(statements, missing):
            where = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {where:>9}  {source[first - 1].strip()}")
    print(f"{missing_total} of {statements_total} statements never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
