#!/usr/bin/env python3
"""Print every executable line under ``src/`` that the test suite does not reach.

Runs ``tests/`` through pytest in this process under a ``sys.settrace`` line
tracer (no coverage package needed) and prints the unreached lines grouped
by file. Tests that start a
fresh interpreter are not traced, so a line only they run is listed too.
Traced, the suite takes about twice its usual time.

    python scripts/unreached_lines.py [extra pytest arguments]
"""

import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from ``path`` runs."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's entry
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(pytest_args: list[str]) -> int:
    import pytest

    reached: dict[str, set[int]] = defaultdict(set)
    prefix = str(SRC) + os.sep

    def trace_lines(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(SRC))
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        unreached = sorted(executable_lines(path) - reached[str(path)])
        if unreached:
            total += len(unreached)
            print(f"{path.relative_to(ROOT)}: {', '.join(map(str, unreached))}")
    print(f"{total} unreached lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
