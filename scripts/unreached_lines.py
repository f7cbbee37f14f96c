#!/usr/bin/env python3
"""Print every executable line under ``src/`` that a traced run does not reach.

Runs ``tests/`` through pytest in this process under a ``sys.settrace`` line
tracer (no coverage package needed) and prints the unreached lines grouped
by file. Tests that start a
fresh interpreter are not traced, so a line only they run is listed too.
Traced, the suite takes about twice its usual time. It exits 1 when a test
fails or any line is unreached.

With ``--traffic`` it traces what users and the benchmark run instead of the
tests: every ``flowbot`` subcommand (``run`` on the demo scenario,
``validate``, ``params`` and ``scan`` in both modes), then, for each flowbench
workload generated at seed 3, ``run_plain``, ``check`` and ``build_runner``
with ``finish``, and last ``kernels.measure``. It imports the flowbench
modules and changes none of them. It exits 1 only when a command or a check
fails: much of ``src/`` is library code that no user command reaches.

    python scripts/unreached_lines.py [extra pytest arguments]
    python scripts/unreached_lines.py --traffic
"""

import os
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stdout
from io import StringIO
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


def run_tests(pytest_args: list[str]) -> int:
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args]))


def run_traffic() -> int:
    """1 if a CLI command fails or a flowbench report fails its check, else 0."""
    sys.path.insert(0, str(ROOT / "flowbench"))
    import kernels
    import workloads
    from flowbot.harness.cli import main as cli

    configs = SRC / "flowbot" / "configs"
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        scan = ["scan", "--scene", str(configs / "demo_scan_scene.json"), "--out", os.path.join(tmp, "points.csv")]
        for argv in (
            ["run", "--scenario", str(configs / "demo_scenario.json"), "--report", os.path.join(tmp, "report.json")],
            ["validate"],
            ["params"],
            scan + ["--mode", "paper"],
            scan + ["--mode", "trig"],
        ):
            with redirect_stdout(StringIO()):
                code = cli(argv)
            if code != 0:
                failures.append(f"flowbot {argv[0]} failed")
        for name in workloads.GENERATORS:
            in_dir = os.path.join(tmp, name)
            os.mkdir(in_dir)
            workloads.generate(name, 3, in_dir)
            workload = workloads.Workload(in_dir)
            errors = workload.check(workload.run_plain())
            errors += workload.check(workload.finish(workload.build_runner(workloads.VirtualClock()).run()))
            failures += [f"{name}: {e}" for e in errors]
    failures += kernels.measure(3)[1]
    for failure in failures:
        print(failure, file=sys.stderr)
    return int(bool(failures))


def main(argv: list[str]) -> int:
    reached: dict[str, set[int]] = defaultdict(set)
    prefix = str(SRC) + os.sep

    def trace_lines(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    traffic = argv == ["--traffic"]
    sys.path.insert(0, str(SRC))
    sys.settrace(trace_calls)
    try:
        status = run_traffic() if traffic else run_tests(argv)
    finally:
        sys.settrace(None)
    total = executable = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(lines - reached[str(path)])
        executable += len(lines)
        if unreached:
            total += len(unreached)
            print(f"{path.relative_to(ROOT)}: {', '.join(map(str, unreached))}")
    print(f"{total} of {executable} executable lines unreached")
    return status or int(not traffic and total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
