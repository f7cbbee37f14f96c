#!/usr/bin/env python3
"""Count the Python calls and bytecode instructions of flowbench replays.

For each ``WORKLOAD[:SIZE]`` it generates the flowbench workload at
``--seed`` into a temporary directory, with ``SIZE`` as the generator's size
argument (seconds of audio for ``speech_ref`` and ``kws_frontend_48k``, the
base packet count for ``executor_fanout``; the generator's default when
left out). It imports the flowbench modules and changes none of them. It
runs ``Workload.run_plain`` once to warm up, then once under a
``sys.settrace`` tracer that counts every ``call`` event (a Python frame
entered or a generator resumed) and, with ``f_trace_opcodes``, every
``opcode`` event, with the cyclic garbage collector off. Both are counted
by the package of the running frame's file: ``flowcore``, ``harness``,
``dsp``, ``skills``, ``flowbench``, and ``other`` for the rest (the
standard library, numpy's Python code and flowbot's other packages). It
prints one JSON line per workload with the counts per package and in
total, and the report's digest, and exits 1 if a report fails its
workload's check.

Under the virtual clock a replay's Python work is deterministic, so the
counts are the same in every process and name a Python-side lever that
wall-time pairs cannot resolve. An opcode is not a unit of time: a change
that moves work into numpy can cut opcodes and add time.

    python3 scripts/opcounts.py --seed 3 speech_ref
    python3 scripts/opcounts.py --seed 1 speech_ref:5 executor_fanout:500 kws_frontend_48k:3
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGES = ("flowcore", "harness", "dsp", "skills", "flowbench")

sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "flowbench"))  # last, so its module names shadow nothing

import workloads  # noqa: E402  (flowbench's, found through the path above)

import flowbot  # noqa: E402


def load(name: str, seed: int, size: float | None, into: str) -> "workloads.Workload":
    """The workload ``name`` generated at ``seed`` and ``size`` into the directory ``into``."""
    generator = workloads.GENERATORS[name]
    spec = generator(seed, into) if size is None else generator(seed, into, size)
    spec["workload"] = name
    with open(os.path.join(into, workloads.SPEC_FILE), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return workloads.Workload(into)


def _package_of(flowbot_dir: str, flowbench_dir: str):
    """A function from a code object's file name to its package in ``PACKAGES`` or ``other``."""
    cache: dict[str, str] = {}

    def package(filename: str) -> str:
        name = cache.get(filename)
        if name is None:
            name = "other"
            if filename.startswith(flowbench_dir):
                name = "flowbench"
            elif filename.startswith(flowbot_dir):
                first = filename[len(flowbot_dir):].split(os.sep, 1)[0]
                if first in PACKAGES:
                    name = first
            cache[filename] = name
        return name

    return package


def count(workload: "workloads.Workload") -> tuple[dict, bytes]:
    """``({"calls": {...}, "opcodes": {...}}, report bytes)`` of one warm
    ``run_plain``, each count keyed by package, plus ``total``."""
    workload.run_plain()
    package = _package_of(
        os.path.dirname(os.path.abspath(flowbot.__file__)) + os.sep,
        os.path.dirname(os.path.abspath(workloads.__file__)) + os.sep,
    )
    keys = (*PACKAGES, "other")
    calls = dict.fromkeys(keys, 0)
    opcodes = dict.fromkeys(keys, 0)

    def trace_opcodes(frame, event, arg):
        if event == "opcode":
            opcodes[package(frame.f_code.co_filename)] += 1
        return trace_opcodes

    def trace_calls(frame, event, arg):
        calls[package(frame.f_code.co_filename)] += 1
        frame.f_trace_opcodes = True
        return trace_opcodes

    # a collection would run the finalizers of whatever the process left
    # behind inside the counted run
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(trace_calls)
    try:
        report = workload.run_plain()
    finally:
        sys.settrace(None)
        if collecting:
            gc.enable()
    calls["total"] = sum(calls.values())
    opcodes["total"] = sum(opcodes.values())
    return {"calls": calls, "opcodes": opcodes}, report


def parse_target(text: str) -> tuple[str, float | None]:
    name, _, size = text.partition(":")
    if name not in workloads.GENERATORS:
        raise argparse.ArgumentTypeError(f"unknown workload {name!r}; one of {', '.join(workloads.GENERATORS)}")
    if not size:
        return name, None
    try:
        value = float(size)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"size of {name} must be a number > 0, got {size!r}")
    return name, int(value) if value.is_integer() else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3, help="the workload generator's seed")
    parser.add_argument("targets", nargs="+", type=parse_target, metavar="WORKLOAD[:SIZE]")
    args = parser.parse_args(argv)
    for name, size in args.targets:
        with tempfile.TemporaryDirectory() as tmp:
            workload = load(name, args.seed, size, tmp)
            counts, report = count(workload)
            errors = workload.check(report)
        line = {"workload": name, "seed": args.seed, "size": size, **counts, "digest": workloads.digest(report)}
        print(json.dumps(line), flush=True)
        for error in errors:
            print(f"{name}: {error}", file=sys.stderr)
        if errors:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
