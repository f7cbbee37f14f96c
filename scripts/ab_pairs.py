#!/usr/bin/env python3
"""Alternating A/B pairs of flowbench runs: a parent revision against the working tree.

Usage (from the repository root):

    python3 scripts/ab_pairs.py --parent HEAD --workloads kws_frontend_48k,speech_ref \\
        --seeds 3,1000 --pairs 10,5 --seconds 36 --out BENCH_21.json
    python3 scripts/ab_pairs.py --parent HEAD --kernel scripts/kernels.py:aggregator_feed_600s

The parent is extracted with ``git archive`` into a temporary directory, and
the change is a copy there of the working tree's files that git tracks or
would track (uncommitted edits included, ignored files such as bytecode
caches left out); both are removed on exit. So both sides start from source
alike. The change's ``flowbench/`` and ``scripts/opcounts.py`` replace the
parent's, so both sides are measured alike even when the change edits the
benchmark or the counter.
``--pairs`` is one count for every seed or one per seed. For every workload
and seed, odd pairs run the parent first and even pairs the change first,
one run at a time. ``--append`` adds the runs to an existing record of the
same parent and machine, numbering each workload and seed's pairs on from
its last, and writes the summary of all of them.

Before the pairs, ``scripts/opcounts.py --seed S`` also runs on the
workloads once per side and seed: its counts do not vary, so one run is the
measurement, and it costs seconds next to the pairs. The record gets an
``opcodes`` block: the ``command``, and the counter's JSON lines under
``parent`` and ``change``, one per workload and seed, each with its
``calls`` and ``opcodes`` per package and in total and the report's
``digest``. With ``--append`` the block is measured again and replaced.

``--kernel FILE:FUNC`` times one kernel instead of flowbench. ``FUNC`` is a
zero-argument function in ``FILE``, a file of the working tree that both
sides load, and returns one timing in milliseconds, lower being better. Each
run is a fresh interpreter with the parent's or the change's ``src`` first on
``sys.path``, in the same alternating order, ``--pairs`` times (the first
count). It prints every run, then one JSON summary row, and writes no record.

The output is the schema every committed ``BENCH_<n>.json`` shares:
``machine`` (``measure.machine_info()``, as each run prints it),
``parent_commit``, ``command``, ``order``, ``claim``, ``summary`` and every
result line under ``parent`` and ``change``. A summary row gives, per
end-to-end metric, the median, the inclusive quartiles and the count of each
side, ``median_ratio`` (change over parent) and ``change_wins``: the pairs
in which the change is strictly better than the parent run of the same pair.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = "python3 flowbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
ORDER = "alternating pairs: odd pairs run the parent first, even pairs the change first"
SIDES = ("parent", "change")
OPCOUNTS = "scripts/opcounts.py"
OPCOUNTS_COMMAND = "python3 scripts/opcounts.py --seed S W..."


def end_to_end_metrics(root: str = ROOT) -> dict[str, str]:
    """Each end-to-end metric's name and the direction that is better, from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float]:
    """Inclusive first and third quartiles; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def side_stats(values: list[float]) -> dict:
    """The median, the inclusive quartiles and the count of one side's values."""
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarise(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[dict]:
    """One summary row per (workload, seed), in the order the runs first name them."""
    keys = list(dict.fromkeys((line["workload"], line["seed"]) for line in parent + change))
    rows = []
    for workload, seed in keys:
        runs = {side: {line["pair"]: line for line in lines
                       if (line["workload"], line["seed"]) == (workload, seed)}
                for side, lines in zip(SIDES, (parent, change))}
        pairs = sorted(set(runs["parent"]) & set(runs["change"]))
        row = {
            "workload": workload,
            "seed": seed,
            "pairs": len(pairs),
            "all_correct": all(line["correct"] for side in SIDES for line in runs[side].values()),
        }
        for name, direction in better.items():
            entry = {"better": direction}
            for side in SIDES:
                entry[side] = side_stats([runs[side][pair]["metrics"][name]["value"] for pair in pairs])
            entry["median_ratio"] = entry["change"]["median"] / entry["parent"]["median"]
            sign = 1.0 if direction == "higher" else -1.0
            wins = sum(sign * (runs["change"][p]["metrics"][name]["value"]
                               - runs["parent"][p]["metrics"][name]["value"]) > 0 for p in pairs)
            entry["change_wins"] = f"{wins}/{len(pairs)}"
            row[name] = entry
        rows.append(row)
    return rows


def run_flowbench(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One end-to-end run in ``tree``: its info line and its result line."""
    done = subprocess.run(
        [sys.executable, "flowbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"flowbench failed in {tree} ({workload}, seed {seed}):\n{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_opcounts(tree: str, workloads: list[str], seed: int) -> list[dict]:
    """The counter's JSON line for each workload at ``seed``, counted in ``tree``."""
    done = subprocess.run(
        [sys.executable, OPCOUNTS, "--seed", str(seed), *workloads],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"opcounts failed in {tree} (seed {seed}):\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.strip().splitlines()]


KERNEL_RUNNER = """
import importlib.util, json, sys
src, path, func = sys.argv[1:]
sys.path.insert(0, src)
spec = importlib.util.spec_from_file_location("kernel_file", path)
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(json.dumps(float(getattr(module, func)())))
"""


def run_kernel(tree: str, path: str, func: str) -> float:
    """One call of ``func`` from ``path`` in a fresh interpreter with ``tree``'s src first."""
    done = subprocess.run(
        [sys.executable, "-c", KERNEL_RUNNER, os.path.join(tree, "src"), path, func],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"kernel {path}:{func} failed in {tree}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def kernel_pairs(trees: dict[str, str], kernel: str, pairs: int) -> dict:
    """Time ``FILE:FUNC`` in alternating pairs, printing each run; returns the summary row."""
    path, _, func = kernel.rpartition(":")
    path = os.path.abspath(path)
    times = {side: [] for side in SIDES}
    for pair in range(1, pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            times[side].append(run_kernel(trees[side], path, func))
            print(f"{kernel} pair {pair} {side}: {times[side][-1]:.3f} ms", flush=True)
    wins = sum(change < parent for parent, change in zip(times["parent"], times["change"]))
    return {
        "kernel": kernel,
        "unit": "ms",
        **{side: side_stats(times[side]) for side in SIDES},
        "median_ratio": statistics.median(times["change"]) / statistics.median(times["parent"]),
        "change_wins": f"{wins}/{pairs}",
    }


def copy_change(into: str) -> str:
    """Copy the working tree's tracked and untracked, not ignored files under ``into``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout.decode().split("\0")
    tree = os.path.join(into, "change")
    for name in filter(None, listed):
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):  # a tracked file may be deleted in the working tree
            os.makedirs(os.path.dirname(os.path.join(tree, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(tree, name))
    return tree


def parent_tree(rev: str, into: str, change: str) -> tuple[str, str]:
    """Extract ``rev`` under ``into`` with the change's flowbench and opcode
    counter; returns the tree and the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    tree = os.path.join(into, "parent")
    os.makedirs(tree)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, capture_output=True, check=True)
    shutil.rmtree(os.path.join(tree, "flowbench"))
    shutil.copytree(os.path.join(change, "flowbench"), os.path.join(tree, "flowbench"))
    os.makedirs(os.path.join(tree, "scripts"), exist_ok=True)
    shutil.copy2(os.path.join(change, OPCOUNTS), os.path.join(tree, OPCOUNTS))
    return tree, commit


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--workloads", help="comma-separated flowbench workloads")
    parser.add_argument("--kernel", help="FILE:FUNC, a timing function to pair instead of flowbench")
    parser.add_argument("--seeds", default="3,1000", help="comma-separated seeds")
    parser.add_argument("--pairs", default="10", help="pairs per seed: one count, or one per seed")
    parser.add_argument("--seconds", type=float, default=36.0, help="flowbench --seconds of each run")
    parser.add_argument("--claim", default="", help="the claim the record supports, as one sentence")
    parser.add_argument("--out", help="where to write the record, e.g. BENCH_21.json")
    parser.add_argument("--append", action="store_true", help="add the runs to the record at --out")
    args = parser.parse_args(argv)
    if not args.kernel and not (args.workloads and args.out):
        parser.error("--workloads and --out are required without --kernel")
    if args.kernel and ":" not in args.kernel:
        parser.error("--kernel takes FILE:FUNC")
    if args.kernel and (args.out or args.append):
        parser.error("--kernel writes no record: drop --out and --append")
    args.workloads = (args.workloads or "").split(",")
    args.seeds = [int(seed) for seed in args.seeds.split(",")]
    pairs = [int(count) for count in args.pairs.split(",")]
    if len(pairs) == 1:
        pairs *= len(args.seeds)
    if len(pairs) != len(args.seeds) or min(pairs) < 1:
        parser.error("--pairs takes one positive count, or one per seed")
    args.pairs = dict(zip(args.seeds, pairs))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    record = {side: [] for side in SIDES}
    if args.append:
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    lines = {side: list(record[side]) for side in SIDES}
    machines = [record["machine"]] if args.append else []
    workdir = tempfile.mkdtemp(prefix="ab_pairs-")
    try:
        change_tree = copy_change(workdir)
        parent, commit = parent_tree(args.parent, workdir, change_tree)
        trees = {"parent": parent, "change": change_tree}
        if args.kernel:
            print(json.dumps(kernel_pairs(trees, args.kernel, args.pairs[args.seeds[0]])))
            return 0
        if args.append and commit != record["parent_commit"]:
            raise SystemExit(f"{args.out} measured parent {record['parent_commit']}, not {commit}")
        record["opcodes"] = {"command": OPCOUNTS_COMMAND, **{
            side: [line for seed in args.seeds for line in run_opcounts(trees[side], args.workloads, seed)]
            for side in SIDES}}
        for workload in args.workloads:
            for seed in args.seeds:
                done = max((line["pair"] for line in lines["parent"]
                            if (line["workload"], line["seed"]) == (workload, seed)), default=0)
                for pair in range(done + 1, done + args.pairs[seed] + 1):
                    for side in SIDES if pair % 2 else SIDES[::-1]:
                        info, result = run_flowbench(trees[side], workload, seed, args.seconds)
                        machines.append(info["machine"])
                        lines[side].append({"workload": workload, "seed": seed, "pair": pair, **result})
                        print(f"{workload} seed {seed} pair {pair} {side}: correct {result['correct']}",
                              file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if any(machine != machines[0] for machine in machines):
        raise SystemExit(f"the runs name different machines: {machines}")
    record.update({
        "machine": machines[0],
        "parent_commit": commit,
        "command": COMMAND.format(seconds=args.seconds),
        "order": ORDER,
        "claim": args.claim or record.get("claim", ""),
        "summary": summarise(lines["parent"], lines["change"], end_to_end_metrics()),
        **lines,
    })
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
