#!/usr/bin/env python3
"""The repository's own rules, one function each, returning its findings.

``import_rules`` and ``one_config_reader`` read the Python files under a
``src`` directory; ``benchmark_records`` reads the ``BENCH_*.json`` files at
the root of the repository. Each finding is one line that names its file.

    python scripts/repo_rules.py imports src
    python scripts/repo_rules.py config-reader src
    python scripts/repo_rules.py bench-records .

prints the rule's findings, or one line saying it holds, and exits 1 if there
are findings, else 0. CI runs all three; ``tests/test_repo_rules.py`` runs
them in tier-1.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

CORE_CLIENTS = ("dsp", "harness", "skills", "perception", "robotics")
# (reason, scope under src/, banned modules, the files they are allowed in)
IMPORT_RULES = [
    ("the executor is single-threaded by design: no thread or process pools",
     "flowbot", {"threading", "concurrent", "multiprocessing"}, ()),
    ("a run's time is its schedule: only flowcore/clock.py reads or waits on the wall clock",
     "flowbot", {"time", "datetime"}, ("flowbot/flowcore/clock.py",)),
    ("a dataclass generates its methods through exec at import: use NamedTuples or flowcore.record",
     "flowbot", {"dataclasses"}, ()),
    ("flowbot.flowcore is the core the other packages build on: it imports none of them",
     "flowbot/flowcore", {f"flowbot.{name}" for name in CORE_CLIENTS}, ()),
    ("the scheduler runs without numpy: in flowcore only the aggregator and attention kernels import it",
     "flowbot/flowcore", {"numpy"}, ("flowbot/flowcore/aggregator.py", "flowbot/flowcore/attention.py")),
]
# node params and detector specs are read through flowcore.schema's
# get_value, which names the key of a bad value; a bare conversion does not
CASTS = {"int", "float", "str", "list", "dict"}


def _modules(src: Path):
    for path in sorted(src.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def import_rules(src: Path) -> list[str]:
    found = []
    for path, tree in _modules(src):
        rel = path.relative_to(src)
        package = list(rel.parent.parts)
        imported = []  # (line, absolute dotted name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(node.lineno, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # resolve "from ..x import y" against the module's package
                base = package[: len(package) - node.level + 1] if node.level else []
                module = ".".join(base + (node.module.split(".") if node.module else []))
                imported += [(node.lineno, f"{module}.{alias.name}") for alias in node.names]
        for reason, scope, banned, allowed in IMPORT_RULES:
            if rel.as_posix() in allowed or not rel.as_posix().startswith(scope + "/"):
                continue
            found += [f"{path}:{line}: imports {name}: {reason}" for line, name in imported
                      if any(name == b or name.startswith(b + ".") for b in banned)]
    return found


def _reads_config(arg: ast.AST) -> bool:
    for node in ast.walk(arg):
        if isinstance(node, ast.Subscript):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
            target = node.func.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id in ("params", "spec"):
            return True
    return False


def one_config_reader(src: Path) -> list[str]:
    return [
        f"{path}:{node.lineno}: {ast.unparse(node)}"
        for path, tree in _modules(src)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in CASTS and any(map(_reads_config, node.args))
    ]


def benchmark_records(root: Path) -> list[str]:
    """A performance change commits BENCH_<n>.json at the root: the flowbench
    result lines of the parent and of the change, and the machine they were
    measured on."""
    problems = []
    for path in sorted(root.glob("BENCH_*.json")):
        name = path.name
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: not readable JSON: {exc}")
            continue
        if not isinstance(doc, dict) or not doc.get("machine"):
            problems.append(f"{name}: names no machine")
            continue
        for side in ("parent", "change"):
            lines = doc.get(side)
            if not (isinstance(lines, list) and lines
                    and all(isinstance(line, dict) and "metrics" in line for line in lines)):
                problems.append(f"{name}: has no {side} result lines")
        summary = doc.get("summary")
        if not (isinstance(summary, list) and summary
                and all(isinstance(row, dict) and {"workload", "seed", "pairs"} <= row.keys()
                        for row in summary)):
            problems.append(f"{name}: has no summary rows naming workload, seed and pairs")
    return problems


RULES = {
    "imports": (import_rules, lambda _: f"src/ keeps all {len(IMPORT_RULES)} import rules"),
    "config-reader": (one_config_reader,
                      lambda _: "src/ converts no params or spec value outside flowcore.schema"),
    "bench-records": (benchmark_records, lambda root: (
        f"{len(list(root.glob('BENCH_*.json')))} benchmark records, each naming its machine"
        " with parent and change results and a summary")),
}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in RULES:
        print(f"usage: repo_rules.py {{{','.join(RULES)}}} DIR", file=sys.stderr)
        return 2
    rule, holds = RULES[argv[0]]
    where = Path(argv[1])
    found = rule(where)
    print("\n".join(found) or holds(where))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
