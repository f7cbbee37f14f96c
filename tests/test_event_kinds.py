"""The event kinds that ``src/`` logs are the ones ``docs/graph_schema.md`` lists.

Every literal kind passed to ``log_event(`` or ``ctx.log(`` is collected
from the source, and compared with the list under the ``events`` entry of
the schema's run report section, so a new kind, or a deleted one, is
documented in the same change.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def logged_kinds(src: Path) -> set[str]:
    kinds = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            logs = func.attr == "log_event" or (
                func.attr == "log" and isinstance(func.value, ast.Name) and func.value.id == "ctx"
            )
            if logs and node.args and isinstance(node.args[0], ast.Constant):
                kinds.add(node.args[0].value)
    return kinds


def documented_kinds(schema: str) -> set[str]:
    """The ``- `kind``` items nested under the run report's ``events`` entry."""
    report = schema.split("\n## Run report\n", 1)[1]
    kinds = set()
    for line in report.split("\n- `events`:", 1)[1].splitlines()[1:]:
        if line.startswith("- ") or line.startswith("#"):
            break
        match = re.match(r"  - `(\w+)`", line)
        if match:
            kinds.add(match.group(1))
    return kinds


def test_every_logged_event_kind_is_documented_and_every_documented_one_logged():
    schema = (ROOT / "docs" / "graph_schema.md").read_text(encoding="utf-8")
    documented = documented_kinds(schema)
    assert documented, "no event kinds listed under the run report's events entry"
    assert logged_kinds(ROOT / "src") == documented

