"""The repository's rules (``scripts/repo_rules.py``, also run by CI) hold on
``src/`` and the committed benchmark records, and each one catches a file
that breaks it."""

import importlib.util
import json
import os
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("repo_rules", ROOT / "scripts" / "repo_rules.py")
repo_rules = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(repo_rules)


def test_src_keeps_every_import_rule():
    assert repo_rules.import_rules(ROOT / "src") == []


def test_src_converts_no_param_outside_the_config_reader():
    assert repo_rules.one_config_reader(ROOT / "src") == []


def test_every_committed_benchmark_record_is_complete():
    assert repo_rules.benchmark_records(ROOT) == []


def mutant_src(tmp_path: Path, module: str, line: str) -> tuple[Path, str]:
    """A copy of ``src/`` with ``line`` appended to ``module``, and the
    ``path:line: `` prefix of a finding on that line."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "flowbot" / module
    text = path.read_text(encoding="utf-8")
    path.write_text(text + line + "\n", encoding="utf-8")
    lineno = text.count("\n") + 1
    return src, f"{path}:{lineno}: "


@pytest.mark.parametrize("module, line, name", [
    ("harness/nodes.py", "import threading", "threading"),
    ("flowcore/runtime.py", "from time import sleep", "time.sleep"),
    ("flowcore/runtime.py", "from ..harness import nodes", "flowbot.harness.nodes"),
    ("flowcore/runtime.py", "import numpy as np", "numpy"),
    ("skills/types.py", "from dataclasses import dataclass", "dataclasses.dataclass"),
])
def test_a_banned_import_is_found(tmp_path, module, line, name):
    src, where = mutant_src(tmp_path, module, line)
    (finding,) = repo_rules.import_rules(src)
    assert finding.startswith(f"{where}imports {name}: ")


def test_the_clock_may_read_the_wall_clock(tmp_path):
    src, _ = mutant_src(tmp_path, "flowcore/clock.py", "from time import sleep")
    assert repo_rules.import_rules(src) == []


def test_a_bare_param_conversion_is_found(tmp_path):
    src, where = mutant_src(tmp_path, "harness/nodes.py", 'x = int(params["x"])')
    assert repo_rules.one_config_reader(src) == [f"{where}int(params['x'])"]


def test_a_benchmark_record_with_no_machine_is_found(tmp_path):
    record = json.loads((ROOT / "BENCH_21.json").read_text(encoding="utf-8"))
    shutil.copy(ROOT / "BENCH_20.json", tmp_path)
    del record["machine"]
    (tmp_path / "BENCH_21.json").write_text(json.dumps(record), encoding="utf-8")
    assert repo_rules.benchmark_records(tmp_path) == ["BENCH_21.json: names no machine"]


def test_the_command_prints_its_findings_and_exits_1(tmp_path, capsys):
    assert repo_rules.main(["imports", str(ROOT / "src")]) == 0
    assert capsys.readouterr().out == "src/ keeps all 5 import rules\n"
    src, where = mutant_src(tmp_path, "harness/nodes.py", "import threading")
    assert repo_rules.main(["imports", str(src)]) == 1
    assert capsys.readouterr().out.startswith(where)
    assert repo_rules.main(["bench-records", os.fspath(ROOT)]) == 0
    assert capsys.readouterr().out.endswith(" benchmark records, each naming its machine"
                                            " with parent and change results and a summary\n")
    assert repo_rules.main(["nope", "src"]) == 2
