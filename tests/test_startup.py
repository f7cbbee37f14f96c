"""Start-up guard: what ``flowbot`` imports, checked in fresh interpreters.

``flowbot run`` must not load the modules only other subcommands use, nor
``dataclasses``, whose classes generate code at import. The leaf packages
load a submodule when one of its names is first used.
"""

import json
import os
import subprocess
import sys

import pytest

import flowbot

SRC = os.path.dirname(os.path.dirname(os.path.abspath(flowbot.__file__)))
CONFIGS = os.path.join(SRC, "flowbot", "configs")
LAZY_PACKAGES = ["flowbot.dsp", "flowbot.robotics", "flowbot.perception", "flowbot.skills"]


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports flowbot from this tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


def cli(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python -m flowbot.harness.cli``, how an uninstalled tree runs the CLI."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "flowbot.harness.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def fresh_json(code: str, *args: str):
    done = fresh(code, *args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


RUN_DEMO = """
import contextlib, io, json, sys
import numpy  # what numpy itself imports is not flowbot's to guard
before = set(sys.modules)
from flowbot.harness.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["run", "--scenario", sys.argv[1]])
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""


def test_run_loads_no_generated_classes_and_no_unused_subpackage():
    result = fresh_json(RUN_DEMO, os.path.join(CONFIGS, "demo_scenario.json"))
    assert result["code"] == 0
    loaded = result["loaded"]
    assert "dataclasses" not in loaded
    assert [m for m in loaded if m.startswith("flowbot.perception")] == []
    assert "flowbot.robotics.sweep" not in loaded
    assert "flowbot.dsp.augment" not in loaded
    assert "flowbot.harness.cli" in loaded  # the guard saw the run's imports


def test_params_and_scan_work_in_fresh_interpreters():
    params = fresh("from flowbot.harness.cli import main; raise SystemExit(main(['params']))")
    assert params.returncode == 0, params.stderr
    assert "total" in params.stdout and "pinned" in params.stdout
    scan = fresh(
        "import sys; from flowbot.harness.cli import main; "
        "raise SystemExit(main(['scan', '--scene', sys.argv[1]]))",
        os.path.join(CONFIGS, "demo_scan_scene.json"),
    )
    assert scan.returncode == 0, scan.stderr
    assert scan.stdout.startswith("theta_deg,T_s,d_ideal_m,d_x_m,d_y_m,classification\n")


def test_the_cli_module_runs_as_a_script():
    done = cli("validate")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok")


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))  # JSON spells NaN
    return str(path)


def packaged(name: str):
    with open(os.path.join(CONFIGS, name)) as f:
        return json.load(f)


def nan_latency_graph(tmp):
    graph = packaged("reference_pipeline.json")
    graph["streams"][2]["watchdog"]["max_latency_us"] = float("nan")
    return write_json(tmp / "graph.json", graph)


def backwards_annotation(tmp):
    scenario = packaged("demo_scenario.json")
    scenario["annotations"][0]["end_s"] = scenario["annotations"][0]["start_s"] - 0.5
    return write_json(tmp / "scenario.json", scenario)


def huge_audio(tmp):
    # 1e13 s of 16 kHz audio is 1.1 EiB: it fails at allocation on any host
    scenario = {"audio": {"synthetic": {"kind": "silence", "duration_s": 1e13}}, "time_limit_s": 1.0}
    return write_json(tmp / "huge.json", scenario)


DEMO = os.path.join(CONFIGS, "demo_scenario.json")
SCENE = os.path.join(CONFIGS, "demo_scan_scene.json")
BAD_INPUTS = {  # one bad input per subcommand, as argv built in a temporary directory
    "scan-climb-nan": lambda tmp: ["scan", "--scene", SCENE, "--climb", "nan"],
    "validate-nan-bound": lambda tmp: ["validate", "--graph", nan_latency_graph(tmp)],
    "run-annotation-ends-first": lambda tmp: ["run", "--scenario", backwards_annotation(tmp)],
    "run-huge-audio": lambda tmp: ["run", "--scenario", huge_audio(tmp)],
    "run-report-dir-missing": lambda tmp: ["run", "--scenario", DEMO, "--report", str(tmp / "missing" / "r.json")],
    "scan-out-dir-missing": lambda tmp: ["scan", "--scene", SCENE, "--out", str(tmp / "missing" / "o.csv")],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_a_bad_input_exits_2_without_a_traceback(tmp_path, argv):
    done = cli(*argv(tmp_path))
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.strip(), "a bad input is named on stderr"


def test_a_relative_path_that_begins_with_a_brace_validates(tmp_path):
    # a relative path that begins with "{" is a file name, not JSON text
    write_json(tmp_path / "{ref}.json", packaged("reference_pipeline.json"))
    done = cli("validate", "--graph", "{ref}.json", cwd=tmp_path)
    assert done.returncode == 0, done.stderr


RESOLVE_ALL = """
import importlib, json, sys
package = importlib.import_module(sys.argv[1])
missing = [name for name in package.__all__ if getattr(package, name, None) is None]
namespace = {}
exec(f"from {sys.argv[1]} import *", namespace)
starred = sorted(name for name in namespace if not name.startswith("__"))
print(json.dumps({"all": package.__all__, "missing": missing, "starred": starred}))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves_and_star_import_works(package):
    result = fresh_json(RESOLVE_ALL, package)
    assert result["missing"] == []
    assert result["all"] == sorted(result["all"]) and result["all"]
    assert result["starred"] == result["all"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error_naming_it(package):
    module = __import__(package, fromlist=["_"])
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec(f"from {package} import no_such_name", {})


LOAD_ON_USE = """
import json, sys
import flowbot.dsp, flowbot.robotics, flowbot.skills
before = {m for m in sys.modules if m.startswith("flowbot.")}
from flowbot.robotics import LocomotionCommand
after = {m for m in sys.modules if m.startswith("flowbot.")}
leaves = sorted(m for m in before if m.startswith(("flowbot.robotics.", "flowbot.skills.")))
print(json.dumps({"packages_loaded": leaves, "then_loaded": sorted(after - before)}))
"""


def test_a_name_loads_only_its_submodule():
    result = fresh_json(LOAD_ON_USE)
    assert result == {"packages_loaded": [], "then_loaded": ["flowbot.robotics.locomotion"]}


SHADOWED = """
import json
import flowbot.dsp.logmel, flowbot.perception.quantize
from flowbot.dsp import logmel
from flowbot.perception import quantize
print(json.dumps([callable(logmel) and logmel.__module__, callable(quantize) and quantize.__module__]))
"""


def test_a_function_named_like_its_submodule_stays_the_package_attribute():
    # importing the submodule first must not replace the function
    assert fresh_json(SHADOWED) == ["flowbot.dsp.logmel", "flowbot.perception.quantize"]
