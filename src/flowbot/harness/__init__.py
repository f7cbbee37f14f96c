"""Simulated devices, the reference speech pipeline, scenarios and the CLI.

Every module loads with the package. The CLI imports ``perception`` and
``robotics.sweep`` only inside the ``params`` and ``scan`` commands.
"""

from ..flowcore.runtime import report_to_json_str
from .config import load_graph_config, load_scan_scene
from .nodes import DeviceSample, harness_kind_registry
from .reference import reference_pipeline, run_scenario
from .scenario import (
    Annotation,
    ScenarioScript,
    load_scenario,
    scenario_audio,
    synthesize_audio,
)

__all__ = [
    "Annotation",
    "DeviceSample",
    "ScenarioScript",
    "harness_kind_registry",
    "load_graph_config",
    "load_scan_scene",
    "load_scenario",
    "reference_pipeline",
    "report_to_json_str",
    "run_scenario",
    "scenario_audio",
    "synthesize_audio",
]
