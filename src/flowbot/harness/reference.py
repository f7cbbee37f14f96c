"""The shipped speech-only pipeline and the scenario runner.

Wiring: audio source -> I/O manager -> aggregator (1 s window / 250 ms hop)
-> splitter; one branch feeds the attention node whose bit stream controls
the latch; the gated branch feeds the scripted interpreter, then the skill
manager, whose outputs land in the simulated speaker and UART sinks.
"""

from __future__ import annotations

import json

from ..flowcore.clock import VirtualClock
from ..flowcore.graphdef import GraphDef, graph_from_json
from ..flowcore.runtime import GraphRunner, RunReport, StopCondition
from ..flowcore.schema import SchemaError, check_value
from ..skills.registry import SkillRegistry
from .config import packaged_config_text
from .nodes import harness_kind_registry
from .scenario import ScenarioScript, scenario_audio


def reference_pipeline(detector: dict | None = None, manager_params: dict | None = None) -> GraphDef:
    """The packaged ``reference_pipeline.json`` with the attention detector
    (scripted by default) and the skill manager's params overridden."""
    doc = json.loads(packaged_config_text("reference_pipeline.json"))
    nodes = {nd["kind"]: nd for nd in doc["nodes"]}
    if detector:
        nodes["attention"]["params"]["detector"] = detector
    if manager_params:
        nodes["skill_manager"]["params"] = manager_params
    return graph_from_json(doc)


def _led_states(report: RunReport) -> list[dict]:
    """Consciousness-state stream: awaiting / receiving / executing, from the
    latch transitions and the skill invocations."""
    changes: list[tuple[int, int, str]] = [(0, -1, "awaiting")]
    transitions = [t for latch in report.latches.values() for t in latch["transitions"]]
    for i, t in enumerate(transitions):
        changes.append((t["t_us"], i, "receiving" if t["state"] == "open" else "awaiting"))
    for i, inv in enumerate(report.skill_invocations):
        changes.append((inv["t_us"], 10_000_000 + 2 * i, "executing"))
        changes.append((inv["t_us"], 10_000_000 + 2 * i + 1, "awaiting"))
    changes.sort(key=lambda c: (c[0], c[1]))
    out: list[dict] = []
    for t_us, _, state in changes:
        if not out or out[-1]["state"] != state:
            out.append({"t_us": t_us, "state": state})
    return out


def run_scenario(
    graph: GraphDef,
    scenario: ScenarioScript,
    kinds=None,
    registry: SkillRegistry | None = None,
    seed: int | None = None,
) -> dict:
    """Execute a scenario under a virtual clock; the result dict is
    deterministic (byte-identical JSON) for identical inputs and seed.
    ``seed`` replaces the scenario's seed, for its synthetic audio too."""
    if seed is not None:
        scenario = scenario._replace(seed=check_value(seed, "seed", int, minimum=0))
    audio = scenario_audio(scenario)
    env = {
        "audio": audio,
        "annotations": list(scenario.annotations),
        "interpreter_script": list(scenario.interpreter_script),
        "skill_registry": registry,
    }
    if scenario.time_limit_s is not None:
        try:
            time_limit_us = int(scenario.time_limit_s * 1e6)
        except OverflowError as exc:
            raise SchemaError("time_limit_s", f"{scenario.time_limit_s:g} s is too long: {exc}") from exc
    else:
        time_limit_us = int((len(audio.samples) / audio.sample_rate_hz + 1.0) * 1e6)
    runner = GraphRunner(
        graph,
        kinds=kinds if kinds is not None else harness_kind_registry(),
        clock=VirtualClock(),
        stop=StopCondition(time_limit_us=time_limit_us),
        seed=scenario.seed,
        env=env,
    )
    report = runner.run()
    doc = report.to_json()
    doc["led_states"] = _led_states(report)
    doc["conservation_ok"] = report.conservation_ok()
    return doc


def report_to_json_str(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
