"""Node params are read through the one config reader.

A bad value in a node's params is one ``BadNodeParams`` diagnostic whose
reason starts with the key relative to ``params``, and ``flowbot validate``
exits 2. The property test substitutes arbitrary JSON for each param of each
packaged node kind: validation only returns diagnostics, and the CLI exits 0
or 2.
"""

import json
from math import inf, nan

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flowbot.flowcore import SampleChunk, validate_graph
from flowbot.harness import load_graph_config, reference_pipeline
from flowbot.harness.cli import main as cli_main
from flowbot.harness.config import packaged_config_text
from flowbot.harness.nodes import harness_kind_registry

SOURCE_TO_SINK = {
    "nodes": [
        {"id": "src", "kind": "source", "params": {"count": 10, "rate_hz": 1000.0}},
        {"id": "snk", "kind": "sink", "params": {}},
    ],
    "streams": [
        {"id": "s", "from_node": "src", "from_port": "out", "to_node": "snk", "to_port": "in",
         "policy": {"kind": "lossless", "deadline_us": 1_000_000}},
    ],
    "latches": [],
}


def graph_doc(kind: str) -> dict:
    """A valid graph holding a node of ``kind``: the packaged reference graph,
    or a source->sink graph for the two core kinds it lacks."""
    if kind in ("source", "sink"):
        return json.loads(json.dumps(SOURCE_TO_SINK))
    return json.loads(packaged_config_text("reference_pipeline.json"))


def node_of(doc: dict, kind: str) -> dict:
    return next(node for node in doc["nodes"] if node["kind"] == kind)


def validate(doc: dict):
    env = {"audio": SampleChunk(np.zeros(16000), 16000)}
    return validate_graph(load_graph_config(doc), harness_kind_registry(), env=env)


def test_audio_source_without_scenario_audio_is_a_build_error():
    diags = validate_graph(reference_pipeline(), harness_kind_registry(), env={})
    assert [(d.code, d.location, d.reason) for d in diags] == [
        ("BadNodeParams", "node mic", "audio_source requires scenario audio in the build environment")
    ]


BAD_VALUES = [
    ("aggregator", "window_samples", "abc"),
    ("aggregator", "window_samples", 16000.7),
    ("aggregator", "window_samples", nan),
    ("aggregator", "window_samples", inf),
    ("aggregator", "window_samples", [16000]),
    ("attention", "detector", {"kind": "nope"}),
    ("audio_source", "chunk_samples", "1600"),
    ("audio_source", "chunk_samples", 1600.5),
    ("audio_source", "chunk_samples", nan),
    ("audio_source", "chunk_samples", inf),
    ("audio_source", "chunk_samples", {"n": 1600}),
    ("audio_source", "device_id", 0.5),
    ("audio_source", "device_id", nan),
    ("audio_source", "device_id", inf),
    ("audio_source", "device_id", ["mic0"]),
    ("io_manager", "routing", "mic0"),
    ("io_manager", "routing", {"mic0": "ui_audio"}),
    ("io_manager", "routing", {"mic0": [0.5]}),
    ("io_manager", "routing", {"mic0": [nan]}),
    ("io_manager", "routing", {"mic0": [inf]}),
    ("io_manager", "routing", [["ui_audio"]]),
    ("io_manager", "routing", {}),
    ("io_manager", "routing", {"mic0": ["ui_audio", "ui_audio"]}),
    ("sink", "poll_rate_hz", 0),
    ("sink", "poll_rate_hz", 1e300),
    ("sink", "poll_rate_hz", 2e6),
    ("splitter", "outputs", "win_att"),
    ("splitter", "outputs", ["win_att", 0.5]),
    ("splitter", "outputs", ["win_att", nan]),
    ("splitter", "outputs", ["win_att", inf]),
    ("splitter", "outputs", {"win_att": "win_gate"}),
    ("splitter", "outputs", []),
    ("splitter", "outputs", ["win_att", "win_att"]),
    ("skill_manager", "confidence_floor", "high"),
    ("skill_manager", "confidence_floor", nan),
    ("skill_manager", "confidence_floor", inf),
    ("skill_manager", "confidence_floor", [0.5]),
    ("skill_manager", "confidence_floor", 1.5),
    ("skill_manager", "confidence_floor", -0.2),
    ("skill_manager", "reprompt_limit", -1),
    ("skill_manager", "followup_timeout_s", "10"),
    ("skill_manager", "followup_timeout_s", nan),
    ("skill_manager", "followup_timeout_s", inf),
    ("skill_manager", "followup_timeout_s", {"s": 10}),
    ("source", "count", "ten"),
    ("source", "count", 10.5),
    ("source", "count", nan),
    ("source", "count", inf),
    ("source", "count", [10]),
    ("source", "count", -1),
    ("source", "start_us", -3000),
]


@pytest.mark.parametrize(
    "kind, key, value", BAD_VALUES,
    ids=[f"{kind}.{key}={json.dumps(value)}" for kind, key, value in BAD_VALUES],
)
def test_bad_node_param_is_one_diagnostic_naming_its_key(tmp_path, capsys, kind, key, value):
    doc = graph_doc(kind)
    node = node_of(doc, kind)
    node["params"][key] = value
    diags = validate(doc)
    assert [(d.code, d.location) for d in diags] == [("BadNodeParams", f"node {node['id']}")]
    assert diags[0].reason.startswith(key)
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(doc))  # JSON spells NaN / Infinity
    assert cli_main(["validate", "--graph", str(graph_path)]) == 2
    assert f"BadNodeParams at node {node['id']}: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("kind, key, value, reason", [
    ("splitter", "outputs", ["win_att", "win_gate", "win_att"], "outputs[2]: repeats 'win_att'"),
    ("io_manager", "routing", {"mic0": ["ui_audio", "ui_audio"]}, "routing.mic0[1]: repeats 'ui_audio'"),
    ("skill_manager", "confidence_floor", 1.5, "confidence_floor: must be <= 1, got 1.5"),
    ("skill_manager", "confidence_floor", -0.2,
     "confidence_floor: must be a finite number >= 0, got -0.2"),
    ("skill_manager", "reprompt_limit", -1, "reprompt_limit: must be an integer >= 0, got -1"),
])
def test_repeated_port_names_and_out_of_range_manager_params_are_named(kind, key, value, reason):
    doc = graph_doc(kind)
    node_of(doc, kind)["params"][key] = value
    assert [d.reason for d in validate(doc)] == [reason]


def test_two_devices_may_feed_one_interface():
    doc = graph_doc("io_manager")
    node_of(doc, "io_manager")["params"]["routing"] = {"mic0": ["ui_audio"], "mic1": ["ui_audio"]}
    assert validate(doc) == []


PARAM_KEYS = [
    ("source", "count"), ("source", "rate_hz"), ("source", "start_us"),
    ("sink", "poll_rate_hz"),
    ("splitter", "outputs"),
    ("aggregator", "window_samples"), ("aggregator", "hop_samples"),
    ("aggregator", "sample_rate_hz"),
    ("attention", "detector"),
    ("audio_source", "device_id"), ("audio_source", "chunk_samples"),
    ("audio_source", "pad_to_samples"),
    ("io_manager", "routing"),
    ("skill_manager", "confidence_floor"), ("skill_manager", "reprompt_limit"),
    ("skill_manager", "followup_timeout_s"),
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
# values a param could plausibly hold, so that many substitutions build
plausible = (
    st.integers(-2, 20_000)
    | st.floats(-2.0, 20_000.0)
    | st.sampled_from([inf, -inf, nan, "in", "out", "mic0", "ui_audio", "win_att"])
    | st.lists(st.sampled_from(["win_att", "win_gate", "ui_audio"]), max_size=3)
    | st.fixed_dictionaries({"kind": st.sampled_from(["rms", "constant", "scripted"])},
                            optional={"threshold": json_values, "value": json_values})
    | st.dictionaries(st.sampled_from(["mic0", "mic1"]), json_values, max_size=2)
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(PARAM_KEYS), plausible | json_values)
def test_any_param_value_validates_to_diagnostics_naming_its_key(tmp_path, kind_key, value):
    kind, key = kind_key
    doc = graph_doc(kind)
    node = node_of(doc, kind)
    node["params"][key] = value
    at_node = [d for d in validate(doc) if d.location == f"node {node['id']}"]
    bad = [d for d in at_node if d.code == "BadNodeParams"]
    if bad:  # a node that failed to build has this one diagnostic and no other
        assert len(at_node) == 1 and key in bad[0].reason, at_node
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(doc))
    assert cli_main(["validate", "--graph", str(graph_path)]) in (0, 2)
