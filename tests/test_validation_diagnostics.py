"""Every diagnostic ``validate_graph`` can return, each from a minimal graph.

Each row is the smallest graph that reaches its branch, and the test pins
the whole list of ``(code, location)`` pairs it gets, so a graph that trips
a second check by accident shows up as well. The last pair is the branch
the row is for; a row with no pairs pins a graph that must validate. Run
together, the rows reach every line of ``build_nodes`` and ``check_wiring``.
"""

import copy
import json
import os
import sys

import pytest

import flowbot
from flowbot.flowcore import (
    GraphDef,
    LatchDef,
    LosslessPolicy,
    Node,
    NodeDef,
    PortSpec,
    StreamDef,
    graph_from_json,
    validate_graph,
)
from flowbot.flowcore import validation
from flowbot.harness import harness_kind_registry
from flowbot.harness.cli import main as cli_main
from flowbot.harness.config import packaged_config_text

LOSSLESS = LosslessPolicy(deadline_us=10**9)
DEMO_SCENARIO = os.path.join(os.path.dirname(flowbot.__file__), "configs", "demo_scenario.json")


class BitSource(Node):
    """A node with a single bit-typed output, the producer a latch wants."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)

    def output_ports(self):
        return {"bit": PortSpec("bit")}


def kinds():
    registry = harness_kind_registry()
    registry.register("bits", BitSource)
    return registry


def stream(stream_id, from_node, from_port, to_node=None, to_port=None):
    return StreamDef(stream_id, from_node, from_port, to_node, to_port, LOSSLESS)


SRC, SNK, SNK2, CTL = (
    NodeDef("src", "source", {"count": 1}),
    NodeDef("snk", "sink"),
    NodeDef("snk2", "sink"),
    NodeDef("ctl", "bits"),
)
DATA = stream("data", "src", "out", "snk", "in")
SPLIT = NodeDef("split", "splitter", {"outputs": ["o"]})
AGG = NodeDef("agg", "aggregator", {"window_samples": 4, "hop_samples": 2, "sample_rate_hz": 16000})
WINDOWS = stream("windows", "agg", "windows", "snk", "in")
CONTROL = stream("ctl", "ctl", "bit")


# a source's integers wired into an aggregator, which takes SampleChunks
ILL_TYPED = {
    "nodes": [
        {"id": "src", "kind": "source", "params": {"count": 3}},
        {"id": "agg", "kind": "aggregator",
         "params": {"window_samples": 4, "hop_samples": 2, "sample_rate_hz": 16000}},
        {"id": "snk", "kind": "sink"},
    ],
    "streams": [
        {"id": "s_in", "from_node": "src", "from_port": "out", "to_node": "agg", "to_port": "in",
         "policy": {"kind": "lossless", "deadline_us": 10**9}},
        {"id": "s_win", "from_node": "agg", "from_port": "windows", "to_node": "snk", "to_port": "in",
         "policy": {"kind": "lossless", "deadline_us": 10**9}},
    ],
    "latches": [],
}


# the same integers reach the aggregator through a one-output splitter
SPLIT_ILL_TYPED = copy.deepcopy(ILL_TYPED)
SPLIT_ILL_TYPED["nodes"].append({"id": "split", "kind": "splitter", "params": {"outputs": ["o"]}})
SPLIT_ILL_TYPED["streams"][0].update(to_node="split", to_port="in")
SPLIT_ILL_TYPED["streams"].append(
    {"id": "s_split", "from_node": "split", "from_port": "o", "to_node": "agg", "to_port": "in",
     "policy": {"kind": "lossless", "deadline_us": 10**9}},
)


def packaged_with_split_control() -> dict:
    """The packaged graph with the attention bits reaching the latch through
    a one-output splitter."""
    doc = json.loads(packaged_config_text("reference_pipeline.json"))
    doc["nodes"].append({"id": "ctl_split", "kind": "splitter", "params": {"outputs": ["bit"]}})
    (ctl,) = [sd for sd in doc["streams"] if sd["id"] == "s_ctl"]
    doc["streams"].append({**ctl, "id": "s_att_bit", "to_node": "ctl_split", "to_port": "in"})
    ctl.update(from_node="ctl_split", from_port="bit")
    return doc


def latched(*latches, nodes=(), streams=()):
    """``src -> snk`` plus a consumerless bit stream ``ctl``, and ``latches``."""
    return GraphDef(nodes=(SRC, SNK, CTL, *nodes), streams=(DATA, CONTROL, *streams), latches=latches)


CASES = {
    "duplicate node id": (
        GraphDef(nodes=(SRC, SNK, NodeDef("src", "sink")), streams=(DATA,)),
        [("DuplicateNodeId", "node src")],
    ),
    "unknown node kind": (
        GraphDef(nodes=(NodeDef("x", "warp_drive"),)),
        [("UnknownNodeKind", "node x")],
    ),
    "bad node params": (
        GraphDef(nodes=(NodeDef("x", "source", {"count": 1, "rate_hz": -1}),)),
        [("BadNodeParams", "node x")],
    ),
    "stream id declared twice": (
        GraphDef(nodes=(SRC, SNK), streams=(DATA, DATA)),
        [("MultipleProducers", "stream data")],
    ),
    "unknown producer node": (
        GraphDef(nodes=(SNK,), streams=(stream("s", "ghost", "out", "snk", "in"),)),
        [("UnresolvedEndpoint", "stream s")],
    ),
    "producer has no such output port": (
        GraphDef(nodes=(SRC, SNK, SNK2), streams=(DATA, stream("s", "src", "nope", "snk2", "in"))),
        [("UnresolvedEndpoint", "stream s")],
    ),
    "stream without consumer or latch": (
        GraphDef(nodes=(SRC,), streams=(stream("s", "src", "out"),)),
        [("UnconnectedStream", "stream s")],
    ),
    "unknown consumer node": (
        GraphDef(nodes=(SRC,), streams=(stream("s", "src", "out", "ghost", "in"),)),
        [("UnresolvedEndpoint", "stream s")],
    ),
    "consumer has no such input port": (
        GraphDef(
            nodes=(SRC, CTL, SNK2),
            streams=(stream("s", "src", "out", "ctl", "nope"), stream("t", "ctl", "bit", "snk2", "in")),
        ),
        [("UnresolvedEndpoint", "stream s")],
    ),
    "self loop": (
        GraphDef(
            nodes=(NodeDef("split", "splitter", {"outputs": ["in"]}),),
            streams=(stream("s", "split", "in", "split", "in"),),
        ),
        [("SelfLoop", "stream s")],
    ),
    "stream between ports of two payloads": (
        graph_from_json(ILL_TYPED),
        [("PortTypeMismatch", "stream s_in")],
    ),
    "input port fed by two streams": (
        GraphDef(
            nodes=(SRC, SNK, NodeDef("src2", "source", {"count": 1})),
            streams=(DATA, stream("s", "src2", "out", "snk", "in")),
        ),
        [("PortConflict", "node snk")],
    ),
    "output port feeding two streams": (
        GraphDef(nodes=(SRC, SNK, SNK2), streams=(DATA, stream("s", "src", "out", "snk2", "in"))),
        [("PortConflict", "node src")],
    ),
    "input port not connected": (
        GraphDef(nodes=(SNK,)),
        [("UnconnectedPort", "node snk")],
    ),
    "output port not connected": (
        GraphDef(nodes=(SRC,)),
        [("UnconnectedPort", "node src")],
    ),
    "unknown gated stream": (
        latched(LatchDef("data", "ctl"), LatchDef("ghost", "ctl2"), nodes=(NodeDef("ctl2", "bits"),),
                streams=(stream("ctl2", "ctl2", "bit"),)),
        [("UnresolvedEndpoint", "latch on ghost")],
    ),
    "gated stream without consumer": (
        GraphDef(
            nodes=(SRC, CTL),
            streams=(stream("data", "src", "out"), CONTROL),
            latches=(LatchDef("data", "ctl"),),
        ),
        [("UnconnectedStream", "stream data"), ("UnconnectedStream", "latch on data")],
    ),
    "stream gated by two latches": (
        latched(LatchDef("data", "ctl"), LatchDef("data", "ctl2"), nodes=(NodeDef("ctl2", "bits"),),
                streams=(stream("ctl2", "ctl2", "bit"),)),
        [("DuplicateLatch", "latch on data")],
    ),
    "unknown control stream": (
        latched(LatchDef("data", "ctl"), LatchDef("data2", "ghost"),
                nodes=(NodeDef("src2", "source", {"count": 1}), SNK2),
                streams=(stream("data2", "src2", "out", "snk2", "in"),)),
        [("UnresolvedEndpoint", "latch on data2")],
    ),
    "control stream driving two latches": (
        latched(LatchDef("data", "ctl"), LatchDef("data2", "ctl"),
                nodes=(NodeDef("src2", "source", {"count": 1}), SNK2),
                streams=(stream("data2", "src2", "out", "snk2", "in"),)),
        [("DuplicateLatch", "latch on data2")],
    ),
    "control stream with a consumer": (
        GraphDef(
            nodes=(SRC, SNK, CTL, SNK2),
            streams=(DATA, stream("ctl", "ctl", "bit", "snk2", "in")),
            latches=(LatchDef("data", "ctl"),),
        ),
        [("ControlNotBits", "latch on data")],
    ),
    "control stream not carrying bits": (
        GraphDef(
            nodes=(SRC, SNK, NodeDef("ctl", "source", {"count": 1})),
            streams=(DATA, stream("ctl", "ctl", "out")),
            latches=(LatchDef("data", "ctl"),),
        ),
        [("ControlNotBits", "latch on data")],
    ),
    "splitter output feeding a port of another payload": (
        graph_from_json(SPLIT_ILL_TYPED),
        [("PortTypeMismatch", "stream s_split")],
    ),
    "control stream carrying a source's integers through a splitter": (
        GraphDef(
            nodes=(SRC, SNK, NodeDef("ctl_src", "source", {"count": 1}), SPLIT),
            streams=(DATA, stream("ints", "ctl_src", "out", "split", "in"), stream("ctl", "split", "o")),
            latches=(LatchDef("data", "ctl"),),
        ),
        [("ControlNotBits", "latch on data")],
    ),
    "control stream carrying bits through a splitter": (
        GraphDef(
            nodes=(SRC, SNK, CTL, SPLIT),
            streams=(DATA, stream("bits", "ctl", "bit", "split", "in"), stream("ctl2", "split", "o")),
            latches=(LatchDef("data", "ctl2"),),
        ),
        [],
    ),
    "splitter fed by an unknown node, feeding a typed port": (
        GraphDef(
            nodes=(SPLIT, AGG, SNK),
            streams=(stream("s", "ghost", "out", "split", "in"), stream("o", "split", "o", "agg", "in"), WINDOWS),
        ),
        [("UnresolvedEndpoint", "stream s")],
    ),
    "a cycle of splitters feeding a typed port": (
        GraphDef(
            nodes=(
                NodeDef("a", "splitter", {"outputs": ["o"]}),
                NodeDef("b", "splitter", {"outputs": ["back", "on"]}),
                AGG,
                SNK,
            ),
            streams=(
                stream("ab", "a", "o", "b", "in"),
                stream("ba", "b", "back", "a", "in"),
                stream("b_agg", "b", "on", "agg", "in"),
                WINDOWS,
            ),
        ),
        [],
    ),
}


def test_the_latched_base_graph_is_valid():
    assert validate_graph(latched(LatchDef("data", "ctl")), kinds()) == []


@pytest.mark.parametrize("case", CASES)
def test_each_diagnostic_at_its_location(case):
    graph, expected = CASES[case]
    assert [(d.code, d.location) for d in validate_graph(graph, kinds())] == expected


def code_lines(code) -> set[int]:
    """The lines that ``code`` and the code objects nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def test_the_rows_reach_every_line_of_the_checks():
    reached = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            reached.add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename == validation.__file__ else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        for graph, _ in CASES.values():
            validate_graph(graph, kinds())
    finally:
        sys.settrace(previous)
    for check in (validation.build_nodes, validation.check_wiring):
        body = code_lines(check.__code__) - {check.__code__.co_firstlineno}
        assert sorted(body - reached) == [], check.__name__


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("doc, message", [
    (ILL_TYPED, "PortTypeMismatch at stream s_in: src.out emits 'int', agg.in takes 'SampleChunk'"),
    (SPLIT_ILL_TYPED, "PortTypeMismatch at stream s_split: split.o emits 'int', agg.in takes 'SampleChunk'"),
])
def test_flowbot_exits_2_naming_the_stream_and_both_payloads(tmp_path, capsys, command, doc, message):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    scenario = ["--scenario", DEMO_SCENARIO] if command == "run" else []
    assert cli_main([command, "--graph", str(path), *scenario]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {message}\n" if command == "run" else message + "\n")


def test_latch_control_through_a_splitter_runs_the_demo_as_the_packaged_graph(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(packaged_with_split_control()))
    assert cli_main(["validate", "--graph", str(path)]) == 0
    reports = []
    for graph in ([], ["--graph", str(path)]):
        out = tmp_path / f"report{len(reports)}.json"
        assert cli_main(["run", "--scenario", DEMO_SCENARIO, *graph, "--report", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    packaged, split = reports
    assert packaged["skill_invocations"]  # the demo executes skills, so the facts below are not vacuous
    for key in ("skill_invocations", "skill_failures", "uart_hex", "latches", "led_states"):
        assert split[key] == packaged[key], key
    assert split["extras"]["speech"] == packaged["extras"]["speech"]
