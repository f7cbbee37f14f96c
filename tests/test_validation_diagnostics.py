"""Every diagnostic ``validate_graph`` can return, each from a minimal graph.

One row per ``Diagnostic(...)`` in ``flowcore/validation.py``. Each graph is
the smallest one that reaches its branch, and the test pins the whole list
of ``(code, location)`` pairs it gets, so a graph that trips a second
check by accident shows up as well. The last pair is the branch the row is
for.
"""

import ast
import inspect
import json

import pytest

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

LOSSLESS = LosslessPolicy(deadline_us=10**9)


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
}


def test_the_latched_base_graph_is_valid():
    assert validate_graph(latched(LatchDef("data", "ctl")), kinds()) == []


@pytest.mark.parametrize("case", CASES)
def test_each_diagnostic_at_its_location(case):
    graph, expected = CASES[case]
    assert [(d.code, d.location) for d in validate_graph(graph, kinds())] == expected


def diagnostic_codes_in_source():
    """The code of every ``Diagnostic(...)`` built in validation.py."""
    tree = ast.parse(inspect.getsource(validation))
    return [
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Diagnostic"
    ]


def test_the_table_has_one_row_per_diagnostic_branch():
    codes = diagnostic_codes_in_source()
    assert len(codes) == len(CASES) == 22
    assert sorted(expected[-1][0] for _, expected in CASES.values()) == sorted(codes)


def test_validate_exits_2_naming_the_stream_and_both_payloads(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(ILL_TYPED))
    assert cli_main(["validate", "--graph", str(path)]) == 2
    assert capsys.readouterr().err == (
        "PortTypeMismatch at stream s_in: src.out emits 'int', agg.in takes 'SampleChunk'\n"
    )
