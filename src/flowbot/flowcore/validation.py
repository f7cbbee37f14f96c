"""Structural validation of a GraphDef against a node-kind registry.

Returns diagnostics instead of raising: an empty list means the graph is
well-formed (endpoints resolve, ports fully connected or optional, one
producer and one consumer per stream, the two ends of a stream carry the
same payload unless one is tagged ``any``, control streams carry bits). It builds
the nodes (``build_nodes``, returning them and their diagnostics), then
checks the wiring against them (``check_wiring``), as a runner does. A node
that is declared but failed to build has its own diagnostic already, so the
wiring check skips the streams' ends at that node.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphdef import GraphDef
from .node import Node, NodeKindRegistry, UnknownNodeKind


class Diagnostic(NamedTuple):
    code: str
    location: str
    reason: str

    def __str__(self) -> str:
        return f"{self.code} at {self.location}: {self.reason}"


def validate_graph(graph: GraphDef, kinds: NodeKindRegistry, env: dict | None = None) -> list[Diagnostic]:
    nodes, diags = build_nodes(graph, kinds, env)
    return diags + check_wiring(graph, nodes)


def build_nodes(graph: GraphDef, kinds: NodeKindRegistry, env: dict | None = None):
    diags: list[Diagnostic] = []
    nodes: dict[str, Node] = {}
    seen_ids: set[str] = set()
    for nd in graph.nodes:
        if nd.id in seen_ids:
            diags.append(Diagnostic("DuplicateNodeId", f"node {nd.id}", "node id declared twice"))
            continue
        seen_ids.add(nd.id)
        try:
            nodes[nd.id] = kinds.create(nd.kind, nd.id, nd.params, env)
        except UnknownNodeKind:
            diags.append(Diagnostic("UnknownNodeKind", f"node {nd.id}", f"no such kind {nd.kind!r}"))
        except Exception as exc:
            diags.append(Diagnostic("BadNodeParams", f"node {nd.id}", str(exc)))
    return nodes, diags


def check_wiring(graph: GraphDef, nodes: dict[str, Node]) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    latch_controls = {l.control_stream_id for l in graph.latches}
    unbuilt = {nd.id for nd in graph.nodes} - nodes.keys()
    ins = {node_id: node.input_ports() for node_id, node in nodes.items()}
    outs = {node_id: node.output_ports() for node_id, node in nodes.items()}

    stream_ids: set[str] = set()
    inputs_seen: dict[tuple[str, str], int] = {}
    outputs_seen: dict[tuple[str, str], int] = {}
    streams_by_id = {}
    for sd in graph.streams:
        loc = f"stream {sd.id}"
        if sd.id in stream_ids:
            diags.append(Diagnostic("MultipleProducers", loc, "stream id declared twice"))
            continue
        stream_ids.add(sd.id)
        streams_by_id[sd.id] = sd

        out_spec = None
        if sd.from_node not in nodes:
            if sd.from_node not in unbuilt:
                diags.append(Diagnostic("UnresolvedEndpoint", loc, f"unknown producer node {sd.from_node!r}"))
        else:
            out_spec = outs[sd.from_node].get(sd.from_port)
            if out_spec is None:
                diags.append(
                    Diagnostic(
                        "UnresolvedEndpoint", loc,
                        f"node {sd.from_node!r} has no output port {sd.from_port!r}",
                    )
                )
            else:
                outputs_seen[(sd.from_node, sd.from_port)] = (
                    outputs_seen.get((sd.from_node, sd.from_port), 0) + 1
                )

        if sd.to_node is None:
            if sd.id not in latch_controls:
                diags.append(
                    Diagnostic(
                        "UnconnectedStream", loc,
                        "stream has no consumer and is not a latch control input",
                    )
                )
            continue
        if sd.to_node not in nodes:
            if sd.to_node not in unbuilt:
                diags.append(Diagnostic("UnresolvedEndpoint", loc, f"unknown consumer node {sd.to_node!r}"))
            continue
        in_spec = ins[sd.to_node].get(sd.to_port)
        if in_spec is None:
            diags.append(
                Diagnostic(
                    "UnresolvedEndpoint", loc,
                    f"node {sd.to_node!r} has no input port {sd.to_port!r}",
                )
            )
            continue
        inputs_seen[(sd.to_node, sd.to_port)] = inputs_seen.get((sd.to_node, sd.to_port), 0) + 1
        if sd.from_node == sd.to_node and sd.from_port == sd.to_port:
            diags.append(Diagnostic("SelfLoop", loc, "producer equals consumer on the same port"))
        tags = (out_spec.type_tag if out_spec is not None else "any", in_spec.type_tag)
        if "any" not in tags and tags[0] != tags[1]:
            diags.append(
                Diagnostic(
                    "PortTypeMismatch", loc,
                    f"{sd.from_node}.{sd.from_port} emits {tags[0]!r}, {sd.to_node}.{sd.to_port} takes {tags[1]!r}",
                )
            )

    for (node_id, port), count in inputs_seen.items():
        if count > 1:
            diags.append(
                Diagnostic("PortConflict", f"node {node_id}", f"input port {port!r} fed by {count} streams")
            )
    for (node_id, port), count in outputs_seen.items():
        if count > 1:
            diags.append(
                Diagnostic(
                    "PortConflict", f"node {node_id}",
                    f"output port {port!r} feeds {count} streams; use a splitter node for fan-out",
                )
            )

    for node_id in nodes:
        for port, spec in ins[node_id].items():
            if not spec.optional and (node_id, port) not in inputs_seen:
                diags.append(Diagnostic("UnconnectedPort", f"node {node_id}", f"input port {port!r} not connected"))
        for port, spec in outs[node_id].items():
            if not spec.optional and (node_id, port) not in outputs_seen:
                diags.append(Diagnostic("UnconnectedPort", f"node {node_id}", f"output port {port!r} not connected"))

    gated_seen: set[str] = set()
    control_seen: set[str] = set()
    for ld in graph.latches:
        loc = f"latch on {ld.stream_id}"
        if ld.stream_id not in streams_by_id:
            diags.append(Diagnostic("UnresolvedEndpoint", loc, f"unknown gated stream {ld.stream_id!r}"))
        elif streams_by_id[ld.stream_id].to_node is None:
            diags.append(Diagnostic("UnconnectedStream", loc, "gated stream has no consumer"))
        if ld.stream_id in gated_seen:
            diags.append(Diagnostic("DuplicateLatch", loc, "stream gated by two latches"))
        gated_seen.add(ld.stream_id)

        ctl = streams_by_id.get(ld.control_stream_id)
        if ctl is None:
            diags.append(
                Diagnostic("UnresolvedEndpoint", loc, f"unknown control stream {ld.control_stream_id!r}")
            )
        else:
            if ld.control_stream_id in control_seen:
                diags.append(Diagnostic("DuplicateLatch", loc, "control stream drives two latches"))
            control_seen.add(ld.control_stream_id)
            if ctl.to_node is not None:
                diags.append(
                    Diagnostic(
                        "ControlNotBits", loc,
                        f"control stream {ctl.id!r} already has consumer {ctl.to_node!r}",
                    )
                )
            if ctl.from_node in nodes:
                spec = outs[ctl.from_node].get(ctl.from_port)
                if spec is not None and spec.type_tag != "bit":
                    diags.append(
                        Diagnostic(
                            "ControlNotBits", loc,
                            f"control stream {ctl.id!r} carries {spec.type_tag!r}, not bits",
                        )
                    )

    return diags
