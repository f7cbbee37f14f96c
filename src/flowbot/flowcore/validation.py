"""Structural validation of a GraphDef against a node-kind registry.

Returns diagnostics instead of raising: an empty list means the graph is
well-formed (endpoints resolve, ports fully connected or optional, one
producer and one consumer per stream, a stream's payload is the one its
consumer's port takes unless either is ``any``, control streams carry
``bit``). A stream's payload is its producer port's tag, except that an
``any`` output of a node with exactly one input stream (a splitter's)
carries that stream's payload; a cycle of such outputs, or an end that did
not resolve, carries ``any``. It builds the nodes (``build_nodes``,
returning them and their diagnostics), then checks the wiring against them
(``check_wiring``), as a runner does. A node that is declared but failed to
build has its own diagnostic already, so the wiring check skips the
streams' ends at that node.
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
    feeds: dict[str, list] = {}  # node id -> the streams declared into it
    for sd in graph.streams:
        feeds.setdefault(sd.to_node, []).append(sd)

    def carried(sd) -> str:
        """The payload stream ``sd`` carries, by the rule in the module docstring."""
        passed: set[str] = set()
        while True:
            spec = outs[sd.from_node].get(sd.from_port) if sd.from_node in nodes else None
            if spec is None:
                return "any"
            feed = feeds.get(sd.from_node, ())
            if spec.type_tag != "any" or len(feed) != 1 or sd.from_node in passed:
                return spec.type_tag
            passed.add(sd.from_node)
            sd = feed[0]

    inputs_seen: dict[tuple[str, str], int] = {}
    outputs_seen: dict[tuple[str, str], int] = {}
    streams_by_id = {}
    for sd in graph.streams:
        loc = f"stream {sd.id}"
        if sd.id in streams_by_id:
            diags.append(Diagnostic("MultipleProducers", loc, "stream id declared twice"))
            continue
        streams_by_id[sd.id] = sd

        specs = []
        for role, side, node_id, port, ports, seen in (
            ("producer", "output", sd.from_node, sd.from_port, outs, outputs_seen),
            ("consumer", "input", sd.to_node, sd.to_port, ins, inputs_seen),
        ):
            if node_id is None:  # a latch's control stream has no consumer
                break
            spec = None
            if node_id not in nodes:
                if node_id not in unbuilt:
                    diags.append(Diagnostic("UnresolvedEndpoint", loc, f"unknown {role} node {node_id!r}"))
            elif (spec := ports[node_id].get(port)) is None:
                diags.append(Diagnostic("UnresolvedEndpoint", loc, f"node {node_id!r} has no {side} port {port!r}"))
            else:
                seen[node_id, port] = seen.get((node_id, port), 0) + 1
            specs.append(spec)

        if sd.to_node is None:
            if sd.id not in latch_controls:
                diags.append(
                    Diagnostic("UnconnectedStream", loc, "stream has no consumer and is not a latch control input")
                )
            continue
        out_spec, in_spec = specs
        if in_spec is None:
            continue
        if sd.from_node == sd.to_node and sd.from_port == sd.to_port:
            diags.append(Diagnostic("SelfLoop", loc, "producer equals consumer on the same port"))
        emits = "any" if out_spec is None else out_spec.type_tag
        takes = in_spec.type_tag
        if emits == "any" and takes != "any":
            emits = carried(sd)
        if "any" not in (emits, takes) and emits != takes:
            diags.append(
                Diagnostic(
                    "PortTypeMismatch", loc,
                    f"{sd.from_node}.{sd.from_port} emits {emits!r}, {sd.to_node}.{sd.to_port} takes {takes!r}",
                )
            )

    for seen, conflict in (
        (inputs_seen, "input port {!r} fed by {} streams"),
        (outputs_seen, "output port {!r} feeds {} streams; use a splitter node for fan-out"),
    ):
        for (node_id, port), count in seen.items():
            if count > 1:
                diags.append(Diagnostic("PortConflict", f"node {node_id}", conflict.format(port, count)))

    for node_id in nodes:
        for side, ports, seen in (("input", ins, inputs_seen), ("output", outs, outputs_seen)):
            for port, spec in ports[node_id].items():
                if not spec.optional and (node_id, port) not in seen:
                    diags.append(
                        Diagnostic("UnconnectedPort", f"node {node_id}", f"{side} port {port!r} not connected")
                    )

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
            continue
        if ld.control_stream_id in control_seen:
            diags.append(Diagnostic("DuplicateLatch", loc, "control stream drives two latches"))
        control_seen.add(ld.control_stream_id)
        if ctl.to_node is not None:
            diags.append(
                Diagnostic("ControlNotBits", loc, f"control stream {ctl.id!r} already has consumer {ctl.to_node!r}")
            )
        # an unresolved producer has its diagnostic already
        if (ctl.from_node, ctl.from_port) in outputs_seen and (payload := carried(ctl)) != "bit":
            diags.append(
                Diagnostic("ControlNotBits", loc, f"control stream {ctl.id!r} carries {payload!r}, not bits")
            )

    return diags
