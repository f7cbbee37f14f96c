"""Node base class and the kind registry used to build graphs from configs.

A node runs on at most one execution context at a time; the runtime never
re-enters a node. Push-driven nodes get ``on_packet`` callbacks as packets
arrive; poll-driven nodes schedule timers and pull from their inputs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .packet import Packet


class PortSpec(NamedTuple):
    """Declared port: ``type_tag`` names its payload as the port table of
    ``docs/graph_schema.md`` does. The build checks that a stream's two ends
    name the same payload unless one of them is ``any``, and that a latch
    control's producer emits ``bit``."""

    type_tag: str = "any"
    optional: bool = False


class Node:
    """Base graph node. Subclasses declare ports and handle packets/timers."""

    #: poll-driven nodes consume via timers instead of per-push deliveries
    poll_driven = False

    def __init__(self, node_id: str):
        self.id = node_id

    def input_ports(self) -> dict[str, PortSpec]:
        return {}

    def output_ports(self) -> dict[str, PortSpec]:
        return {}

    def start(self, ctx) -> None:
        """Called once before any packet flows; schedule initial timers here."""

    def on_packet(self, port: str, packet: Packet, ctx) -> None:
        """Called for each packet delivered to an input port; ignored here."""

    def on_timer(self, tag, ctx) -> None:
        """Called with its tag when a timer this node scheduled falls due."""

    def finish(self, ctx) -> None:
        """Called after the run stops; flush node-held state here."""


class UnknownNodeKind(KeyError):
    pass


class NodeKindRegistry:
    """Maps kind names to node factories: factory(node_id, params, env) -> Node.

    ``env`` carries harness-injected assets (scenario audio, annotations,
    skill registry); core kinds ignore it.
    """

    def __init__(self):
        self._factories: dict[str, Callable] = {}

    def register(self, kind: str, factory: Callable) -> None:
        if kind in self._factories:
            raise ValueError(f"node kind already registered: {kind}")
        self._factories[kind] = factory

    def create(self, kind: str, node_id: str, params: dict, env: Optional[dict] = None) -> Node:
        if kind not in self._factories:
            raise UnknownNodeKind(kind)
        return self._factories[kind](node_id, dict(params), env or {})
