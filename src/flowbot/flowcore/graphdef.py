"""Graph definition: nodes, streams, latches, and its JSON document form.

The JSON schema (documented in docs/graph_schema.md):

    {
      "nodes":   [{"id": "...", "kind": "...", "params": {...}}, ...],
      "streams": [{"id": "...", "from_node": "...", "from_port": "...",
                   "to_node": "...", "to_port": "...",
                   "policy": {"kind": "lossy", "capacity": N,
                              "max_successive_misses": M}
                           | {"kind": "lossless", "deadline_us": D},
                   "watchdog": {...}?}, ...],
      "latches": [{"stream_id": "...", "control_stream_id": "...",
                   "initial_state": "open"|"closed"}, ...]
    }

A stream consumed by a latch as its control input omits ``to_node``/``to_port``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .latch import LatchState
from .stream import StreamPolicy, policy_from_json, policy_to_json
from .watchdog import WatchdogConfig


class SchemaError(ValueError):
    """A config document does not match the published schema.

    ``path`` points at the offending key, e.g. ``streams[2].capacity``.
    """

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


@dataclass(frozen=True)
class NodeDef:
    id: str
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StreamDef:
    id: str
    from_node: str
    from_port: str
    to_node: Optional[str]
    to_port: Optional[str]
    policy: StreamPolicy
    watchdog: Optional[WatchdogConfig] = None


@dataclass(frozen=True)
class LatchDef:
    stream_id: str
    control_stream_id: str
    initial_state: LatchState = LatchState.CLOSED


@dataclass(frozen=True)
class GraphDef:
    nodes: tuple[NodeDef, ...] = ()
    streams: tuple[StreamDef, ...] = ()
    latches: tuple[LatchDef, ...] = ()

    def to_json(self) -> dict:
        streams = []
        for s in self.streams:
            doc = {
                "id": s.id,
                "from_node": s.from_node,
                "from_port": s.from_port,
                "policy": policy_to_json(s.policy),
            }
            if s.to_node is not None:
                doc["to_node"] = s.to_node
                doc["to_port"] = s.to_port
            if s.watchdog is not None:
                doc["watchdog"] = s.watchdog.to_json()
            streams.append(doc)
        return {
            "nodes": [{"id": n.id, "kind": n.kind, "params": dict(n.params)} for n in self.nodes],
            "streams": streams,
            "latches": [
                {
                    "stream_id": l.stream_id,
                    "control_stream_id": l.control_stream_id,
                    "initial_state": l.initial_state.value,
                }
                for l in self.latches
            ],
        }


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"{path}.{key}" if path else key, "missing required key")
    return doc[key]


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"must be an object, got {type(value).__name__}")
    return value


def graph_from_json(doc: dict) -> GraphDef:
    """Parse a graph document, raising :class:`SchemaError` with the offending path."""
    if not isinstance(doc, dict):
        raise SchemaError("$", "graph document must be a JSON object")
    for key in ("nodes", "streams", "latches"):
        if key not in doc:
            raise SchemaError(key, "missing required key")
        if not isinstance(doc[key], list):
            raise SchemaError(key, "must be a list")

    nodes = []
    for i, nd in enumerate(doc["nodes"]):
        path = f"nodes[{i}]"
        _object(nd, path)
        nodes.append(
            NodeDef(
                id=str(_require(nd, "id", path)),
                kind=str(_require(nd, "kind", path)),
                params=dict(_object(nd.get("params", {}), f"{path}.params")),
            )
        )

    streams = []
    for i, sd in enumerate(doc["streams"]):
        path = f"streams[{i}]"
        _object(sd, path)
        policy_doc = _object(_require(sd, "policy", path), f"{path}.policy")
        try:
            policy = policy_from_json(policy_doc)
        # int() raises OverflowError on an infinite capacity or deadline
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{path}.policy", str(exc)) from exc
        watchdog = None
        if sd.get("watchdog") is not None:
            watchdog_doc = _object(sd["watchdog"], f"{path}.watchdog")
            try:
                watchdog = WatchdogConfig.from_json(watchdog_doc)
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{path}.watchdog", str(exc)) from exc
        to_node = sd.get("to_node")
        to_port = sd.get("to_port")
        if (to_node is None) != (to_port is None):
            raise SchemaError(path, "to_node and to_port must be given together")
        streams.append(
            StreamDef(
                id=str(_require(sd, "id", path)),
                from_node=str(_require(sd, "from_node", path)),
                from_port=str(_require(sd, "from_port", path)),
                to_node=None if to_node is None else str(to_node),
                to_port=None if to_port is None else str(to_port),
                policy=policy,
                watchdog=watchdog,
            )
        )

    latches = []
    for i, ld in enumerate(doc["latches"]):
        path = f"latches[{i}]"
        _object(ld, path)
        state_raw = str(ld.get("initial_state", "closed")).lower()
        try:
            state = LatchState(state_raw)
        except ValueError as exc:
            raise SchemaError(f"{path}.initial_state", f"must be 'open' or 'closed', got {state_raw!r}") from exc
        latches.append(
            LatchDef(
                stream_id=str(_require(ld, "stream_id", path)),
                control_stream_id=str(_require(ld, "control_stream_id", path)),
                initial_state=state,
            )
        )

    return GraphDef(nodes=tuple(nodes), streams=tuple(streams), latches=tuple(latches))
