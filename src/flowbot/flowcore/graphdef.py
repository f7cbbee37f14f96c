"""Graph definition: nodes, streams, latches, and the reader of its JSON document.

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
Values are read with :mod:`.schema`, raising :class:`SchemaError` at their path
(a policy's at ``streams[i].policy``); node params are read when a node is built.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .latch import LatchState
from .record import FrozenRecord
from .schema import SchemaError, check_value, get_value
from .stream import StreamConfigError, StreamPolicy, WatchdogConfig, policy_from_json


class NodeDef(FrozenRecord):
    """A node to build; each one holds its own ``params`` dict."""

    __slots__ = _fields = ("id", "kind", "params")

    def __init__(self, id: str, kind: str, params: Optional[dict] = None):
        self._init(id, kind, {} if params is None else params)


class StreamDef(NamedTuple):
    id: str
    from_node: str
    from_port: str
    to_node: Optional[str]
    to_port: Optional[str]
    policy: StreamPolicy
    watchdog: Optional[WatchdogConfig] = None


class LatchDef(NamedTuple):
    stream_id: str
    control_stream_id: str
    initial_state: LatchState = LatchState.CLOSED


class GraphDef(NamedTuple):
    nodes: tuple[NodeDef, ...] = ()
    streams: tuple[StreamDef, ...] = ()
    latches: tuple[LatchDef, ...] = ()


def graph_from_json(doc: dict) -> GraphDef:
    """Parse a graph document, raising :class:`SchemaError` with the offending path."""
    check_value(doc, "$", dict)
    node_docs, stream_docs, latch_docs = (
        get_value(doc, key, "", list) for key in ("nodes", "streams", "latches")
    )

    nodes = []
    for i, nd in enumerate(node_docs):
        path = f"nodes[{i}]"
        check_value(nd, path, dict)
        nodes.append(
            NodeDef(
                id=get_value(nd, "id", path, str),
                kind=get_value(nd, "kind", path, str),
                params=dict(get_value(nd, "params", path, dict, {})),
            )
        )

    streams = []
    for i, sd in enumerate(stream_docs):
        path = f"streams[{i}]"
        check_value(sd, path, dict)
        policy_doc = get_value(sd, "policy", path, dict)
        try:
            policy = policy_from_json(policy_doc)
        except (SchemaError, StreamConfigError) as exc:
            raise SchemaError(f"{path}.policy", str(exc)) from exc
        watchdog = get_value(sd, "watchdog", path, dict, None)
        if watchdog is not None:
            try:
                watchdog = WatchdogConfig.from_json(watchdog, f"{path}.watchdog")
            except StreamConfigError as exc:
                raise SchemaError(f"{path}.watchdog", str(exc)) from exc
        to_node = get_value(sd, "to_node", path, str, None)
        to_port = get_value(sd, "to_port", path, str, None)
        if (to_node is None) != (to_port is None):
            raise SchemaError(path, "to_node and to_port must be given together")
        streams.append(
            StreamDef(
                id=get_value(sd, "id", path, str),
                from_node=get_value(sd, "from_node", path, str),
                from_port=get_value(sd, "from_port", path, str),
                to_node=to_node,
                to_port=to_port,
                policy=policy,
                watchdog=watchdog,
            )
        )

    latches = []
    for i, ld in enumerate(latch_docs):
        path = f"latches[{i}]"
        check_value(ld, path, dict)
        state_raw = get_value(ld, "initial_state", path, str, "closed").lower()
        try:
            state = LatchState(state_raw)
        except ValueError as exc:
            raise SchemaError(f"{path}.initial_state", f"must be 'open' or 'closed', got {state_raw!r}") from exc
        latches.append(
            LatchDef(
                stream_id=get_value(ld, "stream_id", path, str),
                control_stream_id=get_value(ld, "control_stream_id", path, str),
                initial_state=state,
            )
        )

    return GraphDef(nodes=tuple(nodes), streams=tuple(streams), latches=tuple(latches))
