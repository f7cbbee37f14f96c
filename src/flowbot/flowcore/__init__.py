"""Dataflow core: packets, streams with their policies and watchdogs, latches and the executor.

Every module loads with the package. :mod:`.record` holds the bases of the
slotted value classes here and in the other packages.
"""

from .aggregator import (
    Aggregator,
    AggregatorConfig,
    AggregatorConfigError,
    AggWindow,
    SampleChunk,
)
from .attention import attention_decide
from .clock import MonotonicClock, VirtualClock
from .graphdef import GraphDef, LatchDef, NodeDef, SchemaError, StreamDef, graph_from_json
from .latch import Latch, LatchState
from .node import Node, NodeKindRegistry, PortSpec
from .packet import Packet
from .runtime import (
    GraphRunner,
    GraphValidationError,
    RunReport,
    StopCondition,
    default_kind_registry,
    graph_run,
    register_detector,
)
from .stream import (
    LosslessPolicy,
    LossyPolicy,
    Stream,
    StreamConfigError,
    StreamPolicy,
    ViolationKind,
    WatchdogConfig,
    policy_from_json,
)
from .validation import Diagnostic, validate_graph

__all__ = [
    "Aggregator",
    "AggregatorConfig",
    "AggregatorConfigError",
    "AggWindow",
    "Diagnostic",
    "GraphDef",
    "GraphRunner",
    "GraphValidationError",
    "Latch",
    "LatchDef",
    "LatchState",
    "LosslessPolicy",
    "LossyPolicy",
    "MonotonicClock",
    "Node",
    "NodeDef",
    "NodeKindRegistry",
    "Packet",
    "PortSpec",
    "RunReport",
    "SampleChunk",
    "SchemaError",
    "StopCondition",
    "Stream",
    "StreamConfigError",
    "StreamDef",
    "StreamPolicy",
    "ViolationKind",
    "VirtualClock",
    "WatchdogConfig",
    "attention_decide",
    "default_kind_registry",
    "graph_from_json",
    "graph_run",
    "policy_from_json",
    "register_detector",
    "validate_graph",
]
