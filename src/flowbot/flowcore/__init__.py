"""Dataflow core: packets, streams with their policies and watchdogs, latches and the executor.

A public name is imported from its submodule on first use, so importing the
package loads no submodule, and a graph of the scheduler's own kinds
(``source``, ``sink``, ``splitter``) validates and runs without numpy. Only
:mod:`.aggregator` and :mod:`.attention`, the kernels behind the harness's
``aggregator`` and ``attention`` kinds, import numpy. :mod:`.record` holds
the bases of the slotted value classes here and in the other packages.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "aggregator": ("Aggregator", "AggregatorConfig", "AggregatorConfigError", "AggWindow", "SampleChunk"),
    "attention": ("attention_decide", "register_detector"),
    "clock": ("MonotonicClock", "VirtualClock"),
    "graphdef": ("GraphDef", "LatchDef", "NodeDef", "SchemaError", "StreamDef", "graph_from_json"),
    "latch": ("Latch", "LatchState"),
    "node": ("Node", "NodeKindRegistry", "PortSpec"),
    "packet": ("Packet",),
    "runtime": (
        "GraphRunner", "GraphValidationError", "RunReport", "StopCondition", "default_kind_registry",
        "graph_run",
    ),
    "stream": (
        "LosslessPolicy", "LossyPolicy", "Stream", "StreamConfigError", "StreamPolicy", "ViolationKind",
        "WatchdogConfig", "policy_from_json",
    ),
    "validation": ("Diagnostic", "validate_graph"),
})
