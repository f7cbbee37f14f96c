"""Instrumentation of a built ``GraphRunner`` and the per-layer metrics.

Span names follow ``<module>.<what>``: ``flowcore.run`` wraps
``runner.run``, ``flowcore.report`` the report serialisation,
``flowcore.emit`` ``runner.emit``, ``flowcore.stream.push``/``pop`` every
stream, ``flowcore.aggregator.feed`` the aggregator kernel, and each node's
handlers (``start``, ``on_packet``, ``on_timer``, ``finish``) are one span
named after the node's kind: ``flowcore.node.<kind>`` for the core kinds,
``harness.<kind>`` for the harness kinds and ``bench.<kind>`` for the
benchmark's own. ``dsp.logmel`` and ``skills.dispatch`` are recorded on the
detector and skill registry the benchmark owns.
"""

from __future__ import annotations

from flowbot.flowcore import Aggregator

FLOWCORE_KINDS = ("source", "sink", "splitter", "aggregator", "attention")
HARNESS_KINDS = (
    "audio_source", "io_manager", "resampler_48to16", "interpreter_stub",
    "skill_manager", "speaker_sink", "uart_sink",
)
BENCH_KINDS = ("toggler",)
HANDLER_SPANS = (
    [f"flowcore.node.{k}" for k in FLOWCORE_KINDS]
    + [f"harness.{k}" for k in HARNESS_KINDS]
    + [f"bench.{k}" for k in BENCH_KINDS]
)
MODULES = ("flowcore", "harness", "dsp", "skills", "bench")


def handler_span(kind: str) -> str:
    if kind in HARNESS_KINDS:
        return f"harness.{kind}"
    if kind in FLOWCORE_KINDS:
        return f"flowcore.node.{kind}"
    return "bench." + kind.removeprefix("bench_")


class DepthProbe:
    """Highest queue depth seen right after any push."""

    def __init__(self):
        self.max_depth = 0

    def wrap_push(self, stream, push):
        def push_and_measure(*args, **kwargs):
            outcome = push(*args, **kwargs)
            depth = stream.pushed - stream.delivered - stream.dropped
            if depth > self.max_depth:
                self.max_depth = depth
            return outcome

        return push_and_measure


def instrument(runner, tracer, depth: DepthProbe) -> None:
    """Replace the runner's reachable bound methods with traced wrappers."""
    kinds = {nd.id: nd.kind for nd in runner.graph.nodes}
    for node_id, node in runner.nodes.items():
        name = handler_span(kinds[node_id])
        for method in ("start", "on_packet", "on_timer", "finish"):
            setattr(node, method, tracer.wrap(name, getattr(node, method)))
        agg = getattr(node, "agg", None)
        if isinstance(agg, Aggregator):
            agg.feed = tracer.wrap("flowcore.aggregator.feed", agg.feed)
    for stream in runner.streams.values():
        stream.push = depth.wrap_push(stream, tracer.wrap("flowcore.stream.push", stream.push))
        stream.pop = tracer.wrap("flowcore.stream.pop", stream.pop)
    runner.emit = tracer.wrap("flowcore.emit", runner.emit)


def report_metrics(graph, doc: dict) -> dict[str, float]:
    """Counts, and useful work over attempts (0 when a workload makes no
    attempt at that layer), from one deterministic report."""
    kinds = {nd.id: nd.kind for nd in graph.nodes}
    streams = doc["streams"]
    lossy = [sd.id for sd in graph.streams if sd.policy.kind == "lossy"]
    lossy_pushed = sum(streams[s]["pushed"] for s in lossy)
    latched = [doc["latches"][s] for s in doc["latches"]]
    gated = sum(l["forwarded"] + l["suppressed"] for l in latched)
    interpretations = sum(
        streams[sd.id]["delivered"] for sd in graph.streams
        if sd.to_node is not None and kinds[sd.to_node] == "skill_manager"
    )
    executed = len(doc["skill_invocations"]) - len(doc["skill_failures"])
    return {
        "flowcore.stream.lossy_delivered_ratio":
            sum(streams[s]["delivered"] for s in lossy) / lossy_pushed if lossy_pushed else 0.0,
        "flowcore.latch.forward_ratio":
            sum(l["forwarded"] for l in latched) / gated if gated else 0.0,
        "skills.executed_ratio": executed / interpretations if interpretations else 0.0,
        "flowcore.watchdog.violations": float(sum(len(s["violations"]) for s in streams.values())),
        "flowcore.events.count": float(len(doc["events"])),
    }


def span_metrics(tracer, reps: int, dispatches: int, traced_wall_s: float) -> dict[str, float]:
    """Counts per repetition and times per call from the accumulated spans."""

    def per_call_us(name: str, self_time: bool = False) -> float:
        n = tracer.count(name)
        total = tracer.self_s(name) if self_time else tracer.inclusive_s(name)
        return total / n * 1e6 if n else 0.0

    out = {}
    for name in ("flowcore.emit", "flowcore.stream.push", "flowcore.stream.pop",
                 "flowcore.aggregator.feed", "dsp.logmel", "skills.dispatch"):
        out[f"{name}.count"] = tracer.count(name) / reps
        out[f"{name}.us_per_call"] = per_call_us(name)
    for name in HANDLER_SPANS:
        out[f"{name}.count"] = tracer.count(name) / reps
        out[f"{name}.self_us_per_call"] = per_call_us(name, self_time=True)
    handlers_s = sum(tracer.inclusive_s(name) for name in HANDLER_SPANS)
    out["flowcore.dispatch.count"] = dispatches / reps
    out["flowcore.runtime.self_us_per_dispatch"] = (
        (tracer.inclusive_s("flowcore.run") - handlers_s) / dispatches * 1e6
    )
    out["flowcore.report.ms_per_call"] = per_call_us("flowcore.report") / 1e3
    # Self times partition the traced region, so the module shares plus the
    # untraced remainder (the benchmark's own call overhead) sum to 1.
    self_by_module = dict.fromkeys(MODULES, 0.0)
    for name, (_, _, self_s) in tracer.stats.items():
        self_by_module[name.split(".", 1)[0]] += self_s
    for module, self_s in self_by_module.items():
        out[f"trace.self_share.{module}"] = self_s / traced_wall_s
    out["trace.coverage"] = sum(self_by_module.values()) / traced_wall_s
    return out
