"""Deterministic graph executor.

Execution is event-driven: timers, latch controls and per-push deliveries
sit in one heap ordered by (time, consumer topological rank, phase,
insertion order). At equal timestamps, upstream nodes act before downstream
ones and latch control application precedes gated-data delivery, so a gate
opened by a window's own attention bit admits that window. With a virtual
clock and a fixed seed the event log is identical across runs.

Heap entries are plain tuples ``(t_us, rank, phase, seq, arg)``. ``seq`` is
a run-wide insertion counter, so comparison never reaches ``arg``, and
``phase`` says what ``arg`` is:

* ``_PHASE_CONTROL``: the route of a latch's control stream; the gated
  stream's pending controls are applied;
* ``_PHASE_TIMER`` / ``_PHASE_POLL``: a ``(context, tag)`` pair, the timer of
  a push-driven or a poll-driven node;
* ``_PHASE_DELIVERY``: the route of the stream to pop one packet from.

The runner builds each node once, checks the wiring against those nodes
and raises :class:`GraphValidationError` on any diagnostic. Each stream's
wiring is resolved once, when the runner is built, into a slotted
:class:`_Route`: the stream, its consumer node, port and context, the
consumer's rank, the phase an emit schedules (None for poll-driven and
consumer-less streams), the gated route for a latch control, the latch,
control stream and suppression runs for a gated stream, and the next
sequence number. ``emit`` finds the route by node id, then by port.

Each stream checks its own bounds (its policy's miss limit or deadline and
its optional watchdog's latency and throughput) as packets pass; at the end
of a run the runner finalizes every stream, and the report holds each
stream's and latch's own ``to_json()`` entry.

Late binding: when ``run()`` starts, before any ``node.start``, it binds
each context's ``emit`` to ``runner.emit`` as it is then, with the node id
filled in. The runner calls ``stream.push`` / ``stream.pop`` and
``node.start`` / ``on_packet`` / ``on_timer`` / ``finish`` through instance
attributes looked up at dispatch time. Wrappers installed on a built runner
before ``run()`` therefore see every call.

One ``now`` per dispatch: the runner reads the clock when it is built, when
``run()`` starts, after a virtual ``advance_to`` (made only when an event is
later than the last) and after a real clock's sleep until an event is due.
``emit``, ``poll``, ``log``, ``schedule_at`` and ``now_us`` read that time,
never the clock, so under a real clock a handler sees the time its event was
dispatched however long it runs. ``SourceNode`` stamps each packet with the
time its timer was due, as in a virtual run, but a timer set in the past
fires at the time it was set, so a wake-up later than the gap between two
events can still reorder them and change a lossy polled stream's counters.

A run stops at the first event at or after its time limit, after the event
whose handler raises or that brings the packets pushed to the budget, or,
when a ``start`` raises, before any event. Without a time limit it stops as
exhausted once the only events left are poll-driven nodes' timers and every
stream into those nodes is empty; a polling node would otherwise reschedule
itself forever. The single-threaded loop runs a node on one context at a time.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import time as _time
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .aggregator import Aggregator, AggregatorConfig, AggWindow, SampleChunk
from .attention import attention_decide, rms_detect
from .clock import VirtualClock
from .graphdef import GraphDef
from .latch import Latch
from .node import Node, NodeKindRegistry, PortSpec
from .packet import Packet
from .record import Record
from .schema import SchemaError, check_value, get_value
from .stream import Stream
from .validation import Diagnostic, build_nodes, check_wiring

# Phase within one timestamp and rank: latch controls apply before anything
# else, then timers, then packet deliveries. A poll-driven node receives no
# deliveries, so its timers have their own phase without changing the order.
_PHASE_CONTROL = 0
_PHASE_TIMER = 1
_PHASE_POLL = 2
_PHASE_DELIVERY = 3

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Version 2 keeps drops and suppressions as run records on their stream and
#: latch instead of one event per packet, and adds ``max_queued`` and ``nodes``.
REPORT_VERSION = 2


class GraphValidationError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


class StopCondition(NamedTuple):
    """Run until source exhaustion unless a time limit or packet budget hits.

    The time limit is exclusive: events at exactly ``time_limit_us`` do not
    run.
    """

    time_limit_us: Optional[int] = None
    max_packets: Optional[int] = None


class RunCollector:
    """Mutable run-wide sinks that nodes append to via their context."""

    def __init__(self):
        self.skill_invocations: list[dict] = []
        self.skill_failures: list[dict] = []
        self.uart = bytearray()
        self.extras: dict[str, list] = {}

    def channel(self, name: str) -> list:
        return self.extras.setdefault(name, [])


class RunReport(Record):
    __slots__ = _fields = (
        "status", "stop_reason", "end_time_us", "seed", "streams", "latches",
        "skill_invocations", "skill_failures", "uart_hex", "extras", "events",
        "nodes", "failed_node",
    )

    def __init__(
        self,
        status: str,
        stop_reason: str,
        end_time_us: int,
        seed: int,
        streams: dict,
        latches: dict,
        skill_invocations: list,
        skill_failures: list,
        uart_hex: str,
        extras: dict,
        events: list,
        nodes: dict,
        failed_node: Optional[str] = None,
    ):
        self._init(
            status, stop_reason, end_time_us, seed, streams, latches, skill_invocations,
            skill_failures, uart_hex, extras, events, nodes, failed_node,
        )

    def to_json(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "status": self.status,
            "stop_reason": self.stop_reason,
            "end_time_us": self.end_time_us,
            "seed": self.seed,
            "failed_node": self.failed_node,
            "streams": self.streams,
            "latches": self.latches,
            "nodes": self.nodes,
            "skill_invocations": self.skill_invocations,
            "skill_failures": self.skill_failures,
            "uart_hex": self.uart_hex,
            "extras": self.extras,
            "events": self.events,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def conservation_ok(self) -> bool:
        return all(
            s["pushed"] == s["delivered"] + s["dropped"] + s["queued"]
            for s in self.streams.values()
        )


class NodeContext:
    """Per-node handle into the running graph.

    ``emit(port, payload, timestamp_us=None)`` is ``runner.emit`` with the
    node id filled in, bound when the run starts. ``now_us()`` is the time of
    the event being dispatched, also the default timestamp and the floor of
    ``schedule_at``; under a real clock it does not move during a handler.
    """

    emit: Callable[..., None]

    def __init__(self, runner: "GraphRunner", node: Node, rank: int):
        self._runner = runner
        self._node = node
        self._rank = rank
        self._phase = _PHASE_POLL if node.poll_driven else _PHASE_TIMER
        self._heap = runner._heap
        self._heap_seq = runner._heap_seq
        self.collector = runner.collector

    def now_us(self) -> int:
        return self._runner._now

    @property
    def time_limit_us(self) -> Optional[int]:
        return self._runner.stop.time_limit_us

    def schedule(self, delay_us: int, tag=None) -> None:
        self.schedule_at(self.now_us() + int(delay_us), tag)

    def schedule_at(self, t_us: int, tag=None) -> None:
        now = self._runner._now
        if t_us < now:
            t_us = now
        phase = self._phase
        if phase == _PHASE_POLL:
            self._runner._poll_timers += 1
        _heappush(self._heap, (t_us, self._rank, phase, self._heap_seq(), (self, tag)))

    def poll(self, port: str) -> Optional[Packet]:
        return self._runner.poll_input(self._node.id, port)

    def log(self, kind: str, **fields) -> None:
        self._runner.log_event(kind, node=self._node.id, **fields)


class _Route:
    """One stream's wiring, resolved once when the runner is built."""

    __slots__ = (
        "stream_id", "stream", "consumer", "port", "ctx", "rank", "phase",
        "gated", "latch", "control", "next_seq",
    )

    def __init__(self, stream_id: str, stream: Stream):
        self.stream_id = stream_id
        self.stream = stream
        self.consumer: Optional[Node] = None
        self.port: Optional[str] = None
        self.ctx: Optional[NodeContext] = None
        self.rank = 0
        self.phase: Optional[int] = None
        # a latch's control stream: the gated stream's route
        self.gated: Optional[_Route] = None
        # a gated stream: its latch and the latch's control stream
        self.latch: Optional[Latch] = None
        self.control: Optional[Stream] = None
        self.next_seq = 0


class GraphRunner:
    def __init__(
        self,
        graph: GraphDef,
        kinds: Optional[NodeKindRegistry] = None,
        clock=None,
        stop: Optional[StopCondition] = None,
        seed: int = 0,
        env: Optional[dict] = None,
    ):
        self.graph = graph
        self.clock = clock if clock is not None else VirtualClock()
        self.stop = stop if stop is not None else StopCondition()
        self.seed = seed
        self.collector = RunCollector()
        self.events: list[dict] = []
        self._now = self.clock.now_us()  # the time of the event being dispatched
        self._heap: list = []
        self._heap_seq = itertools.count(1).__next__
        self._poll_timers = 0  # _PHASE_POLL entries on the heap
        self._total_pushed = 0
        self._failed_node: Optional[str] = None
        self._stop_reason = "exhausted"
        self._end_time_us: Optional[int] = None

        if kinds is None:
            kinds = default_kind_registry()
        self.nodes, diags = build_nodes(graph, kinds, dict(env or {}))
        diags += check_wiring(graph, self.nodes)
        if diags:
            raise GraphValidationError(diags)
        self._topo = self._topo_ranks()
        self._ctx: dict[str, NodeContext] = {
            node_id: NodeContext(self, node, self._topo[node_id]) for node_id, node in self.nodes.items()
        }
        # deliveries that reach on_packet, plus timers, per node by rank
        self._dispatches = [0] * len(self._topo)

        self.streams: dict[str, Stream] = {}
        self._routes: dict[str, _Route] = {}
        routes = self._routes  # by stream id
        self._outputs: dict[str, dict[str, _Route]] = {node_id: {} for node_id in self.nodes}
        self._inputs: dict[tuple[str, str], _Route] = {}
        for sd in graph.streams:
            stream = Stream(sd.id, sd.policy, watchdog=sd.watchdog)
            self.streams[sd.id] = stream
            route = routes[sd.id] = _Route(sd.id, stream)
            self._outputs[sd.from_node][sd.from_port] = route
            if sd.to_node is not None:
                self._inputs[(sd.to_node, sd.to_port)] = route
                node = self.nodes[sd.to_node]
                route.consumer, route.port, route.ctx = node, sd.to_port, self._ctx[node.id]
                route.rank = self._topo[node.id]
                if not node.poll_driven:
                    route.phase = _PHASE_DELIVERY

        self.latches: dict[str, Latch] = {}
        for ld in graph.latches:
            gated, control = routes[ld.stream_id], routes[ld.control_stream_id]
            gated.latch = self.latches[ld.stream_id] = Latch(ld.initial_state)
            gated.control = control.stream
            control.gated = gated
            control.rank = gated.rank
            control.phase = _PHASE_CONTROL

        polled = [r for r in routes.values() if r.consumer is not None and r.consumer.poll_driven]
        self._polled_streams = [r.stream for r in polled] + [
            r.control for r in polled if r.control is not None
        ]

    # -- ordering ---------------------------------------------------------

    def _topo_ranks(self) -> dict[str, int]:
        stream_defs = {sd.id: sd for sd in self.graph.streams}
        gated_consumer = {}
        for ld in self.graph.latches:
            gated_def = stream_defs.get(ld.stream_id)
            gated_consumer[ld.control_stream_id] = gated_def.to_node if gated_def else None
        order = [nd.id for nd in self.graph.nodes]
        deps: dict[str, set[str]] = {n: set() for n in order}
        for sd in self.graph.streams:
            consumer = sd.to_node
            if consumer is None:
                consumer = gated_consumer.get(sd.id)
            if consumer is not None and sd.from_node in deps and consumer in deps:
                if consumer != sd.from_node:
                    deps[consumer].add(sd.from_node)
        ranks: dict[str, int] = {}
        remaining = list(order)
        while remaining:
            ready = [n for n in remaining if deps[n] <= set(ranks)]
            if not ready:
                ready = [remaining[0]]  # cycle: fall back to declaration order
            for n in ready:
                ranks[n] = len(ranks)
            remaining = [n for n in remaining if n not in ranks]
        return ranks

    # -- node-facing operations -------------------------------------------

    def emit(self, node_id: str, port: str, payload: Any, timestamp_us: Optional[int] = None) -> None:
        try:
            route = self._outputs[node_id][port]
        except KeyError:
            raise KeyError(f"node {node_id!r} has no stream on output port {port!r}") from None
        now = self._now
        ts = now if timestamp_us is None else int(timestamp_us)
        seq = route.next_seq
        route.next_seq = seq + 1
        route.stream.push(tuple.__new__(Packet, (payload, ts, seq)), now)
        self._total_pushed += 1
        phase = route.phase
        if phase is not None:
            _heappush(self._heap, (ts, route.rank, phase, self._heap_seq(), route))

    def poll_input(self, node_id: str, port: str) -> Optional[Packet]:
        route = self._inputs.get((node_id, port))
        if route is None:
            raise KeyError(f"node {node_id!r} has no stream on input port {port!r}")
        return self._pop_through_latch(route, self._now)

    def log_event(self, kind: str, **fields) -> None:
        entry = {"t_us": self._now, "kind": kind}
        entry.update(fields)
        self.events.append(entry)

    # -- delivery ----------------------------------------------------------

    def _drain_controls(self, gated: _Route, up_to_ts: Optional[int], now: int) -> None:
        """Apply queued controls stamped no later than ``up_to_ts`` and ``now``;
        the rest wait for the earlier-stamped data in front of them."""
        latch = gated.latch
        control = gated.control
        limit = now if up_to_ts is None else min(now, up_to_ts)
        while True:
            ts = control.peek_timestamp()
            if ts is None or ts > limit:
                return
            packet = control.pop(now)
            if packet is None:
                return
            if latch.apply_control(packet.payload, packet.timestamp_us):
                self.log_event(
                    "latch", stream=gated.stream_id, state=latch.state.value,
                    bit=int(bool(packet.payload)),
                )

    def _pop_through_latch(self, route: _Route, now: int) -> Optional[Packet]:
        stream = route.stream
        latch = route.latch
        if latch is None:
            return stream.pop(now)
        # a control applies to data with later-or-equal timestamps only, so
        # drain no further than the packet about to be popped
        if route.control._q:
            self._drain_controls(route, stream.peek_timestamp(), now)
        packet = stream.pop(now)
        if packet is None:
            return None
        forwarded = latch.forward(packet)
        if forwarded is None:
            seq = packet.seq
            runs = latch.suppressed_runs
            if runs and runs[-1][1] == seq - 1:
                run = runs[-1]
                run[1], run[3], run[4] = seq, now, run[4] + 1
            else:
                runs.append([seq, seq, now, now, 1])
        return forwarded

    def _node_failed(self, node: Node, exc: Exception) -> None:
        self._failed_node = node.id
        self._stop_reason = "node_failure"
        self.log_event("node_error", node=node.id, error=f"{type(exc).__name__}: {exc}")

    # -- main loop ----------------------------------------------------------

    def run(self) -> RunReport:
        clock = self.clock
        now_us = clock.now_us
        self._now = now = now_us()
        for node_id, ctx in self._ctx.items():
            ctx.emit = functools.partial(self.emit, node_id)
        for node in self.nodes.values():
            try:
                node.start(self._ctx[node.id])
            except Exception as exc:
                self._node_failed(node, exc)
                break

        realtime = not getattr(clock, "is_virtual", False)
        advance_to = None if realtime else clock.advance_to
        limit = self.stop.time_limit_us
        max_packets = self.stop.max_packets
        polled = self._polled_streams
        stop_when_idle = limit is None and bool(polled)
        heap = self._heap if self._failed_node is None else []  # a start failed
        dispatches = self._dispatches
        while heap:
            if stop_when_idle and len(heap) == self._poll_timers and not any(map(len, polled)):
                break
            t_us, rank, phase, _seq, arg = _heappop(heap)
            if limit is not None and t_us >= limit:
                self._stop_reason = "time_limit"
                self._end_time_us = limit
                break
            if realtime:
                lag = (t_us - now_us()) / 1e6
                if lag > 0:
                    _time.sleep(lag)
                self._now = now = now_us()
            elif t_us > now:
                advance_to(t_us)
                self._now = now = now_us()
            if phase == _PHASE_DELIVERY:
                if arg.latch is None:
                    packet = arg.stream.pop(now)
                else:
                    packet = self._pop_through_latch(arg, now)
                if packet is not None:
                    dispatches[rank] += 1
                    node = arg.consumer
                    try:
                        node.on_packet(arg.port, packet, arg.ctx)
                    except Exception as exc:
                        self._node_failed(node, exc)
                        break
            elif phase == _PHASE_CONTROL:
                gated = arg.gated
                self._drain_controls(gated, gated.stream.peek_timestamp(), now)
            else:
                if phase == _PHASE_POLL:
                    self._poll_timers -= 1
                dispatches[rank] += 1
                ctx, tag = arg
                node = ctx._node
                try:
                    node.on_timer(tag, ctx)
                except Exception as exc:
                    self._node_failed(node, exc)
                    break
            if max_packets is not None and self._total_pushed >= max_packets:
                self._stop_reason = "packet_budget"
                break
        if self._end_time_us is None:
            self._end_time_us = clock.now_us()

        for node in self.nodes.values():
            if self._failed_node is None:
                node.finish(self._ctx[node.id])
        for stream in self.streams.values():
            stream.finalize(self._end_time_us)
        return self._assemble_report()

    def _assemble_report(self) -> RunReport:
        return RunReport(
            status="failed" if self._failed_node else "ok",
            stop_reason=self._stop_reason,
            end_time_us=self._end_time_us or 0,
            seed=self.seed,
            streams={sid: stream.to_json() for sid, stream in sorted(self.streams.items())},
            latches={sid: latch.to_json() for sid, latch in sorted(self.latches.items())},
            skill_invocations=list(self.collector.skill_invocations),
            skill_failures=list(self.collector.skill_failures),
            uart_hex=self.collector.uart.hex(),
            extras={k: list(v) for k, v in sorted(self.collector.extras.items())},
            events=list(self.events),
            nodes={
                node_id: {"dispatches": self._dispatches[self._topo[node_id]]}
                for node_id in sorted(self.nodes)
            },
            failed_node=self._failed_node,
        )


def graph_run(
    graph: GraphDef,
    kinds: Optional[NodeKindRegistry] = None,
    clock=None,
    stop: Optional[StopCondition] = None,
    seed: int = 0,
    env: Optional[dict] = None,
) -> RunReport:
    """Validate, build and execute a graph to completion. See GraphRunner."""
    return GraphRunner(graph, kinds=kinds, clock=clock, stop=stop, seed=seed, env=env).run()


# -- built-in node kinds ----------------------------------------------------


class SourceNode(Node):
    """Emits ``count`` integer-payload packets at ``rate_hz``."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self.count = get_value(params, "count", "", int, 0)
        self.rate_hz = get_value(params, "rate_hz", "", float, 1000.0)
        if self.rate_hz <= 0:
            raise SchemaError("rate_hz", f"must be > 0, got {self.rate_hz:g}")
        self.start_us = get_value(params, "start_us", "", int, 0)
        self._emitted = 0

    def output_ports(self):
        return {"out": PortSpec("any")}

    def start(self, ctx):
        if self.count > 0:
            due = max(self.start_us, ctx.now_us())
            ctx.schedule_at(due, due)

    def on_timer(self, due, ctx):
        # stamped with the time the timer was due, its virtual dispatch time,
        # not the time of a late real-clock wake-up
        ctx.emit("out", self._emitted, due)
        self._emitted += 1
        if self._emitted < self.count:
            due = max(due, self.start_us + round(self._emitted * 1e6 / self.rate_hz))
            ctx.schedule_at(due, due)


class SinkNode(Node):
    """Consumes packets; with ``poll_rate_hz`` it pulls one packet per period
    instead of accepting per-push deliveries (a deliberately slow consumer)."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self.poll_rate_hz = get_value(params, "poll_rate_hz", "", float, None)
        self.poll_driven = self.poll_rate_hz is not None
        if self.poll_driven and self.poll_rate_hz <= 0:
            raise SchemaError("poll_rate_hz", f"must be > 0, got {self.poll_rate_hz:g}")
        self._polls = 0

    def input_ports(self):
        return {"in": PortSpec("any")}

    def start(self, ctx):
        if self.poll_driven:
            ctx.schedule_at(0)

    def on_timer(self, tag, ctx):
        ctx.poll("in")
        self._polls += 1
        next_t = round(self._polls * 1e6 / self.poll_rate_hz)
        if ctx.time_limit_us is None or next_t < ctx.time_limit_us:
            ctx.schedule_at(next_t)


class SplitterNode(Node):
    """Explicit fan-out: every input packet is re-emitted on each output."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        outputs = get_value(params, "outputs", "", list, ["out0", "out1"])
        self.outputs = [check_value(name, f"outputs[{i}]", str) for i, name in enumerate(outputs)]
        if not self.outputs:
            raise SchemaError("outputs", "needs at least one output")

    def input_ports(self):
        return {"in": PortSpec("any")}

    def output_ports(self):
        return {name: PortSpec("any") for name in self.outputs}

    def on_packet(self, port, packet, ctx):
        for name in self.outputs:
            ctx.emit(name, packet.payload, packet.timestamp_us)


class AggregatorNode(Node):
    """Graph wrapper over :class:`Aggregator`; accepts sample chunks, whose
    scale it applies in each window copy, or bare float sample arrays."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self.agg = Aggregator(
            AggregatorConfig(
                window_samples=get_value(params, "window_samples", "", int, minimum=1),
                hop_samples=get_value(params, "hop_samples", "", int, minimum=1),
                sample_rate_hz=get_value(params, "sample_rate_hz", "", int, minimum=1),
            )
        )

    def input_ports(self):
        return {"in": PortSpec("samples")}

    def output_ports(self):
        return {"windows": PortSpec("window")}

    def on_packet(self, port, packet, ctx):
        payload = packet.payload
        if isinstance(payload, SampleChunk):
            windows = self.agg.feed(payload.samples, payload.sample_rate_hz, payload.scale)
        else:
            windows = self.agg.feed(payload)
        for window in windows:
            ctx.emit("windows", window)


DETECTOR_FACTORIES: dict[str, Callable] = {}


def register_detector(kind: str, factory: Callable) -> None:
    DETECTOR_FACTORIES[kind] = factory


def _window_samples(payload) -> np.ndarray:
    return payload.samples if isinstance(payload, AggWindow) else np.asarray(payload)


def _constant_detector(spec, env):
    # an integer only: truncating 0.9 would give a gate that never opens
    value = get_value(spec, "value", "detector", int, 1)
    return lambda w: value


def _rms_detector(spec, env):
    threshold = get_value(spec, "threshold", "detector", float, 0.1)
    return lambda w: rms_detect(_window_samples(w), threshold)


register_detector("constant", _constant_detector)
register_detector("rms", _rms_detector)


class AttentionNode(Node):
    """Emits one bit per input window from a pluggable detector."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        spec = get_value(params, "detector", "", dict, {"kind": "rms"})
        kind = get_value(spec, "kind", "detector", str)
        if kind not in DETECTOR_FACTORIES:
            raise SchemaError("detector.kind", f"unknown detector kind {kind!r:.40}")
        self.detector = DETECTOR_FACTORIES[kind](spec, env)

    def input_ports(self):
        return {"in": PortSpec("window")}

    def output_ports(self):
        return {"bit": PortSpec("bit")}

    def on_packet(self, port, packet, ctx):
        errors: list[Exception] = []
        bit = attention_decide(self.detector, packet.payload, on_error=errors.append)
        for exc in errors:
            ctx.log("attention_error", error=f"{type(exc).__name__}: {exc}")
        ctx.emit("bit", bit, timestamp_us=packet.timestamp_us)


def default_kind_registry() -> NodeKindRegistry:
    reg = NodeKindRegistry()
    reg.register("source", SourceNode)
    reg.register("sink", SinkNode)
    reg.register("splitter", SplitterNode)
    reg.register("aggregator", AggregatorNode)
    reg.register("attention", AttentionNode)
    return reg
