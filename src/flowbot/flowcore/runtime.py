"""Deterministic graph executor.

The ordering contract: every event sits in one heap ordered by (time,
consumer topological rank, phase, insertion order), and runs in that order.
An event's time is the timestamp of the packet it carries or the time its
timer was set for; a consumer's rank puts producers before consumers; and
within one time and rank there are three phases:

* ``_PHASE_CONTROL``: a packet pushed on a latch's control stream, ranked
  as the gated stream's consumer; the latch applies the controls that its
  rule lets through (see :mod:`.latch`);
* ``_PHASE_TIMER``: a ``(context, tag)`` pair, the timer of a node, push- or
  poll-driven alike;
* ``_PHASE_DELIVERY``: a packet pushed on a stream with a push-driven
  consumer; one packet is popped from the stream's head, through its latch
  if it has one, and handed to ``on_packet``.

So at equal timestamps upstream nodes act before downstream ones, and a
gate opened by a window's own attention bit admits that window. With a
virtual clock and a fixed seed the report is identical across runs. A heap
entry is the tuple ``(t_us, rank, phase, seq, arg)``; ``seq`` is a run-wide
insertion counter, so comparison never reaches ``arg``.

The runner builds each node once, checks the wiring against those nodes
and raises :class:`GraphValidationError` on any diagnostic. Each stream's
wiring is resolved once, when the runner is built, into a slotted
:class:`_Route`: the stream, its consumer node, port and context, the
consumer's rank, the phase an emit schedules (None for poll-driven and
consumer-less streams), the gated route for a latch control, and the latch
and control stream for a gated stream. ``emit`` finds the route by node id,
then by port; a packet's ``seq`` is its stream's ``pushed`` count before the
push.

Each stream checks its own bounds (its policy's miss limit or deadline and
its optional watchdog's latency and throughput) as packets pass, and each
latch keeps its own suppression runs; at the end of a run the runner
finalizes every stream, and the report holds each stream's and latch's own
``to_json()`` entry.

Late binding: when ``run()`` starts, before any ``node.start``, it binds
each context's ``emit`` to ``runner.emit`` as it is then, with the node id
filled in. The runner calls ``stream.push`` / ``stream.pop`` and
``node.start`` / ``on_packet`` / ``on_timer`` / ``finish`` through instance
attributes looked up at dispatch time. Wrappers installed on a built runner
before ``run()`` therefore see every call.

The schedule is the run's only time. ``run()`` reads the clock once, when
it starts; from then on ``now`` is the due time of the event being
dispatched, and the clock's ``advance_to`` is called whenever an event is
later than the last (a virtual clock jumps, a real one sleeps). ``emit``,
``poll``, ``log``, ``schedule_at`` and ``now_us`` read ``now``, never the
clock, so a late wake-up under a real clock delays events without reordering
them, and the report is the virtual run's byte for byte. Every stream
``push`` and ``pop`` and every latch ``forward`` is given ``now``, which
never decreases, so no stream, latch or skill registry keeps a time of its
own.

A run stops at the first event at or after its time limit, after the event
whose handler raises or that brings the packets pushed to the budget, or,
when a ``start`` raises, before any event. A ``finish`` that raises fails
the run as a handler does, and no later node's ``finish`` is called. The
idle stop: without a time limit, a run stops as exhausted once the only
events left are poll-driven nodes' timers and every stream into those nodes
(and each latch control stream into them) is empty; a polling node would
otherwise reschedule itself forever. A poll-driven node's context flags its
timers, and the runner counts those on the heap. The single-threaded loop
runs a node on one context at a time.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
from typing import Any, Callable, NamedTuple, Optional

from .clock import VirtualClock
from .graphdef import GraphDef
from .latch import Latch
from .node import Node, NodeKindRegistry, PortSpec
from .packet import Packet
from .schema import SchemaError, check_names, get_value
from .stream import Stream
from .validation import Diagnostic, build_nodes, check_wiring

# Phase within one timestamp and rank: latch controls, then timers, then
# packet deliveries.
_PHASE_CONTROL = 0
_PHASE_TIMER = 1
_PHASE_DELIVERY = 2

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Version 2 keeps drops and suppressions as run records on their stream and
#: latch instead of one event per packet, and adds ``max_queued`` and ``nodes``.
#: Version 3 logs no event for a fact another entry owns: latch transitions,
#: skill invocations, UART bytes and dead-lettered chunks. Version 4 drops the
#: per-window event, the io_manager's ``delivered`` and the latch's ``state``.
REPORT_VERSION = 4


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


class RunReport(NamedTuple):
    """A run's outcome; ``to_json()`` is the report document, always dumped
    with sorted keys."""

    status: str
    stop_reason: str
    end_time_us: int
    seed: int
    streams: dict
    latches: dict
    skill_invocations: list
    skill_failures: list
    uart_hex: str
    extras: dict
    events: list
    nodes: dict
    failed_node: Optional[str] = None

    def to_json(self) -> dict:
        return {"report_version": REPORT_VERSION, **self._asdict()}

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
    node id filled in, bound when the run starts. ``now_us()`` is the due time
    of the event being dispatched, also the default timestamp and the floor of
    ``schedule_at``.
    """

    emit: Callable[..., None]

    def __init__(self, runner: "GraphRunner", node: Node, rank: int):
        self._runner = runner
        self._node = node
        self._rank = rank
        self._polled = node.poll_driven  # its timers count for the idle stop
        self._heap = runner._heap
        self._heap_seq = runner._heap_seq
        self.collector = runner.collector

    def now_us(self) -> int:
        return self._runner._now

    @property
    def time_limit_us(self) -> Optional[int]:
        return self._runner.stop.time_limit_us

    def schedule_at(self, t_us: int, tag=None) -> None:
        now = self._runner._now
        if t_us < now:
            t_us = now
        if self._polled:
            self._runner._poll_timers += 1
        _heappush(self._heap, (t_us, self._rank, _PHASE_TIMER, self._heap_seq(), (self, tag)))

    def poll(self, port: str) -> Optional[Packet]:
        return self._runner.poll_input(self._node.id, port)

    def log(self, kind: str, **fields) -> None:
        self._runner.log_event(kind, node=self._node.id, **fields)


class _Route:
    """One stream's wiring, resolved once when the runner is built."""

    __slots__ = ("stream", "consumer", "port", "ctx", "rank", "phase", "gated", "latch", "control")

    def __init__(self, stream: Stream):
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
        self._now = 0  # the due time of the event being dispatched, set by run()
        self._heap: list = []
        self._heap_seq = itertools.count(1).__next__
        self._poll_timers = 0  # poll-driven nodes' timers on the heap
        self._failed_node: Optional[str] = None
        self._stop_reason = "exhausted"

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
        routes: dict[str, _Route] = {}  # by stream id
        self._outputs: dict[str, dict[str, _Route]] = {node_id: {} for node_id in self.nodes}
        self._inputs: dict[tuple[str, str], _Route] = {}
        for sd in graph.streams:
            stream = Stream(sd.id, sd.policy, watchdog=sd.watchdog)
            self.streams[sd.id] = stream
            route = routes[sd.id] = _Route(stream)
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
        """Producers rank before consumers, in declaration order where that
        leaves a choice; a latch's control stream counts as feeding the gated
        stream's consumer, and a cycle is entered at its ``_cycle_head``."""
        consumer = {sd.id: sd.to_node for sd in self.graph.streams}
        for ld in self.graph.latches:
            consumer[ld.control_stream_id] = consumer[ld.stream_id]
        order = [nd.id for nd in self.graph.nodes]
        deps: dict[str, set[str]] = {n: set() for n in order}
        for sd in self.graph.streams:
            if consumer[sd.id] != sd.from_node:
                deps[consumer[sd.id]].add(sd.from_node)
        ranks: dict[str, int] = {}
        remaining = list(order)
        while remaining:
            ready = [n for n in remaining if deps[n] <= set(ranks)]
            if not ready:
                ready = [_cycle_head(remaining, deps, ranks)]
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
        if timestamp_us is None:
            ts = now
        else:
            ts = timestamp_us if timestamp_us.__class__ is int else int(timestamp_us)
        stream = route.stream
        stream.push(tuple.__new__(Packet, (payload, ts, stream.pushed)), now)
        phase = route.phase
        if phase is not None:
            _heappush(self._heap, (ts, route.rank, phase, self._heap_seq(), route))

    def poll_input(self, node_id: str, port: str) -> Optional[Packet]:
        route = self._inputs.get((node_id, port))
        if route is None:
            raise KeyError(f"node {node_id!r} has no stream on input port {port!r}")
        if route.latch is None:
            return route.stream.pop(self._now)
        return route.latch.pop(route.stream, route.control, self._now)

    def log_event(self, kind: str, **fields) -> None:
        entry = {"t_us": self._now, "kind": kind}
        entry.update(fields)
        self.events.append(entry)

    # -- delivery ----------------------------------------------------------

    def _node_failed(self, node: Node, exc: Exception) -> None:
        self._failed_node = node.id
        self._stop_reason = "node_failure"
        self.log_event("node_error", node=node.id, error=f"{type(exc).__name__}: {exc}")

    # -- main loop ----------------------------------------------------------

    def run(self) -> RunReport:
        advance_to = self.clock.advance_to
        self._now = now = self.clock.now_us()
        for node_id, ctx in self._ctx.items():
            ctx.emit = functools.partial(self.emit, node_id)
        for node in self.nodes.values():
            try:
                node.start(self._ctx[node.id])
            except Exception as exc:
                self._node_failed(node, exc)
                break

        limit = self.stop.time_limit_us
        max_packets = self.stop.max_packets
        streams = list(self.streams.values())
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
                break
            if t_us > now:
                advance_to(t_us)
                self._now = now = t_us
            if phase == _PHASE_DELIVERY:
                latch = arg.latch
                if latch is None:
                    packet = arg.stream.pop(now)
                else:
                    packet = latch.pop(arg.stream, arg.control, now)
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
                gated.latch.drain(gated.stream, gated.control, now)
            else:
                dispatches[rank] += 1
                ctx, tag = arg
                if ctx._polled:
                    self._poll_timers -= 1
                node = ctx._node
                try:
                    node.on_timer(tag, ctx)
                except Exception as exc:
                    self._node_failed(node, exc)
                    break
            if max_packets is not None and sum(s.pushed for s in streams) >= max_packets:
                self._stop_reason = "packet_budget"
                break
        end_time_us = limit if self._stop_reason == "time_limit" else now

        if self._failed_node is None:
            for node in self.nodes.values():
                try:
                    node.finish(self._ctx[node.id])
                except Exception as exc:
                    self._node_failed(node, exc)
                    break
        for stream in streams:
            stream.finalize(end_time_us)
        return self._assemble_report(end_time_us)

    def _assemble_report(self, end_time_us: int) -> RunReport:
        return RunReport(
            status="failed" if self._failed_node else "ok",
            stop_reason=self._stop_reason,
            end_time_us=end_time_us,
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


def _cycle_head(remaining: list[str], deps: dict[str, set[str]], ranked: dict[str, int]) -> str:
    """The first of ``remaining`` that is on a cycle and whose unranked
    producers, direct or not, all lie on a cycle through it. When no node is
    ready, every node left waits on a cycle, so one exists; ranking it next
    keeps each producer that is not downstream of its consumer ranked before
    it."""
    upstream = {}
    for n in remaining:
        seen, todo = set(), [n]
        while todo:
            for m in deps[todo.pop()]:
                if m not in ranked and m not in seen:
                    seen.add(m)
                    todo.append(m)
        upstream[n] = seen
    return next(
        n for n in remaining if n in upstream[n] and all(upstream[m] == upstream[n] for m in upstream[n])
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


# -- the scheduler's node kinds ----------------------------------------------


class SourceNode(Node):
    """Emits ``count`` integer-payload packets at ``rate_hz``."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self.count = get_value(params, "count", "", int, 0, minimum=0)
        self.rate_hz = get_value(params, "rate_hz", "", float, 1000.0)
        if self.rate_hz <= 0:
            raise SchemaError("rate_hz", f"must be > 0, got {self.rate_hz:g}")
        self.start_us = get_value(params, "start_us", "", int, 0, minimum=0)
        self._emitted = 0

    def output_ports(self):
        return {"out": PortSpec("int")}

    def start(self, ctx):
        if self.count > 0:
            ctx.schedule_at(self.start_us)

    def on_timer(self, tag, ctx):
        ctx.emit("out", self._emitted)
        self._emitted += 1
        if self._emitted < self.count:
            ctx.schedule_at(self.start_us + round(self._emitted * 1e6 / self.rate_hz))


class SinkNode(Node):
    """Consumes packets; with ``poll_rate_hz`` it pulls one packet per period
    instead of accepting per-push deliveries (a deliberately slow consumer)."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self.poll_rate_hz = get_value(params, "poll_rate_hz", "", float, None)
        self.poll_driven = self.poll_rate_hz is not None
        # above one poll per microsecond, the clock's resolution, polls stop advancing time
        if self.poll_driven and not 0 < self.poll_rate_hz <= 1e6:
            raise SchemaError("poll_rate_hz", f"must be > 0 and <= 1e6, got {self.poll_rate_hz:g}")
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
        self.outputs = check_names(get_value(params, "outputs", "", list, ["out0", "out1"]), "outputs")
        if not self.outputs:
            raise SchemaError("outputs", "needs at least one output")

    def input_ports(self):
        return {"in": PortSpec("any")}

    def output_ports(self):
        return {name: PortSpec("any") for name in self.outputs}

    def on_packet(self, port, packet, ctx):
        payload, ts, _ = packet
        emit = ctx.emit
        for name in self.outputs:
            emit(name, payload, ts)


def default_kind_registry() -> NodeKindRegistry:
    reg = NodeKindRegistry()
    reg.register("source", SourceNode)
    reg.register("sink", SinkNode)
    reg.register("splitter", SplitterNode)
    return reg
