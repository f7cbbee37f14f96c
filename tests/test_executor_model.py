"""A reference model of the executor's ordering contract, run against it.

The model is a second executor, written for clarity rather than speed, from
the contract that the ``runtime.py`` and ``latch.py`` docstrings state:

* one list of events kept sorted by (time, consumer rank, phase, insertion
  order), each run in turn; ``now`` is the largest event time seen so far;
* three phases: latch controls, then timers, then deliveries;
* an emit pushes at ``now`` and stamps the packet ``now`` unless given a
  timestamp; the event it adds is at the packet's timestamp, and a timer is
  never set before ``now``;
* a control applies to data stamped at or after it: before the gated
  stream's head is taken, every queued control stamped no later than that
  head and ``now`` is applied;
* a run stops at the first event at or after its time limit, after the
  handler that raises or the event that brings the packets pushed to the
  budget, or, under any stop condition and before the next event, when only
  poll-driven nodes' timers are left and every stream into those nodes is
  empty.

It takes the consumer ranks from a built runner. Everything after them is
its own: it builds fresh nodes and keeps packets in fresh streams, whose
bounds bookkeeping ``test_stream.py`` and ``test_watchdog.py`` pin, and it
keeps its own latches. Hypothesis draws the graphs of
``test_graph_properties.py``, relays that send with past and future
timestamps included, and a time limit and a packet budget; examples put a
polling sink under a time limit, idle from its first poll, long before the
limit or with its next poll due after it. The runner and
the model must agree on the facts of the run, not on its bytes: per node,
the ``(port, seq, timestamp)`` of each packet it was handed; per stream, its
report entry; per latch, its report entry; and the stop reason and end time.
This is differential testing against a model, as in Claessen and Hughes,
"QuickCheck" (ICFP 2000).
"""

import itertools

from hypothesis import HealthCheck, example, given, settings, strategies as st

from flowbot.flowcore import (
    GraphDef,
    GraphRunner,
    LosslessPolicy,
    NodeDef,
    Packet,
    StopCondition,
    Stream,
    StreamDef,
)
from test_graph_properties import graphs_with_cycles, kinds

CONTROL, TIMER, DELIVERY = 0, 1, 2


def head_timestamp(stream):
    return stream.queue[0][1].timestamp_us


class ModelLatch:
    def __init__(self, initial):
        self.initial = self.state = initial.value
        self.forwarded = self.suppressed = 0
        self.transitions, self.suppressed_runs = [], []

    def control(self, packet):
        state = "open" if packet.payload else "closed"
        if state != self.state:
            self.state = state
            self.transitions.append({"t_us": packet.timestamp_us, "state": state})

    def gate(self, packet, now):
        if self.state == "open":
            self.forwarded += 1
            return packet
        self.suppressed += 1
        runs = self.suppressed_runs
        if runs and runs[-1]["last_seq"] == packet.seq - 1:
            runs[-1].update(last_seq=packet.seq, last_t_us=now, count=runs[-1]["count"] + 1)
        else:
            runs.append({"first_seq": packet.seq, "last_seq": packet.seq,
                         "first_t_us": now, "last_t_us": now, "count": 1})
        return None

    def to_json(self):
        openings = sum(t["state"] == "open" for t in self.transitions)
        return {"initial": self.initial, "forwarded": self.forwarded,
                "suppressed": self.suppressed, "openings": openings,
                "transitions": self.transitions, "suppressed_runs": self.suppressed_runs}


class ModelContext:
    def __init__(self, model, node_id):
        self.model, self.node_id = model, node_id

    def now_us(self):
        return self.model.now

    def emit(self, port, payload, timestamp_us=None):
        self.model.emit(self.node_id, port, payload, timestamp_us)

    def schedule_at(self, t_us, tag=None):
        self.model.add(max(t_us, self.model.now), self.node_id, TIMER, tag)

    def poll(self, port):
        return self.model.take(self.model.stream_into[(self.node_id, port)])

    def log(self, kind, **fields):
        pass


class Model:
    def __init__(self, graph, stop, ranks):
        self.stop, self.ranks, self.now = stop, ranks, 0
        self.nodes = {nd.id: kinds().create(nd.kind, nd.id, nd.params) for nd in graph.nodes}
        self.ctx = {node_id: ModelContext(self, node_id) for node_id in self.nodes}
        self.streams = {sd.id: Stream(sd.id, sd.policy, sd.watchdog) for sd in graph.streams}
        self.stream_from = {(sd.from_node, sd.from_port): sd.id for sd in graph.streams}
        self.stream_into = {(sd.to_node, sd.to_port): sd.id for sd in graph.streams}
        self.port = {sd.id: sd.to_port for sd in graph.streams}
        self.consumer = {sd.id: sd.to_node for sd in graph.streams}
        self.latches = {ld.stream_id: ModelLatch(ld.initial_state) for ld in graph.latches}
        self.control_of = {ld.stream_id: ld.control_stream_id for ld in graph.latches}
        self.gated_by = {ld.control_stream_id: ld.stream_id for ld in graph.latches}
        for control, gated in self.gated_by.items():
            self.consumer[control] = self.consumer[gated]
        self.events, self.order = [], itertools.count()
        self.handed = {node_id: [] for node_id in self.nodes}
        self.reason = None

    def add(self, t_us, node_id, phase, what):
        self.events.append((t_us, self.ranks[node_id], phase, next(self.order), node_id, what))
        self.events.sort()

    def emit(self, node_id, port, payload, timestamp_us):
        sid = self.stream_from[(node_id, port)]
        stream, consumer = self.streams[sid], self.consumer[sid]
        ts = self.now if timestamp_us is None else int(timestamp_us)
        stream.push(Packet(payload, ts, stream.pushed), self.now)
        if sid in self.gated_by:
            self.add(ts, consumer, CONTROL, self.gated_by[sid])
        elif not self.nodes[consumer].poll_driven:
            self.add(ts, consumer, DELIVERY, sid)

    def apply_controls(self, gated):
        data, control = self.streams[gated], self.streams[self.control_of[gated]]
        limit = min(self.now, head_timestamp(data)) if len(data) else self.now
        while len(control) and head_timestamp(control) <= limit:
            self.latches[gated].control(control.pop(self.now))

    def take(self, sid):
        if sid in self.latches:
            self.apply_controls(sid)
        packet = self.streams[sid].pop(self.now)
        if packet is not None and sid in self.latches:
            packet = self.latches[sid].gate(packet, self.now)
        if packet is not None:
            self.handed[self.consumer[sid]].append((self.port[sid], packet.seq, packet.timestamp_us))
        return packet

    def call(self, handler, *args):
        try:
            handler(*args)
        except Exception:
            self.reason = "node_failure"

    def only_idle_polls_left(self):
        polled = [sid for sid, node_id in self.consumer.items() if self.nodes[node_id].poll_driven]
        return (polled
                and all(e[2] == TIMER and self.nodes[e[4]].poll_driven for e in self.events)
                and not any(len(self.streams[sid]) for sid in polled))

    def run(self):
        for node_id, node in self.nodes.items():
            if self.reason is None:
                self.call(node.start, self.ctx[node_id])
        limit, budget = self.stop.time_limit_us, self.stop.max_packets
        while self.events and self.reason is None and not self.only_idle_polls_left():
            t_us, _, phase, _, node_id, what = self.events.pop(0)
            if limit is not None and t_us >= limit:
                self.reason = "time_limit"
                break
            self.now = max(self.now, t_us)
            if phase == CONTROL:
                self.apply_controls(what)
            elif phase == TIMER:
                self.call(self.nodes[node_id].on_timer, what, self.ctx[node_id])
            else:
                packet = self.take(what)
                if packet is not None:
                    self.call(self.nodes[node_id].on_packet, self.port[what], packet, self.ctx[node_id])
            if self.reason is None and budget is not None:
                if sum(s.pushed for s in self.streams.values()) >= budget:
                    self.reason = "packet_budget"
        end_us = limit if self.reason == "time_limit" else self.now
        for node_id, node in self.nodes.items():
            if self.reason != "node_failure":
                self.call(node.finish, self.ctx[node_id])
        for stream in self.streams.values():
            stream.finalize(end_us)
        return {"handed": self.handed,
                "streams": {sid: s.to_json() for sid, s in self.streams.items()},
                "latches": {sid: latch.to_json() for sid, latch in self.latches.items()},
                "stop": (self.reason or "exhausted", end_us)}


def runner_facts(runner):
    """Run a built runner, recording each packet handed to a node."""
    handed = {node_id: [] for node_id in runner.nodes}

    def recorded(node_id, on_packet):
        def call(port, packet, ctx):
            handed[node_id].append((port, packet.seq, packet.timestamp_us))
            return on_packet(port, packet, ctx)
        return call

    def poll_input(node_id, port, poll=runner.poll_input):
        packet = poll(node_id, port)
        if packet is not None:
            handed[node_id].append((port, packet.seq, packet.timestamp_us))
        return packet

    for node_id, node in runner.nodes.items():
        node.on_packet = recorded(node_id, node.on_packet)
    runner.poll_input = poll_input
    report = runner.run()
    return {"handed": handed, "streams": report.streams, "latches": report.latches,
            "stop": (report.stop_reason, report.end_time_us)}


stops = st.builds(StopCondition, time_limit_us=st.one_of(st.none(), st.integers(1_000, 80_000)),
                  max_packets=st.one_of(st.none(), st.integers(1, 300)))


def source_into_polling_sink(count, rate_hz=1000.0):
    """``count`` packets at ``rate_hz`` into a sink that polls at 1 kHz."""
    return GraphDef(
        (NodeDef("src", "source", {"count": count, "rate_hz": rate_hz}),
         NodeDef("snk", "sink", {"poll_rate_hz": 1000.0})),
        (StreamDef("s", "src", "out", "snk", "in", LosslessPolicy(deadline_us=1000)),),
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graphs_with_cycles(), stops)
# the sink is idle from its first poll; between packets and from 30 ms, long
# before the limit; and from 9 ms, with its next poll due after the limit
@example(source_into_polling_sink(0), StopCondition(time_limit_us=1000))
@example(source_into_polling_sink(10, rate_hz=300.0), StopCondition(time_limit_us=80_000))
@example(source_into_polling_sink(10), StopCondition(time_limit_us=9500))
def test_the_runner_agrees_with_the_model(wall_clock_guard, graph, stop):
    runner = GraphRunner(graph, kinds(), stop=stop)
    with wall_clock_guard(20.0):
        model = Model(graph, stop, runner._topo).run()
        actual = runner_facts(runner)
    assert actual == model
