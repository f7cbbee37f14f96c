"""Random valid graphs: every run terminates, conserves packets and replays,
and its drop and suppression runs account for every dropped and suppressed
packet; a clock that reads late changes no byte of the report, and the time
each stream and latch is given never decreases. Producers rank before their
consumers, also when relay cycles are added.

Hypothesis draws small DAGs of sources, splitters and sinks, with lossy and
lossless streams, optional watchdogs, push- and poll-driven sinks, an
optional chain of sample chunks through an aggregator and an attention node
(``rms`` or ``constant`` detector), and at most one latch, driven by a
scripted bit node or by the attention node's bits. A graph with one stream
pointed at a port of another payload gets exactly one diagnostic.
"""

import itertools

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from flowbot.flowcore import (
    GraphDef,
    GraphRunner,
    LatchDef,
    LatchState,
    LosslessPolicy,
    LossyPolicy,
    Node,
    NodeDef,
    PortSpec,
    SampleChunk,
    StopCondition,
    StreamDef,
    VirtualClock,
    WatchdogConfig,
    graph_run,
    validate_graph,
)
from flowbot.harness import harness_kind_registry


class ScriptedBits(Node):
    """Emits scripted ``(t_us, bit)`` pairs, in time order, on ``bit``."""

    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.script = sorted(params["script"])
        self._next = 0

    def output_ports(self):
        return {"bit": PortSpec("bit")}

    def start(self, ctx):
        if self.script:
            ctx.schedule_at(self.script[0][0])

    def on_timer(self, tag, ctx):
        t_us, bit = self.script[self._next]
        ctx.emit("bit", bit, timestamp_us=t_us)
        self._next += 1
        if self._next < len(self.script):
            ctx.schedule_at(self.script[self._next][0])


class ChunkSource(Node):
    """Emits one 10 ms ``SampleChunk`` of 16 kHz samples per entry of
    ``amps``, every 10 ms from 0; each chunk holds its amplitude throughout,
    so its RMS level is that amplitude."""

    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.amps = params["amps"]
        self._sent = 0

    def output_ports(self):
        return {"out": PortSpec("SampleChunk")}

    def start(self, ctx):
        ctx.schedule_at(0)

    def on_timer(self, tag, ctx):
        ctx.emit("out", SampleChunk(np.full(160, self.amps[self._sent]), 16_000))
        self._sent += 1
        if self._sent < len(self.amps):
            ctx.schedule_at(ctx.now_us() + 10_000)


class Relay(Node):
    """Two optional inputs and two optional outputs, for wiring cycles.

    Its integer payloads are hop budgets. At ``start_us`` it sends ``hops``
    on each of its wired ``outputs``; a packet it receives with a budget
    left goes on to each of them with one hop spent, so every cycle of
    relays comes to rest. A send of ``h`` hops is stamped
    ``shifts_us[h % len(shifts_us)]`` after the time it answers (the
    packet's timestamp, or ``start_us``): in the past, now or in the future,
    so one stream may carry stamps out of order, and two sends that tie
    are told apart by their order. Its ``fail_after``-th packet raises.
    """

    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.outputs = params.get("outputs", [])
        self.shifts_us = params.get("shifts_us", [0])
        self.hops = params.get("hops", 0)
        self.start_us = params.get("start_us", 0)
        self.fail_after = params.get("fail_after")
        self._received = 0

    def input_ports(self):
        return {"in0": PortSpec(optional=True), "in1": PortSpec(optional=True)}

    def output_ports(self):
        return {"o0": PortSpec(optional=True), "o1": PortSpec(optional=True)}

    def start(self, ctx):
        if self.hops and self.outputs:
            ctx.schedule_at(self.start_us)

    def on_timer(self, tag, ctx):
        self.send(self.hops, self.start_us, ctx)

    def on_packet(self, port, packet, ctx):
        self._received += 1
        if self._received == self.fail_after:
            raise RuntimeError(f"{self.id} failed on purpose")
        if packet.payload > 0:
            self.send(packet.payload - 1, packet.timestamp_us, ctx)

    def send(self, hops, t_us, ctx):
        shift_us = self.shifts_us[hops % len(self.shifts_us)]
        for port in self.outputs:
            ctx.emit(port, hops, timestamp_us=t_us + shift_us)


class TypedSink(Node):
    """Takes the payload its ``tag`` param names on ``in``."""

    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.tag = params["tag"]

    def input_ports(self):
        return {"in": PortSpec(self.tag)}


def kinds():
    registry = harness_kind_registry()
    registry.register("scripted_bits", ScriptedBits)
    registry.register("chunks", ChunkSource)
    registry.register("relay", Relay)
    registry.register("typed_sink", TypedSink)
    return registry


policies = st.one_of(
    st.builds(
        LossyPolicy,
        capacity=st.integers(1, 4),
        max_successive_misses=st.one_of(st.none(), st.integers(0, 3)),
    ),
    st.builds(LosslessPolicy, deadline_us=st.integers(100, 20_000)),
)

detectors = st.one_of(
    st.fixed_dictionaries({"kind": st.just("rms"), "threshold": st.sampled_from([0.01, 0.1, 0.3])}),
    st.fixed_dictionaries({"kind": st.just("constant"), "value": st.integers(0, 1)}),
)

watchdogs = st.one_of(
    st.none(),
    st.builds(WatchdogConfig, max_latency_us=st.integers(1, 5_000)),
    st.builds(
        WatchdogConfig,
        max_latency_us=st.one_of(st.none(), st.integers(1, 5_000)),
        min_throughput_hz=st.sampled_from([10.0, 500.0, 5_000.0]),
        window_us=st.sampled_from([1_000, 10_000]),
    ),
)


@st.composite
def graphs(draw):
    nodes, streams = [], []
    consumers = []  # (stream id, consumer node id) for every data stream

    def connect(producer, port, depth):
        sid = f"s{len(streams)}"
        if depth < 2 and draw(st.booleans()):
            node_id = f"split{len(nodes)}"
            outputs = [f"o{k}" for k in range(draw(st.integers(1, 3)))]
            nodes.append(NodeDef(node_id, "splitter", {"outputs": outputs}))
        else:
            node_id = f"sink{len(nodes)}"
            poll = draw(st.sampled_from([None, 50.0, 400.0, 2_000.0]))
            nodes.append(NodeDef(node_id, "sink", {} if poll is None else {"poll_rate_hz": poll}))
            outputs = []
        streams.append(
            StreamDef(sid, producer, port, node_id, "in", draw(policies), watchdog=draw(watchdogs))
        )
        consumers.append((sid, node_id))
        for out in outputs:
            connect(node_id, out, depth + 1)

    for i in range(draw(st.integers(1, 2))):
        source = f"src{i}"
        nodes.append(NodeDef(source, "source", {
            "count": draw(st.integers(0, 40)),
            "rate_hz": draw(st.sampled_from([300.0, 1_000.0, 4_000.0])),
            "start_us": draw(st.integers(0, 3_000)),
        }))
        connect(source, "out", 0)
    gateable = [sid for sid, _ in consumers]  # not upstream of the attention node

    attention_gates = False
    if draw(st.booleans()):
        amps = draw(st.lists(st.sampled_from([0.0, 0.05, 0.5]), min_size=1, max_size=12))
        nodes += [
            NodeDef("chunks", "chunks", {"amps": amps}),
            NodeDef("agg", "aggregator", {
                "window_samples": draw(st.sampled_from([320, 480, 800])),
                "hop_samples": draw(st.sampled_from([160, 320])),
                "sample_rate_hz": 16_000,
            }),
            NodeDef("att", "attention", {"detector": draw(detectors)}),
        ]
        for sid, producer, port, consumer in (("s_chunks", "chunks", "out", "agg"),
                                              ("s_windows", "agg", "windows", "att")):
            streams.append(StreamDef(sid, producer, port, consumer, "in", draw(policies),
                                     watchdog=draw(watchdogs)))
        attention_gates = draw(st.booleans())
        if not attention_gates:
            connect("att", "bit", 1)

    latches = []
    if attention_gates or draw(st.booleans()):
        gated = draw(st.sampled_from(gateable))
        if attention_gates:
            control = "att"
        else:
            control = "bits"
            # some on the 500 us grid that sources and polls tick on, so ties happen
            tick = st.integers(0, 120).map(lambda k: 500 * k)
            times = draw(st.lists(st.one_of(st.integers(0, 60_000), tick), min_size=1, max_size=6))
            script = [(t, draw(st.integers(0, 1))) for t in times]
            nodes.append(NodeDef("bits", "scripted_bits", {"script": script}))
        streams.append(StreamDef("s_ctl", control, "bit", None, None, draw(policies)))
        initial = draw(st.sampled_from(list(LatchState)))
        latches.append(LatchDef(gated, "s_ctl", initial))

    time_limit = draw(st.one_of(st.none(), st.integers(1_000, 80_000)))
    return GraphDef(tuple(nodes), tuple(streams), tuple(latches)), time_limit


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graphs(), st.integers(0, 2**16))
def test_random_graphs_terminate_conserve_and_replay(wall_clock_guard, case, seed):
    graph, time_limit = case
    policy_of = {sd.id: sd.policy for sd in graph.streams}
    assert validate_graph(graph, kinds()) == []
    stop = StopCondition(time_limit_us=time_limit)

    def run():
        with wall_clock_guard(20.0):
            return graph_run(graph, kinds=kinds(), stop=stop, seed=seed)

    first, second = run(), run()
    assert first.status == "ok"
    assert first.stop_reason in ("exhausted", "time_limit")
    for sid, s in first.streams.items():
        assert s["pushed"] == s["delivered"] + s["dropped"] + s["queued"], sid
        assert s["dropped"] == sum(run["count"] for run in s["drop_runs"]), sid
        assert_runs_ordered_and_disjoint(s["drop_runs"])
        if isinstance(policy_of[sid], LossyPolicy):
            assert s["max_queued"] <= policy_of[sid].capacity, sid
        assert s["max_queued"] >= s["queued"], sid
    for sid, latch in first.latches.items():
        assert latch["suppressed"] == sum(run["count"] for run in latch["suppressed_runs"]), sid
        assert_runs_ordered_and_disjoint(latch["suppressed_runs"])
    assert first.to_json_str() == second.to_json_str()


# what each producer kind of graphs() emits; a splitter passes on its input's payload
PAYLOAD_OF_KIND = {"source": "int", "chunks": "SampleChunk", "aggregator": "AggWindow", "attention": "bit"}


@st.composite
def mistyped_graphs(draw):
    """A graph from ``graphs()`` with one stream into a sink pointed instead
    at a ``typed_sink`` that takes another payload than the stream carries,
    which may come through splitters; returns the graph and the stream's id."""
    graph, _ = draw(graphs())
    kind_of = {nd.id: nd.kind for nd in graph.nodes}
    into = {sd.to_node: sd for sd in graph.streams}
    sd = draw(st.sampled_from([sd for sd in graph.streams if kind_of.get(sd.to_node) == "sink"]))
    source = sd
    while kind_of[source.from_node] == "splitter":
        source = into[source.from_node]
    carried = PAYLOAD_OF_KIND[kind_of[source.from_node]]
    tag = draw(st.sampled_from(sorted(set(PAYLOAD_OF_KIND.values()) - {carried})))
    nodes = [nd for nd in graph.nodes if nd.id != sd.to_node] + [NodeDef("typed", "typed_sink", {"tag": tag})]
    streams = [other._replace(to_node="typed") if other is sd else other for other in graph.streams]
    return GraphDef(tuple(nodes), tuple(streams), graph.latches), sd.id


@settings(max_examples=60, deadline=None)
@given(mistyped_graphs())
def test_a_stream_pointed_at_a_port_of_another_payload_is_the_one_diagnostic(case):
    graph, stream_id = case
    diags = [(d.code, d.location) for d in validate_graph(graph, kinds())]
    assert diags == [("PortTypeMismatch", f"stream {stream_id}")]


class LateClock:
    """A real clock's readings without its sleeps: zeroed at its first
    reading, then every reading and every ``advance_to`` lands an arbitrary
    time later, as wall time does on a loaded host."""

    def __init__(self, jumps_us):
        self._jumps = itertools.cycle(jumps_us)
        self._now = None

    def now_us(self):
        self._now = 0 if self._now is None else self._now + next(self._jumps)
        return self._now

    def advance_to(self, t_us):
        self._now = max(self._now, t_us) + next(self._jumps)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graphs(), st.lists(st.integers(0, 50_000), min_size=1, max_size=8))
def test_random_graphs_report_the_virtual_bytes_under_a_late_clock(wall_clock_guard, case, jumps_us):
    graph, time_limit = case
    stop = StopCondition(time_limit_us=time_limit)
    with wall_clock_guard(20.0):
        virtual = graph_run(graph, kinds=kinds(), stop=stop)
        late = graph_run(graph, kinds=kinds(), clock=LateClock(jumps_us), stop=stop)
    assert late.to_json_str() == virtual.to_json_str()


def record_times(runner):
    """Wrap every stream's ``push`` and ``pop`` and every latch's ``forward``
    on a built runner; returns the list each call appends its ``now_us`` to."""
    times = []

    def recorded(method):
        def call(*args):
            times.append(args[-1])
            return method(*args)
        return call

    for stream in runner.streams.values():
        stream.push, stream.pop = recorded(stream.push), recorded(stream.pop)
    for latch in runner.latches.values():
        latch.forward = recorded(latch.forward)
    return times


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graphs(), st.lists(st.integers(0, 50_000), min_size=1, max_size=8))
def test_streams_and_latches_are_given_a_time_that_never_decreases(wall_clock_guard, case, jumps_us):
    graph, time_limit = case
    stop = StopCondition(time_limit_us=time_limit)
    seen = []
    for clock in (VirtualClock(), LateClock(jumps_us)):
        runner = GraphRunner(graph, kinds(), clock, stop)
        times = record_times(runner)
        with wall_clock_guard(20.0):
            runner.run()
        assert all(a <= b for a, b in zip(times, times[1:])), times
        seen.append(times)
    assert seen[0] == seen[1]


@st.composite
def graphs_with_cycles(draw):
    """A graph from ``graphs()`` plus up to five relays wired at random, so
    they may form cycles and feed sinks, and maybe one more relay spliced
    into a stream of integers in front of its consumer, so a gated, lossy or
    watched stream may carry packets stamped in the past or the future.
    Every node's declaration order is shuffled."""
    graph, _ = draw(graphs())
    kind_of = {nd.id: nd.kind for nd in graph.nodes}
    nodes, streams = list(graph.nodes), list(graph.streams)
    relays = {f"relay{i}": [] for i in range(draw(st.integers(0, 5)))}  # relay -> wired outputs
    free_inputs = [(r, port) for r in relays for port in ("in0", "in1")]
    for r, outputs in relays.items():
        for port in ("o0", "o1"):
            choice = draw(st.integers(0, len(free_inputs) + 1))
            if choice == len(free_inputs):  # unwired
                continue
            sid = f"r{len(streams)}"
            if choice == len(free_inputs) + 1:
                to_node, to_port = f"sink_{sid}", "in"
                nodes.append(NodeDef(to_node, "sink", {}))
            else:
                to_node, to_port = free_inputs.pop(choice)
            outputs.append(port)
            streams.append(StreamDef(sid, r, port, to_node, to_port, draw(policies), watchdog=draw(watchdogs)))
    ints = [i for i, sd in enumerate(streams) if kind_of.get(sd.to_node) in ("sink", "splitter")]
    if ints and draw(st.booleans()):
        i = draw(st.sampled_from(ints))
        spliced = streams[i]
        relays["relay_in"] = ["o0"]
        streams[i] = spliced._replace(from_node="relay_in", from_port="o0")
        streams.append(StreamDef("r_in", spliced.from_node, spliced.from_port, "relay_in", "in0",
                                 draw(policies)))
    fails = draw(st.sampled_from([None, None, None, 2, 5]))
    for r, outputs in relays.items():
        nodes.append(NodeDef(r, "relay", {
            "outputs": outputs,
            "shifts_us": draw(st.lists(st.sampled_from([-3_000, -1, 0, 1, 2_500]), min_size=1, max_size=3)),
            "hops": draw(st.integers(0, 3)),
            "start_us": draw(st.integers(0, 2).map(lambda k: 2_500 * k)),  # so sends tie
            "fail_after": fails if r == "relay0" else None,
        }))
    nodes = draw(st.permutations(nodes))
    return GraphDef(tuple(nodes), tuple(streams), graph.latches)


def relay_graph(*wires):
    """Relays named by the wires' ends, declared in order of first mention;
    each wire is ``(producer, output, consumer, input)``."""
    names = list(dict.fromkeys(name for w in wires for name in (w[0], w[2])))
    return GraphDef(
        tuple(NodeDef(n, "relay", {}) for n in names),
        tuple(StreamDef(f"s{i}", *w, LosslessPolicy(deadline_us=1_000)) for i, w in enumerate(wires)),
    )


# the cycle c <-> x is declared first but is fed by the cycle p <-> q: a
# cycle entered at its first declared node would rank c before p
FED_CYCLE = relay_graph(
    ("c", "o0", "x", "in0"), ("x", "o0", "c", "in0"), ("p", "o0", "c", "in1"),
    ("p", "o1", "q", "in0"), ("q", "o0", "p", "in0"),
)


@settings(max_examples=200, deadline=None)
@given(graphs_with_cycles())
@example(FED_CYCLE)
def test_a_producer_not_downstream_of_its_consumer_ranks_before_it(graph):
    assert validate_graph(graph, kinds()) == []
    ranks = GraphRunner(graph, kinds())._topo
    consumer_of = {sd.id: sd.to_node for sd in graph.streams}
    for ld in graph.latches:  # a control stream feeds the gated stream's consumer
        consumer_of[ld.control_stream_id] = consumer_of[ld.stream_id]
    downstream = {nd.id: set() for nd in graph.nodes}
    for sd in graph.streams:
        downstream[sd.from_node].add(consumer_of[sd.id])

    def reaches(start, goal):
        seen, todo = set(), [start]
        while todo:
            for n in downstream[todo.pop()] - seen:
                if n == goal:
                    return True
                seen.add(n)
                todo.append(n)
        return False

    for sd in graph.streams:
        producer, consumer = sd.from_node, consumer_of[sd.id]
        if producer != consumer and not reaches(consumer, producer):
            assert ranks[producer] < ranks[consumer], (sd.id, ranks)


def assert_runs_ordered_and_disjoint(runs):
    last_seq = last_t_us = None
    for run in runs:
        assert run["last_seq"] - run["first_seq"] + 1 == run["count"] >= 1, run
        assert run["first_t_us"] <= run["last_t_us"], run
        if last_seq is not None:
            assert run["first_seq"] > last_seq + 1 and run["first_t_us"] >= last_t_us, runs
        last_seq, last_t_us = run["last_seq"], run["last_t_us"]
