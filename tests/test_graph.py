"""Graph validation diagnostics and the deterministic executor."""

import collections
import json
import os
import subprocess
import sys
import time
import types

import pytest

import flowbot
from flowbot.flowcore import (
    GraphDef,
    GraphRunner,
    GraphValidationError,
    LatchDef,
    LosslessPolicy,
    LossyPolicy,
    Node,
    NodeDef,
    NodeKindRegistry,
    PortSpec,
    StopCondition,
    StreamDef,
    VirtualClock,
    WatchdogConfig,
    default_kind_registry,
    graph_run,
    validate_graph,
)

LOSSLESS = LosslessPolicy(deadline_us=10**9)


def simple_graph(policy=LOSSLESS, sink_params=None, count=100, rate_hz=1000.0, watchdog=None):
    return GraphDef(
        nodes=(
            NodeDef("src", "source", {"count": count, "rate_hz": rate_hz}),
            NodeDef("snk", "sink", sink_params or {}),
        ),
        streams=(StreamDef("s", "src", "out", "snk", "in", policy, watchdog=watchdog),),
    )


# -- validation --------------------------------------------------------------


def test_valid_graph_has_no_diagnostics():
    assert validate_graph(simple_graph(), default_kind_registry()) == []


def test_unknown_endpoint_node():
    g = GraphDef(
        nodes=(NodeDef("src", "source", {"count": 1}),),
        streams=(StreamDef("s", "src", "out", "xyz", "in", LOSSLESS),),
    )
    diags = validate_graph(g, default_kind_registry())
    assert any(d.code == "UnresolvedEndpoint" and "xyz" in d.reason for d in diags)


def test_two_producers_on_one_stream_id():
    g = GraphDef(
        nodes=(
            NodeDef("a", "source", {"count": 1}),
            NodeDef("b", "source", {"count": 1}),
            NodeDef("snk", "sink", {}),
        ),
        streams=(
            StreamDef("s", "a", "out", "snk", "in", LOSSLESS),
            StreamDef("s", "b", "out", "snk", "in", LOSSLESS),
        ),
    )
    diags = validate_graph(g, default_kind_registry())
    assert any(d.code == "MultipleProducers" for d in diags)


def test_unknown_kind_and_bad_params():
    g = GraphDef(nodes=(NodeDef("x", "warp_drive", {}),))
    assert any(d.code == "UnknownNodeKind" for d in validate_graph(g, default_kind_registry()))
    g = GraphDef(nodes=(NodeDef("x", "source", {"count": 5, "rate_hz": -1}),))
    assert any(d.code == "BadNodeParams" for d in validate_graph(g, default_kind_registry()))


def test_unconnected_required_port():
    g = GraphDef(nodes=(NodeDef("src", "source", {"count": 1}), NodeDef("snk", "sink", {})))
    diags = validate_graph(g, default_kind_registry())
    assert sum(d.code == "UnconnectedPort" for d in diags) == 2


def test_fanout_without_splitter_is_flagged():
    g = GraphDef(
        nodes=(
            NodeDef("src", "source", {"count": 1}),
            NodeDef("a", "sink", {}),
            NodeDef("b", "sink", {}),
        ),
        streams=(
            StreamDef("s1", "src", "out", "a", "in", LOSSLESS),
            StreamDef("s2", "src", "out", "b", "in", LOSSLESS),
        ),
    )
    diags = validate_graph(g, default_kind_registry())
    assert any(d.code == "PortConflict" and "splitter" in d.reason for d in diags)


def test_latch_control_must_carry_bits():
    g = GraphDef(
        nodes=(
            NodeDef("src", "source", {"count": 1}),
            NodeDef("ctl", "source", {"count": 1}),
            NodeDef("snk", "sink", {}),
        ),
        streams=(
            StreamDef("s_data", "src", "out", "snk", "in", LOSSLESS),
            StreamDef("s_ctl", "ctl", "out", None, None, LOSSLESS),
        ),
        latches=(LatchDef("s_data", "s_ctl"),),
    )
    diags = validate_graph(g, default_kind_registry())
    assert any(d.code == "ControlNotBits" for d in diags)


def test_self_loop_on_same_port_is_flagged():
    g = GraphDef(
        nodes=(NodeDef("split", "splitter", {"outputs": ["in"]}),),
        streams=(StreamDef("s", "split", "in", "split", "in", LOSSLESS),),
    )
    diags = validate_graph(g, default_kind_registry())
    assert any(d.code == "SelfLoop" for d in diags)


def test_consumerless_stream_without_latch_is_flagged():
    g = GraphDef(
        nodes=(NodeDef("src", "source", {"count": 1}),),
        streams=(StreamDef("s", "src", "out", None, None, LOSSLESS),),
    )
    diags = validate_graph(g, default_kind_registry())
    assert any(d.code == "UnconnectedStream" for d in diags)


# -- execution ---------------------------------------------------------------


def test_empty_graph_runs_to_zero_counts():
    report = graph_run(GraphDef(), stop=StopCondition(time_limit_us=1_000_000))
    assert report.status == "ok"
    assert report.streams == {} and report.events == []


def test_source_to_sink_conservation():
    report = graph_run(simple_graph())
    s = report.streams["s"]
    assert s == {
        "pushed": 100, "delivered": 100, "dropped": 0, "queued": 0, "max_queued": 1,
        "drop_runs": [], "violations": [],
    }


def test_lossy_slow_sink_drop_scenario():
    # 100 packets at 1 kHz into capacity-1 stream, sink polls at 10 Hz for 1 s:
    # the schedule fixes delivery of the first packet and the last survivor.
    report = graph_run(
        simple_graph(policy=LossyPolicy(capacity=1), sink_params={"poll_rate_hz": 10.0}),
        stop=StopCondition(time_limit_us=1_000_000),
    )
    s = report.streams["s"]
    assert s["pushed"] == 100
    assert s["pushed"] == s["delivered"] + s["dropped"] + s["queued"]
    assert (s["delivered"], s["dropped"], s["queued"]) == (2, 98, 0)


def test_lossy_slow_sink_full_second_source():
    report = graph_run(
        simple_graph(
            policy=LossyPolicy(capacity=1), sink_params={"poll_rate_hz": 10.0}, count=1000
        ),
        stop=StopCondition(time_limit_us=1_000_000),
    )
    s = report.streams["s"]
    assert s["pushed"] == 1000
    assert s["delivered"] == 10
    assert s["pushed"] == s["delivered"] + s["dropped"] + s["queued"]


def test_lossy_memory_bounded_regardless_of_rate():
    report = graph_run(
        simple_graph(policy=LossyPolicy(capacity=3), sink_params={"poll_rate_hz": 1.0}, count=500),
        stop=StopCondition(time_limit_us=2_000_000),
    )
    assert report.streams["s"]["queued"] <= 3


def test_report_stays_small_however_many_packets_drop():
    # 10 000 packets at 1 kHz into a capacity-4 stream polled once a second:
    # each poll ends one run of drops, so ~10k drops make at most 11 records
    report = graph_run(
        simple_graph(policy=LossyPolicy(capacity=4), sink_params={"poll_rate_hz": 1.0}, count=10_000),
        stop=StopCondition(time_limit_us=10_000_000),
    )
    s = report.streams["s"]
    assert s["dropped"] >= 9_900 and s["max_queued"] == 4
    assert 1 <= len(s["drop_runs"]) <= 11
    assert sum(run["count"] for run in s["drop_runs"]) == s["dropped"]
    assert report.nodes == {"snk": {"dispatches": 10}, "src": {"dispatches": 10_000}}
    assert len(report.to_json_str()) < 10_000


def test_run_is_deterministic():
    def once():
        return graph_run(
            simple_graph(policy=LossyPolicy(capacity=2), sink_params={"poll_rate_hz": 50.0}),
            stop=StopCondition(time_limit_us=1_000_000),
            seed=42,
        ).to_json_str()

    assert once() == once()


def test_watchdog_passivity_at_graph_level():
    wd = WatchdogConfig(max_latency_us=1, min_throughput_hz=10_000.0, window_us=1000)
    with_wd = graph_run(simple_graph(watchdog=wd))
    without = graph_run(simple_graph())
    strip = lambda s: {k: v for k, v in s.items() if k not in ("violations", "monitor_errors")}
    assert strip(with_wd.streams["s"]) == strip(without.streams["s"])
    assert with_wd.streams["s"]["violations"]  # the monitor did fire


def test_lossless_deadline_violations_in_graph():
    report = graph_run(
        simple_graph(
            policy=LosslessPolicy(deadline_us=1000),
            sink_params={"poll_rate_hz": 10.0},
            count=10,
        ),
        stop=StopCondition(time_limit_us=2_000_000),
    )
    s = report.streams["s"]
    assert s["dropped"] == 0 and s["delivered"] == 10
    assert s["violations"] and all(v["kind"] == "DeadlineExceeded" for v in s["violations"])


def test_splitter_duplicates_packets():
    g = GraphDef(
        nodes=(
            NodeDef("src", "source", {"count": 7}),
            NodeDef("split", "splitter", {"outputs": ["a", "b"]}),
            NodeDef("sa", "sink", {}),
            NodeDef("sb", "sink", {}),
        ),
        streams=(
            StreamDef("s0", "src", "out", "split", "in", LOSSLESS),
            StreamDef("sa_in", "split", "a", "sa", "in", LOSSLESS),
            StreamDef("sb_in", "split", "b", "sb", "in", LOSSLESS),
        ),
    )
    report = graph_run(g)
    assert report.streams["sa_in"]["delivered"] == 7
    assert report.streams["sb_in"]["delivered"] == 7


class ExplodingNode(Node):
    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.after = int(params.get("after", 3))
        self.seen = 0

    def input_ports(self):
        return {"in": PortSpec()}

    def on_packet(self, port, packet, ctx):
        self.seen += 1
        if self.seen >= self.after:
            raise RuntimeError("node blew up")


def test_node_failure_halts_with_partial_report():
    kinds = default_kind_registry()
    kinds.register("exploder", ExplodingNode)
    g = GraphDef(
        nodes=(NodeDef("src", "source", {"count": 100}), NodeDef("bad", "exploder", {"after": 3})),
        streams=(StreamDef("s", "src", "out", "bad", "in", LOSSLESS),),
    )
    report = graph_run(g, kinds=kinds)
    assert report.status == "failed"
    assert report.failed_node == "bad"
    assert report.stop_reason == "node_failure"
    assert any(e["kind"] == "node_error" for e in report.events)
    assert report.streams["s"]["delivered"] == 3  # partial counters survive


def test_validation_error_raised_before_run():
    g = GraphDef(
        nodes=(NodeDef("src", "source", {"count": 1}),),
        streams=(StreamDef("s", "src", "out", "nope", "in", LOSSLESS),),
    )
    with pytest.raises(GraphValidationError):
        graph_run(g)


def test_runner_builds_each_node_once_and_runs_the_nodes_it_validated():
    base = default_kind_registry()
    built = collections.defaultdict(list)
    kinds = NodeKindRegistry()
    for kind in ("source", "splitter", "sink"):
        def factory(node_id, params, env, kind=kind):
            node = base.create(kind, node_id, params, env)
            built[node_id].append(node)
            return node

        kinds.register(kind, factory)
    g = GraphDef(
        nodes=(
            NodeDef("src", "source", {"count": 5}),
            NodeDef("split", "splitter", {"outputs": ["a", "b"]}),
            NodeDef("snk_a", "sink", {}),
            NodeDef("snk_b", "sink", {}),
        ),
        streams=(
            StreamDef("s_in", "src", "out", "split", "in", LOSSLESS),
            StreamDef("s_a", "split", "a", "snk_a", "in", LOSSLESS),
            StreamDef("s_b", "split", "b", "snk_b", "in", LOSSLESS),
        ),
    )
    runner = GraphRunner(g, kinds=kinds)
    report = runner.run()
    assert {node_id: len(nodes) for node_id, nodes in built.items()} == {
        "src": 1, "split": 1, "snk_a": 1, "snk_b": 1,
    }
    assert all(runner.nodes[node_id] is nodes[0] for node_id, nodes in built.items())
    assert report.streams["s_a"]["delivered"] == report.streams["s_b"]["delivered"] == 5


def test_packet_budget_stop():
    report = graph_run(simple_graph(count=1000), stop=StopCondition(max_packets=50))
    assert report.stop_reason == "packet_budget"
    assert report.streams["s"]["pushed"] == 50


def test_time_limit_is_exclusive():
    # 10 packets at 1 kHz: emissions at 0..9 ms; a 5 ms limit cuts at t=5ms
    report = graph_run(
        simple_graph(count=10), stop=StopCondition(time_limit_us=5_000)
    )
    assert report.stop_reason == "time_limit"
    assert report.streams["s"]["pushed"] == 5  # t = 0..4 ms only
    assert report.end_time_us == 5_000


def test_emit_or_poll_on_an_unwired_port_raises_key_error_naming_node_and_port():
    runner = GraphRunner(simple_graph())
    with pytest.raises(KeyError, match="node 'src' has no stream on output port 'nowhere'"):
        runner.emit("src", "nowhere", 0)
    with pytest.raises(KeyError, match="node 'snk' has no stream on input port 'nowhere'"):
        runner.poll_input("snk", "nowhere")


class Ping(Node):
    """Logs its timer at 0, where it emits one packet, and each packet it gets."""

    def input_ports(self):
        return {"in": PortSpec("any")}

    def output_ports(self):
        return {"out": PortSpec("any")}

    def start(self, ctx):
        ctx.schedule_at(0)

    def on_timer(self, tag, ctx):
        ctx.log("timer")
        ctx.emit("out", 0)

    def on_packet(self, port, packet, ctx):
        ctx.log("packet")


def test_a_two_node_cycle_runs_with_ranks_in_declaration_order():
    # b is declared first, so it ranks before a: its timer runs first, and it
    # gets a's packet before a gets b's, which was sent earlier
    kinds = default_kind_registry()
    kinds.register("ping", lambda node_id, params, env: Ping(node_id))
    g = GraphDef(
        nodes=(NodeDef("b", "ping", {}), NodeDef("a", "ping", {})),
        streams=(
            StreamDef("s_ab", "a", "out", "b", "in", LOSSLESS),
            StreamDef("s_ba", "b", "out", "a", "in", LOSSLESS),
        ),
    )
    assert validate_graph(g, kinds) == []
    report = graph_run(g, kinds=kinds)
    assert report.status == "ok"
    assert [(e["node"], e["kind"]) for e in report.events] == [
        ("b", "timer"), ("a", "timer"), ("b", "packet"), ("a", "packet"),
    ]


def test_a_cycle_is_entered_at_a_node_on_it_not_at_a_consumer_declared_first():
    # snk is declared first but is fed by the cycle a <-> b, so it ranks last
    g = GraphDef(
        nodes=(
            NodeDef("snk", "sink", {}),
            NodeDef("a", "splitter", {"outputs": ["o0"]}),
            NodeDef("b", "splitter", {"outputs": ["o0", "o1"]}),
        ),
        streams=(
            StreamDef("s_ab", "a", "o0", "b", "in", LOSSLESS),
            StreamDef("s_ba", "b", "o0", "a", "in", LOSSLESS),
            StreamDef("s_out", "b", "o1", "snk", "in", LOSSLESS),
        ),
    )
    assert validate_graph(g, default_kind_registry()) == []
    assert GraphRunner(g)._topo == {"a": 0, "b": 1, "snk": 2}


class BrokenStart(Node):
    def start(self, ctx):
        raise RuntimeError("start failed")


class TimerBomb(Node):
    """Ticks every millisecond from 0 and raises on its ``k``-th tick."""

    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.k = params["k"]
        self.ticks = 0

    def start(self, ctx):
        ctx.schedule_at(0)

    def on_timer(self, tag, ctx):
        self.ticks += 1
        if self.ticks == self.k:
            raise RuntimeError("tick failed")
        ctx.schedule_at(ctx.now_us() + 1_000)


class EmitThenRaise(Node):
    def input_ports(self):
        return {"in": PortSpec()}

    def output_ports(self):
        return {"out": PortSpec()}

    def on_packet(self, port, packet, ctx):
        ctx.emit("out", packet.payload)
        raise RuntimeError("failed after emitting")


class FinishBomb(Node):
    """Appends its id to ``env["finished"]`` when finished and, with
    ``raise``, then raises."""

    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.raises = params.get("raise", False)
        self.finished = env["finished"]

    def input_ports(self):
        return {"in": PortSpec(optional=True)}

    def finish(self, ctx):
        self.finished.append(self.id)
        if self.raises:
            raise RuntimeError("finish failed")


def stop_path_kinds():
    kinds = default_kind_registry()
    kinds.register("finish_bomb", FinishBomb)
    kinds.register("broken_start", lambda node_id, params, env: BrokenStart(node_id))
    kinds.register("timer_bomb", TimerBomb)
    kinds.register("exploder", ExplodingNode)
    kinds.register("emit_then_raise", lambda node_id, params, env: EmitThenRaise(node_id))
    return kinds


def dispatches(report):
    return {node_id: node["dispatches"] for node_id, node in report.nodes.items()}


def test_failure_in_start_dispatches_nothing():
    # the source's first timer is already on the heap when "bad" starts
    g = GraphDef(
        nodes=(NodeDef("src", "source", {"count": 10}), NodeDef("snk", "sink", {}),
               NodeDef("bad", "broken_start", {})),
        streams=(StreamDef("s", "src", "out", "snk", "in", LOSSLESS),),
    )
    report = graph_run(g, kinds=stop_path_kinds())
    assert (report.status, report.stop_reason, report.failed_node) == ("failed", "node_failure", "bad")
    assert dispatches(report) == {"bad": 0, "snk": 0, "src": 0}
    assert report.streams["s"]["pushed"] == 0 and report.end_time_us == 0


def test_failure_in_the_kth_on_packet_is_the_last_dispatch():
    # at 2 ms the splitter feeds "bad" (rank 2) before "good" (rank 3); "bad"
    # fails on its 3rd packet, so "good" never gets its 3rd
    g = GraphDef(
        nodes=(
            NodeDef("src", "source", {"count": 10}),
            NodeDef("split", "splitter", {"outputs": ["a", "b"]}),
            NodeDef("bad", "exploder", {"after": 3}),
            NodeDef("good", "sink", {}),
        ),
        streams=(
            StreamDef("s_in", "src", "out", "split", "in", LOSSLESS),
            StreamDef("s_a", "split", "a", "bad", "in", LOSSLESS),
            StreamDef("s_b", "split", "b", "good", "in", LOSSLESS),
        ),
    )
    report = graph_run(g, kinds=stop_path_kinds())
    assert (report.stop_reason, report.failed_node, report.end_time_us) == ("node_failure", "bad", 2_000)
    assert dispatches(report) == {"bad": 3, "good": 2, "split": 3, "src": 3}
    assert report.streams["s_b"]["queued"] == 1


def test_failure_in_the_kth_on_timer_is_the_last_dispatch():
    # at 2 ms the bomb (rank 0) ticks before the source (rank 1)
    g = GraphDef(
        nodes=(NodeDef("bomb", "timer_bomb", {"k": 3}), NodeDef("src", "source", {"count": 10}),
               NodeDef("snk", "sink", {})),
        streams=(StreamDef("s", "src", "out", "snk", "in", LOSSLESS),),
    )
    report = graph_run(g, kinds=stop_path_kinds())
    assert (report.stop_reason, report.failed_node, report.end_time_us) == ("node_failure", "bomb", 2_000)
    assert dispatches(report) == {"bomb": 3, "snk": 2, "src": 2}


def test_packet_budget_stops_after_the_event_that_reached_it():
    # 4 packets are pushed by the source's 2nd timer; the splitter's 2nd
    # packet pushes the 5th and 6th, and nothing runs after it
    g = GraphDef(
        nodes=(
            NodeDef("src", "source", {"count": 10}),
            NodeDef("split", "splitter", {"outputs": ["a", "b"]}),
            NodeDef("snk_a", "sink", {}),
            NodeDef("snk_b", "sink", {}),
        ),
        streams=(
            StreamDef("s_in", "src", "out", "split", "in", LOSSLESS),
            StreamDef("s_a", "split", "a", "snk_a", "in", LOSSLESS),
            StreamDef("s_b", "split", "b", "snk_b", "in", LOSSLESS),
        ),
    )
    report = graph_run(g, stop=StopCondition(max_packets=5))
    assert (report.status, report.stop_reason, report.end_time_us) == ("ok", "packet_budget", 1_000)
    assert dispatches(report) == {"snk_a": 1, "snk_b": 1, "split": 2, "src": 2}
    assert [report.streams[s]["pushed"] for s in ("s_in", "s_a", "s_b")] == [2, 2, 2]


def test_a_failure_that_reaches_the_packet_budget_stops_as_a_failure():
    g = GraphDef(
        nodes=(NodeDef("src", "source", {"count": 10}), NodeDef("relay", "emit_then_raise", {}),
               NodeDef("snk", "sink", {})),
        streams=(StreamDef("s_in", "src", "out", "relay", "in", LOSSLESS),
                 StreamDef("s_out", "relay", "out", "snk", "in", LOSSLESS)),
    )
    report = graph_run(g, kinds=stop_path_kinds(), stop=StopCondition(max_packets=2))
    assert (report.status, report.stop_reason, report.failed_node) == ("failed", "node_failure", "relay")
    assert dispatches(report) == {"relay": 1, "snk": 0, "src": 1}


def test_failure_in_finish_fails_the_run_and_ends_the_finish_calls():
    # pops at 0..9 ms: every 2 ms window holds 2 pops, below 1.5 kHz, and
    # only finalizing the stream at the 10 ms limit checks the last one
    def run(raises):
        g = GraphDef(
            nodes=(NodeDef("src", "source", {"count": 20}), NodeDef("first", "finish_bomb", {}),
                   NodeDef("bomb", "finish_bomb", {"raise": raises}),
                   NodeDef("last", "finish_bomb", {})),
            streams=(StreamDef("s", "src", "out", "bomb", "in", LOSSLESS,
                               watchdog=WatchdogConfig(min_throughput_hz=1500.0, window_us=2_000)),),
        )
        finished = []
        report = graph_run(g, kinds=stop_path_kinds(), env={"finished": finished},
                           stop=StopCondition(time_limit_us=10_000))
        return report, finished

    report, finished = run(raises=True)
    assert (report.status, report.stop_reason, report.failed_node) == ("failed", "node_failure", "bomb")
    assert finished == ["first", "bomb"]
    assert [(e["kind"], e["node"], e["error"]) for e in report.events] == [
        ("node_error", "bomb", "RuntimeError: finish failed"),
    ]
    ok, ok_finished = run(raises=False)
    assert (ok.status, ok.stop_reason, ok_finished) == ("ok", "time_limit", ["first", "bomb", "last"])
    assert report.end_time_us == ok.end_time_us == 10_000
    assert [v["at_us"] for v in report.streams["s"]["violations"]] == [2_000, 4_000, 6_000, 8_000, 10_000]
    assert report.streams == ok.streams and report.nodes == ok.nodes


class BitScriptNode(Node):
    """Emits scripted (t_us, bit) pairs on a bit-typed output."""

    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.script = sorted(params.get("script", []))
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


def test_latched_stream_with_lagging_consumer_respects_timestamps():
    # data at 0..4 ms, gate opens at 2 ms, consumer polls slowly afterwards:
    # a control must never apply to data that predates it, however late the
    # consumer drains the queue
    kinds = default_kind_registry()
    kinds.register("bit_script", BitScriptNode)
    g = GraphDef(
        nodes=(
            NodeDef("src", "source", {"count": 5, "rate_hz": 1000.0}),
            NodeDef("ctl", "bit_script", {"script": [(2_000, 1)]}),
            NodeDef("snk", "sink", {"poll_rate_hz": 100.0}),
        ),
        streams=(
            StreamDef("s_data", "src", "out", "snk", "in", LOSSLESS),
            StreamDef("s_ctl", "ctl", "bit", None, None, LOSSLESS),
        ),
        latches=(LatchDef("s_data", "s_ctl"),),
    )
    report = graph_run(g, kinds=kinds, stop=StopCondition(time_limit_us=200_000))
    latch = report.latches["s_data"]
    # data at 0 and 1 ms precede the open bit; 2, 3, 4 ms pass (tie inclusive)
    assert latch["suppressed"] == 2
    assert latch["forwarded"] == 3
    assert latch["transitions"] == [{"t_us": 2_000, "state": "open"}]


class EveryNthBit(Node):
    """Emits an alternating bit, stamped with the packet's time, on every ``n``-th packet."""

    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.n = params["n"]
        self._seen = 0

    def input_ports(self):
        return {"in": PortSpec("any")}

    def output_ports(self):
        return {"bit": PortSpec("bit")}

    def on_packet(self, port, packet, ctx):
        self._seen += 1
        if self._seen % self.n == 0:
            ctx.emit("bit", self._seen // self.n % 2, timestamp_us=packet.timestamp_us)


class Metronome(Node):
    """Sets all ``count`` timers, ``period_us`` apart from ``start_us``, when it
    starts. It emits each tick stamped with its scheduled time or, when
    poll-driven, pulls one packet per tick."""

    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.count, self.start_us, self.period_us = params["count"], params["start_us"], params["period_us"]
        self.poll_driven = params.get("poll", False)

    def input_ports(self):
        return {"in": PortSpec("any")} if self.poll_driven else {}

    def output_ports(self):
        return {} if self.poll_driven else {"out": PortSpec("any")}

    def start(self, ctx):
        for k in range(self.count):
            ctx.schedule_at(self.start_us + k * self.period_us, k)

    def on_timer(self, k, ctx):
        if self.poll_driven:
            ctx.poll("in")
        else:
            ctx.emit("out", k, timestamp_us=self.start_us + k * self.period_us)


class Sleeper(Node):
    """Sleeps ``sleep_s`` of wall time on every packet, so a real-clock run
    wakes late for the events after it."""

    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.sleep_s = params["sleep_s"]

    def input_ports(self):
        return {"in": PortSpec("any")}

    def on_packet(self, port, packet, ctx):
        time.sleep(self.sleep_s)


def test_real_clock_mode_matches_virtual_counters(wall_clock_guard):
    # soak-style check: the same graph paced by the monotonic clock reports
    # the same bytes as the virtual run, however late its wake-ups
    from flowbot.flowcore import MonotonicClock

    kinds = default_kind_registry()
    kinds.register("nth_bit", EveryNthBit)
    kinds.register("metronome", Metronome)
    kinds.register("sleeper", Sleeper)
    # a source from 0 into a lossy stream polled from 0
    from_zero = simple_graph(
        policy=LossyPolicy(capacity=2), sink_params={"poll_rate_hz": 2_000.0}, count=30, rate_hz=10_000.0,
    )
    # a 200 Hz source from 2.5 ms into a capacity-2 lossy stream polled at
    # 50 Hz, beside a consumer whose 4 ms sleeps make the next wake-up late
    late_polls = GraphDef(
        nodes=(
            NodeDef("src", "source", {"count": 40, "rate_hz": 200.0, "start_us": 2_500}),
            NodeDef("split", "splitter", {"outputs": ["lossy", "busy"]}),
            NodeDef("slow", "sink", {"poll_rate_hz": 50.0}),
            NodeDef("busy", "sleeper", {"sleep_s": 0.004}),
        ),
        streams=(
            StreamDef("s_in", "src", "out", "split", "in", LOSSLESS),
            StreamDef("s_lossy", "split", "lossy", "slow", "in", LossyPolicy(capacity=2)),
            StreamDef("s_busy", "split", "busy", "busy", "in", LOSSLESS),
        ),
    )
    # a lossy polled stream and a latch, every timer set when its node starts
    latched = GraphDef(
        nodes=(
            NodeDef("src", "metronome", {"count": 40, "start_us": 52_500, "period_us": 5_000}),
            NodeDef("split", "splitter", {"outputs": ["lossy", "ctl", "gated"]}),
            NodeDef("slow", "metronome", {"count": 15, "start_us": 50_000, "period_us": 20_000, "poll": True}),
            NodeDef("tog", "nth_bit", {"n": 5}),
            NodeDef("gated", "sink", {}),
        ),
        streams=(
            StreamDef("s_in", "src", "out", "split", "in", LOSSLESS),
            StreamDef("s_lossy", "split", "lossy", "slow", "in", LossyPolicy(capacity=2)),
            StreamDef("s_ctl_in", "split", "ctl", "tog", "in", LOSSLESS),
            StreamDef("s_bits", "tog", "bit", None, None, LOSSLESS),
            StreamDef("s_gated", "split", "gated", "gated", "in", LOSSLESS),
        ),
        latches=(LatchDef("s_gated", "s_bits"),),
    )
    for g in (from_zero, late_polls, latched):
        virtual = graph_run(g, kinds=kinds, clock=VirtualClock())
        assert virtual.status == "ok" and any(s["dropped"] for s in virtual.streams.values())
        assert all(latch["suppressed"] for latch in virtual.latches.values())
        with wall_clock_guard(5.0):  # paced over at most 0.3 s; a hang fails
            real = graph_run(g, kinds=kinds, clock=MonotonicClock())
        assert real.to_json_str() == virtual.to_json_str()


class EmitTwice(Node):
    """Emits two packets, 2 ms of wall time apart, from one timer."""

    def output_ports(self):
        return {"out": PortSpec()}

    def start(self, ctx):
        ctx.schedule_at(0)

    def on_timer(self, tag, ctx):
        ctx.collector.channel("now").append(ctx.now_us())
        ctx.emit("out", 0)
        time.sleep(0.002)
        ctx.emit("out", 1)


class TimestampRecorder(Node):
    def input_ports(self):
        return {"in": PortSpec()}

    def on_packet(self, port, packet, ctx):
        ctx.collector.channel("timestamps").append(packet.timestamp_us)


def test_real_clock_handler_sees_the_time_of_its_dispatch(wall_clock_guard):
    from flowbot.flowcore import MonotonicClock

    kinds = default_kind_registry()
    kinds.register("emit_twice", lambda node_id, params, env: EmitTwice(node_id))
    kinds.register("recorder", lambda node_id, params, env: TimestampRecorder(node_id))
    g = GraphDef(
        nodes=(NodeDef("twice", "emit_twice", {}), NodeDef("rec", "recorder", {})),
        streams=(StreamDef("s", "twice", "out", "rec", "in", LOSSLESS),),
    )
    started = time.perf_counter()
    with wall_clock_guard(2.0):
        report = graph_run(g, kinds=kinds, clock=MonotonicClock())
    assert time.perf_counter() - started < 0.2
    # a fresh monotonic clock starts the run at 0, and the handler's time
    # does not move while it sleeps
    assert report.extras == {"now": [0], "timestamps": [0, 0]}


def test_a_fresh_monotonic_clock_reads_0_first_however_slow_the_source(monkeypatch):
    from flowbot.flowcore import MonotonicClock, clock as clock_module

    ticks = iter(range(1_000_000, 10**9, 5_000))  # 5 us pass between any two readings
    monkeypatch.setattr(clock_module, "time", types.SimpleNamespace(monotonic_ns=lambda: next(ticks)))
    clock = MonotonicClock()
    assert [clock.now_us(), clock.now_us(), clock.now_us()] == [0, 5, 10]


def test_kind_registry_refuses_a_kind_twice():
    kinds = default_kind_registry()
    with pytest.raises(ValueError, match="node kind already registered: sink"):
        kinds.register("sink", Node)


class PastTimer(Node):
    """At 5 ms asks for a timer at 1 ms, and records when each timer fires."""

    def start(self, ctx):
        ctx.schedule_at(5_000, tag="first")

    def on_timer(self, tag, ctx):
        ctx.collector.channel("fired").append((tag, ctx.now_us()))
        if tag == "first":
            ctx.schedule_at(1_000, tag="late")


class Deaf(Node):
    """Takes packets on ``in`` and keeps the base node's ``on_packet``."""

    def input_ports(self):
        return {"in": PortSpec()}


def test_a_timer_asked_for_in_the_past_fires_now_and_a_base_node_ignores_packets():
    kinds = default_kind_registry()
    kinds.register("past_timer", lambda node_id, params, env: PastTimer(node_id))
    kinds.register("deaf", lambda node_id, params, env: Deaf(node_id))
    g = GraphDef(
        nodes=(NodeDef("t", "past_timer", {}), NodeDef("src", "source", {"count": 2}), NodeDef("d", "deaf", {})),
        streams=(StreamDef("s", "src", "out", "d", "in", LOSSLESS),),
    )
    report = graph_run(g, kinds=kinds)
    assert report.status == "ok"
    assert report.extras == {"fired": [("first", 5_000), ("late", 5_000)]}
    assert report.streams["s"]["delivered"] == 2


def test_virtual_clock_refuses_to_move_backwards():
    clock = VirtualClock()
    clock.advance_to(10)
    clock.advance_to(10)
    with pytest.raises(ValueError, match="backwards: 9 < 10"):
        clock.advance_to(9)
    assert clock.now_us() == 10


def test_fifo_per_stream_in_run_events():
    clock = VirtualClock()
    report = graph_run(
        simple_graph(policy=LossyPolicy(capacity=4), sink_params={"poll_rate_hz": 100.0}),
        clock=clock,
        stop=StopCondition(time_limit_us=1_000_000),
    )
    s = report.streams["s"]
    dropped_seqs = [
        seq for run in s["drop_runs"] for seq in range(run["first_seq"], run["last_seq"] + 1)
    ]
    assert len(dropped_seqs) == s["dropped"] > 0
    assert dropped_seqs == sorted(set(dropped_seqs))


def test_poll_driven_sink_without_time_limit_terminates(wall_clock_guard):
    # 50 packets over 49 ms into a 100 Hz polling sink: the sink reschedules
    # itself forever, so the run must end once its input has drained
    graph = simple_graph(policy=LossyPolicy(capacity=4), sink_params={"poll_rate_hz": 100.0}, count=50)
    with wall_clock_guard(10.0):
        report = graph_run(graph)
    s = report.streams["s"]
    assert (report.status, report.stop_reason) == ("ok", "exhausted")
    assert s["queued"] == 0 and s["pushed"] == s["delivered"] + s["dropped"] == 50
    # the last packet arrives at 49 ms; polls at 50..80 ms drain the 4 queued
    assert report.end_time_us == 80_000


@pytest.mark.parametrize("time_limit_s", [100, 1e5])
def test_flowbot_run_stops_a_drained_polling_sink_long_before_the_time_limit(tmp_path, time_limit_s):
    # 10 packets at 1 kHz into a 1 kHz polling sink: the sink takes the last
    # at 9 ms and is idle from then on, so the run ends there, not after
    # 1e3 * time_limit_s polls
    graph = {
        "nodes": [{"id": "src", "kind": "source", "params": {"count": 10, "rate_hz": 1000.0}},
                  {"id": "snk", "kind": "sink", "params": {"poll_rate_hz": 1000.0}}],
        "streams": [{"id": "s", "from_node": "src", "from_port": "out", "to_node": "snk",
                     "to_port": "in", "policy": {"kind": "lossless", "deadline_us": 1000}}],
        "latches": [],
    }
    scenario = {"audio": {"synthetic": {"kind": "silence", "duration_s": 0.1, "sample_rate_hz": 16000}},
                "time_limit_s": time_limit_s}
    (tmp_path / "graph.json").write_text(json.dumps(graph))
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    src = os.path.dirname(os.path.dirname(os.path.abspath(flowbot.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "flowbot.harness.cli", "run", "--graph", str(tmp_path / "graph.json"),
         "--scenario", str(tmp_path / "scenario.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["stop_reason"], report["end_time_us"]) == ("exhausted", 9_000)
    assert report["nodes"]["snk"] == {"dispatches": 10}
    assert report["streams"]["s"]["delivered"] == 10


def test_drop_and_suppression_runs_of_a_lossy_gated_stream():
    # 10 packets at 0..9 ms into a capacity-2 stream polled every 5 ms behind
    # a gate that never opens: evictions come in runs of 3 between polls,
    # and an eviction between two polled packets splits their suppression run
    kinds = default_kind_registry()
    kinds.register("bit_script", BitScriptNode)
    g = GraphDef(
        nodes=(
            NodeDef("src", "source", {"count": 10, "rate_hz": 1000.0}),
            NodeDef("ctl", "bit_script", {"script": []}),
            NodeDef("snk", "sink", {"poll_rate_hz": 200.0}),
        ),
        streams=(
            StreamDef("s_data", "src", "out", "snk", "in", LossyPolicy(capacity=2)),
            StreamDef("s_ctl", "ctl", "bit", None, None, LOSSLESS),
        ),
        latches=(LatchDef("s_data", "s_ctl"),),
    )
    report = graph_run(g, kinds=kinds, stop=StopCondition(time_limit_us=20_000))
    keys = ("first_seq", "last_seq", "first_t_us", "last_t_us", "count")
    s = report.streams["s_data"]
    assert [tuple(run[k] for k in keys) for run in s["drop_runs"]] == [
        (1, 3, 3_000, 5_000, 3), (5, 7, 7_000, 9_000, 3),
    ]
    assert (s["dropped"], s["max_queued"]) == (6, 2)
    latch = report.latches["s_data"]
    assert [tuple(run[k] for k in keys) for run in latch["suppressed_runs"]] == [
        (0, 0, 0, 0, 1), (4, 4, 5_000, 5_000, 1), (8, 9, 10_000, 15_000, 2),
    ]
    assert latch["suppressed"] == 4 and latch["forwarded"] == 0
    assert report.nodes == {
        "ctl": {"dispatches": 0}, "snk": {"dispatches": 4}, "src": {"dispatches": 10},
    }
    assert report.events == []  # no per-packet entries


def test_poll_driven_latched_sink_without_time_limit_drains_controls(wall_clock_guard):
    # same graph as the lagging-consumer test, without its time limit: the run
    # ends once data and controls have drained, with the same latch outcome
    kinds = default_kind_registry()
    kinds.register("bit_script", BitScriptNode)
    g = GraphDef(
        nodes=(
            NodeDef("src", "source", {"count": 5, "rate_hz": 1000.0}),
            NodeDef("ctl", "bit_script", {"script": [(2_000, 1), (60_000, 0)]}),
            NodeDef("snk", "sink", {"poll_rate_hz": 100.0}),
        ),
        streams=(
            StreamDef("s_data", "src", "out", "snk", "in", LOSSLESS),
            StreamDef("s_ctl", "ctl", "bit", None, None, LOSSLESS),
        ),
        latches=(LatchDef("s_data", "s_ctl"),),
    )
    with wall_clock_guard(10.0):
        report = graph_run(g, kinds=kinds)
    assert report.stop_reason == "exhausted"
    assert report.streams["s_ctl"]["queued"] == 0 and report.streams["s_data"]["queued"] == 0
    latch = report.latches["s_data"]
    assert (latch["suppressed"], latch["forwarded"]) == (2, 3)
    assert latch["transitions"] == [{"t_us": 2_000, "state": "open"}, {"t_us": 60_000, "state": "closed"}]


def test_wrappers_installed_on_a_built_runner_see_every_call():
    # tracers replace bound methods after the runner is built; the executor
    # must reach them through the instance attributes, never a cached copy
    kinds = default_kind_registry()
    kinds.register("bit_script", BitScriptNode)
    g = GraphDef(
        nodes=(
            NodeDef("src", "source", {"count": 40, "rate_hz": 1000.0}),
            NodeDef("split", "splitter", {"outputs": ["a", "b"]}),
            NodeDef("ctl", "bit_script", {"script": [(5_000, 1), (20_000, 0)]}),
            NodeDef("gated", "sink", {}),
            NodeDef("slow", "sink", {"poll_rate_hz": 200.0}),
        ),
        streams=(
            StreamDef("s_in", "src", "out", "split", "in", LOSSLESS),
            StreamDef("s_a", "split", "a", "gated", "in", LOSSLESS),
            StreamDef("s_b", "split", "b", "slow", "in", LossyPolicy(capacity=2)),
            StreamDef("s_ctl", "ctl", "bit", None, None, LOSSLESS),
        ),
        latches=(LatchDef("s_a", "s_ctl"),),
    )
    runner = GraphRunner(g, kinds=kinds, stop=StopCondition(time_limit_us=100_000))
    calls = collections.Counter()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    runner.emit = spy("emit", runner.emit)
    for sid, stream in runner.streams.items():
        stream.push = spy(f"push:{sid}", stream.push)
        stream.pop = spy(f"pop:{sid}", stream.pop)
    for node_id, node in runner.nodes.items():
        node.on_packet = spy(f"on_packet:{node_id}", node.on_packet)
        node.on_timer = spy(f"on_timer:{node_id}", node.on_timer)
    report = runner.run()

    streams = report.streams
    assert calls["emit"] == sum(s["pushed"] for s in streams.values())
    for sid, s in streams.items():
        assert calls[f"push:{sid}"] == s["pushed"] > 0
        assert calls[f"pop:{sid}"] >= s["delivered"] > 0
    assert calls["on_timer:src"] == 40 and calls["on_timer:ctl"] == 2
    assert calls["on_timer:slow"] == runner.nodes["slow"]._polls > 0
    assert calls["on_packet:split"] == streams["s_in"]["delivered"]
    assert calls["on_packet:gated"] == report.latches["s_a"]["forwarded"] > 0
