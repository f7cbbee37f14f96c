"""Byte-identity corpus for the executor: seeded random graphs, pinned reports.

Each case is a graph drawn from a seeded numpy generator, from the
vocabulary of ``test_graph_properties`` (whose scripted bit node it uses):
sources, splitters, push-driven and polled sinks, lossy and lossless
streams, watchdogs and a latch driven by scripted bits, plus a sink that
raises on its k-th packet, time limits and packet budgets. The SHA-256 of every report's canonical JSON is pinned,
so a change to the executor that is meant to be a pure speed-up must leave
each digest as it is. A second test checks that the corpus reaches every
stop reason and every kind of record the digests would guard.
"""

import hashlib

import numpy as np
import pytest

from flowbot.flowcore import (
    GraphDef,
    LatchDef,
    LatchState,
    LosslessPolicy,
    LossyPolicy,
    Node,
    NodeDef,
    PortSpec,
    StopCondition,
    StreamDef,
    WatchdogConfig,
    default_kind_registry,
    graph_run,
)
from test_graph_properties import ScriptedBits

# taken from the executor before its per-event checks were reworked
DIGESTS = (
    "02db77e8cbbb709bde582d81d9d513e4b45aba4c2e3ddf9713eec129fa073ecd",
    "de80631ec61643ab492e2c58069ee72217b6346a0e0e3884c60ddbc328d7da16",
    "457244318074773fc652029e4802a69603d6366a986f4b72b939bedbc00e014b",
    "820c3f4423fcf5a1227f4796e3d16fcae1630b193b092cbc30a1478a8f6e4477",
    "59ae8d68f3758d7f7f6744e7ec4d76c3a100deb1c78e36050c0db8b7d14be0e2",
    "0c93b01435ee183b3a0ddfae589e5c77c9b8af03e15370eed1481f10a5c0ae4e",
    "f691de3e051757b2930d6e56d73d44f8c13d4d1c20a090b51513270c586434ff",
    "e46977c4be42473fbccdbf7374fda97e1acba6fdeb71864c699da76b9432eda0",
    "205edb5012523b40a2f088198fd41479855723707fb86a2256f09b85218f5e33",
    "d73d876d3edbea8c2897c338be506a3656ca5056aa1f482f9b55683fc92f741c",
    "51abda3190dd74bb41775f411f95c8608ab0ba5605402bab2329006172759e5a",
    "e1140da56bf6453d67bff63400b4745eb395800649ab008aee496f1a2a3a10ce",
    "47ad72ffdee1ac988cbb5e1436c795a5e59fff0d4781e5f4d3f40b05868e3815",
    "6448868c45773ea57af6a88da4830c1cced5ab71fab26c5dadf248e2fb63ef38",
    "17485331b45c64d882922ec0edc134bfdcac49a51c6e39cfd2c6b755c411e2c7",
    "5ee5fe5be835d9ddbab6a112eabcc5cbd5acf406da8b49188e1f4c3f7c576fe7",
    "80feaacf42bd8ddca21c4fd1e10ded294106e0011adaa0634a0b78cadfe451e4",
    "5e32a988acc3b4eecea5ec7f6ecc4acd8cca7459a6f99334a18ac664dde77d04",
    "aae6071612c6c73bbe44e00799e9921645ddbcc0eb7f1137b23cd424a3c0061e",
    "99ac1ef534ed126ce50207225df3209ff8ffbe3164fb18623bc42f8cfbaca5e7",
    "74e86beedc54a755657bdb817ee6d6317f181f296a54115092998f4173f9f9d4",
    "ff68d378172fb0d7855e55721474dd9cbb44c3f5c9bb6db226fd0b7d618bac17",
    "56a6fab21d1fac0ae84aa3d0c6e4541b2649104562463c59ff9c81b28cb84b13",
    "7db8ce2be4584f51fa7cf5af23b5a381221f091f01fbb4ce423f4c2f77260110",
)


class FragileSink(Node):
    """A push-driven sink that raises on its ``k``-th packet."""

    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.k = params["k"]
        self._seen = 0

    def input_ports(self):
        return {"in": PortSpec("any")}

    def on_packet(self, port, packet, ctx):
        self._seen += 1
        if self._seen == self.k:
            raise RuntimeError(f"packet {self.k} broke the sink")


def kinds():
    registry = default_kind_registry()
    registry.register("scripted_bits", ScriptedBits)
    registry.register("fragile", FragileSink)
    return registry


def corpus_case(index: int) -> tuple[GraphDef, StopCondition]:
    """The ``index``-th graph of the corpus and its stop condition."""
    rng = np.random.default_rng(index)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def policy():
        if rng.random() < 0.5:
            misses = None if rng.random() < 0.5 else int(rng.integers(0, 4))
            return LossyPolicy(capacity=int(rng.integers(1, 5)), max_successive_misses=misses)
        return LosslessPolicy(deadline_us=int(rng.integers(100, 20_000)))

    def watchdog():
        roll = rng.random()
        if roll < 0.4:
            return None
        latency = int(rng.integers(1, 5_000))
        if roll < 0.7:
            return WatchdogConfig(max_latency_us=latency)
        return WatchdogConfig(
            max_latency_us=latency if rng.random() < 0.5 else None,
            min_throughput_hz=pick([10.0, 500.0, 5_000.0]),
            window_us=pick([1_000, 10_000]),
        )

    nodes, streams, consumed = [], [], []

    def connect(producer, port, depth):
        sid = f"s{len(streams)}"
        roll = rng.random()
        outputs = []
        if depth < 2 and roll < 0.4:
            node_id = f"split{len(nodes)}"
            outputs = [f"o{k}" for k in range(int(rng.integers(1, 4)))]
            nodes.append(NodeDef(node_id, "splitter", {"outputs": outputs}))
        elif roll < 0.55:
            node_id = f"fragile{len(nodes)}"
            nodes.append(NodeDef(node_id, "fragile", {"k": int(rng.integers(1, 40))}))
        else:
            node_id = f"sink{len(nodes)}"
            poll = pick([None, None, 50.0, 400.0, 2_000.0])
            nodes.append(NodeDef(node_id, "sink", {} if poll is None else {"poll_rate_hz": poll}))
        streams.append(StreamDef(sid, producer, port, node_id, "in", policy(), watchdog=watchdog()))
        consumed.append(sid)
        for out in outputs:
            connect(node_id, out, depth + 1)

    for i in range(int(rng.integers(1, 3))):
        nodes.append(NodeDef(f"src{i}", "source", {
            "count": int(rng.integers(0, 60)),
            "rate_hz": pick([300.0, 1_000.0, 4_000.0]),
            "start_us": int(rng.integers(0, 3_000)),
        }))
        connect(f"src{i}", "out", 0)

    latches = ()
    if rng.random() < 0.6:
        times = rng.integers(0, 60_000, size=int(rng.integers(1, 7)))
        script = sorted((int(t), int(rng.integers(0, 2))) for t in times)
        gated = pick(consumed)
        nodes.append(NodeDef("bits", "scripted_bits", {"script": script}))
        streams.append(StreamDef("s_ctl", "bits", "bit", None, None, policy()))
        latches = (LatchDef(gated, "s_ctl", pick(list(LatchState))),)

    stop = StopCondition(
        time_limit_us=None if rng.random() < 0.5 else int(rng.integers(1_000, 80_000)),
        max_packets=None if rng.random() < 0.6 else int(rng.integers(5, 150)),
    )
    return GraphDef(tuple(nodes), tuple(streams), latches), stop


def corpus_report(index: int):
    graph, stop = corpus_case(index)
    return graph_run(graph, kinds=kinds(), stop=stop, seed=index)


@pytest.mark.parametrize("index", range(len(DIGESTS)))
def test_corpus_report_digest(index):
    text = corpus_report(index).to_json_str()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[index]


def test_corpus_reaches_every_stop_path_and_record():
    reports = [corpus_report(index) for index in range(len(DIGESTS))]
    assert {r.stop_reason for r in reports} == {
        "exhausted", "time_limit", "packet_budget", "node_failure",
    }
    streams = [s for r in reports for s in r.streams.values()]
    latches = [latch for r in reports for latch in r.latches.values()]
    assert {v["kind"] for s in streams for v in s["violations"]} == {
        "LatencyExceeded", "ThroughputBelow", "BackpressureMissLimit",
    }
    assert any(s["drop_runs"] for s in streams)
    assert any(latch["suppressed_runs"] for latch in latches)
    assert any(latch["transitions"] for latch in latches)
    assert any(e["kind"] == "latch" for r in reports for e in r.events)
