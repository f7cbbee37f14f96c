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

# taken from the report version 3 executor: the version 2 reports less their
# latch events, with each lossless deadline breach a DeadlineExceeded
DIGESTS = (
    "b1ae287f737e289f3ace993322f4da3f96d711cc933ba5a86ad91e4e3d95ab96",
    "ac33a8918f71305c802c50f2fd0a6f04738961bd65dd92c8efc2b5d4ee36d75a",
    "19b1835226d1b3104f78fd093b2ff28b8098f0266c8fb503408a47452f7e24f6",
    "a93788b11cbdb05a32dda95af7c68e8069e7541c2abbf7e6f51a312d9c18467a",
    "36ebb9c7459e7ccd662c0e7e9a2cd63b2f7c072968583041ae0bffdbb04ebbac",
    "87ae460eb517bc07d6396adeab8984694c49e6a22a88718954828f0fb88753df",
    "ea36c18210f9dacdabeaeaedca02a4c72a1b8c7c5209288371310f8eafdcbf78",
    "3e250a67e1a7d97931af39ab5e4e9275a098e790f602e1170c62d6bd2d041ac9",
    "e43b9de72e64edfa4db4e00f4e066c1aa8314caf60e13452986b90dd73ff184f",
    "44d8eb82431dc68c2aafa32136abaed57833d80533a7926bef0f9f3351b07651",
    "d004952a15ce9dc0a8d23c363dd59025ec0742beb201d7703bbb6cc818f7c5f2",
    "342cf36a31c473a813f0969d91b6e25a149155cb87ad7089ed2a92ca80f227ff",
    "dcca1ce7a1a1783d10fa0b1026834032e8b8a4d9204c7401e5151ce5602f792b",
    "c87a0f3e6ce32f422a212266628246703c2862d00900bb3bfcf2a1f0523154a6",
    "3f38813756ecb1a7e4cf74697ef65f7cee842e37ee98f60dc892bae5ea1425dc",
    "0a5074159b4244ee67ea13af9ab88181a0a5028fd777432a304cef0e3a1df94f",
    "6341fba8fe7acb946ad7a8dabf33f2d4a5454f37fae0cfade9f5224cf9528d6e",
    "00a58235439bbb6d0fcf229c0d4ae360477bf18da6fa60423b5a49236817c611",
    "d6f882cab7e35515f6e9846f818ffa53a674e618c36f981afa422b6376d7659a",
    "17a76124562b440febea74158312e052431a1066aa387d2d8a445a401fbce3b4",
    "3bb3520a03ccea23a4afa611daeec6ac010c6f7e965507c9c3eb78a2644e9a2a",
    "18573609136a1ba3e973b947667f730eb661799de342456da46c75732b3a5427",
    "84a11523b7fa72c79f45e11013066b4e41360bd473acb89e54762604b85815da",
    "417cbf9d27373d0f88be9b3d7d40b76748dec5719a6007d685ce60fa259f5653",
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
        "DeadlineExceeded", "LatencyExceeded", "ThroughputBelow", "BackpressureMissLimit",
    }
    assert any(s["drop_runs"] for s in streams)
    assert any(latch["suppressed_runs"] for latch in latches)
    assert any(latch["transitions"] for latch in latches)
    # the executor's own log holds node errors only; a latch keeps its transitions
    assert {e["kind"] for r in reports for e in r.events} == {"node_error"}
