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

# taken from the report version 4 executor: the version 3 reports less each
# latch entry's state, which is its last transition's
DIGESTS = (
    "5d821f4af501d626845ecfda0a7c145ad462fba9ad3b815cee300a205eb2e7ca",
    "e14332d0ab9cb98513ad89c221f784377de06e35880f9606610deec543ba04bc",
    "20126fee0e7f755278e21c7194f19d62b5b8de958c3cdf8f57b39ef210b89d75",
    "71ac81e6a62922609da44afc4176cd2755fc46296f61b53ee37f085e61a9a1ea",
    "5a68ab2f8fcf93862d521cd2f522c96ffc706eb614ff3e12475a5044c5b497a7",
    "a381593e06c9b9a466b8a3f091f724f1d6668b710c95b0d30f83a432b1bcfa2d",
    "d79b62ca22dc67dc6b17c8589fc871d5db5c9311cbebd8f872f00d18f1efbf21",
    "60ce669d380da2b85a80e97637a73dc2f182a975a42b9584a466930cd3cf03e9",
    "5302b8c9eb92728fa481e8927be7a7c6a43486997a6ea0095e186a4e672b48dc",
    "fce33a8313d7d7ba2eee980767bc68e24e37e522710813feb37cae8c54da44bb",
    "86a3fc6ca319c409c52adbb450a0c07010be7921c10e9a2182906e7d42d097b7",
    "8b55dc700742da251cf5b9c42cb6baffa008356fdbe89aab7108f39a5be7944a",
    "1f5635e9fcd98d738ce4876d1e173aa949592e173762a5d5ed3f74db4a2d9238",
    "6ef19880f7aa1cc6b3dffa89520a833ca18da060ca2eb73740e9674557442e4e",
    "6d8df9a11e04023a4b410f8ed2a59ff325b6ee1f2ff333ab93f688becad77ee4",
    "2d9db7a1ae8d2e6312e0e1a15879ea8245e3a1436ac8ae4a63135925a7aa2ae8",
    "eb5c2b483ea0726f4addf68dd8edbf1c7a2ea59a6c72519a6ffb55045e61cc5d",
    "e65b7cc3eefa4e16c7306cbb2f0cd0cd0ebb0b831d7bae4413f2c6ea8a3da7be",
    "76449a9963be7783c9a6c6c262936ddac6df82931f6efa92af40e3d1e5bb8c2f",
    "fd0fc7c3c8647ed6481db3346693fd7a2fa4286ecc0595080bed565b08a16584",
    "915ef0760a598d57a1e57e4290322b6bd447bc5b3b62425ba36104244c391995",
    "523c899505693758523c2b508a0edede00043e565b9c93508b38354a5e1a8dbe",
    "77d3bd98b7cd80d379a5e86fda0908b67c7a4e301671deacbbc02566be9135ab",
    "e488eb41db8b95940f0ece871e17454580255cdaeb35a697da5bd20a20d86eb9",
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
