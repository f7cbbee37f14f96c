"""Golden report digests: the executor's output bytes are pinned.

Each case hashes the canonical JSON report of one fixed run. A change that
alters ordering, sequence numbering, counters, violations or events changes
a digest; a pure speed-up must leave all four unchanged.
"""

import hashlib
import json

from flowbot.flowcore import (
    GraphDef,
    LatchDef,
    LosslessPolicy,
    LossyPolicy,
    Node,
    NodeDef,
    PortSpec,
    StopCondition,
    StreamDef,
    WatchdogConfig,
    default_kind_registry,
    graph_from_json,
    graph_run,
)
from flowbot.harness import (
    load_scenario,
    packaged_graph,
    reference_pipeline,
    report_to_json_str,
    run_scenario,
)
from flowbot.harness.config import packaged_config_text

DEMO_SHA256 = "7caa5cd90d51b5e5ac06934349af99d3ed39e35deb1658d2703cf4b8a9f88b26"
BURSTS_SHA256 = "5a692ac1b2ac9df41b295f79f9fc6348348baf37fa19a99abc7e6ac0349b3577"
EXECUTOR_SHA256 = "7fafd4a6a185480f2684e0241be34abe483b591db8028446a0672113beccb3b2"
RESAMPLER_SHA256 = "6d49cf94d4b813c101e059358bf69726b3a6b649c6183a01b8d4489b5ebe9885"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Toggler(Node):
    """Emits an alternating bit, starting at 1, on every ``every``-th packet."""

    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.every = int(params["every"])
        self._seen = 0
        self._bit = 1

    def input_ports(self):
        return {"in": PortSpec("any")}

    def output_ports(self):
        return {"bit": PortSpec("bit")}

    def on_packet(self, port, packet, ctx):
        self._seen += 1
        if self._seen % self.every == 0:
            ctx.emit("bit", self._bit, timestamp_us=packet.timestamp_us)
            self._bit ^= 1


def executor_graph() -> GraphDef:
    lossless = LosslessPolicy(deadline_us=2_000)
    return GraphDef(
        nodes=(
            NodeDef("src", "source", {"count": 2000, "rate_hz": 1000.0}),
            NodeDef("split", "splitter", {"outputs": ["a", "b", "c", "d"]}),
            NodeDef("watched", "sink", {}),
            NodeDef("slow", "sink", {"poll_rate_hz": 100.0}),
            NodeDef("tog", "toggler", {"every": 40}),
            NodeDef("gated", "sink", {}),
        ),
        streams=(
            StreamDef("s_in", "src", "out", "split", "in", lossless),
            StreamDef(
                "s_watched", "split", "a", "watched", "in", lossless,
                watchdog=WatchdogConfig(
                    max_latency_us=500, min_throughput_hz=1500.0, window_us=100_000
                ),
            ),
            StreamDef(
                "s_lossy", "split", "b", "slow", "in",
                LossyPolicy(capacity=4, max_successive_misses=6),
            ),
            StreamDef("s_tog", "split", "c", "tog", "in", lossless),
            StreamDef("s_gated", "split", "d", "gated", "in", lossless),
            StreamDef("s_ctl", "tog", "bit", None, None, lossless),
        ),
        latches=(LatchDef("s_gated", "s_ctl"),),
    )


def test_demo_scenario_digest():
    scenario = load_scenario(packaged_config_text("demo_scenario.json"))
    report = run_scenario(packaged_graph(), scenario)
    assert sha256(report_to_json_str(report)) == DEMO_SHA256


def test_rms_bursts_scenario_digest():
    bursts = [
        {"start_s": float(s), "end_s": s + 0.6, "freq_hz": 440.0 + 20 * i, "amp": 0.7}
        for i, s in enumerate(range(5, 60, 11))
    ]
    scenario = load_scenario({
        "audio": {"synthetic": {"kind": "bursts", "duration_s": 60.0, "bursts": bursts}},
        "interpreter_script": [
            {"trigger_window_index": 21, "skill_id": "get_time", "entities": {}, "confidence": 0.9},
            {"trigger_window_index": 65, "skill_id": "drive",
             "entities": {"direction": "left_forward", "speed": 3}, "confidence": 0.95},
        ],
        "seed": 3,
    })
    graph = reference_pipeline(detector={"kind": "rms", "threshold": 0.1})
    report = run_scenario(graph, scenario)
    assert sha256(report_to_json_str(report)) == BURSTS_SHA256


def test_executor_graph_digest():
    kinds = default_kind_registry()
    kinds.register("toggler", Toggler)
    report = graph_run(
        executor_graph(), kinds=kinds, stop=StopCondition(time_limit_us=1_700_000), seed=5
    )
    assert sha256(report_to_json_str(report.to_json())) == EXECUTOR_SHA256


def resampler_graph() -> GraphDef:
    """The packaged graph with the RMS detector and a 48 -> 16 kHz resampler
    between the I/O manager and the aggregator."""
    doc = json.loads(packaged_config_text("reference_pipeline.json"))
    for node in doc["nodes"]:
        if node["kind"] == "attention":
            node["params"]["detector"] = {"kind": "rms", "threshold": 0.1}
    doc["nodes"].append({"id": "resamp", "kind": "resampler_48to16", "params": {}})
    into_agg = next(stream for stream in doc["streams"] if stream["to_node"] == "agg")
    doc["streams"].append(
        {**into_agg, "id": "s_resampled", "from_node": "resamp", "from_port": "out"}
    )
    into_agg["to_node"], into_agg["to_port"] = "resamp", "in"
    return graph_from_json(doc)


def test_resampler_scenario_digest():
    # the 12 kHz burst is above the 8 kHz output Nyquist: the anti-alias
    # filter removes it, so only the other two bursts open the latch
    bursts = [
        {"start_s": 2.0, "end_s": 2.6, "freq_hz": 1000.0, "amp": 0.5},
        {"start_s": 6.0, "end_s": 6.6, "freq_hz": 12000.0, "amp": 0.7},
        {"start_s": 9.0, "end_s": 9.6, "freq_hz": 6500.0, "amp": 0.3},
    ]
    scenario = load_scenario({
        "audio": {"synthetic": {
            "kind": "bursts", "duration_s": 12.0, "sample_rate_hz": 48000, "bursts": bursts,
        }},
        "interpreter_script": [
            {"trigger_window_index": 8, "skill_id": "get_time", "entities": {}, "confidence": 0.9},
        ],
        "seed": 5,
    })
    report = run_scenario(resampler_graph(), scenario)
    opened = [e for e in report["events"] if e["kind"] == "latch" and e["state"] == "open"]
    assert len(opened) == 2
    assert sha256(report_to_json_str(report)) == RESAMPLER_SHA256
