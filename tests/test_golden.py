"""Golden report digests: the executor's output bytes are pinned.

Each case hashes the canonical JSON report of one fixed run. A change that
alters ordering, sequence numbering, counters, violations or events changes
a digest; a pure speed-up must leave all four unchanged.

The version 1 report logged one event per dropped or suppressed packet;
version 2 keeps one run record per run of them. Expanding the runs of each
case gives back the version 1 facts, pinned as digests taken from version 1
reports: every dropped packet's ``(seq, successive_misses)``, every
suppressed packet's ``seq``, each run's first and last ``t_us``, and the
other events in order. Only the timestamps inside a run are not kept.
"""

import hashlib
import json

import pytest

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

DEMO_SHA256 = "48acbcfda4632a12656dab8c3b9a02fd9909a8d057190cb9cae30f54d61259ae"
BURSTS_SHA256 = "f8049cec9b72626a74788d6ee99d7201f1f7168a83ff74d50fa64940c9d4133f"
EXECUTOR_SHA256 = "011aaaa06ae15272550b8a79b81e265a330de0503ad15f636ac9877e13f4b4f3"
RESAMPLER_SHA256 = "d6383d236d6bc3643311bb10df298bc9df375751a6095fe9f5b2cab521a660ef"
# per skill_manager (followup_timeout_s, reprompt_limit)
SLOT_FILLING_SHA256 = {
    (0.3, 0): "d8075051e2e8d8a5772f92697d5df397e1d84bb5bf204cc0d73febda4128a533",
    (0.6, 1): "00ffe2414fe1fd677aef97c71aa0016ed1d7f5dcf03886dbbb017a8c478ceeea",
    (2.0, 2): "9ad0aa1dd76afb7fc007fa2142a59f4bd1f709024d5d5a2ebbfb36a24ee1c332",
}

# per case, from the version 1 report: (sha256 of v1_facts' drop and
# suppression facts, sha256 of its other events, dropped packets,
# suppressed packets)
V1_FACTS = {
    "demo": (
        "b490a97c47067f2de766ed4ae962e67e003a2cd66cafb4e0425e945029e5b675",
        "855149e135e889286bd1fb4936663fb1fe995ce44b9ebc43c83171e6a3ce7551",
        0, 8,
    ),
    "bursts": (
        "5a68315f037244b66fb1da758fc75199ff33c636028755b6d8513b343154e44f",
        "69e22fbcf97e336500af4aa1c1174f792c784e3e2784b6cdb95ad2f763c8d094",
        0, 207,
    ),
    "executor": (
        "b610d05c53168f1fbf1e805778fd866ab827df8df79eecb61cf6b3ad61f42dda",
        "5d862064b75046725da3eb0e3b8cf008eeeaec9786ca4aad7657536d81926b38",
        1526, 860,
    ),
    "resampler": (
        "063c07012432ccf59f49a516990c8a96e9989ac1bfef1274ec679d7712fb1908",
        "3a39ceee3e28a5efd3fe73fccc4b69d83cac4bc087936967ba44c0d6ba7200a8",
        0, 34,
    ),
}


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


def demo_report() -> dict:
    scenario = load_scenario(packaged_config_text("demo_scenario.json"))
    return run_scenario(packaged_graph(), scenario)


def bursts_report() -> dict:
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
    return run_scenario(graph, scenario)


def executor_report() -> dict:
    kinds = default_kind_registry()
    kinds.register("toggler", Toggler)
    report = graph_run(
        executor_graph(), kinds=kinds, stop=StopCondition(time_limit_us=1_700_000), seed=5
    )
    return report.to_json()


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


def resampler_report() -> dict:
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
    return run_scenario(resampler_graph(), scenario)


def slot_filling_report(followup_timeout_s: float, reprompt_limit: int) -> dict:
    """Prompts, fills, reprompts, aborts, a barge-in and stale timeouts.

    A window starts every 250 ms, so window ``i`` reaches the manager at
    ``1 + i / 4`` s. Depending on the params, the bare ``when`` answer 0.75 s
    after its prompt fills the slot, follows one reprompt or comes after the
    abort, and the ``irrelevant`` answer is reprompted or ends the session.
    """
    scenario = load_scenario({
        "audio": {"synthetic": {"kind": "silence", "duration_s": 20.0}},
        "annotations": [{"start_s": 1.0, "end_s": 9.5}, {"start_s": 10.5, "end_s": 19.0}],
        "interpreter_script": [
            {"trigger_window_index": 4, "skill_id": "find_object", "entities": {}, "confidence": 0.9},
            {"trigger_window_index": 30, "skill_id": "schedule_note",
             "entities": {"note": "call mum"}, "confidence": 0.9},
            {"trigger_window_index": 33, "skill_id": "", "entities": {"when": "10m"}},
            {"trigger_window_index": 44, "skill_id": "find_person", "entities": {}, "confidence": 0.9},
            {"trigger_window_index": 47, "skill_id": "get_time", "entities": {}, "confidence": 0.9},
            {"trigger_window_index": 56, "skill_id": "drive", "entities": {"speed": 3}, "confidence": 0.95},
            {"trigger_window_index": 59, "skill_id": "", "entities": {"irrelevant": 1}},
        ],
        "seed": 7,
    })
    graph = reference_pipeline(manager_params={
        "followup_timeout_s": followup_timeout_s, "reprompt_limit": reprompt_limit,
    })
    return run_scenario(graph, scenario)


CASES = {
    "demo": demo_report,
    "bursts": bursts_report,
    "executor": executor_report,
    "resampler": resampler_report,
}


def test_demo_scenario_digest():
    assert sha256(report_to_json_str(demo_report())) == DEMO_SHA256


def test_rms_bursts_scenario_digest():
    assert sha256(report_to_json_str(bursts_report())) == BURSTS_SHA256


def test_executor_graph_digest():
    assert sha256(report_to_json_str(executor_report())) == EXECUTOR_SHA256


def test_resampler_scenario_digest():
    report = resampler_report()
    opened = [e for e in report["events"] if e["kind"] == "latch" and e["state"] == "open"]
    assert len(opened) == 2
    assert sha256(report_to_json_str(report)) == RESAMPLER_SHA256


@pytest.mark.parametrize("params", sorted(SLOT_FILLING_SHA256))
def test_slot_filling_scenario_digest(params):
    assert sha256(report_to_json_str(slot_filling_report(*params))) == SLOT_FILLING_SHA256[params]


def v1_facts(events: list[dict]) -> tuple[dict, list[dict]]:
    """The drop and suppression facts of a version 1 event list, and its
    other events. Per stream, each run lists its packets, ``[seq,
    successive_misses]`` for a drop and ``seq`` for a suppression, with the
    ``t_us`` of its first and last packet. A drop run starts at
    ``successive_misses`` 1, a suppression run at a ``seq`` that does not
    follow the one before. ``V1_FACTS`` holds digests of what this returns
    for version 1 reports."""
    facts: dict = {"drop": {}, "suppressed": {}}
    rest = []
    for event in events:
        kind = event["kind"]
        if kind not in facts:
            rest.append(event)
            continue
        runs = facts[kind].setdefault(event["stream"], [])
        if kind == "drop":
            packet = [event["seq"], event["successive_misses"]]
            starts = event["successive_misses"] == 1
        else:
            packet = event["seq"]
            starts = not runs or runs[-1]["packets"][-1] + 1 != event["seq"]
        if starts:
            runs.append({"packets": [], "first_t_us": event["t_us"]})
        runs[-1]["packets"].append(packet)
        runs[-1]["last_t_us"] = event["t_us"]
    return facts, rest


def v1_events_from_runs(report: dict) -> list[dict]:
    """Per-packet ``drop`` and ``suppressed`` events rebuilt from a version 2
    report's runs; the ``t_us`` of a packet inside a run is not kept (None)."""
    records = [("drop", sid, s["drop_runs"]) for sid, s in report["streams"].items()]
    records += [("suppressed", sid, latch["suppressed_runs"]) for sid, latch in report["latches"].items()]
    events = []
    for kind, sid, runs in records:
        for run in runs:
            count = run["count"]
            assert run["last_seq"] - run["first_seq"] + 1 == count >= 1, run
            for k in range(count):
                t_us = run["first_t_us"] if k == 0 else run["last_t_us"] if k == count - 1 else None
                event = {"t_us": t_us, "kind": kind, "stream": sid, "seq": run["first_seq"] + k}
                if kind == "drop":
                    event["successive_misses"] = k + 1
                events.append(event)
    return events


@pytest.mark.parametrize("case", sorted(CASES))
def test_v2_runs_expand_to_the_v1_events(case):
    facts_sha256, events_sha256, dropped, suppressed = V1_FACTS[case]
    report = CASES[case]()
    assert report["report_version"] == 2
    assert not [e for e in report["events"] if e["kind"] in ("drop", "suppressed")]
    rebuilt = v1_events_from_runs(report)
    assert sum(e["kind"] == "drop" for e in rebuilt) == dropped
    assert sum(e["kind"] == "suppressed" for e in rebuilt) == suppressed
    facts, rest = v1_facts(report["events"] + rebuilt)
    assert sha256(json.dumps(facts, sort_keys=True)) == facts_sha256
    assert rest == report["events"]
    assert sha256(json.dumps(rest, sort_keys=True)) == events_sha256
