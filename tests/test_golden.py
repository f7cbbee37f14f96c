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

Version 3 logs no event for a fact that another entry owns: ``latch``
(``latches[*].transitions``), ``skill_execute`` (``skill_invocations``),
``uart_tx`` (``uart_hex``) and ``dead_letter`` (the ``io_manager``
channel); skill entries lose ``policy``, which no run read. Each case's
version 2 report, and each deleted event list, is pinned as a digest taken
from version 2 reports and rebuilt from the version 3 report.

Version 4 drops the last copies: the ``interpreter_window`` event per window
(the gated stream's seqs that its latch did not suppress), the
``io_manager`` entries' ``delivered`` (the ``pushed`` of its output streams)
and the latch entries' ``state`` (the last transition's). A bare answer with
no open session is rejected as ``no_open_session``, not ``unknown_skill``.
Each case's version 3 report without those entries, and each deleted entry,
is pinned as a digest taken from version 3 reports and rebuilt from the
version 4 report; the older expansion tests run on the rebuilt version 3
report.
"""

import copy
import functools
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
    reference_pipeline,
    report_to_json_str,
    run_scenario,
)
from flowbot.harness.config import packaged_config_text

DEMO_SHA256 = "7b8d083e24d7bb04010f5af0931c38df5abd9264d3b303863f5677b429acba4c"
BURSTS_SHA256 = "0160cf064399d5e994646daca0d8e99bccb421fc474c123d524af8506b5fc80a"
EXECUTOR_SHA256 = "13c2d5951d16fb0a98c603ad79538e0f2f2e8aa357f85921b7ccee62938813af"
RESAMPLER_SHA256 = "be459fd866e7d95fa46903264c2756ca0336efc477d03578b5cb3e297ed6c571"
# per skill_manager (followup_timeout_s, reprompt_limit)
SLOT_FILLING_SHA256 = {
    (0.3, 0): "d0ff4164aabc548a6ea5f9d2d9ceeedccd837cf3e9daa61e0cb8f314b4a6daa0",
    (0.6, 1): "3b103fd9bc83371fc080c5f0c03e66d9eacf8d85f323380c9e3a22fc4f87b507",
    (2.0, 2): "1c13dcb52835ebb97987ab5b50b27e1619d14da07c7257011496e23f8a757bcc",
}

# per case, from the version 1 report: (sha256 of v1_facts' drop and
# suppression facts, sha256 of its other events without the four kinds that
# version 3 leaves to their owners, dropped packets, suppressed packets)
V1_FACTS = {
    "demo": (
        "b490a97c47067f2de766ed4ae962e67e003a2cd66cafb4e0425e945029e5b675",
        "23c2d83cbc3413284a9b3b35163e1a1be42af0fcefded72283a5354f5ac1aa4a",
        0, 8,
    ),
    "bursts": (
        "5a68315f037244b66fb1da758fc75199ff33c636028755b6d8513b343154e44f",
        "a957380e20b90fa5568950654f6647d50c7d07b105d79bfe907dacdea4d63894",
        0, 207,
    ),
    "executor": (
        "b610d05c53168f1fbf1e805778fd866ab827df8df79eecb61cf6b3ad61f42dda",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        1526, 860,
    ),
    "resampler": (
        "063c07012432ccf59f49a516990c8a96e9989ac1bfef1274ec679d7712fb1908",
        "42c2a6c817818111bc3d66eafadf2768f3eae1fc3042da3d6f18db8ad105e556",
        0, 34,
    ),
}

# per case, from the version 2 report: (sha256 of the report without
# report_version, the DELETED_EVENTS and each skill entry's policy; sha256 of
# its latch, skill_execute and uart_tx events; its dead_letter events)
V2_FACTS = {
    "demo": (
        "596c707421fbbca692cfa50eaf0089c3eb32d580effe577285d1a57f34e5f714",
        "a262679fcf23f5a1781eff24e2f09acb655aa4024da7912282eec246b1eb6270",
        "81d1d4dcd48a43775cbce1cd37321d1dc52c43f1e312acad909ec688efad436f",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        0,
    ),
    "bursts": (
        "6f0f26b8c18c4098e175e819d3ca39c6cd680fe293ac8c09f527a2c8602d5392",
        "a808eabe5c36e0b331e408e78c89293b53f72d9daca47083c5b1645675f10438",
        "8cc7e52bb4561cf75f0d072dc3962d749d86ee8d7dbdc0a1d5c7f6f29507cc04",
        "9e88a7a04bde2bf790e07687aab9861f2ab078196f21bdb09c31f3e12e61caff",
        0,
    ),
    "executor": (
        "814f87cd8f580bd7a82c7e3da9748e3ed61d5c5cb883fa2d951f983856812a40",
        "5d862064b75046725da3eb0e3b8cf008eeeaec9786ca4aad7657536d81926b38",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        0,
    ),
    "resampler": (
        "f686923482749e17a5d811cd8ef6e701105d72a4ca14b29db32b5397ef87c12e",
        "adb3d4f7506a9ccabc8425bd693b36dabba981658a165846126ece6ee435d524",
        "10cd9390d431ae3347debe49f37aff3c9d56ceae922e154efae76eb086ac25a2",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        0,
    ),
    "slot_filling_0.3_0": (
        "5e3c094b5f7e2c5cb68ba7d27b851b52248c16c3f6b3eec42c28ec6d1c86c5ca",
        "0ffeb60adc6af36fb2c8f87c6350a31f68bbfb7e737ba2447fbef5d19d3f6458",
        "3edded1e388107209895f29cff782f65735efc32f0c32b69ce6a40d9e76eaa82",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        0,
    ),
    "slot_filling_0.6_1": (
        "00e5599eac17014587eda3eae7baa45a964c936a2120727c6fe44d2a0360d42b",
        "0ffeb60adc6af36fb2c8f87c6350a31f68bbfb7e737ba2447fbef5d19d3f6458",
        "5d3d20672c88b0e59121a3f674e5e550b194d5934feeb3f45c143ada7909b2ae",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        0,
    ),
    "slot_filling_2_2": (
        "ef1e1f121de04740860bfb66a5227898818ffb794705ceb01ce17e7e196862ac",
        "0ffeb60adc6af36fb2c8f87c6350a31f68bbfb7e737ba2447fbef5d19d3f6458",
        "5d3d20672c88b0e59121a3f674e5e550b194d5934feeb3f45c143ada7909b2ae",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        0,
    ),
}
DELETED_EVENTS = ("latch", "skill_execute", "uart_tx", "dead_letter")

# per case, from the version 3 report: (sha256 of the report without
# report_version, its interpreter_window events, the io_manager entries'
# delivered and the latch entries' state; sha256 of its interpreter_window
# events; of its io_manager entries; of its latch states by stream; the
# number of its unknown_skill rejects that version 4 names no_open_session)
V3_FACTS = {
    "bursts": (
        "d378e597065a517e734c7569caab6e22f7245d6e72021064bc0ded7fa324d6c2",
        "a957380e20b90fa5568950654f6647d50c7d07b105d79bfe907dacdea4d63894",
        "ca3bd37aff8eddada68722ea95656f4fdcde87fc2218798f8af12f85e71a9c1d",
        "816a3e7146d66948a0a20d851f3eaa2e147c4f1d2e8033251a8e0e57b27da989",
        0,
    ),
    "demo": (
        "eaa0ccd926a79066337d3913d98928c333a37361e3c3ac4358e567aa26376301",
        "23c2d83cbc3413284a9b3b35163e1a1be42af0fcefded72283a5354f5ac1aa4a",
        "39874f4e680c79b72b883e2de68df3a7835329b3589af9947f3fc8c470019a56",
        "816a3e7146d66948a0a20d851f3eaa2e147c4f1d2e8033251a8e0e57b27da989",
        0,
    ),
    "executor": (
        "517172772109d839b098a07dad4cc89e6dd8cfc1b05a6c6d040b6abf7af02c57",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "585a92017d683fb7ca839360201b43273760d3b70f25666c115d55df9f8c8535",
        0,
    ),
    "resampler": (
        "d205d4cf6a516557eaa6525f3ec9fabf1b32c864b8b58931b8dce06849bea362",
        "42c2a6c817818111bc3d66eafadf2768f3eae1fc3042da3d6f18db8ad105e556",
        "df0dc7c418968f2828e05a0f29c42b7df144e4c2f1792bfd414a8b7ca1989f24",
        "816a3e7146d66948a0a20d851f3eaa2e147c4f1d2e8033251a8e0e57b27da989",
        0,
    ),
    "slot_filling_0.3_0": (
        "b52a46d0b64e6beec738f2c2c6fe20d4dde740fb442571fa79bcd2a7fbecc8ec",
        "08c9a98412265d436d1224ec2635dcdd59f561b1e204d0c38bcd3454ed167399",
        "dfb68e9d2e60e8301e4f1b3875a1240581ce631a0198cc7b819b87c0002fd54a",
        "816a3e7146d66948a0a20d851f3eaa2e147c4f1d2e8033251a8e0e57b27da989",
        2,
    ),
    "slot_filling_0.6_1": (
        "8682c552ade6d6bc7bac12bbf5b2874f0eb44f4bbfae60d724064a0494f6dfd3",
        "08c9a98412265d436d1224ec2635dcdd59f561b1e204d0c38bcd3454ed167399",
        "dfb68e9d2e60e8301e4f1b3875a1240581ce631a0198cc7b819b87c0002fd54a",
        "816a3e7146d66948a0a20d851f3eaa2e147c4f1d2e8033251a8e0e57b27da989",
        0,
    ),
    "slot_filling_2_2": (
        "7f5e2ed05e5869e02807df6dbf13fe1be41c93393158ce4001c3c44cb7898d0f",
        "08c9a98412265d436d1224ec2635dcdd59f561b1e204d0c38bcd3454ed167399",
        "dfb68e9d2e60e8301e4f1b3875a1240581ce631a0198cc7b819b87c0002fd54a",
        "816a3e7146d66948a0a20d851f3eaa2e147c4f1d2e8033251a8e0e57b27da989",
        0,
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
    scenario = load_scenario(json.loads(packaged_config_text("demo_scenario.json")))
    return run_scenario(reference_pipeline(), scenario)


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
V3_CASES = {
    **CASES,
    **{
        f"slot_filling_{timeout_s:g}_{limit}": functools.partial(slot_filling_report, timeout_s, limit)
        for timeout_s, limit in SLOT_FILLING_SHA256
    },
}


# the graph each case runs; only the interpreter's wiring, the audio source,
# the resampler and the aggregator are read, which the detector and manager
# params of the bursts and slot-filling cases leave as they are
CASE_GRAPHS = {
    "executor": executor_graph,
    "resampler": resampler_graph,
    **{case: reference_pipeline for case in V3_CASES if case not in ("executor", "resampler")},
}


def upstream(graph: GraphDef, node_id: str) -> list[NodeDef]:
    """The nodes that feed ``node_id``, nearest first, along each node's one
    input stream."""
    nodes = {nd.id: nd for nd in graph.nodes}
    feeds = {sd.to_node: sd.from_node for sd in graph.streams if sd.to_node is not None}
    chain = []
    while node_id in feeds:
        node_id = feeds[node_id]
        chain.append(nodes[node_id])
    return chain


def v3_entries_from_owners(report: dict, graph: GraphDef) -> dict:
    """The ``interpreter_window`` events, ``io_manager`` entries and latch
    states of a version 3 report, rebuilt from the version 4 entries that own
    their facts.

    Window ``k`` is seq ``k`` on the interpreter's gated input stream, and it
    reached the interpreter unless its latch suppressed it. It was emitted
    when the audio chunk holding its last sample, ``k * hop + window - 1``,
    ended; behind a ``resampler_48to16`` that is input sample ``3 * (k * hop
    + window - 1)``. An io_manager delivered what its output streams were
    pushed, and a latch is left in its last transition's state."""
    windows = []
    for interp in (nd for nd in graph.nodes if nd.kind == "interpreter_stub"):
        (gated,) = (sd.id for sd in graph.streams if sd.to_node == interp.id)
        chain = {nd.kind: nd.params for nd in upstream(graph, interp.id)}
        window, hop = chain["aggregator"]["window_samples"], chain["aggregator"]["hop_samples"]
        factor = 3 if "resampler_48to16" in chain else 1
        rate_hz = factor * chain["aggregator"]["sample_rate_hz"]
        chunk = chain["audio_source"]["chunk_samples"]
        suppressed = {
            seq for run in report["latches"][gated]["suppressed_runs"]
            for seq in range(run["first_seq"], run["last_seq"] + 1)
        }
        for k in range(report["streams"][gated]["delivered"]):
            if k not in suppressed:
                chunk_index = factor * (k * hop + window - 1) // chunk
                t_us = round((chunk_index + 1) * chunk * 1e6 / rate_hz)
                windows.append({"t_us": t_us, "kind": "interpreter_window", "node": interp.id, "index": k})
    io_managers = [nd.id for nd in graph.nodes if nd.kind == "io_manager"]
    entries = report["extras"].get("io_manager", [])
    assert len(entries) == len(io_managers)
    io_manager = [
        {**entry, "delivered": sum(
            report["streams"][sd.id]["pushed"] for sd in graph.streams if sd.from_node == node_id
        )}
        for node_id, entry in zip(io_managers, entries)
    ]
    latch_states = {
        sid: entry["transitions"][-1]["state"] if entry["transitions"] else entry["initial"]
        for sid, entry in report["latches"].items()
    }
    return {"interpreter_window": windows, "io_manager": io_manager, "latch_states": latch_states}


def v3_rejects(events: list[dict]) -> tuple[list[dict], int]:
    """The events with each ``no_open_session`` reject as version 3 logged
    it, ``unknown_skill`` with the empty skill id as its detail, and how
    many were mapped back."""
    mapped = [
        {**e, "reason": "unknown_skill", "detail": ""}
        if e["kind"] == "reject" and e["reason"] == "no_open_session" else e
        for e in events
    ]
    return mapped, sum(a is not b for a, b in zip(events, mapped))


def v3_report(case: str) -> dict:
    """The case's version 3 report, rebuilt from its version 4 report. The
    interpreter, ranked before the skill manager, logged its window before
    any manager event of the same time."""
    report = V3_CASES[case]()
    rebuilt = v3_entries_from_owners(report, CASE_GRAPHS[case]())
    doc = copy.deepcopy(report)
    doc["report_version"] = 3
    events, _ = v3_rejects(report["events"])
    doc["events"] = sorted(
        rebuilt["interpreter_window"] + events,
        key=lambda e: (e["t_us"], e["kind"] != "interpreter_window"),
    )
    if rebuilt["io_manager"]:
        doc["extras"]["io_manager"] = rebuilt["io_manager"]
    for sid, state in rebuilt["latch_states"].items():
        doc["latches"][sid]["state"] = state
    return doc


def test_demo_scenario_digest():
    assert sha256(report_to_json_str(demo_report())) == DEMO_SHA256


def test_rms_bursts_scenario_digest():
    assert sha256(report_to_json_str(bursts_report())) == BURSTS_SHA256


def test_executor_graph_digest():
    assert sha256(report_to_json_str(executor_report())) == EXECUTOR_SHA256


def test_resampler_scenario_digest():
    report = resampler_report()
    (latch,) = report["latches"].values()
    assert latch["openings"] == 2
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
    report = v3_report(case)
    assert not [e for e in report["events"] if e["kind"] in ("drop", "suppressed")]
    rebuilt = v1_events_from_runs(report)
    assert sum(e["kind"] == "drop" for e in rebuilt) == dropped
    assert sum(e["kind"] == "suppressed" for e in rebuilt) == suppressed
    facts, rest = v1_facts(report["events"] + rebuilt)
    assert sha256(json.dumps(facts, sort_keys=True)) == facts_sha256
    assert rest == report["events"]
    assert sha256(json.dumps(rest, sort_keys=True)) == events_sha256


def v2_events_from_owners(report: dict) -> dict[str, list[dict]]:
    """The ``latch``, ``skill_execute`` and ``uart_tx`` events of a version 2
    report, rebuilt from the version 3 entries that own their facts. In the
    reference pipeline the skill manager is ``mgr`` and the UART sink
    ``uart``, and each ``drive`` invocation sends one 2-byte frame at its
    ``t_us``."""
    latch = sorted(
        (
            {"t_us": t["t_us"], "kind": "latch", "stream": sid, "state": t["state"],
             "bit": int(t["state"] == "open")}
            for sid, entry in sorted(report["latches"].items()) for t in entry["transitions"]
        ),
        key=lambda event: event["t_us"],
    )
    invocations = report["skill_invocations"]
    drives = [inv["t_us"] for inv in invocations if inv["skill_id"] == "drive"]
    frames = report["uart_hex"]
    assert len(frames) == 4 * len(drives)
    return {
        "latch": latch,
        "skill_execute": [
            {"t_us": inv["t_us"], "kind": "skill_execute", "node": "mgr", "skill": inv["skill_id"]}
            for inv in invocations
        ],
        "uart_tx": [
            {"t_us": t_us, "kind": "uart_tx", "node": "uart", "hex": frames[4 * k : 4 * k + 4]}
            for k, t_us in enumerate(drives)
        ],
    }


@pytest.mark.parametrize("case", sorted(V2_FACTS))
def test_v3_facts_expand_to_the_v2_report(case):
    report_sha256, latch_sha256, execute_sha256, uart_sha256, dead_letters = V2_FACTS[case]
    report = v3_report(case)
    assert report.pop("report_version") == 3
    assert not [e for e in report["events"] if e["kind"] in DELETED_EVENTS]
    assert not [e for e in report["skill_invocations"] + report["skill_failures"] if "policy" in e]
    assert sha256(report_to_json_str(report)) == report_sha256
    rebuilt = v2_events_from_owners(report)
    assert sha256(json.dumps(rebuilt["latch"], sort_keys=True)) == latch_sha256
    assert sha256(json.dumps(rebuilt["skill_execute"], sort_keys=True)) == execute_sha256
    assert sha256(json.dumps(rebuilt["uart_tx"], sort_keys=True)) == uart_sha256
    io_manager = report["extras"].get("io_manager", [])
    assert sum(counts["dead_letter"] for counts in io_manager) == dead_letters


@pytest.mark.parametrize("case", sorted(V3_FACTS))
def test_v4_facts_expand_to_the_v3_report(case):
    report_sha256, windows_sha256, io_manager_sha256, states_sha256, no_open_session = V3_FACTS[case]
    report = V3_CASES[case]()
    assert report.pop("report_version") == 4
    assert not [e for e in report["events"] if e["kind"] == "interpreter_window"]
    assert not [e for e in report["extras"].get("io_manager", []) if "delivered" in e]
    assert not [latch for latch in report["latches"].values() if "state" in latch]
    rebuilt = v3_entries_from_owners(report, CASE_GRAPHS[case]())
    report["events"], mapped = v3_rejects(report["events"])
    assert mapped == no_open_session
    assert sha256(report_to_json_str(report)) == report_sha256
    assert sha256(json.dumps(rebuilt["interpreter_window"], sort_keys=True)) == windows_sha256
    assert sha256(json.dumps(rebuilt["io_manager"], sort_keys=True)) == io_manager_sha256
    assert sha256(json.dumps(rebuilt["latch_states"], sort_keys=True)) == states_sha256
