"""Config loading, device routing, scripted detection, scenario runs, CLI."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from flowbot.flowcore import (
    AggWindow,
    GraphDef,
    LatchDef,
    LatchState,
    LosslessPolicy,
    LossyPolicy,
    NodeDef,
    Packet,
    SampleChunk,
    SchemaError,
    StreamDef,
    WatchdogConfig,
    validate_graph,
)
from flowbot.harness import (
    Annotation,
    DeviceSample,
    load_graph_config,
    load_scenario,
    reference_pipeline,
    report_to_json_str,
    run_scenario,
    scenario_audio,
    synthesize_audio,
)
from flowbot.flowcore.attention import AnnotationIndex
from flowbot.harness.cli import main as cli_main
from flowbot.harness.config import load_scan_scene, packaged_config_text
from flowbot.harness.nodes import IoManagerNode, harness_kind_registry


def reference_doc() -> dict:
    return json.loads(packaged_config_text("reference_pipeline.json"))


def stub_env():
    return {"audio": SampleChunk(np.zeros(16000), 16000)}


def demo_scenario(script=None, annotations=None, duration_s=4.0, **extra):
    doc = {
        "audio": {"synthetic": {"kind": "silence", "duration_s": duration_s}},
        "annotations": annotations
        if annotations is not None
        else [{"start_s": 2.0, "end_s": 2.5, "label": "keyword"}],
        "interpreter_script": script
        if script is not None
        else [{"trigger_window_index": 5, "skill_id": "get_time", "entities": {}, "confidence": 0.9}],
        "seed": 0,
    }
    doc.update(extra)
    return load_scenario(doc)


# -- graph config loading -------------------------------------------------------


def test_shipped_reference_config_is_valid():
    graph = reference_pipeline()
    assert validate_graph(graph, harness_kind_registry(), env=stub_env()) == []
    assert graph == load_graph_config(reference_doc())


def test_missing_streams_key_is_schema_error():
    with pytest.raises(SchemaError) as exc:
        load_graph_config({"nodes": [], "latches": []})
    assert exc.value.path == "streams"


def test_lossy_stream_without_capacity_points_at_the_entry():
    doc = {
        "nodes": [{"id": "a", "kind": "sink", "params": {}}],
        "streams": [
            {
                "id": "s",
                "from_node": "a",
                "from_port": "out",
                "to_node": "a",
                "to_port": "in",
                "policy": {"kind": "lossy"},
            }
        ],
        "latches": [],
    }
    with pytest.raises(SchemaError) as exc:
        load_graph_config(doc)
    assert exc.value.path == "streams[0].policy"
    assert "capacity" in exc.value.reason


@pytest.mark.parametrize(
    "policy",
    [
        {"kind": "lossy", "capacity": float("inf")},
        {"kind": "lossy", "capacity": 4, "max_successive_misses": float("-inf")},
        {"kind": "lossless", "deadline_us": float("inf")},
    ],
)
def test_infinite_policy_value_is_schema_error(policy):
    # JSON files may spell these as Infinity / -Infinity
    doc = {
        "nodes": [],
        "streams": [{"id": "s", "from_node": "a", "from_port": "out", "policy": policy}],
        "latches": [],
    }
    with pytest.raises(SchemaError) as exc:
        load_graph_config(doc)
    assert exc.value.path == "streams[0].policy"


def test_graph_document_parses_to_the_graph_it_describes():
    doc = {
        "nodes": [
            {"id": "src", "kind": "source", "params": {"count": 3}},
            {"id": "snk", "kind": "sink"},
        ],
        "streams": [
            {"id": "s", "from_node": "src", "from_port": "out", "to_node": "snk", "to_port": "in",
             "policy": {"kind": "lossy", "capacity": 4, "max_successive_misses": 2},
             "watchdog": {"max_latency_us": 1000, "min_throughput_hz": 1.5, "window_us": 500}},
            {"id": "ctl", "from_node": "src", "from_port": "bit",
             "policy": {"kind": "lossless", "deadline_us": 2000}},
        ],
        "latches": [{"stream_id": "s", "control_stream_id": "ctl", "initial_state": "open"}],
    }
    assert load_graph_config(doc) == GraphDef(
        nodes=(NodeDef("src", "source", {"count": 3}), NodeDef("snk", "sink")),
        streams=(
            StreamDef("s", "src", "out", "snk", "in", LossyPolicy(4, 2), WatchdogConfig(1000, 1.5, 500)),
            StreamDef("ctl", "src", "bit", None, None, LosslessPolicy(2000)),
        ),
        latches=(LatchDef("s", "ctl", LatchState.OPEN),),
    )


def test_bad_latch_initial_state_is_schema_error():
    doc = reference_doc()
    doc["latches"][0]["initial_state"] = "Ajar"
    with pytest.raises(SchemaError) as exc:
        load_graph_config(doc)
    assert exc.value.path == "latches[0].initial_state"
    assert exc.value.reason == "must be 'open' or 'closed', got 'ajar'"


@pytest.mark.parametrize(
    "loader, text",
    [
        (load_graph_config, packaged_config_text("reference_pipeline.json")),
        (load_scenario, packaged_config_text("demo_scenario.json")),
        (load_scan_scene, packaged_config_text("demo_scan_scene.json")),
    ],
    ids=["graph", "scenario", "scan_scene"],
)
def test_a_truncated_document_is_a_schema_error_at_its_root(tmp_path, loader, text):
    path = tmp_path / "truncated.json"
    path.write_text(text[: len(text) // 2])
    with pytest.raises(SchemaError) as exc:
        loader(str(path))
    assert exc.value.path == "$" and exc.value.reason.startswith("not valid JSON: ")


# -- io manager -------------------------------------------------------------------


def chunk(n=4):
    return SampleChunk(samples=np.zeros(n), sample_rate_hz=16000)


def route(sample, routing):
    """An io_manager node's context after it routes one sample stamped at
    7 µs, and the node."""
    node = IoManagerNode("io", {"routing": routing}, {})
    ctx = FakeCtx()
    node.on_packet("in", Packet(sample, 7, 0), ctx)
    return ctx, node


def test_route_single_interface():
    sample = DeviceSample("mic0", chunk())
    ctx, node = route(sample, {"mic0": ["ui_audio"]})
    assert ctx.emitted == [("ui_audio", sample.chunk)]
    assert ctx.stamps == [7] and node.dead_letter == 0


def test_route_fans_out_identical_payload():
    sample = DeviceSample("mic0", chunk())
    ctx, node = route(sample, {"mic0": ["ui_audio", "ui_recorder"]})
    assert [port for port, _ in ctx.emitted] == ["ui_audio", "ui_recorder"]
    assert ctx.emitted[0][1] is ctx.emitted[1][1] is sample.chunk
    assert ctx.stamps == [7, 7] and node.dead_letter == 0


def test_unknown_device_dead_letters():
    ctx, node = route(DeviceSample("cam0", chunk()), {"mic0": ["ui_audio"]})
    assert ctx.emitted == [] and node.dead_letter == 1


# -- scripted detector ---------------------------------------------------------------


def test_detector_fires_on_overlap():
    assert AnnotationIndex([Annotation(2.0, 2.5)])(quarter_window(1.75, 2.75)) == 1


def test_detector_quiet_without_annotations():
    assert AnnotationIndex([Annotation(2.0, 2.5)])(quarter_window(0.0, 1.0)) == 0


def test_window_end_boundary_is_half_open():
    assert AnnotationIndex([Annotation(3.0, 3.2)])(quarter_window(2.0, 3.0)) == 0
    assert AnnotationIndex([Annotation(2.999, 3.2)])(quarter_window(2.0, 3.0)) == 1


# spans on a quarter-second grid, so duplicates, nesting and ends that touch a
# window's edge all come up; every grid point is exact in binary floating point
_quarters = st.integers(0, 24).map(lambda q: q / 4)
_spans = st.tuples(_quarters, st.integers(1, 12).map(lambda q: q / 4)).map(
    lambda sl: (sl[0], sl[0] + sl[1])
)


@example(spans=[(1.0, 2.0), (1.0, 2.0), (0.5, 3.0), (1.25, 1.5)], lo=2.0, width=2)
@example(spans=[(0.0, 1.0), (3.0, 4.0)], lo=1.0, width=8)
@example(spans=[], lo=0.0, width=4)
@given(spans=st.lists(_spans, max_size=12), lo=_quarters, width=st.integers(1, 12))
def test_indexed_detector_equals_a_scan_of_every_span(spans, lo, width):
    hi = lo + width / 4
    expected = any(s < hi and lo < e for s, e in spans)
    index = AnnotationIndex([Annotation(s, e) for s, e in spans])
    assert index(quarter_window(lo, hi)) == int(expected)


def quarter_window(lo, hi):
    """An AggWindow spanning ``[lo, hi)`` at 4 samples a second."""
    return AggWindow(0, round(lo * 4), 4, np.zeros(round((hi - lo) * 4)))


def test_scripted_detector_reads_the_annotations_once_at_build():
    annotations = [Annotation(2.0, 2.5)]
    detector = harness_kind_registry().create(
        "attention", "att", {"detector": {"kind": "scripted"}}, {"annotations": annotations}
    ).detector
    annotations.clear()
    assert [detector(quarter_window(t, t + 1.0)) for t in (0.5, 1.0, 1.5, 2.5)] == [0, 0, 1, 0]


# -- scenario audio --------------------------------------------------------------------


def test_synthetic_kinds():
    assert np.all(synthesize_audio({"kind": "silence", "duration_s": 0.5}).samples == 0)
    tone = synthesize_audio({"kind": "tone", "freq_hz": 100.0, "amp": 0.3, "duration_s": 0.5})
    assert np.max(np.abs(tone.samples)) <= 0.3 + 1e-12
    noise1 = synthesize_audio({"kind": "noise", "duration_s": 0.1}, seed=5)
    noise2 = synthesize_audio({"kind": "noise", "duration_s": 0.1}, seed=5)
    np.testing.assert_array_equal(noise1.samples, noise2.samples)
    with pytest.raises(SchemaError):
        synthesize_audio({"kind": "theremin"})


def test_annotation_beyond_audio_rejected():
    scenario = demo_scenario(annotations=[{"start_s": 3.9, "end_s": 4.5}])
    with pytest.raises(SchemaError):
        scenario_audio(scenario)


def test_annotation_beyond_audio_names_its_end_s(tmp_path, capsys):
    annotations = [{"start_s": 1.0, "end_s": 2.0}, {"start_s": 3.9, "end_s": 4.5}]
    with pytest.raises(SchemaError) as exc:
        scenario_audio(demo_scenario(annotations=annotations))
    assert exc.value.path == "annotations[1].end_s"
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"audio": SILENCE_4S, "annotations": annotations}))
    assert cli_main(["run", "--scenario", str(scenario_path)]) == 2
    assert capsys.readouterr().err.startswith("error: annotations[1].end_s:")


# -- end-to-end scenarios ---------------------------------------------------------------


def test_reference_scenario_opens_gate_once_and_runs_get_time():
    scenario = demo_scenario()
    report = run_scenario(reference_pipeline(), scenario)
    latch = report["latches"]["s_win_gated"]
    assert latch["openings"] == 1
    assert latch["forwarded"] == 5 and latch["suppressed"] == 8
    invocations = report["skill_invocations"]
    assert [i["skill_id"] for i in invocations] == ["get_time"]
    assert report["extras"]["speech"][0]["text"].startswith("the time is")
    assert report["conservation_ok"]
    # every invocation traces back to a scripted interpretation
    scripted_ids = {interp.skill_id for _, interp in scenario.interpreter_script}
    assert {i["skill_id"] for i in invocations} <= scripted_ids


def test_no_keyword_means_interpreter_sees_nothing():
    report = run_scenario(reference_pipeline(), demo_scenario(annotations=[]))
    latch = report["latches"]["s_win_gated"]
    assert latch["openings"] == 0
    assert latch["forwarded"] == 0 and latch["suppressed"] == 13
    assert report["skill_invocations"] == []
    assert report["streams"]["s_interp"]["pushed"] == 0


def test_gated_windows_conserved():
    report = run_scenario(reference_pipeline(), demo_scenario())
    latch = report["latches"]["s_win_gated"]
    windows = report["streams"]["s_windows"]["pushed"]
    assert windows == latch["forwarded"] + latch["suppressed"]


def test_reports_are_byte_identical_across_runs():
    a = run_scenario(reference_pipeline(), demo_scenario())
    b = run_scenario(reference_pipeline(), demo_scenario())
    assert report_to_json_str(a) == report_to_json_str(b)


def test_seed_override_changes_report_seed_field():
    report = run_scenario(reference_pipeline(), demo_scenario(), seed=99)
    assert report["seed"] == 99


def test_seed_override_seeds_the_scenario_audio():
    # noise at the RMS threshold: which windows open the gate depends on the seed
    graph = reference_pipeline(detector={"kind": "rms", "threshold": 0.3})
    scenario = demo_scenario(annotations=[], audio={"synthetic": {"kind": "noise", "amp": 0.3, "duration_s": 3.0}})
    overridden = report_to_json_str(run_scenario(graph, scenario, seed=2))
    assert overridden == report_to_json_str(run_scenario(graph, scenario._replace(seed=2)))
    assert overridden != report_to_json_str(run_scenario(graph, scenario))


def test_cli_negative_seed_exits_2(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"audio": {"synthetic": {"kind": "noise", "duration_s": 1.0}}}))
    assert cli_main(["run", "--scenario", str(scenario_path), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed: must be an integer >= 0, got -1\n"


def test_drive_skill_reaches_uart():
    scenario = demo_scenario(
        script=[{
            "trigger_window_index": 5,
            "interpretation": {
                "skill_id": "drive",
                "entities": {"direction": "right_forward", "speed": 128},
                "confidence": 1.0,
            },
        }]
    )
    report = run_scenario(reference_pipeline(), scenario)
    assert report["uart_hex"] == "8002"


def test_prompt_and_followup_fill_a_slot():
    scenario = demo_scenario(
        script=[
            {"trigger_window_index": 5, "skill_id": "find_object", "entities": {}, "confidence": 0.9},
            {"trigger_window_index": 7, "skill_id": "", "entities": {"object_label": "keys"}},
        ]
    )
    report = run_scenario(reference_pipeline(), scenario)
    speech = [s["text"] for s in report["extras"]["speech"]]
    assert any("object label" in t for t in speech)  # the prompt
    assert [i["skill_id"] for i in report["skill_invocations"]] == ["find_object"]
    assert report["skill_invocations"][0]["entities"] == {"object_label": "keys"}


def test_prompt_timeouts_abort_session_with_notice():
    graph = reference_pipeline(
        manager_params={"followup_timeout_s": 0.4, "reprompt_limit": 1}
    )
    scenario = demo_scenario(
        script=[{"trigger_window_index": 5, "skill_id": "find_object", "entities": {}, "confidence": 0.9}],
        time_limit_s=6.0,
    )
    report = run_scenario(graph, scenario)
    assert report["skill_invocations"] == []
    speech = [s["text"] for s in report["extras"]["speech"]]
    assert sum("object label" in t for t in speech) == 2  # prompt + one reprompt
    assert any("giving up" in t for t in speech)
    rejects = [e for e in report["events"] if e["kind"] == "reject"]
    assert rejects and rejects[-1]["reason"] == "session_aborted"


def test_a_timeout_after_its_session_was_answered_does_nothing():
    # the prompt at window 5 is answered at window 7, 0.5 s later; its 1 s
    # timeout still fires, inside the run, and finds the session done
    graph = reference_pipeline(manager_params={"followup_timeout_s": 1.0})
    scenario = demo_scenario(
        script=[
            {"trigger_window_index": 5, "skill_id": "find_object", "entities": {}, "confidence": 0.9},
            {"trigger_window_index": 7, "skill_id": "", "entities": {"object_label": "keys"}},
        ],
        time_limit_s=6.0,
    )
    report = run_scenario(graph, scenario)
    (into_mgr,) = [sd.id for sd in graph.streams if sd.to_node == "mgr"]
    assert report["nodes"]["mgr"]["dispatches"] == report["streams"][into_mgr]["delivered"] + 1
    assert [i["skill_id"] for i in report["skill_invocations"]] == ["find_object"]
    speech = [s["text"] for s in report["extras"]["speech"]]
    assert sum("object label" in t for t in speech) == 1  # the prompt, never repeated
    assert not any(e["kind"] == "reject" for e in report["events"])


def test_reference_pipeline_under_a_real_clock_reports_the_virtual_bytes(wall_clock_guard):
    from flowbot.flowcore import GraphRunner, MonotonicClock, StopCondition, VirtualClock

    scenario = demo_scenario(
        script=[{"trigger_window_index": 0, "skill_id": "get_time", "entities": {}, "confidence": 0.9}],
        annotations=[{"start_s": 0.5, "end_s": 1.0}],
        duration_s=1.0,
    )

    def run(clock):
        env = {
            "audio": scenario_audio(scenario),
            "annotations": list(scenario.annotations),
            "interpreter_script": list(scenario.interpreter_script),
        }
        stop = StopCondition(time_limit_us=1_200_000)
        return GraphRunner(reference_pipeline(), harness_kind_registry(), clock, stop, env=env).run()

    virtual = run(VirtualClock())
    assert [i["skill_id"] for i in virtual.skill_invocations] == ["get_time"]
    with wall_clock_guard(10.0):  # paced over 1.2 s
        real = run(MonotonicClock())
    assert real.to_json_str() == virtual.to_json_str()


def test_low_confidence_interpretation_rejected():
    scenario = demo_scenario(
        script=[{"trigger_window_index": 5, "skill_id": "get_time", "entities": {}, "confidence": 0.2}]
    )
    report = run_scenario(reference_pipeline(), scenario)
    assert report["skill_invocations"] == []
    assert any(
        e["kind"] == "reject" and e["reason"] == "low_confidence" for e in report["events"]
    )


def test_rms_detector_pipeline_with_tone_bursts():
    scenario = load_scenario({
        "audio": {
            "synthetic": {
                "kind": "bursts",
                "duration_s": 4.0,
                "bursts": [{"start_s": 2.0, "end_s": 2.5, "freq_hz": 440.0, "amp": 0.8}],
            }
        },
        "interpreter_script": [
            {"trigger_window_index": 5, "skill_id": "get_time", "entities": {}, "confidence": 0.9}
        ],
        "seed": 1,
    })
    graph = reference_pipeline(detector={"kind": "rms", "threshold": 0.1})
    report = run_scenario(graph, scenario)
    assert report["latches"]["s_win_gated"]["openings"] == 1
    assert [i["skill_id"] for i in report["skill_invocations"]] == ["get_time"]


def test_led_state_stream():
    report = run_scenario(reference_pipeline(), demo_scenario())
    states = [(s["t_us"], s["state"]) for s in report["led_states"]]
    assert states[0] == (0, "awaiting")
    assert ("receiving" in {s for _, s in states}) and ("executing" in {s for _, s in states})
    assert states[-1][1] == "awaiting"


def test_watchdog_on_windows_stream_stays_quiet():
    report = run_scenario(reference_pipeline(), demo_scenario())
    assert report["streams"]["s_windows"]["violations"] == []


def test_high_level_skill_cannot_reach_devices():
    from flowbot.skills import SkillDescriptor, SkillRegistry, register_demo_skills

    registry = SkillRegistry()
    register_demo_skills(registry)
    registry.register(
        SkillDescriptor(id="rogue"),  # high level by default
        lambda entities, ctx: ctx.emit_locomotion(None),
    )
    scenario = demo_scenario(
        script=[{"trigger_window_index": 5, "skill_id": "rogue", "entities": {}, "confidence": 1.0}]
    )
    report = run_scenario(reference_pipeline(), scenario, registry=registry)
    assert report["uart_hex"] == ""
    assert len(report["skill_failures"]) == 1
    assert "emit_locomotion" in report["skill_failures"][0]["error"]


def registry_with_a_broken_skill():
    from flowbot.skills import SkillDescriptor, SkillRegistry, register_demo_skills

    def broken(entities, ctx):
        raise ValueError("nope")

    registry = SkillRegistry()
    register_demo_skills(registry)
    registry.register(SkillDescriptor(id="broken"), broken)
    return registry


GET_TIME_THEN_BROKEN = [
    {"trigger_window_index": 5, "skill_id": "get_time", "entities": {}, "confidence": 1.0},
    {"trigger_window_index": 7, "skill_id": "broken", "entities": {}, "confidence": 1.0},
]


def test_skill_events_are_stamped_with_the_time_of_their_dispatch():
    scenario = demo_scenario(script=GET_TIME_THEN_BROKEN)
    report = run_scenario(reference_pipeline(), scenario, registry=registry_with_a_broken_skill())
    # the interpretation reaches the manager as its window reaches the
    # interpreter: when the 1600-sample chunk holding the window's last
    # sample, 4000 k + 15999, ends
    executed = [((4000 * k + 15999) // 1600 + 1) * 100_000 for k in (5, 7)]
    assert executed == [2_300_000, 2_800_000]
    assert report["skill_invocations"] == [
        {"kind": "invoked", "skill_id": skill_id, "entities": {}, "t_us": t_us}
        for skill_id, t_us in zip(("get_time", "broken"), executed)
    ]
    assert report["skill_failures"] == [
        {"kind": "failed", "skill_id": "broken", "entities": {}, "error": "ValueError: nope",
         "t_us": executed[1]}
    ]


def test_a_run_writes_nothing_to_the_skill_registry_it_is_given():
    # the skill_manager node keeps the skill log; the registry only dispatches
    registry = registry_with_a_broken_skill()
    before = {name: copy.copy(value) for name, value in vars(registry).items()}
    report = run_scenario(reference_pipeline(), demo_scenario(script=GET_TIME_THEN_BROKEN), registry=registry)
    assert len(report["skill_failures"]) == 1
    assert vars(registry) == before


def test_runs_that_reuse_one_registry_give_identical_reports():
    from flowbot.skills import SkillRegistry, register_demo_skills

    registry = SkillRegistry()
    register_demo_skills(registry)
    reports = [
        report_to_json_str(run_scenario(reference_pipeline(), demo_scenario(), registry=registry))
        for _ in range(3)
    ]
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["skill_invocations"][0]["skill_id"] == "get_time"
    assert not hasattr(registry, "events")  # each report gets its own copy; the registry keeps none


# -- resampler node ----------------------------------------------------------------


class FakeCtx:
    def __init__(self):
        self.emitted = []
        self.stamps = []

    def emit(self, port, payload, timestamp_us=None):
        self.emitted.append((port, payload))
        self.stamps.append(timestamp_us)

    def now_us(self):
        return 0

    def log(self, kind, **fields):
        pass


def test_streaming_resampler_node_preserves_tone():
    from flowbot.harness.nodes import ResamplerNode
    from flowbot.flowcore import Packet

    rate = 48000
    t = np.arange(rate) / rate
    samples = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    node = ResamplerNode("rs", {}, {})
    ctx = FakeCtx()
    for start in range(0, rate, 4800):
        chunk = SampleChunk(samples=samples[start : start + 4800], sample_rate_hz=48000)
        node.on_packet("in", Packet(payload=chunk, timestamp_us=0, seq=0), ctx)
    out = np.concatenate([payload.samples for _, payload in ctx.emitted])
    assert len(out) == 16000
    assert all(payload.sample_rate_hz == 16000 for _, payload in ctx.emitted)
    spectrum = np.abs(np.fft.rfft(out))
    assert abs(float(np.argmax(spectrum)) - 1000.0) <= 1.0  # 1 Hz bins
    mid = out[1000:15000]
    gain_db = 20 * np.log10(np.sqrt(np.mean(mid**2)) / (0.5 / np.sqrt(2)))
    assert abs(gain_db) <= 1.0


def test_resampler_node_refuses_a_rate_other_than_48k():
    from flowbot.harness.nodes import ResamplerNode
    from flowbot.flowcore import Packet

    chunk = SampleChunk(samples=np.zeros(160), sample_rate_hz=16000)
    with pytest.raises(ValueError, match="expects 48000 Hz input, got 16000"):
        ResamplerNode("rs", {}, {}).on_packet("in", Packet(payload=chunk, timestamp_us=0, seq=0), FakeCtx())


def test_resampler_in_graph_feeds_16k_aggregator():
    from flowbot.flowcore import (
        GraphDef, NodeDef, StreamDef, LosslessPolicy, StopCondition, graph_run,
    )

    rate = 48000
    t = np.arange(2 * rate) / rate
    audio = SampleChunk(0.5 * np.sin(2 * np.pi * 1000.0 * t), rate)
    lossless = LosslessPolicy(deadline_us=10**9)
    graph = GraphDef(
        nodes=(
            NodeDef("mic", "audio_source", {"chunk_samples": 4800, "pad_to_samples": 0}),
            NodeDef("iomgr", "io_manager", {"routing": {"mic0": ["ui_audio"]}}),
            NodeDef("rs", "resampler_48to16", {}),
            NodeDef("agg", "aggregator", {
                "window_samples": 8000, "hop_samples": 8000, "sample_rate_hz": 16000,
            }),
            NodeDef("att", "attention", {"detector": {"kind": "rms", "threshold": 0.2}}),
            NodeDef("snk", "sink", {}),
        ),
        streams=(
            StreamDef("a", "mic", "out", "iomgr", "in", lossless),
            StreamDef("b", "iomgr", "ui_audio", "rs", "in", lossless),
            StreamDef("c", "rs", "out", "agg", "in", lossless),
            StreamDef("d", "agg", "windows", "att", "in", lossless),
            StreamDef("e", "att", "bit", "snk", "in", lossless),
        ),
    )
    report = graph_run(graph, kinds=harness_kind_registry(), env={"audio": audio},
                       stop=StopCondition(time_limit_us=5_000_000))
    assert report.status == "ok"
    # 96000 input samples -> 32000 resampled -> 4 windows -> 4 bits
    assert report.streams["d"]["pushed"] == 4
    assert report.streams["e"]["pushed"] == 4


def test_unrouted_device_dead_letters_in_graph():
    from flowbot.flowcore import (
        GraphDef, NodeDef, StreamDef, LosslessPolicy, StopCondition, graph_run,
    )

    audio = SampleChunk(np.zeros(8000), 16000)
    graph = GraphDef(
        nodes=(
            NodeDef("mic", "audio_source", {"device_id": "cam0", "chunk_samples": 1600,
                                            "pad_to_samples": 0}),
            NodeDef("iomgr", "io_manager", {"routing": {"mic0": ["ui_audio"]}}),
            NodeDef("snk", "sink", {}),
        ),
        streams=(
            StreamDef("a", "mic", "out", "iomgr", "in", LosslessPolicy(deadline_us=10**9)),
            StreamDef("b", "iomgr", "ui_audio", "snk", "in", LosslessPolicy(deadline_us=10**9)),
        ),
    )
    report = graph_run(graph, kinds=harness_kind_registry(), env={"audio": audio},
                       stop=StopCondition(time_limit_us=2_000_000))
    assert report.extras["io_manager"] == [{"dead_letter": 5}]
    assert report.streams["b"]["pushed"] == 0
    assert report.events == []  # the count is the channel's; no entry per packet


def nested_lists(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from nested_lists(item)
    elif isinstance(value, list):
        yield value
        for item in value:
            yield from nested_lists(item)


def test_the_demo_report_does_not_grow_with_the_number_of_windows():
    # one-sample windows: 64 000 of them, 8000 through the gate
    doc = reference_doc()
    (agg,) = (nd for nd in doc["nodes"] if nd["kind"] == "aggregator")
    agg["params"].update(window_samples=1, hop_samples=1)
    scenario = load_scenario(json.loads(packaged_config_text("demo_scenario.json")))
    report = run_scenario(load_graph_config(doc), scenario)
    assert report["status"] == "ok"
    assert report["latches"]["s_win_gated"]["forwarded"] == 8000
    assert report["events"] == []
    assert max(map(len, nested_lists(report))) <= 3
    assert len(report_to_json_str(report)) < 4096


def test_cli_run_and_validate(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({
        "audio": {"synthetic": {"kind": "silence", "duration_s": 4.0}},
        "annotations": [{"start_s": 2.0, "end_s": 2.5}],
        "interpreter_script": [
            {"trigger_window_index": 5, "skill_id": "get_time", "entities": {}, "confidence": 0.9}
        ],
        "seed": 0,
    }))
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(reference_doc()))
    report_path = tmp_path / "report.json"

    code = cli_main([
        "run", "--graph", str(graph_path), "--scenario", str(scenario_path),
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["status"] == "ok"
    assert [i["skill_id"] for i in report["skill_invocations"]] == ["get_time"]

    assert cli_main(["validate", "--graph", str(graph_path)]) == 0
    assert "ok" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": [], "latches": []}))
    assert cli_main(["validate", "--graph", str(bad)]) == 2


def test_the_committed_demo_report_is_what_the_demo_script_writes(tmp_path):
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_reference_demo.py")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "demo_report.json").read_text() == (root / "demo_report.json").read_text()


def test_a_path_that_begins_with_a_brace_is_read_as_a_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "{g}.json").write_text(packaged_config_text("reference_pipeline.json"))
    (tmp_path / "{s}.json").write_text(packaged_config_text("demo_scenario.json"))
    assert load_graph_config("{g}.json") == reference_pipeline()
    assert load_scenario("{s}.json") == load_scenario(json.loads(packaged_config_text("demo_scenario.json")))
    assert cli_main(["validate", "--graph", "{g}.json"]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "section, index, key, value, path",
    [
        ("nodes", 0, "params", [1], "nodes[0].params"),
        ("streams", 0, "policy", "lossy", "streams[0].policy"),
        ("streams", 2, "watchdog", [1_000_000], "streams[2].watchdog"),
    ],
)
def test_cli_non_object_section_exits_2_naming_its_path(
    tmp_path, capsys, command, section, index, key, value, path
):
    doc = reference_doc()
    doc[section][index][key] = value
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(doc))
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(packaged_config_text("demo_scenario.json"))
    argv = ["validate", "--graph", str(graph_path)]
    if command == "run":
        argv = ["run", "--graph", str(graph_path), "--scenario", str(scenario_path)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert path in err and "must be an object" in err


def _write_graph_and_scenario(tmp_path, doc):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(doc))
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(packaged_config_text("demo_scenario.json"))
    return str(graph_path), str(scenario_path)


@pytest.mark.parametrize(
    "detector, key",
    [
        ({"kind": "rms", "threshold": "x"}, "detector.threshold"),
        ({"kind": "rms", "threshold": float("nan")}, "detector.threshold"),
        ({"kind": "constant", "value": "x"}, "detector.value"),
        ({"kind": "constant", "value": None}, "detector.value"),
        ({"kind": "constant", "value": 0.9}, "detector.value"),
    ],
    ids=["rms-text", "rms-nan", "constant-text", "constant-null", "constant-fraction"],
)
def test_bad_detector_param_is_a_build_error_naming_its_key(tmp_path, capsys, detector, key):
    # a detector that failed on every window would fail safe to 0 and
    # silently switch attention off; the spec is checked when the node is built
    doc = reference_doc()
    doc["nodes"][4]["params"]["detector"] = detector  # att
    graph = load_graph_config(doc)
    diags = validate_graph(graph, harness_kind_registry(), env=stub_env())
    assert [d.code for d in diags] == ["BadNodeParams"]
    assert diags[0].location == "node att" and diags[0].reason.startswith(key)
    graph_path, scenario_path = _write_graph_and_scenario(tmp_path, doc)
    assert cli_main(["validate", "--graph", graph_path]) == 2
    assert key in capsys.readouterr().err
    assert cli_main(["run", "--graph", graph_path, "--scenario", scenario_path]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("bad", [0, -1.0, 1e303], ids=["zero", "negative", "overflows"])
def test_bad_followup_timeout_is_a_build_error(tmp_path, capsys, bad):
    # 1e303 s is finite, but its microseconds are not: the first prompt
    # would fail with an OverflowError in the middle of a run
    doc = reference_doc()
    doc["nodes"][6]["params"] = {"followup_timeout_s": bad}  # mgr
    graph = load_graph_config(doc)
    diags = validate_graph(graph, harness_kind_registry(), env=stub_env())
    assert [(d.code, d.location) for d in diags] == [("BadNodeParams", "node mgr")]
    assert diags[0].reason.startswith("followup_timeout_s: ")
    graph_path, scenario_path = _write_graph_and_scenario(tmp_path, doc)
    assert cli_main(["validate", "--graph", graph_path]) == 2
    assert "BadNodeParams at node mgr: followup_timeout_s: " in capsys.readouterr().err
    assert cli_main(["run", "--graph", graph_path, "--scenario", scenario_path]) == 2
    assert "BadNodeParams at node mgr: followup_timeout_s: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, bad",
    [(key, bad) for key in ("max_latency_us", "min_throughput_hz", "window_us")
     for bad in (float("nan"), float("inf"), True, "1000")]
    + [("max_latency_us", 2.5), ("window_us", 2.5)],
)
def test_bad_watchdog_bound_is_schema_error_naming_its_key(tmp_path, capsys, key, bad):
    # NaN fails every comparison, so it would switch the bound off silently;
    # true once passed as 1, and window_us 2.5 as a fractional window
    doc = reference_doc()
    watchdog = {"max_latency_us": 1_000_000, "min_throughput_hz": 1.0, "window_us": 1_000_000}
    watchdog[key] = bad
    doc["streams"][2]["watchdog"] = watchdog
    with pytest.raises(SchemaError) as exc:
        load_graph_config(doc)
    assert exc.value.path == f"streams[2].watchdog.{key}"
    graph_path, _ = _write_graph_and_scenario(tmp_path, doc)  # JSON spells NaN / Infinity
    assert cli_main(["validate", "--graph", graph_path]) == 2
    err = capsys.readouterr().err
    assert f"streams[2].watchdog.{key}: must be " in err and "Traceback" not in err


def test_watchdog_throughput_bound_without_window_is_schema_error_at_the_watchdog():
    doc = reference_doc()
    doc["streams"][2]["watchdog"] = {"min_throughput_hz": 1.0}
    with pytest.raises(SchemaError) as exc:
        load_graph_config(doc)
    assert (exc.value.path, exc.value.reason) == ("streams[2].watchdog", "min_throughput_hz requires window_us")


def test_node_that_fails_to_build_gives_no_unresolved_endpoint_diagnostics():
    doc = reference_doc()
    doc["nodes"][2]["params"]["window_samples"] = "abc"  # agg: two streams touch it
    diags = validate_graph(load_graph_config(doc), harness_kind_registry(), env=stub_env())
    assert [(d.code, d.location) for d in diags] == [("BadNodeParams", "node agg")]


def test_unknown_kind_and_unknown_endpoint_are_still_reported():
    doc = reference_doc()
    doc["nodes"][2]["kind"] = "no_such_kind"
    doc["streams"][3]["from_node"] = "nowhere"
    diags = validate_graph(load_graph_config(doc), harness_kind_registry(), env=stub_env())
    assert [(d.code, d.location) for d in diags] == [
        ("UnknownNodeKind", "node agg"),
        ("UnresolvedEndpoint", "stream s_win_att"),
        ("UnconnectedPort", "node split"),
    ]


SILENCE_4S = {"synthetic": {"kind": "silence", "duration_s": 4.0}}


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"audio": SILENCE_4S, "annotations": [{"end_s": 2.5}]}, "annotations[0].start_s"),
        (
            {"audio": SILENCE_4S,
             "interpreter_script": [{"trigger_window_index": "five", "skill_id": "get_time"}]},
            "interpreter_script[0].trigger_window_index",
        ),
        ({"audio": {"synthetic": {"kind": "silence", "duration_s": -1}}},
         "audio.synthetic.duration_s"),
        ({"audio": {"synthetic": {"kind": "silence", "duration_s": float("inf")}}},
         "audio.synthetic.duration_s"),
        ({"audio": {"synthetic": {"kind": "silence", "duration_s": float("nan")}}},
         "audio.synthetic.duration_s"),
        (
            {"audio": SILENCE_4S,
             "interpreter_script": [{"trigger_window_index": 1, "skill_id": ["get_time"]}]},
            "interpreter_script[0].skill_id",
        ),
        (
            {"audio": SILENCE_4S,
             "interpreter_script": [
                 {"trigger_window_index": 1, "skill_id": "get_time"},
                 {"trigger_window_index": 2, "interpretation": {"skill_id": 7}},
             ]},
            "interpreter_script[1].interpretation.skill_id",
        ),
        ({"audio": SILENCE_4S, "seed": -1}, "seed"),
        ({"audio": {"wav": "no-such-file.wav"}}, "audio.wav"),
        ({"audio": {"wav": "B\u0000x"}}, "audio.wav"),
        ({"audio": SILENCE_4S, "time_limit_s": 1e303}, "time_limit_s"),
        ({"audio": {"synthetic": {"kind": "silence", "duration_s": 1e300}}},
         "audio.synthetic.duration_s"),
        # 1.1 EiB of samples: numpy fails to allocate it on any host
        ({"audio": {"synthetic": {"kind": "silence", "duration_s": 1e13}}, "time_limit_s": 1.0},
         "audio.synthetic.duration_s"),
        ({"audio": SILENCE_4S, "annotations": [{"start_s": 2.5, "end_s": 2.5}]}, "annotations[0].end_s"),
    ],
)
def test_cli_malformed_scenario_exits_2_naming_its_path(tmp_path, capsys, doc, path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--scenario", str(scenario_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and "Traceback" not in err


def test_non_string_skill_id_is_schema_error_naming_its_path():
    doc = {"audio": SILENCE_4S,
           "interpreter_script": [{"trigger_window_index": 1, "skill_id": ["get_time"]}]}
    with pytest.raises(SchemaError) as exc:
        load_scenario(doc)
    assert exc.value.path == "interpreter_script[0].skill_id"


@pytest.mark.parametrize("confidence", [1.5, -0.25])
@pytest.mark.parametrize(
    "entry, path",
    [
        ({"trigger_window_index": 5, "skill_id": "get_time"}, "interpreter_script[0].confidence"),
        ({"trigger_window_index": 5, "interpretation": {"skill_id": "get_time"}},
         "interpreter_script[0].interpretation.confidence"),
    ],
    ids=["flat", "nested"],
)
def test_cli_confidence_outside_unit_interval_exits_2(tmp_path, capsys, entry, path, confidence):
    # window 5 overlaps the annotation, so a confidence that got past loading
    # would fail the run at the interpreter instead
    entry = json.loads(json.dumps(entry))
    (entry.get("interpretation") or entry)["confidence"] = confidence
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({
        "audio": SILENCE_4S,
        "annotations": [{"start_s": 2.0, "end_s": 2.5}],
        "interpreter_script": [entry],
    }))
    assert cli_main(["run", "--scenario", str(scenario_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: must be in [0, 1], got {confidence:g}")
    assert "Traceback" not in err


def test_cli_run_ignores_the_ultrasonic_scene_key(tmp_path):
    # scans read their own scene file; a scenario's ultrasonic_scene is not parsed
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({
        "audio": {"synthetic": {"kind": "silence", "duration_s": 1.0}},
        "ultrasonic_scene": [{"distance_m": 1.0}],
    }))
    assert cli_main(["run", "--scenario", str(scenario_path),
                     "--report", str(tmp_path / "r.json")]) == 0


def test_cli_run_uses_packaged_default_graph(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({
        "audio": {"synthetic": {"kind": "silence", "duration_s": 1.0}},
        "seed": 0,
    }))
    assert cli_main(["run", "--scenario", str(scenario_path),
                     "--report", str(tmp_path / "r.json")]) == 0


def test_cli_params(capsys):
    assert cli_main(["params"]) == 0
    out = capsys.readouterr().out
    assert "15360" in out and "250304" in out and "pinned" in out


def test_cli_scan(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "climb_height_m": 0.05,
        "ultrasonic_scene": [
            {"theta_deg": 0, "distance_m": 1.0},
            {"theta_deg": 45, "distance_m": 1.0},
            {"theta_deg": 75, "distance_m": None},
        ],
    }))
    out_csv = tmp_path / "scan.csv"
    assert cli_main(["scan", "--scene", str(scene), "--mode", "paper",
                     "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0].startswith("theta_deg,")
    assert len(lines) == 4
    assert "obstacle" in lines[2] and "no_echo" in lines[3]

    assert cli_main(["scan", "--scene", str(scene), "--mode", "trig"]) == 0
    assert "climbable" in capsys.readouterr().out


def test_cli_rejects_missing_files(tmp_path):
    assert cli_main(["run", "--scenario", str(tmp_path / "nope.json")]) == 2
    assert cli_main(["scan", "--scene", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("command, flag", [("run", "--report"), ("scan", "--out")])
def test_cli_unwritable_output_exits_2_naming_its_flag(tmp_path, capsys, command, flag):
    if command == "run":
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"audio": SILENCE_4S}))
        argv = ["run", "--scenario", str(scenario)]
    else:
        argv = ["scan", "--scene", str(tmp_path / "scene.json")]
        (tmp_path / "scene.json").write_text(packaged_config_text("demo_scan_scene.json"))
    out = tmp_path / "no_such_dir" / "out.txt"
    assert cli_main(argv + [flag, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.endswith(f" ({flag} {out})\n")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("flag", ["run --scenario", "validate --graph", "scan --scene"])
def test_cli_rejects_a_file_that_is_not_utf8(tmp_path, capsys, flag):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"audio": \xff}')
    assert cli_main(flag.split() + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "utf-8" in err


@pytest.mark.parametrize("content", [b'{"audio": \xff}', b'{"audio": '],
                         ids=["not_utf8", "truncated"])
@pytest.mark.parametrize(
    "command, flag",
    [("run", "--graph"), ("run", "--scenario"), ("validate", "--graph"), ("scan", "--scene")],
)
def test_cli_unloadable_file_error_names_its_flag_and_file(tmp_path, capsys, command, flag, content):
    bad = tmp_path / "broken.json"
    bad.write_bytes(content)
    argv = [command, flag, str(bad)]
    if command == "run" and flag == "--graph":
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"audio": SILENCE_4S}))
        argv += ["--scenario", str(scenario)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.endswith(f" ({flag} {bad})\n")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "entry, path",
    [
        ({}, "ultrasonic_scene[0].theta_deg"),
        ({"theta_deg": "30"}, "ultrasonic_scene[0].theta_deg"),
        ({"theta_deg": 30, "t_s": "fast"}, "ultrasonic_scene[0].t_s"),
        ({"theta_deg": 30, "distance_m": [1.0]}, "ultrasonic_scene[0].distance_m"),
        (7, "ultrasonic_scene[0]"),
    ],
)
def test_cli_scan_rejects_a_malformed_scene_entry_naming_its_path(tmp_path, capsys, entry, path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"ultrasonic_scene": [entry]}))
    assert cli_main(["scan", "--scene", str(scene)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and "Traceback" not in err


@pytest.mark.parametrize("climb", ["nan", "inf"])
def test_cli_scan_rejects_a_non_finite_climb_naming_the_flag(tmp_path, capsys, climb):
    scene = tmp_path / "scene.json"
    scene.write_text(packaged_config_text("demo_scan_scene.json"))
    assert cli_main(["scan", "--scene", str(scene), "--climb", climb]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --climb:") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "scene",
    [
        {"ultrasonic_scene": [{"theta_deg": 30, "distance_m": -1.0}]},
        {"ultrasonic_scene": [], "d_max_m": 0},
    ],
)
def test_cli_scan_out_of_range_values_exit_2(tmp_path, scene):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    assert cli_main(["scan", "--scene", str(path)]) == 2
