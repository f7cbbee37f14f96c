"""Property test: whole CLI runs on fuzzed files exit 0, 1 or 2 and never raise.

``flowbot run`` gets fuzzed scenario files against the packaged graph, and
fuzzed graph files against a short scenario; ``flowbot scan`` gets fuzzed
scene files. Every call goes through ``cli.main``. Synthetic audio lasts at
most 5 s, except for lengths far beyond any address space, which fail when
numpy tries to allocate them. Graph params are bounded, so that no example
builds a run of many thousands of chunks or windows.
"""

import copy
import json
import struct
from math import inf, nan

from hypothesis import HealthCheck, given, settings, strategies as st

from flowbot.harness.cli import main as cli_main
from flowbot.harness.config import packaged_config_text

FUZZ = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

junk = (
    st.none()
    | st.booleans()
    | st.text(max_size=3)
    | st.sampled_from([nan, inf, -inf, -1, 0, [], {}, [1], {"a": 1}])
)


def small(hi: float):
    return st.integers(-1, int(hi)) | st.floats(-1.0, hi)


def objects(**fields):
    """Objects holding some of ``fields``."""
    return st.fixed_dictionaries({}, optional=fields)


def lists_of(items):
    return st.lists(items, max_size=3)


def _slots(doc):
    """Every (container, key) in ``doc``, at any depth."""
    keys = doc.keys() if isinstance(doc, dict) else range(len(doc)) if isinstance(doc, list) else ()
    for key in keys:
        yield doc, key
        yield from _slots(doc[key])


@st.composite
def spoiled(draw, docs):
    """A document from ``docs``; half of them get junk in one place, at any depth.

    The junk goes into a copy: a strategy such as ``st.just`` hands the same
    object to every example, and a spoil must not leak into the next one."""
    doc = copy.deepcopy(draw(docs))
    slots = list(_slots(doc))
    if slots and draw(st.booleans()):
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(junk)
    return doc


# -- run: scenarios against the packaged graph --------------------------------

# lengths that fail at allocation on any host: 1e13 s at 16 kHz is 1.1 EiB
ABSURD_S = [1e13, 1e300]

synthetic = objects(
    kind=st.sampled_from(["silence", "tone", "bursts", "noise", "chirp"]),
    sample_rate_hz=st.sampled_from([8000, 16000, 48000]) | st.integers(-1, 4),
    duration_s=st.floats(0.0, 5.0) | st.sampled_from(ABSURD_S),
    amp=small(2),
    freq_hz=small(9000),
    bursts=lists_of(objects(start_s=small(5), end_s=small(5), amp=small(2), freq_hz=small(9000))),
)
SKILL_IDS = ["get_time", "find_object", "find_person", "call_phone", "schedule_note", "drive", "", "nope"]
entities = objects(
    direction=st.sampled_from(["left_forward", "right_backward", "up"]),
    speed=st.integers(-1, 300) | st.sampled_from(["fast", 3.5]),
    note=st.text(max_size=3),
    when=st.text(max_size=3),
    object_label=st.text(max_size=3),
    person_name=st.text(max_size=3),
    contact_name=st.text(max_size=3),
)
script_entry = st.fixed_dictionaries(
    {"trigger_window_index": st.integers(0, 20)},
    optional={"skill_id": st.sampled_from(SKILL_IDS), "entities": entities, "confidence": st.floats(0.0, 1.0)},
)


def wav_bytes(channels: int, rate: int, bits: int, data: bytes) -> bytes:
    """A RIFF PCM header with the given fields, then ``data``."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * block, block, bits)
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


# mostly well-formed mono 16-bit files, so that many examples reach a run
wav_files = st.builds(
    wav_bytes,
    st.sampled_from([1, 1, 1, 2, 0]),
    st.sampled_from([16000, 16000, 8000, 0, 1]),
    st.sampled_from([16, 16, 16, 8, 24]),
    st.binary(max_size=64),
) | st.binary(max_size=64)

scenarios = spoiled(st.fixed_dictionaries(
    {"audio": st.fixed_dictionaries({"synthetic": synthetic}) | st.just({"wav": "audio.wav"})},
    optional={
        "annotations": lists_of(st.builds(
            lambda start, length: {"start_s": start, "end_s": start + length},
            st.floats(0.0, 4.0), st.floats(0.1, 1.0),
        )),
        "interpreter_script": lists_of(script_entry),
        "time_limit_s": st.floats(0.0, 6.0),
        "seed": st.integers(0, 5),
    },
))


@FUZZ
@given(scenarios, wav_files)
def test_run_on_fuzzed_scenarios_exits_0_1_or_2(tmp_path, scenario, wav):
    wav_path = tmp_path / "audio.wav"
    wav_path.write_bytes(wav)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario).replace('"audio.wav"', json.dumps(str(wav_path))))
    argv = ["run", "--scenario", str(path), "--report", str(tmp_path / "report.json")]
    assert cli_main(argv) in (0, 1, 2)


# -- run: graphs against a short scenario -------------------------------------

SHORT_SCENARIO = {
    "audio": {"synthetic": {"kind": "bursts", "duration_s": 2.0,
                            "bursts": [{"start_s": 0.5, "end_s": 1.0}]}},
    "annotations": [{"start_s": 0.5, "end_s": 1.0}],
    "interpreter_script": [
        {"trigger_window_index": 1, "skill_id": "drive",
         "entities": {"direction": "left_forward", "speed": 3}},
        {"trigger_window_index": 2, "skill_id": "get_time"},
    ],
    "time_limit_s": 3.0,
}
IDS = ["mic", "iomgr", "agg", "split", "att", "interp", "mgr", "speaker", "uart", "nope",
       "s_mic", "s_windows", "s_ctl", "s_win_gated", "in", "out", "bit", "windows",
       "mic0", "ui_audio", "win_att", "win_gate", "lossy", "lossless", "open", "closed"]
# sizes from 250 up, so that no example runs thousands of chunks per second of audio
sizes = st.sampled_from([-1, 0, 250, 1600, 4000, 16000, 20000]) | st.integers(250, 20_000)
values = (
    sizes
    | st.floats(-1.0, 20_000.0)
    | st.sampled_from(IDS)
    | st.lists(st.sampled_from(IDS), max_size=3)
    | objects(kind=st.sampled_from(["lossy", "lossless"]), capacity=sizes,
              max_successive_misses=sizes, deadline_us=sizes)
    | objects(max_latency_us=sizes, min_throughput_hz=small(50), window_us=sizes)
    | objects(kind=st.sampled_from(["rms", "constant", "scripted", "nope"]),
              threshold=small(1), value=st.integers(0, 1))
    | st.dictionaries(st.sampled_from(["mic0", "mic1"]), st.lists(st.sampled_from(IDS), max_size=2),
                      max_size=2)
    | junk
)
PARAM_KEYS = ["device_id", "chunk_samples", "pad_to_samples", "routing", "window_samples",
              "hop_samples", "sample_rate_hz", "outputs", "detector"]
FIELD_KEYS = ["id", "kind", "from_node", "from_port", "to_node", "to_port", "policy", "watchdog",
              "stream_id", "control_stream_id", "initial_state"]


@FUZZ
@given(st.data())
def test_run_on_fuzzed_graphs_exits_0_1_or_2(tmp_path, data):
    graph = json.loads(packaged_config_text("reference_pipeline.json"))
    for _ in range(data.draw(st.integers(1, 3))):
        section = graph[data.draw(st.sampled_from(["nodes", "streams", "latches"]))]
        if not section:
            continue
        item = data.draw(st.sampled_from(section))
        if "params" in item and data.draw(st.booleans()):
            target, key = item["params"], data.draw(st.sampled_from(PARAM_KEYS))
        else:
            target, key = item, data.draw(st.sampled_from(FIELD_KEYS))
        if key in target and data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(values)
    graph_path, scenario_path = tmp_path / "graph.json", tmp_path / "scenario.json"
    graph_path.write_text(json.dumps(graph))
    scenario_path.write_text(json.dumps(SHORT_SCENARIO))
    argv = ["run", "--graph", str(graph_path), "--scenario", str(scenario_path),
            "--report", str(tmp_path / "report.json")]
    assert cli_main(argv) in (0, 1, 2)


# -- scan: scene files ----------------------------------------------------------

scenes = spoiled(st.fixed_dictionaries(
    {"ultrasonic_scene": lists_of(objects(
        theta_deg=st.floats(0.0, 120.0) | small(130), t_s=st.floats(0.0, 0.02) | st.none(), distance_m=small(3) | st.none(),
    ))},
    optional={"d_max_m": small(5), "c_air_mps": small(400), "climb_height_m": small(1)},
))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenes, st.sampled_from(["paper", "trig"]),
       st.none() | st.sampled_from(["0.05", "-1", "nan", "inf", "1e400"]))
def test_scan_on_fuzzed_scenes_exits_0_1_or_2(tmp_path, scene, mode, climb):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    argv = ["scan", "--scene", str(path), "--mode", mode, "--out", str(tmp_path / "points.csv")]
    if climb is not None:
        argv += ["--climb", climb]
    assert cli_main(argv) in (0, 1, 2)
