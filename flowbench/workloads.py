"""The three benchmark workloads: seeded input generation, runs and oracles.

Every workload is a batch replay under the virtual clock, in one process on
one thread. ``generate`` writes the WAV, scenario JSON and graph JSON for a
seed into a directory; every other function reads only those files, through
the public loaders.

Runs come in three flavours that must give byte-identical reports:

* ``Workload.run_plain`` is the timed public entry point with the stock
  ``VirtualClock`` (``run_scenario`` or ``graph_run`` plus serialisation);
* ``Workload.build_runner`` + ``Workload.finish`` build a ``GraphRunner``
  with a caller-supplied clock and environment, for the recording-clock and
  traced runs, and serialise its report exactly as the public entry does.
"""

from __future__ import annotations

import hashlib
import json
import os
import wave
from time import perf_counter

import numpy as np

from flowbot.dsp.logmel import logmel
from flowbot.flowcore import (
    GraphRunner,
    Node,
    PortSpec,
    StopCondition,
    VirtualClock,
    default_kind_registry,
    graph_run,
    register_detector,
)
from flowbot.harness import (
    harness_kind_registry,
    load_graph_config,
    load_scenario,
    report_to_json_str,
    run_scenario,
    scenario_audio,
)
from flowbot.harness.config import packaged_config_text
# run_scenario builds its runner internally; the recording-clock and traced
# runs build their own and must serialise the same document, LED states included.
from flowbot.harness.reference import _led_states
from flowbot.skills.builtin import register_demo_skills
from flowbot.skills.registry import SkillRegistry

GRAPH_FILE = "graph.json"
SCENARIO_FILE = "scenario.json"
AUDIO_FILE = "audio.wav"
SPEC_FILE = "spec.json"

# Window geometry of the packaged reference graph (1 s window, 250 ms hop).
WINDOW_S = 1.0
HOP_S = 0.25

TOGGLE_EVERY = 50


# -- benchmark-owned plug-ins -------------------------------------------------


class BitToggler(Node):
    """Emits an alternating bit (starting at 1) on every ``every``-th packet."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self.every = int(params.get("every", TOGGLE_EVERY))
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


def _logmel_detector(spec: dict, env: dict):
    """Keyword-spotting stand-in: log-mel of the window, then a threshold on
    the peak band energy. Under tracing, the log-mel call is its own span."""
    threshold = float(spec["threshold"])
    tracer = env.get("bench_tracer")
    features = tracer.wrap("dsp.logmel", logmel) if tracer is not None else logmel

    def detect(window) -> int:
        return int(float(features(window.samples).matrix.max()) > threshold)

    return detect


register_detector("bench_logmel", _logmel_detector)


def executor_kinds():
    kinds = default_kind_registry()
    kinds.register("bench_toggler", BitToggler)
    return kinds


# -- input generation ---------------------------------------------------------


def _write_wav(path: str, samples: np.ndarray, rate: int) -> None:
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _first_window_overlapping(start_s: float, end_s: float) -> int:
    """Index of the first aggregation window whose [i*hop, i*hop + window)
    span overlaps [start_s, end_s)."""
    i = 0
    while not (i * HOP_S < end_s and start_s < i * HOP_S + WINDOW_S):
        i += 1
    return i


def _script_entry(k: int, window_index: int, rng: np.random.Generator) -> dict:
    """Scripted interpretation number ``k``: rotates get_time, drive, find_object."""
    skill = ("get_time", "drive", "find_object")[k % 3]
    if skill == "drive":
        entities = {
            "direction": ("left_forward", "left_backward", "right_forward", "right_backward")[
                int(rng.integers(4))
            ],
            "speed": int(rng.integers(1, 256)),
        }
    elif skill == "find_object":
        entities = {"object_label": ("cup", "keys", "phone", "book")[int(rng.integers(4))]}
    else:
        entities = {}
    return {
        "trigger_window_index": window_index,
        "skill_id": skill,
        "entities": entities,
        "confidence": 0.9,
    }


def _speech_spec(duration_s: float, script: list, n_gates: int) -> dict:
    return {
        "kind": "speech",
        "virtual_s": duration_s,
        "n_gates": n_gates,
        "n_triggers": len(script),
        "n_drive": sum(1 for e in script if e["skill_id"] == "drive"),
    }


def generate_speech_ref(seed: int, out_dir: str, duration_s: float = 600.0) -> dict:
    """16 kHz noise with a scripted keyword about every 20 s, the packaged graph."""
    rng = np.random.default_rng(seed)
    rate = 16000
    noise = np.clip(0.1 * rng.standard_normal(int(duration_s * rate)), -1.0, 1.0)
    _write_wav(os.path.join(out_dir, AUDIO_FILE), noise, rate)
    annotations, script = [], []
    for k in range(int(duration_s // 20)):
        start = round(20.0 * k + 5.0 + float(rng.uniform(0.0, 10.0)), 3)
        end = round(start + float(rng.uniform(0.4, 0.6)), 3)
        annotations.append({"start_s": start, "end_s": end, "label": "keyword"})
        script.append(_script_entry(k, _first_window_overlapping(start, end), rng))
    _write_json(os.path.join(out_dir, SCENARIO_FILE), {
        "audio": {"wav": os.path.join(out_dir, AUDIO_FILE)},
        "annotations": annotations,
        "interpreter_script": script,
        "time_limit_s": duration_s + 1.0,
        "seed": seed,
    })
    with open(os.path.join(out_dir, GRAPH_FILE), "w", encoding="utf-8") as fh:
        fh.write(packaged_config_text("reference_pipeline.json"))
    return _speech_spec(duration_s, script, len(annotations))


def generate_kws_frontend_48k(seed: int, out_dir: str, duration_s: float = 60.0) -> dict:
    """48 kHz tone bursts over noise; the packaged graph with a resampler
    spliced in after the I/O manager and a log-mel attention detector."""
    rng = np.random.default_rng(seed)
    rate = 48000
    n = int(duration_s * rate)
    samples = 0.01 * rng.standard_normal(n)
    t = np.arange(n) / rate
    script = []
    for k in range(int(duration_s // 10)):
        start = round(10.0 * k + 3.0 + float(rng.uniform(0.0, 4.0)), 3)
        lo, hi = int(start * rate), int((start + 0.5) * rate)
        freq = float(rng.uniform(500.0, 3000.0))
        samples[lo:hi] += 0.3 * np.sin(2 * np.pi * freq * t[lo:hi])
        # the window starting at or just before the burst contains all of it
        script.append(_script_entry(k, int(start // HOP_S), rng))
    _write_wav(os.path.join(out_dir, AUDIO_FILE), samples, rate)
    _write_json(os.path.join(out_dir, SCENARIO_FILE), {
        "audio": {"wav": os.path.join(out_dir, AUDIO_FILE)},
        "interpreter_script": script,
        "time_limit_s": duration_s + 1.0,
        "seed": seed,
    })
    graph = json.loads(packaged_config_text("reference_pipeline.json"))
    for node in graph["nodes"]:
        if node["kind"] == "attention":
            node["params"]["detector"] = {"kind": "bench_logmel", "threshold": 0.0}
    io_node = next(node["id"] for node in graph["nodes"] if node["kind"] == "io_manager")
    io_out = next(stream for stream in graph["streams"] if stream["from_node"] == io_node)
    graph["nodes"].append({"id": "resamp", "kind": "resampler_48to16", "params": {}})
    graph["streams"].append({
        "id": "s_resampled", "from_node": "resamp", "from_port": "out",
        "to_node": io_out["to_node"], "to_port": io_out["to_port"],
        "policy": dict(io_out["policy"]),
    })
    io_out["to_node"], io_out["to_port"] = "resamp", "in"
    _write_json(os.path.join(out_dir, GRAPH_FILE), graph)
    return _speech_spec(duration_s, script, len(script))


FANOUT_STREAMS = ("s_wd", "s_lossy", "s_ctl_in", "s_gated")


def generate_executor_fanout(seed: int, out_dir: str, base_count: int = 10_000) -> dict:
    """A 1 kHz source into a 4-way splitter: watchdog, lossy+poll, latch control
    and latch-gated branches. Payloads are small integers; no numpy runs."""
    rng = np.random.default_rng(seed)
    count = base_count + TOGGLE_EVERY * int(rng.integers(0, 4))
    start_us = 1000 * int(rng.integers(0, 50))
    lossless = {"kind": "lossless", "deadline_us": 2_000_000}
    graph = {
        "nodes": [
            {"id": "src", "kind": "source",
             "params": {"count": count, "rate_hz": 1000.0, "start_us": start_us}},
            {"id": "split", "kind": "splitter", "params": {"outputs": list(FANOUT_STREAMS)}},
            {"id": "snk_wd", "kind": "sink", "params": {}},
            {"id": "snk_poll", "kind": "sink", "params": {"poll_rate_hz": 100.0}},
            {"id": "tog", "kind": "bench_toggler", "params": {"every": TOGGLE_EVERY}},
            {"id": "snk_gated", "kind": "sink", "params": {}},
        ],
        "streams": [
            {"id": "s_src", "from_node": "src", "from_port": "out",
             "to_node": "split", "to_port": "in", "policy": lossless},
            {"id": "s_wd", "from_node": "split", "from_port": "s_wd",
             "to_node": "snk_wd", "to_port": "in", "policy": lossless,
             "watchdog": {"max_latency_us": 1000, "min_throughput_hz": 500.0,
                          "window_us": 100_000}},
            {"id": "s_lossy", "from_node": "split", "from_port": "s_lossy",
             "to_node": "snk_poll", "to_port": "in",
             "policy": {"kind": "lossy", "capacity": 8, "max_successive_misses": 8}},
            {"id": "s_ctl_in", "from_node": "split", "from_port": "s_ctl_in",
             "to_node": "tog", "to_port": "in", "policy": lossless},
            {"id": "s_bits", "from_node": "tog", "from_port": "bit", "policy": lossless},
            {"id": "s_gated", "from_node": "split", "from_port": "s_gated",
             "to_node": "snk_gated", "to_port": "in", "policy": lossless},
        ],
        "latches": [
            {"stream_id": "s_gated", "control_stream_id": "s_bits", "initial_state": "closed"},
        ],
    }
    _write_json(os.path.join(out_dir, GRAPH_FILE), graph)
    time_limit_us = start_us + count * 1000 + 20_000
    return {
        "kind": "executor",
        "virtual_s": time_limit_us / 1e6,
        "count": count,
        "time_limit_us": time_limit_us,
        "seed": seed,
    }


GENERATORS = {
    "speech_ref": generate_speech_ref,
    "executor_fanout": generate_executor_fanout,
    "kws_frontend_48k": generate_kws_frontend_48k,
}


def generate(name: str, seed: int, out_dir: str) -> None:
    spec = GENERATORS[name](seed, out_dir)
    spec["workload"] = name
    _write_json(os.path.join(out_dir, SPEC_FILE), spec)


# -- loading and running ------------------------------------------------------


def digest(report_bytes: bytes) -> str:
    return hashlib.sha256(report_bytes).hexdigest()


def demo_registry() -> SkillRegistry:
    registry = SkillRegistry()
    register_demo_skills(registry)
    return registry


class Workload:
    """One generated workload, loaded through the public loaders."""

    def __init__(self, in_dir: str):
        with open(os.path.join(in_dir, SPEC_FILE), encoding="utf-8") as fh:
            self.spec = json.load(fh)
        self.name = self.spec["workload"]
        self.speech = self.spec["kind"] == "speech"
        self.virtual_s = float(self.spec["virtual_s"])
        self.graph = load_graph_config(os.path.join(in_dir, GRAPH_FILE))
        if self.speech:
            self.scenario = load_scenario(os.path.join(in_dir, SCENARIO_FILE))
        else:
            self.stop = StopCondition(time_limit_us=int(self.spec["time_limit_us"]))

    def run_plain(self, registry: SkillRegistry | None = None) -> bytes:
        """The public entry point with the stock clock, serialised."""
        if self.speech:
            doc = run_scenario(self.graph, self.scenario, registry=registry or demo_registry())
            return report_to_json_str(doc).encode()
        report = graph_run(self.graph, kinds=executor_kinds(), clock=VirtualClock(), stop=self.stop)
        return report.to_json_str().encode()

    def decode_audio(self):
        return scenario_audio(self.scenario) if self.speech else None

    def build_runner(self, clock, audio=None, registry=None, extra_env=None) -> GraphRunner:
        """A runner set up the way the public entry point sets up its own."""
        if not self.speech:
            return GraphRunner(
                self.graph, kinds=executor_kinds(), clock=clock, stop=self.stop,
                env=extra_env,
            )
        env = {
            "audio": audio if audio is not None else self.decode_audio(),
            "annotations": list(self.scenario.annotations),
            "interpreter_script": list(self.scenario.interpreter_script),
            "skill_registry": registry or demo_registry(),
        }
        env.update(extra_env or {})
        return GraphRunner(
            self.graph,
            kinds=harness_kind_registry(),
            clock=clock,
            stop=StopCondition(time_limit_us=int(self.scenario.time_limit_s * 1e6)),
            seed=self.scenario.seed,
            env=env,
        )

    def finish(self, report) -> bytes:
        """Serialise a runner's report exactly as the public entry point does."""
        if not self.speech:
            return report.to_json_str().encode()
        doc = report.to_json()
        doc["led_states"] = _led_states(report)
        doc["conservation_ok"] = report.conservation_ok()
        return report_to_json_str(doc).encode()

    def check(self, report_bytes: bytes) -> list[str]:
        """Status, per-stream conservation and the workload's oracles."""
        doc = json.loads(report_bytes)
        errors = []
        if doc["status"] != "ok":
            errors.append(f"status {doc['status']!r} (failed node {doc['failed_node']!r})")
        for sid, s in doc["streams"].items():
            if s["pushed"] != s["delivered"] + s["dropped"] + s["queued"]:
                errors.append(f"conservation fails on stream {sid}")
        if self.speech:
            errors += self._check_speech(doc)
        else:
            errors += self._check_executor(doc)
        return errors

    def _check_speech(self, doc) -> list[str]:
        spec, errors = self.spec, []
        if doc["conservation_ok"] is not True:
            errors.append("report says conservation_ok is false")
        (latch,) = doc["latches"].values()
        if latch["openings"] != spec["n_gates"]:
            errors.append(f"latch openings {latch['openings']} != gates {spec['n_gates']}")
        if len(doc["skill_invocations"]) != spec["n_triggers"] or doc["skill_failures"]:
            errors.append(
                f"{len(doc['skill_invocations'])} invocations and "
                f"{len(doc['skill_failures'])} failures for {spec['n_triggers']} triggers"
            )
        if len(doc["uart_hex"]) != 4 * spec["n_drive"]:
            errors.append(f"{len(doc['uart_hex']) // 2} UART bytes for {spec['n_drive']} drives")
        return errors

    def _check_executor(self, doc) -> list[str]:
        count, errors = self.spec["count"], []
        for sid in FANOUT_STREAMS:
            if doc["streams"][sid]["pushed"] != count:
                errors.append(f"stream {sid} pushed {doc['streams'][sid]['pushed']} != {count}")
        latch = doc["latches"]["s_gated"]
        if latch["forwarded"] + latch["suppressed"] != count:
            errors.append("latch forwarded + suppressed != source count")
        if len(latch["transitions"]) != count // TOGGLE_EVERY:
            errors.append(f"{len(latch['transitions'])} latch transitions for {count} packets")
        return errors


class RecordingClock(VirtualClock):
    """VirtualClock that stamps the wall clock whenever virtual time moves on.

    The stamps delimit ticks: the wall time from the first event dispatched
    at one virtual time to the first event at the next.
    """

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []
        self._last = None

    def advance_to(self, t_us: int) -> None:
        if t_us != self._last:
            self._last = t_us
            self.stamps.append(perf_counter())
        super().advance_to(t_us)

    def tick_us(self) -> np.ndarray:
        return np.diff(np.asarray(self.stamps)) * 1e6


class CountingClock(VirtualClock):
    """VirtualClock counting ``advance_to`` calls: the executor makes one per
    dispatched event under a virtual clock."""

    def __init__(self):
        super().__init__()
        self.dispatches = 0

    def advance_to(self, t_us: int) -> None:
        self.dispatches += 1
        super().advance_to(t_us)
