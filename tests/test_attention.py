"""Attention decisions: one bit per window, detector failures fail safe."""

import os
import subprocess
import sys

import numpy as np
import pytest

from flowbot.flowcore import (
    AggWindow,
    GraphDef,
    LosslessPolicy,
    Node,
    NodeDef,
    PortSpec,
    StreamDef,
    default_kind_registry,
    graph_run,
)
from flowbot.flowcore.attention import attention_decide, rms_detect
from flowbot.flowcore.runtime import DETECTOR_FACTORIES


def test_constant_true_detector():
    assert attention_decide(lambda w: True, np.zeros(4)) == 1


def test_rms_detector_silence():
    window = np.zeros(1600)
    assert attention_decide(lambda w: rms_detect(w, 0.1), window) == 0


def test_rms_detector_full_scale_square_wave():
    window = np.tile([1.0, -1.0], 800)  # RMS exactly 1.0
    assert attention_decide(lambda w: rms_detect(w, 0.1), window) == 1


def test_rms_detector_refuses_an_empty_window():
    with pytest.raises(ValueError, match="nonempty window"):
        rms_detect(np.zeros(0), 0.1)


def test_detector_failure_yields_zero_and_reports():
    errors = []

    def broken(window):
        raise RuntimeError("boom")

    bit = attention_decide(broken, np.zeros(4), on_error=errors.append)
    assert bit == 0
    assert len(errors) == 1 and isinstance(errors[0], RuntimeError)


def test_rms_of_sine_matches_closed_form():
    # full periods: RMS = A / sqrt(2)
    for amp in (0.2, 0.5, 1.0):
        t = np.arange(16000) / 16000.0
        wave = amp * np.sin(2 * np.pi * 50 * t)
        rms = float(np.sqrt(np.mean(wave**2)))
        assert abs(rms - amp / np.sqrt(2)) < 1e-3
        threshold_below = amp / np.sqrt(2) - 2e-3
        threshold_above = amp / np.sqrt(2) + 2e-3
        assert rms_detect(wave, threshold_below) == 1
        assert rms_detect(wave, threshold_above) == 0


class WindowSource(Node):
    """Emits ``count`` silent 10-sample windows, 1 ms apart from 0."""

    def __init__(self, node_id, params, env):
        super().__init__(node_id)
        self.count = params["count"]
        self._sent = 0

    def output_ports(self):
        return {"out": PortSpec("window")}

    def start(self, ctx):
        ctx.schedule_at(0)

    def on_timer(self, tag, ctx):
        ctx.emit("out", AggWindow(self._sent, 10 * self._sent, 16_000, np.zeros(10)))
        self._sent += 1
        if self._sent < self.count:
            ctx.schedule_at(ctx.now_us() + 1_000)


class BitRecorder(Node):
    def input_ports(self):
        return {"in": PortSpec("bit")}

    def on_packet(self, port, packet, ctx):
        ctx.collector.channel("bits").append(packet.payload)


def test_a_detector_that_raises_in_a_graph_emits_0_and_logs_the_error(monkeypatch):
    def broken(spec, env):
        def detect(window):
            raise RuntimeError(f"boom at window {window.index}")

        return detect

    monkeypatch.setitem(DETECTOR_FACTORIES, "broken", broken)
    kinds = default_kind_registry()
    kinds.register("windows", WindowSource)
    kinds.register("bits", lambda node_id, params, env: BitRecorder(node_id))
    lossless = LosslessPolicy(deadline_us=10**9)
    graph = GraphDef(
        nodes=(
            NodeDef("win", "windows", {"count": 2}),
            NodeDef("att", "attention", {"detector": {"kind": "broken"}}),
            NodeDef("rec", "bits", {}),
        ),
        streams=(
            StreamDef("s_win", "win", "out", "att", "in", lossless),
            StreamDef("s_bits", "att", "bit", "rec", "in", lossless),
        ),
    )
    report = graph_run(graph, kinds=kinds)
    assert report.status == "ok"
    assert report.extras == {"bits": [0, 0]}
    assert report.events == [
        {"t_us": t_us, "kind": "attention_error", "node": "att", "error": f"RuntimeError: boom at window {k}"}
        for k, t_us in enumerate((0, 1_000))
    ]


def test_importing_the_core_loads_no_other_flowbot_package():
    code = (
        "import sys, flowbot.flowcore, flowbot.flowcore.runtime; "
        "print(sorted({m.split('.')[1] for m in sys.modules if m.startswith('flowbot.')}))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "['flowcore']"


def test_the_core_registers_the_scripted_detector_without_the_harness():
    # the diagnostics of a scripted-detector graph do not depend on what was imported first
    code = (
        "from flowbot.flowcore import GraphDef, NodeDef, default_kind_registry, validate_graph\n"
        "g = GraphDef(nodes=(NodeDef('att', 'attention', {'detector': {'kind': 'scripted'}}),), streams=())\n"
        "before = [d.code for d in validate_graph(g, default_kind_registry())]\n"
        "import flowbot.harness\n"
        "print(before, [d.code for d in validate_graph(g, default_kind_registry())])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "['UnconnectedPort', 'UnconnectedPort'] ['UnconnectedPort', 'UnconnectedPort']"
