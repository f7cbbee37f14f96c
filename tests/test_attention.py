"""Attention decisions: one bit per window, detector failures fail safe."""

import os
import subprocess
import sys

import numpy as np

from flowbot.flowcore import attention_decide
from flowbot.dsp import rms_detect


def test_constant_true_detector():
    assert attention_decide(lambda w: True, np.zeros(4)) == 1


def test_rms_detector_silence():
    window = np.zeros(1600)
    assert attention_decide(lambda w: rms_detect(w, 0.1), window) == 0


def test_rms_detector_full_scale_square_wave():
    window = np.tile([1.0, -1.0], 800)  # RMS exactly 1.0
    assert attention_decide(lambda w: rms_detect(w, 0.1), window) == 1


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


def test_rms_detect_lives_in_the_core_and_stays_importable_from_dsp():
    import flowbot.dsp.detect
    import flowbot.flowcore.attention

    assert rms_detect is flowbot.dsp.detect.rms_detect is flowbot.flowcore.attention.rms_detect


def test_importing_the_core_loads_no_other_flowbot_package():
    code = (
        "import sys, flowbot.flowcore, flowbot.flowcore.runtime; "
        "print(sorted({m.split('.')[1] for m in sys.modules if m.startswith('flowbot.')}))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "['flowcore']"
