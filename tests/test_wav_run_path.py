"""WAV audio on the run path: int16 codes until a node copies them.

A scenario's WAV file is read once, as the int16 codes of its first channel;
the aggregator and the resampler apply the 2**-15 scale in the copies they
make anyway. These tests pin that no run holds a float64 copy of the whole
file, that every window is bit-identical to one cut from ``read_wav``'s
floats, and that the one WAV parser keeps every error ``read_wav`` had.
"""

import json
import struct
import tracemalloc
import wave

import numpy as np
import pytest

from flowbot.dsp import WavFormatError, read_wav, read_wav_pcm16
from flowbot.dsp.resample import Decimator3to1
from flowbot.flowcore import GraphDef, LosslessPolicy, Node, NodeDef, PortSpec, StreamDef
from flowbot.harness import load_scenario, reference_pipeline, run_scenario
from flowbot.harness.cli import main as cli_main
from flowbot.harness.nodes import harness_kind_registry


def write_pcm(path, codes: np.ndarray, rate: int) -> None:
    """A 16-bit WAV holding ``codes`` exactly: (n,) mono or (n, channels)."""
    codes = np.asarray(codes, dtype="<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1 if codes.ndim == 1 else codes.shape[1])
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(codes.tobytes())


def wav_scenario(path, **extra):
    return load_scenario({"audio": {"wav": str(path)}, **extra})


# -- memory ---------------------------------------------------------------------


def test_a_wav_run_holds_no_float64_copy_of_the_whole_file(tmp_path):
    rate, seconds = 16000, 60
    n = rate * seconds
    codes = np.random.default_rng(5).integers(-3000, 3000, n, dtype=np.int16)
    path = tmp_path / "long.wav"
    write_pcm(path, codes, rate)
    graph, scenario = reference_pipeline(), wav_scenario(path, time_limit_s=seconds + 1.0)
    run_scenario(graph, scenario)  # first run: imports and caches
    tracemalloc.start()
    try:
        report = run_scenario(graph, scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["status"] == "ok"
    # the file's bytes are 2n; a whole-file float64 decode alone would be 8n
    assert peak < 8 * n, f"peak traced allocation {peak} bytes for {n} samples"


# -- bit identity -----------------------------------------------------------------


class WindowCapture(Node):
    """Appends every window it receives to the list it was built with."""

    def __init__(self, node_id, windows: list):
        super().__init__(node_id)
        self.windows = windows

    def input_ports(self):
        return {"in": PortSpec("window")}

    def on_packet(self, port, packet, ctx):
        self.windows.append(packet.payload)


WINDOW, HOP, CHUNK = 1000, 250, 160


def capture_graph(resample: bool) -> GraphDef:
    lossless = LosslessPolicy(deadline_us=10**9)
    chunk = 3 * CHUNK if resample else CHUNK
    nodes = [
        NodeDef("mic", "audio_source", {"chunk_samples": chunk, "pad_to_samples": 0}),
        NodeDef("iomgr", "io_manager", {"routing": {"mic0": ["ui_audio"]}}),
        NodeDef("agg", "aggregator", {
            "window_samples": WINDOW, "hop_samples": HOP, "sample_rate_hz": 16000,
        }),
        NodeDef("cap", "capture", {}),
    ]
    streams = [
        StreamDef("a", "mic", "out", "iomgr", "in", lossless),
        StreamDef("c", "agg", "windows", "cap", "in", lossless),
    ]
    if resample:
        nodes.append(NodeDef("rs", "resampler_48to16", {}))
        streams += [
            StreamDef("b", "iomgr", "ui_audio", "rs", "in", lossless),
            StreamDef("r", "rs", "out", "agg", "in", lossless),
        ]
    else:
        streams.append(StreamDef("b", "iomgr", "ui_audio", "agg", "in", lossless))
    return GraphDef(nodes=tuple(nodes), streams=tuple(streams))


def expected_16k(floats: np.ndarray, resample: bool) -> np.ndarray:
    """The 16 kHz samples the aggregator gets when fed decoded floats."""
    chunk = 3 * CHUNK if resample else CHUNK
    padded = np.concatenate([floats, np.zeros(-len(floats) % chunk)])
    if not resample:
        return padded
    decimator = Decimator3to1()
    return np.concatenate([decimator.process(padded[k : k + chunk])
                           for k in range(0, len(padded), chunk)])


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("resample", [False, True], ids=["16k", "48k_resampled"])
def test_every_window_is_bit_identical_to_one_cut_from_read_wav(tmp_path, channels, resample):
    rate = 48000 if resample else 16000
    rng = np.random.default_rng(11 + channels)
    extremes = np.array([-32768, 0, 32767, -32768, 32767, 0, -1, 1], dtype=np.int16)
    codes = np.concatenate([np.tile(extremes, 40), rng.integers(-32768, 32768, 3 * rate + 77)])
    if channels == 2:
        codes = np.stack([codes, rng.integers(-32768, 32768, len(codes))], axis=1)
    path = tmp_path / "codes.wav"
    write_pcm(path, codes, rate)

    windows: list = []
    kinds = harness_kind_registry()
    kinds.register("capture", lambda node_id, params, env: WindowCapture(node_id, windows))
    report = run_scenario(capture_graph(resample), wav_scenario(path, time_limit_s=10.0), kinds=kinds)
    assert report["status"] == "ok"

    reference = read_wav(path).samples
    first = codes[:, 0] if channels == 2 else codes
    assert np.array_equal(reference.view(np.int64), (first / 32768.0).view(np.int64))
    stream = expected_16k(reference, resample)
    assert len(windows) == (len(stream) - WINDOW) // HOP + 1 > 0
    for window in windows:
        assert window.samples.dtype == np.float64
        cut = stream[window.start_sample : window.start_sample + WINDOW]
        assert np.array_equal(window.samples.view(np.int64), cut.view(np.int64)), window.index


# -- one parser, the old errors -------------------------------------------------------


def wav_bytes(channels: int, rate: int, bits: int, data: bytes, declared=None) -> bytes:
    """A RIFF PCM header with the given fields and data chunk size, then ``data``."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * block, block, bits)
    size = len(data) if declared is None else declared
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", size) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


BAD_WAVS = {
    # the data chunk says 100 bytes and the file ends 21 bytes into it
    "odd_length_data": (wav_bytes(1, 16000, 16, b"\x01" * 21, declared=100), "odd length 21"),
    "truncated": (wav_bytes(1, 16000, 16, b"\x01\x02" * 10)[:30], "truncated WAV file"),
    "8_bit": (wav_bytes(1, 16000, 8, b"\x01\x02"), "expected 16-bit PCM, got 8-bit"),
    "24_bit": (wav_bytes(1, 16000, 24, b"\x01\x02\x03"), "expected 16-bit PCM, got 24-bit"),
    "rate_0": (wav_bytes(1, 0, 16, b"\x01\x02"), "sample rate must be > 0, got 0"),
}


@pytest.mark.parametrize("name", sorted(BAD_WAVS))
def test_a_bad_wav_is_one_error_for_both_readers_and_run_exits_2(tmp_path, capsys, name):
    data, message = BAD_WAVS[name]
    wav_path = tmp_path / "audio.wav"
    wav_path.write_bytes(data)
    with pytest.raises(WavFormatError, match=message) as raw:
        read_wav_pcm16(wav_path)
    with pytest.raises(WavFormatError) as decoded:
        read_wav(wav_path)
    assert str(decoded.value) == str(raw.value)

    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"audio": {"wav": str(wav_path)}, "time_limit_s": 2.0}))
    assert cli_main(["run", "--scenario", str(scenario_path), "--report", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: audio.wav: {raw.value}") and "Traceback" not in err
