"""Log-mel front-end: shapes, the floor, filterbank placement, and the reused
workspace (outputs stay the caller's, one block is bit-exact, no page faults)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import flowbot
from flowbot.dsp import LogMelConfig, LogMelError, logmel, mel_band_centers_hz, mel_filterbank
from flowbot.dsp.logmel import _BLOCK_FRAMES, hz_to_mel, mel_to_hz


def test_default_config_maps_one_second_to_98x40():
    feature = logmel(np.zeros(16000))
    assert feature.matrix.shape == (98, 40)


def test_all_zero_input_hits_log_floor_everywhere():
    cfg = LogMelConfig()
    feature = logmel(np.zeros(16000), cfg)
    assert np.all(feature.matrix == np.log(cfg.log_floor))


def test_values_never_below_log_floor():
    rng = np.random.default_rng(1)
    cfg = LogMelConfig()
    feature = logmel(rng.uniform(-1, 1, 8000), cfg)
    assert np.all(feature.matrix >= np.log(cfg.log_floor))


def test_frame_times_step_by_hop():
    feature = logmel(np.zeros(1200), LogMelConfig())
    np.testing.assert_allclose(feature.frame_times, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05])


def test_short_buffer_rejected():
    with pytest.raises(LogMelError):
        logmel(np.zeros(399))


def test_2d_input_rejected():
    with pytest.raises(LogMelError, match="mono 1-D"):
        logmel(np.zeros((2, 16000)))


def test_audio_buffer_accepted_with_rate_check():
    from flowbot.dsp import AudioBuffer

    good = AudioBuffer(samples=np.zeros(16000), sample_rate_hz=16000)
    assert logmel(good).matrix.shape == (98, 40)
    with pytest.raises(LogMelError):
        logmel(AudioBuffer(samples=np.zeros(16000), sample_rate_hz=48000))


def test_config_validation():
    with pytest.raises(LogMelError):
        LogMelConfig(fmin_hz=8000.0, fmax_hz=4000.0)
    with pytest.raises(LogMelError):
        LogMelConfig(fft_size=256)  # < frame_len
    with pytest.raises(LogMelError):
        LogMelConfig(n_mels=0)


@given(n=st.integers(400, 20000))
def test_frame_count_formula(n):
    cfg = LogMelConfig()
    feature = logmel(np.zeros(n), cfg)
    oracle = len(range(0, n - cfg.frame_len_samples + 1, cfg.hop_samples))
    assert feature.matrix.shape[0] == oracle == (n - 400) // 160 + 1


def test_filterbank_rows_are_localized_triangles():
    cfg = LogMelConfig()
    fbank = mel_filterbank(cfg)
    assert fbank.shape == (40, 257)
    assert np.all(fbank >= 0)
    assert np.all(fbank.sum(axis=1) > 0)  # no empty band with this config


def test_repeated_extraction_is_bit_identical():
    rng = np.random.default_rng(7)
    samples = rng.uniform(-1, 1, 16000)
    a = logmel(samples)
    b = logmel(samples)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.frame_times, b.frame_times)


@pytest.mark.parametrize("band", [0, 5, 13, 20, 27, 34, 39])
def test_sine_at_band_center_peaks_in_that_band(band):
    cfg = LogMelConfig()
    center_hz = mel_band_centers_hz(cfg)[band]
    t = np.arange(16000) / cfg.sample_rate_hz
    feature = logmel(0.5 * np.sin(2 * np.pi * center_hz * t), cfg)
    winners = np.argmax(feature.matrix, axis=1)
    assert np.all(np.abs(winners - band) <= 1)


def filterbank_loop(cfg):
    """The band-by-band filterbank that the broadcast form replaced."""
    n_bins = cfg.fft_size // 2 + 1
    bin_hz = np.arange(n_bins) * cfg.sample_rate_hz / cfg.fft_size
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(cfg.fmin_hz), hz_to_mel(cfg.fmax_hz), cfg.n_mels + 2))
    fbank = np.zeros((cfg.n_mels, n_bins))
    for k in range(cfg.n_mels):
        lo, mid, hi = edges_hz[k], edges_hz[k + 1], edges_hz[k + 2]
        rising = (bin_hz - lo) / (mid - lo)
        falling = (hi - bin_hz) / (hi - mid)
        fbank[k] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fbank


def logmel_per_frame(x, cfg):
    """The per-frame loop that the batched form replaced: one rfft per frame."""
    n = cfg.frame_len_samples
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    fbank = filterbank_loop(cfg)
    n_frames = (len(x) - n) // cfg.hop_samples + 1
    matrix = np.empty((n_frames, cfg.n_mels))
    for i in range(n_frames):
        start = i * cfg.hop_samples
        spectrum = np.fft.rfft(x[start : start + n] * window, n=cfg.fft_size)
        power = spectrum.real**2 + spectrum.imag**2
        matrix[i] = np.log(np.maximum(fbank @ power, cfg.log_floor))
    return matrix, np.arange(n_frames) * cfg.hop_samples / cfg.sample_rate_hz


@pytest.mark.parametrize(
    "cfg",
    [LogMelConfig(), LogMelConfig(n_mels=64, fft_size=1024, frame_len_samples=1024, fmin_hz=0.0)],
)
def test_filterbank_equals_the_band_by_band_loop(cfg):
    assert np.array_equal(mel_filterbank(cfg), filterbank_loop(cfg))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(400, 20000),
    log10_amp=st.floats(-4.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_logmel_matches_the_per_frame_loop(n, log10_amp, seed):
    cfg = LogMelConfig()
    x = 10.0**log10_amp * np.random.default_rng(seed).uniform(-1, 1, n)
    feature = logmel(x, cfg)
    matrix, frame_times = logmel_per_frame(x, cfg)
    assert feature.matrix.shape == matrix.shape
    # only the filterbank product's summation order differs
    assert np.max(np.abs(feature.matrix - matrix)) <= 1e-12
    assert np.array_equal(feature.frame_times, frame_times)


def test_mutating_a_returned_filterbank_does_not_change_later_features():
    cfg = LogMelConfig()
    x = np.random.default_rng(11).uniform(-1, 1, 4000)
    before = logmel(x, cfg).matrix
    fbank = mel_filterbank(cfg)
    assert fbank.flags.writeable
    fbank[:] = 0.0
    assert np.array_equal(logmel(x, cfg).matrix, before)
    assert np.array_equal(mel_filterbank(cfg), filterbank_loop(cfg))


# -- the reused workspace ------------------------------------------------------


def frames_to_samples(n_frames, cfg=LogMelConfig()):
    return cfg.frame_len_samples + (n_frames - 1) * cfg.hop_samples


def logmel_unbuffered(x, cfg):
    """The formula the workspace replaced: every step a fresh array."""
    n = cfg.frame_len_samples
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    fbank_t = np.ascontiguousarray(mel_filterbank(cfg).T)
    frames = sliding_window_view(x, n)[:: cfg.hop_samples] * window
    spectrum = np.fft.rfft(frames, n=cfg.fft_size, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    matrix = np.log(np.maximum(power @ fbank_t, cfg.log_floor))
    return matrix, np.arange(len(frames)) * cfg.hop_samples / cfg.sample_rate_hz


@pytest.mark.parametrize("second_n", [16000, 4000, frames_to_samples(3 * _BLOCK_FRAMES)])
def test_a_later_call_leaves_earlier_results_alone(second_n):
    rng = np.random.default_rng(3)
    first = logmel(rng.uniform(-1, 1, 16000))
    matrix, frame_times = first.matrix.copy(), first.frame_times.copy()
    second = logmel(rng.uniform(-1, 1, second_n))
    assert np.array_equal(first.matrix, matrix)
    assert np.array_equal(first.frame_times, frame_times)
    for result in (first, second):
        assert result.matrix.flags.writeable and result.frame_times.flags.writeable
    assert not np.shares_memory(first.matrix, second.matrix)


@settings(max_examples=60, deadline=None)
@given(
    n_frames=st.integers(1, _BLOCK_FRAMES),
    extra=st.integers(0, 159),
    log10_amp=st.floats(-4.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_frames=98, extra=80, log10_amp=0.0, seed=0)  # 16000 samples, the 1 s window
def test_one_block_is_bit_identical_to_the_unbuffered_formula(n_frames, extra, log10_amp, seed):
    cfg = LogMelConfig()
    x = 10.0**log10_amp * np.random.default_rng(seed).uniform(-1, 1, frames_to_samples(n_frames) + extra)
    feature = logmel(x, cfg)
    matrix, frame_times = logmel_unbuffered(x, cfg)
    assert feature.matrix.tobytes() == matrix.tobytes()
    assert feature.frame_times.tobytes() == frame_times.tobytes()


def test_a_strided_or_integer_input_is_read_as_its_float_values():
    rng = np.random.default_rng(4)
    strided = rng.uniform(-1, 1, 32000)[::2]
    codes = rng.integers(-32768, 32768, 16000).astype(np.int16)
    for x in (strided, codes):
        expected = logmel_unbuffered(np.asarray(x, dtype=np.float64), LogMelConfig())[0]
        assert logmel(x).matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "n",
    [
        30_000,
        frames_to_samples(2 * _BLOCK_FRAMES),
        frames_to_samples(2 * _BLOCK_FRAMES + 1),
        45_000,
        60_000,
    ],
)
def test_several_blocks_match_the_per_frame_loop(n):
    cfg = LogMelConfig()
    assert _BLOCK_FRAMES < (n - cfg.frame_len_samples) // cfg.hop_samples + 1 <= 3 * _BLOCK_FRAMES
    x = np.random.default_rng(n).uniform(-1, 1, n)
    feature = logmel(x, cfg)
    matrix, frame_times = logmel_per_frame(x, cfg)
    assert np.max(np.abs(feature.matrix - matrix)) <= 1e-12
    assert np.array_equal(feature.frame_times, frame_times)


SRC = os.path.dirname(os.path.dirname(os.path.abspath(flowbot.__file__)))

FAULTS_PER_CALL = """
import json, resource
import numpy as np
from flowbot.dsp import logmel
x = np.random.default_rng(0).uniform(-1, 1, 16000)
logmel(x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    logmel(x)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps((after - before) / 50))
"""


def test_a_warm_call_takes_no_page_faults_in_a_fresh_interpreter():
    pytest.importorskip("resource")
    done = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_CALL], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # the unbuffered formula faulted its ~1.2 MB of temporaries back in, ~290 per call
    assert json.loads(done.stdout.splitlines()[-1]) < 5
