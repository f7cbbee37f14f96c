"""Log-mel front-end: shapes, the floor, filterbank placement, the reused
workspace (outputs stay the caller's, one block is bit-exact, no page faults),
rows computed alone (a row's bits depend on that row only), and the output
rows shared between calls (bit-exact whatever the calls before)."""

import json
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import flowbot
from flowbot.dsp import LogMelConfig, LogMelError, logmel, mel_band_centers_hz, mel_filterbank
from flowbot.dsp.logmel import _BLOCK_FRAMES, _PRODUCT_ROWS, _shared_rows, hz_to_mel, mel_to_hz

# ``flowbot.dsp.logmel`` is the function; the module holds the memo
LOGMEL_MODULE = sys.modules["flowbot.dsp.logmel"]


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
    # frame_len_samples=0 gave 101 all-floor frames, -5 numpy's "strides is
    # incompatible" ValueError at the call, and hop_samples=2.5 a TypeError
    for field in ("n_mels", "frame_len_samples", "hop_samples", "fft_size"):
        for value in (0, -5, 2.5, 400.0, True, "400", None):
            with pytest.raises(LogMelError, match=f"^{field} must be (an integer|>= 1)"):
                LogMelConfig(**{field: value})
    cfg = LogMelConfig(n_mels=np.int64(40), hop_samples=np.int32(160))
    assert cfg == LogMelConfig() and type(cfg.n_mels) is int and type(cfg.hop_samples) is int


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
    """The formula the workspace replaced: every step a fresh array, and the
    filterbank product taken over zero-padded blocks of ``_PRODUCT_ROWS``
    rows, so that BLAS picks one kernel for every row."""
    n = cfg.frame_len_samples
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    fbank_t = np.ascontiguousarray(mel_filterbank(cfg).T)
    frames = sliding_window_view(x, n)[:: cfg.hop_samples] * window
    spectrum = np.fft.rfft(frames, n=cfg.fft_size, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    padded = np.zeros((-(-len(power) // _PRODUCT_ROWS) * _PRODUCT_ROWS, power.shape[1]))
    padded[: len(power)] = power
    product = np.concatenate([block @ fbank_t for block in np.split(padded, len(padded) // _PRODUCT_ROWS)])
    matrix = np.log(np.maximum(product[: len(power)], cfg.log_floor))
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


def test_the_padding_rows_of_a_product_carry_nothing_from_an_earlier_call():
    x = np.random.default_rng(5).uniform(-1, 1, frames_to_samples(_PRODUCT_ROWS))
    x[-1] = np.inf  # only the last frame holds it
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.isnan(logmel(x).matrix[-1]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clean = logmel(x[: frames_to_samples(_PRODUCT_ROWS - 2)] / 2)
    assert np.isfinite(clean.matrix).all()


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
rng = np.random.default_rng(0)
x, other = rng.uniform(-1, 1, 16000), rng.uniform(-1, 1, 16000)
audio = rng.uniform(-1, 1, 16000 + 4000 * 60)
sliding = [audio[i * 4000 : i * 4000 + 16000] for i in range(61)]

def faults_per_call(calls):
    logmel(calls[0])
    logmel(calls[1])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for samples in calls[2:]:
        logmel(samples)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (len(calls) - 2)

print(json.dumps({
    "repeated": faults_per_call([x] * 52),  # every row shared
    "alternating": faults_per_call([x, other] * 26),  # no row shared
    "sliding": faults_per_call(sliding),  # 1 s windows at 250 ms hops: 73 of 98 rows shared
}))
"""


# flowbench runs every workload with OPENBLAS_NUM_THREADS=1; there a product
# of 98 rows took the large kernel, whose buffer faulted in ~24 pages a call
@pytest.mark.parametrize("blas_env", [{}, {"OPENBLAS_NUM_THREADS": "1"}], ids=["default", "one_blas_thread"])
def test_a_warm_call_takes_no_page_faults_in_a_fresh_interpreter(blas_env):
    pytest.importorskip("resource")
    done = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_CALL], env=dict(os.environ, PYTHONPATH=SRC, **blas_env),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    faults = json.loads(done.stdout.splitlines()[-1])
    # the unbuffered formula faulted its ~1.2 MB of temporaries back in, ~290
    # per call; the memo's copies must not fault either
    assert all(per_call < 5 for per_call in faults.values()), faults


# -- output rows shared between calls -----------------------------------------------


SHARING_CONFIGS = (
    LogMelConfig(),
    LogMelConfig(hop_samples=100),
    LogMelConfig(n_mels=24, frame_len_samples=480, hop_samples=240, fft_size=1024),
)


def shared_with_last_call(x, cfg=LogMelConfig()):
    """``(k, m)`` for ``x`` against the memo the last ``logmel`` call left."""
    n_frames = (len(x) - cfg.frame_len_samples) // cfg.hop_samples + 1
    return _shared_rows(LOGMEL_MODULE._MEMO, cfg, np.asarray(x, dtype=np.float64), n_frames)


def assert_matches_the_oracles(x, cfg=LogMelConfig()):
    """One block or less: byte for byte the unbuffered formula; longer: within
    1e-12 of the per-frame loop."""
    feature = logmel(x, cfg)
    n_frames = (len(x) - cfg.frame_len_samples) // cfg.hop_samples + 1
    if n_frames <= _BLOCK_FRAMES:
        matrix, frame_times = logmel_unbuffered(x, cfg)
        assert feature.matrix.tobytes() == matrix.tobytes()
    else:
        matrix, frame_times = logmel_per_frame(x, cfg)
        assert np.max(np.abs(feature.matrix - matrix)) <= 1e-12
    assert feature.frame_times.tobytes() == frame_times.tobytes()


ROW_SIGNAL = np.random.default_rng(22).uniform(-1, 1, 60_000)


def computed_alone(x, row, cfg):
    """Row ``row`` of ``logmel(x, cfg)``, as ``logmel`` of that frame alone with no memo."""
    LOGMEL_MODULE._MEMO = None
    start = row * cfg.hop_samples
    return logmel(x[start : start + cfg.frame_len_samples], cfg).matrix[0].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    config=st.integers(0, len(SHARING_CONFIGS) - 1),
    n_frames=st.integers(1, _BLOCK_FRAMES),
    start=st.integers(0, 20_000),
    earlier=st.none() | st.tuples(st.integers(1, _BLOCK_FRAMES), st.integers(0, _BLOCK_FRAMES - 1)),
)
@example(config=0, n_frames=98, start=4000, earlier=(98, 25))  # a 1 s window sliding by 250 ms
def test_a_row_has_the_bits_of_its_frame_computed_alone(config, n_frames, start, earlier):
    """With the memo cleared, then after an earlier call that starts ``shift``
    hops before ``x``, so that ``x``'s first rows are copied from the memo."""
    cfg = SHARING_CONFIGS[config]
    hop = cfg.hop_samples
    x = ROW_SIGNAL[start : start + cfg.frame_len_samples + (n_frames - 1) * hop]
    alone = [computed_alone(x, row, cfg) for row in range(n_frames)]
    LOGMEL_MODULE._MEMO = None
    assert [row.tobytes() for row in logmel(x, cfg).matrix] == alone
    if earlier is not None:
        earlier_frames, shift = earlier
        shift = min(shift, earlier_frames - 1, start // hop)
        begin = start - shift * hop
        logmel(ROW_SIGNAL[begin : begin + cfg.frame_len_samples + (earlier_frames - 1) * hop], cfg)
        assert shared_with_last_call(x, cfg) == (shift, min(n_frames, earlier_frames - shift))
        assert [row.tobytes() for row in logmel(x, cfg).matrix] == alone


def test_a_250_ms_slide_computes_25_rows_and_the_memo_keeps_output_rows(monkeypatch):
    audio = np.random.default_rng(23).uniform(-1, 1, 20_000)
    logmel(audio[:16000])
    rows = {"rfft": [], "matmul": [], "log": []}

    def counted(name, function):
        def call(a, *args, **kwargs):
            rows[name].append(len(a))
            return function(a, *args, **kwargs)
        return call

    monkeypatch.setattr(np.fft, "rfft", counted("rfft", np.fft.rfft))
    monkeypatch.setattr(np, "matmul", counted("matmul", np.matmul))
    monkeypatch.setattr(np, "log", counted("log", np.log))
    feature = logmel(audio[4000:])
    monkeypatch.undo()
    assert rows == {"rfft": [25], "matmul": [_PRODUCT_ROWS], "log": [25]}
    memo_config, memo_x, memo_rows = LOGMEL_MODULE._MEMO
    assert memo_rows.shape == (98, 40) and memo_rows.tobytes() == feature.matrix.tobytes()
    assert not np.shares_memory(memo_rows, feature.matrix)
    assert_matches_the_oracles(audio[4000:])


@pytest.mark.parametrize("hops", [1, 7, 25, 97])  # 25: a 1 s window sliding by 250 ms
@pytest.mark.parametrize("cfg", SHARING_CONFIGS, ids=["default", "hop100", "fft1024"])
def test_sliding_windows_share_all_but_the_new_frames(cfg, hops):
    # the shared rows are output rows, so at 513 bins too a row computed
    # among 7 new ones must have the bits it had among the window's 98
    n = cfg.frame_len_samples + 97 * cfg.hop_samples  # 98 frames
    audio = np.random.default_rng(hops).uniform(-1, 1, n + 4 * hops * cfg.hop_samples)
    logmel(audio[:n], cfg)
    for start in range(hops * cfg.hop_samples, len(audio) - n + 1, hops * cfg.hop_samples):
        window = audio[start : start + n]
        assert shared_with_last_call(window, cfg) == (hops, 98 - hops)
        assert_matches_the_oracles(window, cfg)


@pytest.mark.parametrize(
    "n_frames, shift_frames, expected",
    [
        (98, 0, (0, 98)),  # a repeat shares every frame
        (98, 1, (1, 97)),
        (98, 97, (97, 1)),
        (2, 97, (97, 1)),
        (2, 1, (1, 2)),
        (1, 0, (0, 1)),  # one frame: a bare 1-row product would go to gemv
        (60, 98, (0, 0)),  # past the memo's last frame
    ],
)
def test_the_shared_frames_are_the_whole_overlap(n_frames, shift_frames, expected):
    audio = np.random.default_rng(6).uniform(-1, 1, 40_000)
    logmel(audio[: frames_to_samples(98)])
    start = shift_frames * 160
    x = audio[start : start + frames_to_samples(n_frames)]
    assert shared_with_last_call(x) == expected
    assert_matches_the_oracles(x)


def test_a_memo_of_one_frame_shares_that_frame():
    audio = np.random.default_rng(7).uniform(-1, 1, 16000)
    logmel(audio[:400])
    assert shared_with_last_call(audio) == (0, 1)
    assert_matches_the_oracles(audio)


def test_signed_zeros_are_told_apart():
    audio = np.random.default_rng(11).uniform(-1, 1, 20000)
    audio[[4000, 12000]] = 0.0
    logmel(audio[:16000])
    for flipped in (0, 8000):  # the first sample, then one inside the overlap
        x = audio[4000:].copy()
        x[flipped] = -0.0  # equal to 0.0 as a float, not as bits
        assert shared_with_last_call(x) == (0, 0)
        assert_matches_the_oracles(x)
        logmel(audio[:16000])


@pytest.mark.parametrize("changed", [1, 8001, 11919])  # 11919: the last sample of frame 72
def test_a_sample_changed_between_frame_starts_stops_the_sharing(changed):
    audio = np.random.default_rng(12).uniform(-1, 1, 20000)
    logmel(audio[:16000])
    x = audio[4000:].copy()
    x[changed] += 1e-3
    assert shared_with_last_call(x) == (0, 0)
    assert_matches_the_oracles(x)


def test_nan_frames_are_shared_bit_for_bit():
    audio = np.random.default_rng(8).uniform(-1, 1, 20000)
    audio[9000] = np.nan
    with np.errstate(invalid="ignore"):
        logmel(audio[:16000])
        assert shared_with_last_call(audio[4000:]) == (25, 73)
        assert_matches_the_oracles(audio[4000:])
        assert_matches_the_oracles(audio[4000:])  # a repeat
        assert np.isnan(logmel(audio[4000:]).matrix).any()


def test_a_caller_that_mutates_its_input_does_not_change_the_memo():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, 16000)
    logmel(x)
    x[:] = rng.uniform(-1, 1, 16000)
    assert shared_with_last_call(x) == (0, 0)
    assert_matches_the_oracles(x)


def test_a_caller_that_mutates_a_returned_matrix_does_not_change_later_results():
    x = np.random.default_rng(10).uniform(-1, 1, 16000)
    logmel(x).matrix[:] = 0.0
    assert shared_with_last_call(x) == (0, 98)
    assert_matches_the_oracles(x)


def test_threads_sliding_at_once_each_get_the_unshared_result():
    # the memo is shared by every caller: each thread's calls replace the
    # memo the others' next calls look at, so most lookups miss or match
    # another thread's input; every result must still be the formula's
    rng = np.random.default_rng(13)
    jobs = []
    for hop in (4000, 1600, 160, 3999):
        audio = rng.uniform(-1, 1, 16000 + hop * 15)
        windows = [audio[i * hop : i * hop + 16000] for i in range(16)]
        jobs.append([(w, logmel_unbuffered(w, LogMelConfig())[0].tobytes()) for w in windows])
    mismatches, finished = [], []

    def slide(job):
        for _ in range(5):
            mismatches.extend(i for i, (w, expected) in enumerate(job) if logmel(w).matrix.tobytes() != expected)
        finished.append(job)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=slide, args=(job,)) for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finished) == len(jobs) and mismatches == []


def sharing_signal():
    signal = np.random.default_rng(21).uniform(-1, 1, 120_000)
    signal[30_000:45_000] = 0.0  # silence: every frame start there is a candidate
    signal[30_000:45_000:7] = -0.0
    return signal


SHARING_SIGNAL = sharing_signal()

call_step = st.tuples(
    st.one_of(
        st.integers(-10, 130).map(lambda k: ("hops", k)),
        st.sampled_from([("hops", 0), ("hops", 1), ("hops", 25)]),  # repeats, one-frame and 250 ms shifts
        st.integers(-40_000, 40_000).map(lambda d: ("samples", d)),  # off the hop grid, and gaps
    ),
    st.one_of(
        st.sampled_from([98, 1, 2]),
        st.integers(1, _BLOCK_FRAMES),
        st.integers(_BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 2),  # longer than one block
    ),
    st.integers(0, 239),  # samples past the last frame
    st.sampled_from([0] * 8 + [1, 2]),  # mostly one config, sometimes another between
)


@settings(max_examples=100, deadline=None)
@given(first=st.integers(0, 60_000), steps=st.lists(call_step, min_size=1, max_size=12))
@example(first=30_000, steps=[(("hops", 25), 98, 80, 0)] * 8)  # from silence into speech
@example(first=0, steps=[(("hops", 0), 98, 0, 2), (("hops", 0), 129, 0, 0), (("hops", 7), 98, 0, 2)])
def test_any_call_sequence_matches_the_oracles(first, steps):
    start = first
    for (unit, shift), n_frames, extra, config in steps:
        cfg = SHARING_CONFIGS[config]
        start += shift * cfg.hop_samples if unit == "hops" else shift
        n = cfg.frame_len_samples + (n_frames - 1) * cfg.hop_samples + extra % cfg.hop_samples
        start = min(max(start, 0), len(SHARING_SIGNAL) - n)
        assert_matches_the_oracles(SHARING_SIGNAL[start : start + n], cfg)


def test_digital_silence_shares_at_the_slide_shift_and_keeps_the_formula_bits():
    # in silence every remembered frame start is a candidate; a window leaving
    # the silence still finds the slide's shift, and steady silence shares all
    # its rows at shift 0
    rng = np.random.default_rng(24)
    audio = np.concatenate([rng.uniform(-1, 1, 16000), np.zeros(48000), rng.uniform(-1, 1, 32000)])
    logmel(audio[:16000])
    for start in range(4000, len(audio) - 16000 + 1, 4000):
        window = audio[start : start + 16000]
        silent = not audio[start - 4000 : start + 16000].any()
        assert shared_with_last_call(window) == ((0, 98) if silent else (25, 73)), start
        assert_matches_the_oracles(window)


class ComparedSamples(np.ndarray):
    """Counts the elementwise comparisons longer than one frame made on it or its views."""

    long_comparisons = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [np.asarray(a) if isinstance(a, ComparedSamples) else a for a in inputs]
        if ufunc is np.equal and max(np.size(a) for a in plain) > LogMelConfig().frame_len_samples:
            ComparedSamples.long_comparisons += 1
        return getattr(ufunc, method)(*plain, **kwargs)


def test_a_window_leaving_silence_makes_one_full_comparison():
    # every remembered frame start in the silence is a candidate; the false
    # ones, whose overlaps end in the window's sound, fall to the last-sample test
    cfg = LogMelConfig()
    memo = (cfg, np.zeros(16000).view(ComparedSamples), np.zeros((98, cfg.n_mels)))
    window = np.concatenate([np.zeros(12000), np.random.default_rng(25).uniform(-1, 1, 4000)])
    ComparedSamples.long_comparisons = 0
    assert _shared_rows(memo, cfg, window, 98) == (25, 73)
    assert ComparedSamples.long_comparisons == 1
