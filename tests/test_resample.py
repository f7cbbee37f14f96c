"""Resampler contract: rate, length, tone fidelity, alias rejection, and the
batch and streaming forms of the one decimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowbot.dsp import AudioBuffer, Decimator3to1, ResampleError, resample_3to1
from flowbot.dsp.resample import (
    _PRODUCT_ROWS, _ROW_OUTPUTS, _ROW_SPAN, _TOEPLITZ, CUTOFF_HZ, FILTER_TAPS, lowpass_kernel,
)


def tone(freq_hz, duration_s=1.0, rate=48000, amp=0.5):
    t = np.arange(int(duration_s * rate)) / rate
    return AudioBuffer(samples=amp * np.sin(2 * np.pi * freq_hz * t), sample_rate_hz=rate)


def steady_state(samples, margin=800):
    return samples[margin:-margin]


def measured_gain_db(out_buf, in_amp):
    mid = steady_state(out_buf.samples)
    rms_out = np.sqrt(np.mean(mid**2))
    rms_in = in_amp / np.sqrt(2)
    return 20 * np.log10(rms_out / rms_in)


def test_zeros_pass_through():
    out = resample_3to1(AudioBuffer(samples=np.zeros(48000), sample_rate_hz=48000))
    assert out.sample_rate_hz == 16000
    assert len(out) == 16000
    assert np.all(out.samples == 0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 48000, 48001, 48002])
def test_output_length_is_floor_n_over_3(n):
    out = resample_3to1(AudioBuffer(samples=np.zeros(n), sample_rate_hz=48000))
    assert len(out) == n // 3


def test_wrong_input_rate_rejected():
    with pytest.raises(ResampleError):
        resample_3to1(AudioBuffer(samples=np.zeros(16000), sample_rate_hz=16000))


def test_1khz_tone_keeps_frequency():
    out = resample_3to1(tone(1000.0))
    # 1 s at 16 kHz: 1 Hz bins, the tone must land within 0.1 %
    spectrum = np.abs(np.fft.rfft(out.samples))
    peak_hz = float(np.argmax(spectrum))  # bin k is exactly k Hz here
    assert abs(peak_hz - 1000.0) <= 1.0


@pytest.mark.parametrize("freq", [100.0, 1000.0, 3000.0, 5000.0, 6500.0, 6900.0])
def test_tones_below_7khz_keep_amplitude_within_1db(freq):
    out = resample_3to1(tone(freq))
    assert abs(measured_gain_db(out, 0.5)) <= 1.0


def test_23khz_tone_attenuated_40db():
    out = resample_3to1(tone(23000.0))
    mid = steady_state(out.samples)
    rms_out = np.sqrt(np.mean(mid**2))
    rms_in = 0.5 / np.sqrt(2)
    assert 20 * np.log10(rms_out / rms_in) <= -40.0


def test_repeated_resampling_is_bit_identical():
    rng = np.random.default_rng(6)
    buf = AudioBuffer(samples=rng.uniform(-1, 1, 9600), sample_rate_hz=48000)
    assert np.array_equal(resample_3to1(buf).samples, resample_3to1(buf).samples)


def test_above_nyquist_energy_rejected_overall():
    # a tone above the output Nyquist must not alias into the output band
    out = resample_3to1(tone(16000.0))
    assert np.sqrt(np.mean(steady_state(out.samples) ** 2)) < 0.5 / np.sqrt(2) / 100.0


@pytest.mark.parametrize("n", [3, 10, 100, 158, 159, 160, 48001])
def test_batch_form_is_the_centred_filter_at_every_third_sample(n):
    # zero-phase definition: full convolution, group delay of 79 trimmed,
    # every third sample kept; short inputs included
    x = np.random.default_rng(n).uniform(-1, 1, n)
    h = lowpass_kernel(FILTER_TAPS, CUTOFF_HZ, 48000.0)
    expected = np.convolve(x, h)[79 : 79 + n][: 3 * (n // 3) : 3]
    out = resample_3to1(AudioBuffer(samples=x, sample_rate_hz=48000)).samples
    assert len(out) == len(expected) == n // 3
    assert np.max(np.abs(out - expected)) <= 1e-12


@pytest.mark.parametrize("chunk", [7, 1600, 4800])
def test_streaming_decimator_output_does_not_depend_on_chunking(chunk):
    x = np.random.default_rng(3).uniform(-1, 1, 3 * 4800 + 5)
    whole = Decimator3to1().process(x)
    decimator = Decimator3to1()
    pieces = [decimator.process(x[i : i + chunk]) for i in range(0, len(x), chunk)]
    assert np.array_equal(np.concatenate(pieces), whole)
    assert len(whole) == -(-len(x) // 3)


KERNEL = lowpass_kernel(FILTER_TAPS, CUTOFF_HZ, 48000.0)


def full_convolution_decimated(buf, j0):
    """The decimator's former form: every valid output, then every third."""
    if len(buf) < FILTER_TAPS:  # np.convolve would swap its operands
        return np.zeros(0)
    return np.convolve(buf, KERNEL, mode="valid")[j0::3]


@pytest.mark.parametrize("phase", [0, 1, 2])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 100, 158, 159, 160, 1600])
def test_polyphase_decimator_matches_the_full_convolution(phase, n):
    rng = np.random.default_rng(10 * n + phase)
    lead = rng.uniform(-1, 1, 300 + phase)
    x = rng.uniform(-1, 1, n)
    decimator = Decimator3to1()
    decimator.process(lead)
    out = decimator.process(x)
    buf = np.concatenate([lead[1 - FILTER_TAPS :], x])  # history + chunk
    expected = full_convolution_decimated(buf, (-len(lead)) % 3)
    assert len(out) == len(expected)
    assert np.max(np.abs(out - expected), initial=0.0) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 5000),
    pcm16=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    # chunk lengths in turn, the rest of the input last; empty and 1-2 sample chunks included
    lengths=st.lists(st.one_of(st.integers(0, 2), st.integers(3, 2000)), max_size=12),
)
def test_any_chunking_gives_the_one_call_output_bit_for_bit(n, pcm16, seed, lengths):
    rng = np.random.default_rng(seed)
    if pcm16:
        x, scale = rng.integers(-32768, 32768, n).astype(np.int16), 2.0**-15
    else:
        x, scale = rng.uniform(-1, 1, n), 1.0
    whole = Decimator3to1().process(x, scale)
    decimator = Decimator3to1()
    bounds = np.minimum(np.cumsum([0, *lengths]), n)
    pieces = [decimator.process(x[a:b], scale) for a, b in zip(bounds[:-1], bounds[1:])]
    pieces.append(decimator.process(x[bounds[-1] :], scale))
    assert np.array_equal(np.concatenate(pieces), whole)
    assert len(whole) == -(-n // 3)
    expected = full_convolution_decimated(np.concatenate([np.zeros(FILTER_TAPS - 1), x * scale]), 0)
    assert len(expected) == len(whole)
    assert np.max(np.abs(whole - expected), initial=0.0) <= 1e-12


def test_a_span_gives_one_output_bit_pattern_at_every_place_in_the_product():
    # the property chunking rests on: an output's bits do not depend on which
    # row and column of the fixed-shape product it takes, nor on the samples
    # around its span in that row or in the other rows
    rng = np.random.default_rng(32)
    span = rng.uniform(-1, 1, FILTER_TAPS)
    out = np.empty((_PRODUCT_ROWS, _ROW_OUTPUTS))
    patterns = set()
    for row in range(_PRODUCT_ROWS):
        for col in range(_ROW_OUTPUTS):
            rows = rng.uniform(-1, 1, (_PRODUCT_ROWS, _ROW_SPAN))
            rows[row, 3 * col : 3 * col + FILTER_TAPS] = span
            np.matmul(rows, _TOEPLITZ, out=out)
            patterns.add(out[row, col].tobytes())
    assert len(patterns) == 1
    assert abs(np.frombuffer(patterns.pop())[0] - np.dot(span, KERNEL[::-1])) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("at", [0, 2, 1000, 1601, 4799])
@pytest.mark.parametrize("chunk", [7, 1600, 4800])
def test_a_non_finite_sample_reaches_its_spans_and_at_most_one_row_beyond(bad, at, chunk):
    # the chunking promise covers finite input only: a non-finite sample
    # reaches its product row's outputs (0 * inf is NaN), so which outputs
    # beyond its spans it reaches depends on the chunking, but never more
    # than one row (16 outputs) past them
    x = np.random.default_rng(at).uniform(-1, 1, 4800)
    x[at] = bad
    decimator = Decimator3to1()
    with np.errstate(invalid="ignore"):
        out = np.concatenate([decimator.process(x[i : i + chunk]) for i in range(0, len(x), chunk)])
    # output m is the filter over inputs 3m - 158 .. 3m
    first, last = -(-at // 3), (at + FILTER_TAPS - 1) // 3
    m = np.arange(len(out))
    assert not np.isfinite(out[(m >= first) & (m <= last)]).any()
    assert np.isfinite(out[(m < first - (_ROW_OUTPUTS - 1)) | (m > last + (_ROW_OUTPUTS - 1))]).all()


def arrays_held_by(decimator):
    """Every array the decimator keeps, directly or in its lists and tuples."""
    found, todo = [], list(vars(decimator).values())
    while todo:
        value = todo.pop()
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (list, tuple)):
            todo.extend(value)
    return found


def test_an_output_shares_no_memory_and_a_later_call_leaves_it_alone():
    rng = np.random.default_rng(33)
    decimator = Decimator3to1()
    outs, copies = [], []
    for n in (1600, 1600, 7, 4800, 100, 1600):
        out = decimator.process(rng.uniform(-1, 1, n))
        held = arrays_held_by(decimator)
        assert held and not any(np.shares_memory(out, a) for a in held)
        assert not any(np.shares_memory(out, earlier) for earlier in outs)
        outs.append(out)
        copies.append(out.copy())
    for out, copy in zip(outs, copies):
        assert out.tobytes() == copy.tobytes()


@pytest.mark.parametrize("chunk", [7, 100, 1600])
def test_writing_into_an_input_after_the_call_changes_no_later_output(chunk):
    x = np.random.default_rng(chunk).uniform(-1, 1, 3 * 1600 + 5)
    whole = Decimator3to1().process(x)
    decimator = Decimator3to1()
    pieces = []
    for i in range(0, len(x), chunk):
        samples = x[i : i + chunk].copy()
        pieces.append(decimator.process(samples))
        samples[:] = np.nan
    assert np.array_equal(np.concatenate(pieces), whole)


# each length differs from the one before, so the stream re-lays its buffer at
# every length and carries its history over (repeated, each layout also serves
# a second call); the lengths under 158 move an overlapping history
CHANGING_LENGTHS = [1600, 7, 0, 157, 158, 159, 1600, 4800, 1, 1600]


@pytest.mark.parametrize("repeat", [1, 2])
@pytest.mark.parametrize("scale", [1.0, 2.0**-15])
def test_a_stream_whose_chunk_length_changes_gives_the_one_call_output_bit_for_bit(scale, repeat):
    lengths = [n for n in CHANGING_LENGTHS for _ in range(repeat)]
    rng = np.random.default_rng(repeat)
    if scale == 1.0:
        x = rng.uniform(-1, 1, sum(lengths))
    else:
        x = rng.integers(-32768, 32768, sum(lengths)).astype(np.int16)
    whole = Decimator3to1().process(x, scale)
    decimator = Decimator3to1()
    ends = np.cumsum(lengths)
    pieces = [decimator.process(x[end - n : end], scale) for n, end in zip(lengths, ends)]
    # a chunk gives the outputs at the multiples of 3 among its input indices
    assert [len(p) for p in pieces] == [(end + 2) // 3 - (end - n + 2) // 3 for n, end in zip(lengths, ends)]
    assert np.array_equal(np.concatenate(pieces), whole)
