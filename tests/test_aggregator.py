"""Window slicing: counts, offsets, and chunking-invariance."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowbot.flowcore import Aggregator, AggregatorConfig, AggregatorConfigError


def oracle_window_starts(n, window, hop):
    """Independent enumeration of emitted window offsets."""
    return [o for o in range(0, max(n - window, 0) + 1, hop) if o + window <= n]


CFG_1S_250MS = AggregatorConfig(window_samples=16000, hop_samples=4000, sample_rate_hz=16000)


def test_config_validation():
    with pytest.raises(AggregatorConfigError):
        AggregatorConfig(window_samples=10, hop_samples=0, sample_rate_hz=1)
    with pytest.raises(AggregatorConfigError):
        AggregatorConfig(window_samples=10, hop_samples=11, sample_rate_hz=1)


def test_one_second_window_offsets():
    agg = Aggregator(CFG_1S_250MS)
    windows = agg.feed(np.zeros(28000))
    assert [w.start_sample for w in windows] == [0, 4000, 8000, 12000]
    assert len(windows) == (28000 - 16000) // 4000 + 1


def test_incomplete_window_emits_nothing():
    agg = Aggregator(CFG_1S_250MS)
    assert agg.feed(np.zeros(15999)) == []
    assert agg.pending() == 15999


def test_incremental_feed_matches_batch():
    a = Aggregator(CFG_1S_250MS)
    first = a.feed(np.zeros(16000))
    second = a.feed(np.zeros(4000))
    assert len(first) == 1 and len(second) == 1
    assert second[0].start_sample == 4000


def test_window_contents_and_span():
    cfg = AggregatorConfig(window_samples=6, hop_samples=2, sample_rate_hz=10)
    agg = Aggregator(cfg)
    windows = agg.feed(np.arange(10, dtype=float))
    assert [w.start_sample for w in windows] == [0, 2, 4]
    np.testing.assert_array_equal(windows[1].samples, np.arange(2, 8, dtype=float))
    assert windows[0].span_s == (0.0, 0.6)
    assert windows[2].index == 2


def test_sample_rate_mismatch_is_config_error():
    agg = Aggregator(CFG_1S_250MS)
    with pytest.raises(AggregatorConfigError):
        agg.feed(np.zeros(100), sample_rate_hz=48000)


def test_2d_chunk_is_config_error():
    with pytest.raises(AggregatorConfigError, match="mono 1-D"):
        Aggregator(CFG_1S_250MS).feed(np.zeros((2, 100)))


def test_int16_chunks_with_a_scale_give_the_decoded_windows_and_one_scale_holds():
    cfg = AggregatorConfig(window_samples=6, hop_samples=2, sample_rate_hz=10)
    codes = np.array([-32768, 32767, 0, -1, 1, 12345, -12345, 7], dtype=np.int16)
    agg = Aggregator(cfg)
    windows = agg.feed(codes[:5], 10, 2.0**-15) + agg.feed(codes[5:], 10, 2.0**-15)
    decoded = codes / 32768.0
    assert [w.samples.tolist() for w in windows] == [decoded[0:6].tolist(), decoded[2:8].tolist()]
    with pytest.raises(AggregatorConfigError, match="scale"):
        agg.feed(np.zeros(4), 10, 1.0)
    # the scale of an aggregator's first chunk is the one it holds
    fresh = Aggregator(cfg)
    fresh.feed(np.zeros(3))
    with pytest.raises(AggregatorConfigError, match="scale"):
        fresh.feed(codes[:3], 10, 2.0**-15)


@given(
    window=st.integers(1, 40),
    hop_frac=st.integers(1, 40),
    chunks=st.lists(st.integers(0, 90), min_size=1, max_size=12),
)
def test_chunked_feeding_equals_batch(window, hop_frac, chunks):
    hop = min(hop_frac, window)
    cfg = AggregatorConfig(window_samples=window, hop_samples=hop, sample_rate_hz=100)
    total = int(sum(chunks))
    samples = np.arange(total, dtype=float)

    batch = Aggregator(cfg).feed(samples)

    incremental = []
    agg = Aggregator(cfg)
    offset = 0
    for size in chunks:
        incremental.extend(agg.feed(samples[offset : offset + size]))
        offset += size

    assert [w.start_sample for w in incremental] == [w.start_sample for w in batch]
    assert [w.start_sample for w in batch] == oracle_window_starts(total, window, hop)
    for a, b in zip(incremental, batch):
        np.testing.assert_array_equal(a.samples, b.samples)


def feed_in_chunks(cfg, samples, sizes):
    """Windows and ``pending()`` after each feed of ``samples`` cut into ``sizes``."""
    agg, windows, pending, offset = Aggregator(cfg), [], [], 0
    for size in sizes:
        windows.extend(agg.feed(samples[offset : offset + size]))
        offset += size
        pending.append(agg.pending())
    return windows, pending


def assert_same_windows(got, want):
    assert [(w.index, w.start_sample) for w in got] == [(w.index, w.start_sample) for w in want]
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.samples, b.samples)


@pytest.mark.parametrize("window, hop", [(1, 1), (5, 5), (7, 3), (16, 1)])
def test_one_sample_chunks_equal_batch(window, hop):
    cfg = AggregatorConfig(window_samples=window, hop_samples=hop, sample_rate_hz=100)
    samples = np.arange(3 * window + 11, dtype=float)
    windows, _ = feed_in_chunks(cfg, samples, [1] * len(samples))
    assert_same_windows(windows, Aggregator(cfg).feed(samples))


@pytest.mark.parametrize("window, hop", [(1, 1), (5, 5), (7, 3), (16, 1)])
def test_chunks_over_twice_the_window_equal_batch(window, hop):
    cfg = AggregatorConfig(window_samples=window, hop_samples=hop, sample_rate_hz=100)
    sizes = [2 * window + 1, 1, 5 * window + 3, 0, 2 * window + 7, 9 * window]
    samples = np.arange(sum(sizes), dtype=float)
    windows, _ = feed_in_chunks(cfg, samples, sizes)
    assert_same_windows(windows, Aggregator(cfg).feed(samples))


@given(
    window=st.integers(1, 40),
    hop_frac=st.integers(1, 40),
    chunks=st.lists(st.integers(0, 130), min_size=1, max_size=16),
)
def test_pending_after_each_feed(window, hop_frac, chunks):
    hop = min(hop_frac, window)
    cfg = AggregatorConfig(window_samples=window, hop_samples=hop, sample_rate_hz=100)
    _, pending = feed_in_chunks(cfg, np.zeros(sum(chunks)), chunks)
    totals = np.cumsum(chunks)
    # every emitted window consumed one hop; the rest is still buffered
    assert pending == [int(n) - hop * len(oracle_window_starts(int(n), window, hop)) for n in totals]


@given(
    window=st.integers(1, 40),
    hop_frac=st.integers(1, 40),
    chunks=st.lists(st.integers(0, 130), min_size=1, max_size=16),
)
def test_returned_windows_never_change(window, hop_frac, chunks):
    hop = min(hop_frac, window)
    cfg = AggregatorConfig(window_samples=window, hop_samples=hop, sample_rate_hz=100)
    agg, returned, offset = Aggregator(cfg), [], 0
    samples = np.arange(sum(chunks), dtype=float)
    for size in chunks:
        for w in agg.feed(samples[offset : offset + size]):
            returned.append((w, w.samples.copy()))
        offset += size
    # later feeds wrote over, moved and regrew the buffer; each window owns its samples
    for w, snapshot in returned:
        assert w.samples.base is None
        np.testing.assert_array_equal(w.samples, snapshot)
