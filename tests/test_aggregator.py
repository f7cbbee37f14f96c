"""Window slicing: counts, offsets, chunking-invariance, and windows as
read-only views of the raw samples, scaled when read."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowbot.flowcore import AggWindow, Aggregator, AggregatorConfig, AggregatorConfigError


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
            returned.append((w, w.raw.copy(), w.samples))
        offset += size
    # later feeds moved the pending samples into new buffers; no window's view was written
    for w, raw, values in returned:
        np.testing.assert_array_equal(w.raw, raw)
        np.testing.assert_array_equal(w.samples, values)


def test_windows_emitted_before_compaction_and_growth_keep_their_samples():
    cfg = AggregatorConfig(window_samples=8, hop_samples=3, sample_rate_hz=10)
    codes = np.arange(-300, 300, dtype=np.int16) * 97
    agg, returned, offset = Aggregator(cfg), [], 0
    # the large chunks make the buffer grow; the small ones compact it into new ones of a size
    for size in [5, 9, 1, 1, 30] + [4] * 30 + [100, 3, 3] + [2] * 100:
        for w in agg.feed(codes[offset : offset + size], 10, 2.0**-15):
            returned.append((w, w.raw.copy()))
        offset += size
    buffers = list({id(w.raw.base): len(w.raw.base) for w, _ in returned}.values())
    assert buffers == sorted(buffers) and len(set(buffers)) >= 3 and len(set(buffers)) < len(buffers)
    decoded = codes[:offset] / 32768.0
    for w, raw in returned:
        assert w.raw.dtype == np.int16
        np.testing.assert_array_equal(w.raw, raw)
        assert w.samples.tobytes() == decoded[w.start_sample : w.start_sample + 8].tobytes()


def test_a_rejected_chunk_changes_nothing():
    cfg = AggregatorConfig(window_samples=6, hop_samples=2, sample_rate_hz=10)
    agg = Aggregator(cfg)
    with pytest.raises(AggregatorConfigError, match="mono 1-D"):
        agg.feed(np.zeros((2, 3)), 10, 0.5)
    with pytest.raises(AggregatorConfigError, match="integer or floating"):
        agg.feed(np.array(["a", "b"]), 10, 0.25)
    with pytest.raises(AggregatorConfigError, match="sample rate"):
        agg.feed(np.zeros(4, np.int16), 16000, 2.0**-15)
    # no chunk was accepted, so the first accepted one fixes scale and dtype
    assert agg.feed(np.arange(4.0), 10, 1.0) == []
    with pytest.raises(AggregatorConfigError, match="dtype int16 does not match earlier chunks' float64"):
        agg.feed(np.arange(4, dtype=np.int16), 10, 1.0)
    with pytest.raises(AggregatorConfigError, match="scale"):
        agg.feed(np.arange(4.0), 10, 0.5)
    assert agg.pending() == 4
    (w,) = agg.feed(np.arange(4.0, 6.0), 10, 1.0)
    assert w.samples.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize(
    "first", [np.array([1 + 2j, 3j]), np.array(["a", "b"]), np.array([None, 1], dtype=object)],
    ids=["complex", "string", "object"],
)
def test_a_first_chunk_neither_integer_nor_floating_is_config_error(first):
    with pytest.raises(AggregatorConfigError, match="integer or floating"):
        Aggregator(CFG_1S_250MS).feed(first)


def test_a_window_is_a_read_only_view_and_its_samples_a_fresh_array():
    cfg = AggregatorConfig(window_samples=4, hop_samples=2, sample_rate_hz=10)
    (w,) = Aggregator(cfg).feed(np.array([1, -2, 3, -4], np.int16), 10, 0.5)
    with pytest.raises(ValueError, match="read-only"):
        w.raw[0] = 7
    first, second = w.samples, w.samples
    assert first is not second and first.flags.writeable and first.dtype == np.float64
    assert not np.shares_memory(first, w.raw)
    first[:] = 0.0
    assert w.samples.tolist() == [0.5, -1.0, 1.5, -2.0] == second.tolist()


def test_span_s_never_reads_the_samples():
    # void samples cannot be scaled, so a span that built them would raise
    w = AggWindow(0, 8, 4, np.zeros(6, dtype="V1"))
    with pytest.raises(TypeError):
        w.samples
    assert w.span_s == (2.0, 3.5)


# name -> (elements, the dtype np.asarray gives them, scale, whether chunks are fed as lists)
RAW_KINDS = {
    "int16 at 2**-15": (st.integers(-32768, 32767), np.int16, 2.0**-15, False),
    "float64 at 1.0": (st.floats() | st.sampled_from([-0.0, float("nan")]), np.float64, 1.0, False),
    "float32 at 0.3": (st.floats(width=32), np.float32, 0.3, False),
    "int64 lists at 0.001": (st.integers(-(2**62), 2**62), np.int64, 0.001, True),
}


@given(
    kind=st.sampled_from(sorted(RAW_KINDS)),
    data=st.data(),
    window=st.integers(1, 40),
    hop_frac=st.integers(1, 40),
    chunks=st.lists(st.integers(1, 70), min_size=1, max_size=12),
)
def test_window_samples_are_the_scaled_raw_samples_bit_for_bit(kind, data, window, hop_frac, chunks):
    elements, dtype, scale, as_lists = RAW_KINDS[kind]
    hop = min(hop_frac, window)
    cfg = AggregatorConfig(window_samples=window, hop_samples=hop, sample_rate_hz=100)
    values = data.draw(st.lists(elements, min_size=sum(chunks), max_size=sum(chunks)))
    raw = np.array(values, dtype=dtype)
    agg, windows, offset = Aggregator(cfg), [], 0
    for size in chunks:
        chunk = values[offset : offset + size] if as_lists else raw[offset : offset + size]
        windows.extend(agg.feed(chunk, 100, scale))
        offset += size
    # the oracle scales all the raw samples at once; float32 * 0.3 would stay float32 without dtype
    want = np.multiply(raw, scale, dtype=np.float64)
    assert [w.start_sample for w in windows] == oracle_window_starts(len(raw), window, hop)
    for w in windows:
        assert w.raw.dtype == dtype and w.scale == scale
        assert w.samples.tobytes() == want[w.start_sample : w.start_sample + window].tobytes()
