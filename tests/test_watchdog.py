"""Watchdog bounds checked by the stream: latency, throughput and passivity."""

import pytest
from hypothesis import given, settings, strategies as st

from flowbot.flowcore import (
    LosslessPolicy,
    LossyPolicy,
    Packet,
    Stream,
    StreamConfigError,
    ViolationKind,
    WatchdogConfig,
)


def pkt(seq, ts=None):
    return Packet(payload=seq, timestamp_us=seq if ts is None else ts, seq=seq)


def monitored(**bounds):
    """A stream whose policy records nothing, so every violation is the watchdog's."""
    return Stream("s", LossyPolicy(capacity=100), watchdog=WatchdogConfig(**bounds))


def test_config_validation():
    with pytest.raises(StreamConfigError):
        WatchdogConfig(max_latency_us=0)
    with pytest.raises(StreamConfigError):
        WatchdogConfig(min_throughput_hz=10.0)  # needs window_us
    with pytest.raises(StreamConfigError):
        WatchdogConfig(min_throughput_hz=10.0, window_us=-5)
    WatchdogConfig()  # everything disabled is fine


def test_latency_exceeded():
    s = monitored(max_latency_us=10_000)
    s.push(pkt(0), now_us=0)
    assert s.violations == []
    s.pop(now_us=15_000)
    assert [v["kind"] for v in s.violations] == [ViolationKind.LATENCY_EXCEEDED]
    assert (s.violations[0]["observed"], s.violations[0]["bound"]) == (15_000.0, 10_000.0)


def test_latency_within_bound_is_silent():
    s = monitored(max_latency_us=10_000)
    s.push(pkt(0), now_us=0)
    s.pop(now_us=9_999)
    assert s.violations == []


def test_throughput_below_over_completed_window():
    s = monitored(min_throughput_hz=10.0, window_us=1_000_000)
    for seq in range(6):
        s.push(pkt(seq, ts=0), now_us=0)  # the first push aligns the first window
    for t in (100_000, 200_000, 300_000, 400_000, 500_000):
        s.pop(now_us=t)
    assert s.violations == []
    s.push(pkt(6, ts=0), now_us=1_200_000)  # crosses the window boundary
    assert [v["kind"] for v in s.violations] == [ViolationKind.THROUGHPUT_BELOW]
    assert (s.violations[0]["observed"], s.violations[0]["bound"]) == (5.0, 10.0)
    assert s.violations[0]["at_us"] == 1_000_000


def test_throughput_ok_window_is_silent():
    s = monitored(min_throughput_hz=2.0, window_us=1_000_000)
    s.push(pkt(0, ts=0), now_us=0)
    s.push(pkt(1, ts=0), now_us=0)
    for t in (100_000, 600_000):
        s.pop(now_us=t)
    s.finalize(1_000_000)
    assert s.violations == []


def test_finalize_closes_trailing_windows():
    s = monitored(min_throughput_hz=1.0, window_us=500_000)
    s.push(pkt(0), now_us=0)
    s.pop(now_us=0)
    s.finalize(1_600_000)  # windows [0,.5), [.5,1), [1,1.5) complete
    # the first window has the packet, the next two are empty
    assert [(v["kind"], v["at_us"]) for v in s.violations] == [
        (ViolationKind.THROUGHPUT_BELOW, 1_000_000),
        (ViolationKind.THROUGHPUT_BELOW, 1_500_000),
    ]


def test_violations_of_one_pop_in_check_order():
    """Deadline first, then the throughput windows the pop closes, then the watchdog latency."""
    s = Stream(
        "s", LosslessPolicy(deadline_us=10),
        watchdog=WatchdogConfig(max_latency_us=10, min_throughput_hz=1.0, window_us=1_000_000),
    )
    s.push(pkt(0, ts=0), now_us=0)
    s.pop(now_us=2_500_000)
    assert [(v["kind"], v["at_us"]) for v in s.violations] == [
        (ViolationKind.DEADLINE_EXCEEDED, 2_500_000),
        (ViolationKind.THROUGHPUT_BELOW, 1_000_000),
        (ViolationKind.THROUGHPUT_BELOW, 2_000_000),
        (ViolationKind.LATENCY_EXCEEDED, 2_500_000),
    ]


def test_a_late_pop_on_a_watched_lossless_stream_names_each_bound_by_its_kind():
    """Packet age against the deadline, queue time against the watchdog."""
    s = Stream("s", LosslessPolicy(deadline_us=10), watchdog=WatchdogConfig(max_latency_us=5))
    s.push(pkt(0, ts=0), now_us=0)
    s.pop(now_us=100)
    assert s.violations == [
        {"kind": "DeadlineExceeded", "at_us": 100, "observed": 100.0, "bound": 10.0},
        {"kind": "LatencyExceeded", "at_us": 100, "observed": 100.0, "bound": 5.0},
    ]


def test_throughput_windows_a_push_closes_come_before_its_miss_limit():
    s = Stream(
        "s", LossyPolicy(capacity=1, max_successive_misses=0),
        watchdog=WatchdogConfig(min_throughput_hz=1.0, window_us=1_000),
    )
    s.push(pkt(0), now_us=0)
    s.push(pkt(1), now_us=1_500)  # evicts seq 0 and closes [0, 1000)
    assert [v["kind"] for v in s.violations] == [
        ViolationKind.THROUGHPUT_BELOW,
        ViolationKind.BACKPRESSURE_MISS_LIMIT,
    ]


def test_drop_consumes_oldest_pending_in():
    s = Stream("s", LossyPolicy(capacity=1), watchdog=WatchdogConfig(max_latency_us=20))
    s.push(pkt(0), now_us=0)
    s.push(pkt(1), now_us=10)  # evicts the packet pushed at t=0
    assert s.pop(now_us=25).seq == 1  # pushed at 10: latency 15 <= 20
    assert s.violations == []
    s.push(pkt(2), now_us=30)
    s.pop(now_us=60)
    assert [v["observed"] for v in s.violations] == [30.0]


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.one_of(st.none(), st.integers(1, 4)),
    max_latency_us=st.integers(1, 60),
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 30)), max_size=60),
)
def test_latency_pairs_each_popped_packet_with_its_own_push_time(capacity, max_latency_us, ops):
    """Against a reference queue of push times, for lossy (capacity) and
    lossless (None) streams under non-decreasing times."""
    policy = LosslessPolicy(deadline_us=10**12) if capacity is None else LossyPolicy(capacity)
    s = Stream("s", policy, watchdog=WatchdogConfig(max_latency_us=max_latency_us))
    model, expected, now = [], [], 0
    for seq, (is_push, dt) in enumerate(ops):
        now += dt
        if is_push:
            s.push(pkt(seq, ts=0), now_us=now)
            model.append(now)
            if capacity is not None and len(model) > capacity:
                model.pop(0)
        else:
            s.pop(now_us=now)
            if model:
                latency = now - model.pop(0)
                if latency > max_latency_us:
                    expected.append((now, float(latency)))
    assert [(v["at_us"], v["observed"]) for v in s.violations] == expected


def tumbling_windows(events, end_us, window_us, min_hz):
    """The (at_us, observed) of every window below ``min_hz``, by brute force.

    ``events`` are ``(t_us, is_pop)`` in call order, with non-decreasing
    times. Windows are ``[origin + k*W, origin + (k+1)*W)`` from the first
    event; one is checked once the last event, or ``end_us`` if it is not
    earlier, reaches its end.
    """
    if not events:
        return []
    origin, last = events[0][0], events[-1][0]
    closed_by = max(last, end_us)
    out = []
    k = 0
    while origin + (k + 1) * window_us <= closed_by:
        lo, hi = origin + k * window_us, origin + (k + 1) * window_us
        rate_hz = sum(1 for t, is_pop in events if is_pop and lo <= t < hi) * 1e6 / window_us
        if rate_hz < min_hz:
            out.append((hi, rate_hz))
        k += 1
    return out


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.one_of(st.none(), st.integers(1, 3)),
    window_us=st.integers(1, 120),
    min_hz=st.integers(1, 60_000),
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 100)), max_size=50),
    end_dt=st.integers(-100, 400),
)
def test_throughput_windows_match_a_tumbling_window_model(capacity, window_us, min_hz, ops, end_dt):
    """Random pushes and pops at non-decreasing times, then ``finalize``."""
    policy = LosslessPolicy(deadline_us=10**12) if capacity is None else LossyPolicy(capacity)
    s = Stream("s", policy, watchdog=WatchdogConfig(min_throughput_hz=float(min_hz), window_us=window_us))
    events, queued, now = [], 0, 0
    for seq, (is_push, dt) in enumerate(ops):
        now += dt
        if is_push:
            s.push(pkt(seq, ts=0), now_us=now)
            queued = queued + 1 if capacity is None else min(queued + 1, capacity)
            events.append((now, False))
        elif s.pop(now_us=now) is not None:  # a pop from an empty stream is no event
            queued -= 1
            events.append((now, True))
    end_us = max(0, now + end_dt)
    s.finalize(end_us)
    expected = tumbling_windows(events, end_us, window_us, min_hz)
    assert all(v["kind"] == ViolationKind.THROUGHPUT_BELOW for v in s.violations)
    assert [(v["at_us"], v["observed"]) for v in s.violations] == expected
    assert len(s) == queued


def test_watchdog_passivity_on_stream_counters():
    def run(with_watchdog):
        wd = WatchdogConfig(max_latency_us=1) if with_watchdog else None
        s = Stream("s", LossyPolicy(capacity=2), watchdog=wd)
        for i in range(20):
            s.push(Packet(payload=i, timestamp_us=i, seq=i), now_us=i)
            if i % 3 == 0:
                s.pop(now_us=i + 100)
        entry = s.to_json()
        del entry["violations"]
        return entry

    assert run(True) == run(False)
