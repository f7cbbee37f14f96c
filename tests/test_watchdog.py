"""Watchdog latency/throughput monitoring and its passivity."""

import pytest
from hypothesis import given, settings, strategies as st

from flowbot.flowcore import (
    LosslessPolicy,
    LossyPolicy,
    Packet,
    Stream,
    ViolationKind,
    Watchdog,
    WatchdogConfig,
    WatchdogConfigError,
)


def pkt(seq, ts=None):
    return Packet(payload=seq, timestamp_us=seq if ts is None else ts, seq=seq)


def test_config_validation():
    with pytest.raises(WatchdogConfigError):
        WatchdogConfig(max_latency_us=0)
    with pytest.raises(WatchdogConfigError):
        WatchdogConfig(min_throughput_hz=10.0)  # needs window_us
    with pytest.raises(WatchdogConfigError):
        WatchdogConfig(min_throughput_hz=10.0, window_us=-5)
    WatchdogConfig()  # everything disabled is fine


def test_latency_exceeded():
    wd = Watchdog(WatchdogConfig(max_latency_us=10_000))
    assert wd.packet_in(0) == []
    violations = wd.packet_out(15_000, 0)
    assert [v.kind for v in violations] == [ViolationKind.LATENCY_EXCEEDED]
    assert (violations[0].observed, violations[0].bound) == (15_000.0, 10_000.0)


def test_latency_within_bound_is_silent():
    wd = Watchdog(WatchdogConfig(max_latency_us=10_000))
    wd.packet_in(0)
    assert wd.packet_out(9_999, 0) == []


def test_throughput_below_over_completed_window():
    wd = Watchdog(WatchdogConfig(min_throughput_hz=10.0, window_us=1_000_000))
    wd.packet_in(0)  # aligns the first window
    for t in (100_000, 200_000, 300_000, 400_000, 500_000):
        assert wd.packet_out(t, 0) == []
    violations = wd.packet_in(1_200_000)  # crosses the window boundary
    assert [v.kind for v in violations] == [ViolationKind.THROUGHPUT_BELOW]
    assert (violations[0].observed, violations[0].bound) == (5.0, 10.0)
    assert violations[0].at_us == 1_000_000


def test_throughput_ok_window_is_silent():
    wd = Watchdog(WatchdogConfig(min_throughput_hz=2.0, window_us=1_000_000))
    wd.packet_in(0)
    for t in (100_000, 600_000):
        wd.packet_out(t, 0)
    assert wd.flush(1_000_000) == []


def test_flush_closes_trailing_windows():
    wd = Watchdog(WatchdogConfig(min_throughput_hz=1.0, window_us=500_000))
    wd.packet_out(0, 0)
    violations = wd.flush(1_600_000)  # windows [0,.5), [.5,1), [1,1.5) complete
    assert len(violations) == 2  # first window has the packet, next two are empty
    assert all(v.kind is ViolationKind.THROUGHPUT_BELOW for v in violations)


def test_drop_consumes_oldest_pending_in():
    s = Stream("s", LossyPolicy(capacity=1), watchdog=Watchdog(WatchdogConfig(max_latency_us=20)))
    s.push(pkt(0), now_us=0)
    s.push(pkt(1), now_us=10)  # evicts the packet pushed at t=0
    assert s.pop(now_us=25).seq == 1  # pushed at 10: latency 15 <= 20
    assert s.violations == []
    s.push(pkt(2), now_us=30)
    s.pop(now_us=60)
    assert [v.observed for v in s.violations] == [30.0]


def test_out_of_order_event_is_recorded_not_raised():
    wd = Watchdog(WatchdogConfig(max_latency_us=10))
    wd.packet_in(100)
    assert wd.packet_in(50) == []
    assert wd.errors and wd.errors[0]["kind"] == "OutOfOrderEvent"


def test_out_of_order_push_keeps_each_packet_paired_with_its_own_push():
    wd = Watchdog(WatchdogConfig(max_latency_us=10))
    s = Stream("s", LossyPolicy(capacity=4), watchdog=wd)
    s.push(pkt(0), now_us=100)
    s.push(pkt(1), now_us=50)  # out of order: a monitoring error, but still queued
    s.pop(now_us=300)
    s.pop(now_us=301)
    assert [e["event"] for e in wd.errors] == ["PacketIn"]
    assert [(v.at_us, v.observed) for v in s.violations] == [(300, 200.0), (301, 251.0)]


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
    s = Stream("s", policy, watchdog=Watchdog(WatchdogConfig(max_latency_us=max_latency_us)))
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
    assert [(v.at_us, v.observed) for v in s.violations] == expected


def test_watchdog_passivity_on_stream_counters():
    def run(with_watchdog):
        wd = Watchdog(WatchdogConfig(max_latency_us=1)) if with_watchdog else None
        s = Stream("s", LossyPolicy(capacity=2), watchdog=wd)
        for i in range(20):
            s.push(Packet(payload=i, timestamp_us=i, seq=i), now_us=i)
            if i % 3 == 0:
                s.pop(now_us=i + 100)
        return s.counters()

    assert run(True) == run(False)
