"""Stream delivery policies: eviction, miss counting, deadlines, FIFO."""

import pytest
from hypothesis import given, strategies as st

from flowbot.flowcore import (
    LosslessPolicy,
    LossyPolicy,
    Packet,
    PushStatus,
    Stream,
    StreamConfigError,
    ViolationKind,
)


def pkt(seq, ts=None, payload=None):
    return Packet(payload=payload if payload is not None else seq,
                  timestamp_us=seq if ts is None else ts, seq=seq)


def test_packet_copy_is_observationally_identical():
    p = Packet(payload=(1, 2), timestamp_us=5, seq=3)
    q = p.copy()
    assert q == p and q.payload is p.payload


def test_packet_is_immutable():
    p = pkt(0)
    with pytest.raises(AttributeError):
        p.seq = 1


def test_policy_validation():
    with pytest.raises(StreamConfigError):
        LossyPolicy(capacity=0)
    with pytest.raises(StreamConfigError):
        LossyPolicy(capacity=1, max_successive_misses=-1)
    with pytest.raises(StreamConfigError):
        LosslessPolicy(deadline_us=0)


def test_lossy_overflow_evicts_oldest():
    s = Stream("s", LossyPolicy(capacity=2))
    s.push(pkt(1))
    s.push(pkt(2))
    out = s.push(pkt(3))
    assert out.status is PushStatus.DROPPED_OLDEST
    assert out.dropped.seq == 1
    assert out.successive_misses == 1
    assert [s.pop().seq, s.pop().seq] == [2, 3]


def test_miss_counter_resets_on_nonevicting_push():
    s = Stream("s", LossyPolicy(capacity=1))
    s.push(pkt(0))
    assert s.push(pkt(1)).successive_misses == 1
    s.pop()
    assert s.push(pkt(2)).status is PushStatus.ACCEPTED
    assert s.successive_misses == 0


def test_exceeding_miss_limit_records_backpressure_violation():
    # capacity 2, limit 2: five pushes with no pops miss 3 in a row
    s = Stream("s", LossyPolicy(capacity=2, max_successive_misses=2))
    for i in range(1, 6):
        s.push(pkt(i))
    assert s.successive_misses == 3
    kinds = [v.kind for v in s.violations]
    assert kinds == [ViolationKind.BACKPRESSURE_MISS_LIMIT]
    assert s.violations[0].observed == 3.0
    assert s.violations[0].bound == 2.0


def test_lossless_never_drops():
    s = Stream("s", LosslessPolicy(deadline_us=10**9))
    for i in range(10_000):
        assert s.push(pkt(i)).status is PushStatus.ACCEPTED
    assert s.dropped == 0
    got = [s.pop().seq for _ in range(10_000)]
    assert got == list(range(10_000))


def test_pop_order_and_empty():
    s = Stream("s", LosslessPolicy(deadline_us=1000))
    assert s.pop() is None
    s.push(pkt(1, ts=0))
    s.push(pkt(2, ts=0))
    assert s.pop(now_us=0).seq == 1
    assert s.pop(now_us=0).seq == 2


def test_lossless_deadline_violation_still_delivers():
    s = Stream("s", LosslessPolicy(deadline_us=1000))
    s.push(pkt(0, ts=0), now_us=0)
    p = s.pop(now_us=1500)
    assert p is not None and p.seq == 0
    assert len(s.violations) == 1
    v = s.violations[0]
    assert v.kind is ViolationKind.LATENCY_EXCEEDED
    assert (v.observed, v.bound) == (1500.0, 1000.0)


@given(
    capacity=st.integers(1, 8),
    ops=st.lists(st.sampled_from(["push", "pop"]), min_size=1, max_size=200),
)
def test_lossy_conservation_fifo_and_bounded_memory(capacity, ops):
    s = Stream("s", LossyPolicy(capacity=capacity))
    seq = 0
    delivered = []
    for op in ops:
        if op == "push":
            s.push(pkt(seq))
            seq += 1
        else:
            p = s.pop()
            if p is not None:
                delivered.append(p.seq)
        assert s.queued() <= capacity
    assert s.pushed == s.delivered + s.dropped + s.queued()
    assert delivered == sorted(delivered)
    assert len(set(delivered)) == len(delivered)

