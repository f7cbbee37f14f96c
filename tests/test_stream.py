"""Stream delivery policies: eviction, miss counting, deadlines, FIFO."""

import pytest
from hypothesis import given, strategies as st

from flowbot.flowcore import (
    Latch,
    LatchState,
    LosslessPolicy,
    LossyPolicy,
    Packet,
    Stream,
    StreamConfigError,
    ViolationKind,
    WatchdogConfig,
)


def pkt(seq, ts=None, payload=None):
    return Packet(payload=payload if payload is not None else seq,
                  timestamp_us=seq if ts is None else ts, seq=seq)


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
    s.push(pkt(1), 1)
    s.push(pkt(2), 2)
    assert s.push(pkt(3), 3) is None
    assert (s.dropped, s.successive_misses) == (1, 1)
    assert s.drop_runs == [{"first_seq": 1, "last_seq": 1, "first_t_us": 3, "last_t_us": 3, "count": 1}]  # packet 1 evicted by the push at t=3
    assert [s.pop(3).seq, s.pop(3).seq] == [2, 3]


def test_miss_counter_resets_on_nonevicting_push():
    s = Stream("s", LossyPolicy(capacity=1))
    s.push(pkt(0), 0)
    s.push(pkt(1), 1)
    assert (s.dropped, s.successive_misses) == (1, 1)
    s.pop(1)
    s.push(pkt(2), 2)
    assert (s.dropped, s.successive_misses) == (1, 0)
    assert s.drop_runs == [{"first_seq": 0, "last_seq": 0, "first_t_us": 1, "last_t_us": 1, "count": 1}]
    assert s.pop(2).seq == 2


def test_exceeding_miss_limit_records_backpressure_violation():
    # capacity 2, limit 2: five pushes with no pops miss 3 in a row
    s = Stream("s", LossyPolicy(capacity=2, max_successive_misses=2))
    for i in range(1, 6):
        s.push(pkt(i), i)
    assert s.successive_misses == 3
    kinds = [v["kind"] for v in s.violations]
    assert kinds == [ViolationKind.BACKPRESSURE_MISS_LIMIT]
    assert s.violations[0]["observed"] == 3.0
    assert s.violations[0]["bound"] == 2.0


def test_lossless_never_drops():
    s = Stream("s", LosslessPolicy(deadline_us=10**9))
    for i in range(10_000):
        s.push(pkt(i), i)
        assert (s.dropped, s.successive_misses, len(s)) == (0, 0, i + 1)
    assert s.drop_runs == []
    got = [s.pop(10_000).seq for _ in range(10_000)]
    assert got == list(range(10_000))


def test_pop_order_and_empty():
    s = Stream("s", LosslessPolicy(deadline_us=1000))
    assert s.pop(0) is None
    s.push(pkt(1, ts=0), 0)
    s.push(pkt(2, ts=0), 0)
    assert s.pop(now_us=0).seq == 1
    assert s.pop(now_us=0).seq == 2


def test_push_pop_and_forward_have_no_time_of_their_own():
    """The runner's ``now`` is the only time: no call falls back to the packet's."""
    s = Stream("s", LossyPolicy(capacity=1))
    with pytest.raises(TypeError):
        s.push(pkt(0))
    s.push(pkt(0), 5)
    with pytest.raises(TypeError):
        s.pop()
    latch = Latch(s, Stream("ctl", LossyPolicy(capacity=1)), LatchState.CLOSED)
    for call in (latch.pop, latch.drain, lambda: latch.forward(pkt(0))):
        with pytest.raises(TypeError):
            call()
    assert len(s) == 1


def test_lossless_deadline_violation_still_delivers():
    s = Stream("s", LosslessPolicy(deadline_us=1000))
    s.push(pkt(0, ts=0), now_us=0)
    p = s.pop(now_us=1500)
    assert p is not None and p.seq == 0
    assert len(s.violations) == 1
    v = s.violations[0]
    assert v["kind"] == ViolationKind.DEADLINE_EXCEEDED
    assert (v["observed"], v["bound"]) == (1500.0, 1000.0)


def test_a_report_entry_taken_mid_run_is_a_snapshot():
    """The open drop and suppression runs grow in place; an entry taken
    before they grow keeps the values it had."""
    s = Stream("s", LossyPolicy(capacity=1, max_successive_misses=0))
    latch = Latch(s, Stream("ctl", LossyPolicy(capacity=1)), LatchState.CLOSED)
    for seq in range(3):
        s.push(pkt(seq), seq)
        latch.forward(pkt(seq), seq)
    stream_entry, latch_entry = s.to_json(), latch.to_json()
    expected = (repr(stream_entry), repr(latch_entry))
    for seq in range(3, 6):
        s.push(pkt(seq), seq)
        latch.forward(pkt(seq), seq)
    latch.apply_control(1, 6)
    assert (repr(stream_entry), repr(latch_entry)) == expected
    assert stream_entry["drop_runs"] == [{"first_seq": 0, "last_seq": 1, "first_t_us": 1, "last_t_us": 2, "count": 2}]
    assert latch_entry["suppressed_runs"] == [{"first_seq": 0, "last_seq": 2, "first_t_us": 0, "last_t_us": 2, "count": 3}]
    assert s.to_json()["drop_runs"] == [{"first_seq": 0, "last_seq": 4, "first_t_us": 1, "last_t_us": 5, "count": 5}]
    assert latch.to_json()["suppressed_runs"] == [{"first_seq": 0, "last_seq": 5, "first_t_us": 0, "last_t_us": 5, "count": 6}]


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
            s.push(pkt(seq), seq)
            seq += 1
        else:
            p = s.pop(seq)
            if p is not None:
                delivered.append(p.seq)
        assert len(s) <= capacity
    assert s.pushed == s.delivered + s.dropped + len(s)
    assert delivered == sorted(delivered)
    assert len(set(delivered)) == len(delivered)


class ListStream:
    """The documented stream semantics over a plain list of ``(push_us, packet)``."""

    def __init__(self, policy, watchdog):
        lossy = isinstance(policy, LossyPolicy)
        self.capacity = policy.capacity if lossy else None
        self.miss_limit = policy.max_successive_misses if lossy else None
        self.deadline_us = None if lossy else policy.deadline_us
        self.watchdog = watchdog
        self.windowed = watchdog is not None and watchdog.min_throughput_hz is not None
        self.entries = []
        self.pushed = self.delivered = self.dropped = self.misses = self.max_queued = 0
        self.drop_runs, self.violations = [], []
        self.window_start = None
        self.window_pops = 0

    def _violate(self, kind, at_us, observed, bound):
        self.violations.append({"kind": kind, "at_us": at_us, "observed": float(observed), "bound": float(bound)})

    def _close_windows(self, now):
        wd = self.watchdog
        while now >= self.window_start + wd.window_us:
            self.window_start += wd.window_us
            rate_hz = self.window_pops * 1e6 / wd.window_us
            if rate_hz < wd.min_throughput_hz:
                self._violate("ThroughputBelow", self.window_start, rate_hz, wd.min_throughput_hz)
            self.window_pops = 0

    def _windows(self, now):
        """Open the first throughput window, or close those that end by ``now``."""
        if self.windowed:
            if self.window_start is None:
                self.window_start = now
            else:
                self._close_windows(now)

    def push(self, packet, now):
        self.pushed += 1
        self._windows(now)
        self.entries.append((now, packet))
        if self.capacity is None or len(self.entries) <= self.capacity:
            self.misses = 0
            self.max_queued = max(self.max_queued, len(self.entries))
            return
        evicted = self.entries.pop(0)[1]
        self.dropped += 1
        self.misses += 1
        if self.misses == 1:
            self.drop_runs.append({"first_seq": evicted.seq, "first_t_us": now})
        self.drop_runs[-1].update(last_seq=evicted.seq, last_t_us=now, count=self.misses)
        if self.miss_limit is not None and self.misses > self.miss_limit:
            self._violate("BackpressureMissLimit", now, self.misses, self.miss_limit)

    def pop(self, now):
        if not self.entries:
            return None
        push_us, packet = self.entries.pop(0)
        self.delivered += 1
        if self.deadline_us is not None and now - packet.timestamp_us > self.deadline_us:
            self._violate("DeadlineExceeded", now, now - packet.timestamp_us, self.deadline_us)
        if self.watchdog is not None:
            self._windows(now)
            self.window_pops += 1
            bound = self.watchdog.max_latency_us
            if bound is not None and now - push_us > bound:
                self._violate("LatencyExceeded", now, now - push_us, bound)
        return packet

    def finalize(self, end_us):
        if self.window_start is not None:
            self._close_windows(end_us)

    def to_json(self):
        return {
            "pushed": self.pushed, "delivered": self.delivered, "dropped": self.dropped,
            "queued": len(self.entries), "max_queued": self.max_queued,
            "drop_runs": [
                {k: run[k] for k in ("first_seq", "last_seq", "first_t_us", "last_t_us", "count")}
                for run in self.drop_runs
            ],
            "violations": self.violations,
        }


# times on a 10 µs grid, so ages, latencies and rates often equal their bounds
grid = lambda lo, hi: st.integers(lo, hi).map(lambda k: 10 * k)
policies = {
    "lossless": st.builds(LosslessPolicy, deadline_us=grid(1, 4)),
    "lossy": st.builds(
        LossyPolicy, capacity=st.integers(1, 4), max_successive_misses=st.none() | st.integers(0, 3)
    ),
}
watchdogs = st.builds(
    WatchdogConfig,
    max_latency_us=st.none() | grid(1, 3),
    min_throughput_hz=st.none() | st.sampled_from([5e4, 1e5, 2e5]),
    window_us=grid(1, 4),
)
# (operation, clock step, packet age at push); the runner's time never decreases
stream_ops = st.lists(
    st.tuples(st.sampled_from(["push", "pop", "peek"]), grid(0, 3), grid(0, 4)),
    max_size=60,
)


@pytest.mark.parametrize("watched", [False, True], ids=["plain", "watchdog"])
@pytest.mark.parametrize("kind", ["lossless", "lossy"])
@given(data=st.data(), ops=stream_ops)
def test_every_stream_variant_matches_a_list_model(kind, watched, data, ops):
    policy = data.draw(policies[kind])
    watchdog = data.draw(watchdogs) if watched else None
    s = Stream("s", policy, watchdog=watchdog)
    model = ListStream(policy, watchdog)
    clock, seq = 100, 0
    for op, step, age in ops:
        clock += step
        if op == "push":
            packet = Packet(payload=seq, timestamp_us=clock - age, seq=seq)
            seq += 1
            assert s.push(packet, clock) is None
            model.push(packet, clock)
        elif op == "pop":
            assert s.pop(clock) == model.pop(clock)
        head = model.entries[0][1].timestamp_us if model.entries else None
        assert (s.queue[0][1].timestamp_us if s.queue else None) == head
        assert s.pushed == s.delivered + s.dropped + len(s) == model.pushed
        assert (len(s), s.max_queued) == (len(model.entries), model.max_queued)
    s.finalize(clock)
    model.finalize(clock)
    assert s.to_json() == model.to_json()
