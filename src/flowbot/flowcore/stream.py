"""Streams: single-threaded packet queues with delivery policies and watchdog bounds.

A stream is either lossy (bounded; overflow evicts the oldest packet, and
each run of consecutive evictions is kept as one record) or lossless
(unbounded; every packet is delivered but its age at delivery is checked
against a deadline). The producer never blocks in either mode. A stream
also checks the latency and throughput bounds of an optional
:class:`WatchdogConfig` itself. Violations are recorded, never enforced by
altering the flow. Every record is kept as the dict its report entry holds.
"""

from __future__ import annotations

import math
from collections import deque
from enum import Enum
from typing import Optional, Union

from .packet import Packet
from .record import FrozenRecord
from .schema import get_value


class StreamConfigError(ValueError):
    """Raised for an invalid stream policy or watchdog config."""


class ViolationKind(str, Enum):
    DEADLINE_EXCEEDED = "DeadlineExceeded"
    LATENCY_EXCEEDED = "LatencyExceeded"
    THROUGHPUT_BELOW = "ThroughputBelow"
    BACKPRESSURE_MISS_LIMIT = "BackpressureMissLimit"


class LossyPolicy(FrozenRecord):
    """Bounded delivery: overflow drops the oldest packet instead of blocking.

    ``max_successive_misses`` is the permitted run of consecutive evictions;
    exceeding it records a BackpressureMissLimit violation. ``None`` disables
    the bound.
    """

    __slots__ = _fields = ("capacity", "max_successive_misses")
    kind = "lossy"

    def __init__(self, capacity: int, max_successive_misses: Optional[int] = None):
        if capacity < 1:
            raise StreamConfigError(f"lossy capacity must be >= 1, got {capacity}")
        if max_successive_misses is not None and max_successive_misses < 0:
            raise StreamConfigError("max_successive_misses must be >= 0")
        self._init(capacity, max_successive_misses)


class LosslessPolicy(FrozenRecord):
    """Unbounded delivery: never drops, but each packet should be consumed
    within ``deadline_us`` of its timestamp. Late packets are still delivered
    and the lateness is recorded as a DeadlineExceeded violation."""

    __slots__ = _fields = ("deadline_us",)
    kind = "lossless"

    def __init__(self, deadline_us: int):
        if deadline_us <= 0:
            raise StreamConfigError(f"deadline_us must be > 0, got {deadline_us}")
        self._init(deadline_us)


StreamPolicy = Union[LossyPolicy, LosslessPolicy]


class WatchdogConfig(FrozenRecord):
    """A stream's latency and throughput bounds; any of them may be disabled with None."""

    __slots__ = _fields = ("max_latency_us", "min_throughput_hz", "window_us")

    def __init__(
        self,
        max_latency_us: Optional[int] = None,
        min_throughput_hz: Optional[float] = None,
        window_us: Optional[int] = None,
    ):
        self._init(max_latency_us, min_throughput_hz, window_us)
        for key in self._fields:
            value = getattr(self, key)
            # false for NaN too, which would otherwise switch the bound off
            if value is not None and not 0 < value < math.inf:
                raise StreamConfigError(f"{key} must be finite and > 0 when enabled, got {value!r:.40}")
        if min_throughput_hz is not None and window_us is None:
            raise StreamConfigError("min_throughput_hz requires window_us")

    @staticmethod
    def from_json(doc: dict, path: str = "") -> "WatchdogConfig":
        """A config from ``doc``; a bad value raises :class:`SchemaError` naming ``path.<key>``."""
        return WatchdogConfig(
            max_latency_us=get_value(doc, "max_latency_us", path, int, None),
            min_throughput_hz=get_value(doc, "min_throughput_hz", path, float, None),
            window_us=get_value(doc, "window_us", path, int, None),
        )


def policy_from_json(doc: dict) -> StreamPolicy:
    """A policy object; a bad value raises :class:`SchemaError` naming its key."""
    kind = doc.get("kind")
    if kind == "lossy":
        return LossyPolicy(
            capacity=get_value(doc, "capacity", "", int),
            max_successive_misses=get_value(doc, "max_successive_misses", "", int, None),
        )
    if kind == "lossless":
        return LosslessPolicy(deadline_us=get_value(doc, "deadline_us", "", int))
    raise StreamConfigError(f"unknown stream policy kind: {kind!r}")


class Stream:
    """FIFO between one producer and one consumer, used from a single thread.

    Counters satisfy ``pushed == delivered + dropped + queued`` at all times.
    ``max_queued`` is the queue's high-water mark. Evictions are kept in
    ``drop_runs``, one dict ``{first_seq, last_seq, first_t_us, last_t_us,
    count}`` per run of consecutive evictions: a run opens when
    ``successive_misses`` becomes 1, each further eviction extends it in
    place, and the next accepted push ends it. ``count`` is the run's last
    ``successive_misses``.

    The stream checks every bound on itself and records each breach in
    ``violations``, one dict ``{kind, at_us, observed, bound}`` per breach;
    checking never blocks either side. The policy gives a
    miss limit (lossy) or a deadline on the packet's age (lossless). An
    optional :class:`WatchdogConfig` adds a latency bound, from the push
    that queued a packet to its pop, and a throughput bound on pops per
    tumbling window, aligned to the first event. ``queue`` holds ``(push_us,
    packet)`` entries, oldest first; only ``push`` and ``pop`` change it. A
    push or pop checks inline whether it ends the current window, and calls
    out only when one closes.
    ``finalize`` closes the windows that end by the end of the run.

    ``push`` and ``pop`` take the runner's ``now_us``, the due time of the
    event being dispatched, which never decreases within a run. ``push``
    returns nothing.

    Policy and watchdog are resolved once, at construction, into plain
    bounds; the unused ones are None.
    """

    def __init__(self, stream_id: str, policy: StreamPolicy, watchdog: Optional[WatchdogConfig] = None):
        self.stream_id = stream_id
        self.violations: list[dict] = []
        self.pushed = 0
        self.delivered = 0
        self.dropped = 0
        self.successive_misses = 0
        self.max_queued = 0
        self.drop_runs: list[dict] = []
        self.queue: deque[tuple[int, Packet]] = deque()
        lossy = isinstance(policy, LossyPolicy)
        self._capacity: Optional[int] = policy.capacity if lossy else None
        self._miss_limit: Optional[int] = policy.max_successive_misses if lossy else None
        self._deadline_us: Optional[int] = None if lossy else policy.deadline_us
        self._monitored = watchdog is not None
        self._max_latency_us = watchdog.max_latency_us if watchdog else None
        self._min_hz = watchdog.min_throughput_hz if watchdog else None
        self._window_us = watchdog.window_us if self._min_hz is not None else None
        # the current throughput window's end: -inf until one opens, inf if unbounded
        self._window_end = math.inf if self._window_us is None else -math.inf
        self._window_out = 0

    def push(self, packet: Packet, now_us: int) -> None:
        q = self.queue
        self.pushed += 1
        if self._monitored and now_us >= self._window_end:
            self._close_windows(now_us)
        capacity = self._capacity
        depth = len(q)
        if capacity is None or depth < capacity:
            q.append((now_us, packet))
            self.successive_misses = 0
            if depth >= self.max_queued:
                self.max_queued = depth + 1
            return
        evicted = q.popleft()[1]
        q.append((now_us, packet))
        self.dropped += 1
        self.successive_misses = misses = self.successive_misses + 1
        seq = evicted.seq
        if misses == 1:
            self.drop_runs.append(
                {"first_seq": seq, "last_seq": seq, "first_t_us": now_us, "last_t_us": now_us, "count": 1}
            )
        else:
            run = self.drop_runs[-1]
            run["last_seq"], run["last_t_us"], run["count"] = seq, now_us, misses
        if self._miss_limit is not None and misses > self._miss_limit:
            self._violate(ViolationKind.BACKPRESSURE_MISS_LIMIT, now_us, misses, self._miss_limit)

    def pop(self, now_us: int) -> Optional[Packet]:
        """Dequeue the oldest packet, or None when empty (a poll outcome)."""
        if not self.queue:
            return None
        pushed_us, packet = self.queue.popleft()
        self.delivered += 1
        deadline = self._deadline_us
        if deadline is not None:
            age = now_us - packet.timestamp_us
            if age > deadline:
                self._violate(ViolationKind.DEADLINE_EXCEEDED, now_us, age, deadline)
        if self._monitored:
            if now_us >= self._window_end:
                self._close_windows(now_us)
            self._window_out += 1
            bound = self._max_latency_us
            if bound is not None and now_us - pushed_us > bound:
                self._violate(ViolationKind.LATENCY_EXCEEDED, now_us, now_us - pushed_us, bound)
        return packet

    def _violate(self, kind: ViolationKind, at_us: int, observed: float, bound: float) -> None:
        self.violations.append(
            {"kind": kind.value, "at_us": at_us, "observed": float(observed), "bound": float(bound)}
        )

    def _close_windows(self, now: int) -> None:
        """Open the first throughput window, or check each one that ends by ``now``."""
        window = self._window_us
        end = self._window_end
        if end == -math.inf:
            self._window_end = now + window
            return
        while now >= end:
            rate_hz = self._window_out * 1e6 / window
            if rate_hz < self._min_hz:
                self._violate(ViolationKind.THROUGHPUT_BELOW, end, rate_hz, self._min_hz)
            self._window_out = 0
            end += window
        self._window_end = end

    def __len__(self) -> int:
        return len(self.queue)

    def finalize(self, end_us: int) -> None:
        """Close the throughput windows that end by ``end_us``, the end of the run."""
        if end_us >= self._window_end:  # a window not yet open opens empty
            self._close_windows(end_us)

    def to_json(self) -> dict:
        """The stream's report entry: a snapshot of its counters, drop runs
        and violations, which later pushes and pops leave as it is."""
        return {
            "pushed": self.pushed,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "queued": len(self.queue),
            "max_queued": self.max_queued,
            "drop_runs": [dict(run) for run in self.drop_runs],
            "violations": list(self.violations),
        }
