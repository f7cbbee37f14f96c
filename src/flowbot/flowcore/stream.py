"""Streams: single-producer/single-consumer packet queues with delivery policies.

A stream is either lossy (bounded; overflow evicts the oldest packet and the
run of consecutive evictions is tracked) or lossless (unbounded; every packet
is delivered but its age at delivery is checked against a deadline). The
producer never blocks in either mode. Violations are recorded, never enforced
by altering the flow.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, NamedTuple, Optional, Union

from .packet import Packet
from .watchdog import Violation, ViolationKind, Watchdog


class StreamConfigError(ValueError):
    """Raised for an invalid stream policy or a policy/usage mismatch."""


@dataclass(frozen=True)
class LossyPolicy:
    """Bounded delivery: overflow drops the oldest packet instead of blocking.

    ``max_successive_misses`` is the permitted run of consecutive evictions;
    exceeding it records a BackpressureMissLimit violation. ``None`` disables
    the bound.
    """

    capacity: int
    max_successive_misses: Optional[int] = None

    kind: ClassVar[str] = "lossy"

    def __post_init__(self):
        if self.capacity < 1:
            raise StreamConfigError(f"lossy capacity must be >= 1, got {self.capacity}")
        if self.max_successive_misses is not None and self.max_successive_misses < 0:
            raise StreamConfigError("max_successive_misses must be >= 0")


@dataclass(frozen=True)
class LosslessPolicy:
    """Unbounded delivery: never drops, but each packet should be consumed
    within ``deadline_us`` of its timestamp. Late packets are still delivered
    and the lateness is recorded as a LatencyExceeded violation."""

    deadline_us: int

    kind: ClassVar[str] = "lossless"

    def __post_init__(self):
        if self.deadline_us <= 0:
            raise StreamConfigError(f"deadline_us must be > 0, got {self.deadline_us}")


StreamPolicy = Union[LossyPolicy, LosslessPolicy]


def policy_to_json(policy: StreamPolicy) -> dict:
    if isinstance(policy, LossyPolicy):
        out = {"kind": "lossy", "capacity": policy.capacity}
        if policy.max_successive_misses is not None:
            out["max_successive_misses"] = policy.max_successive_misses
        return out
    return {"kind": "lossless", "deadline_us": policy.deadline_us}


def policy_from_json(doc: dict) -> StreamPolicy:
    kind = doc.get("kind")
    if kind == "lossy":
        if "capacity" not in doc:
            raise StreamConfigError("lossy policy requires 'capacity'")
        return LossyPolicy(
            capacity=int(doc["capacity"]),
            max_successive_misses=(
                int(doc["max_successive_misses"])
                if doc.get("max_successive_misses") is not None
                else None
            ),
        )
    if kind == "lossless":
        if "deadline_us" not in doc:
            raise StreamConfigError("lossless policy requires 'deadline_us'")
        return LosslessPolicy(deadline_us=int(doc["deadline_us"]))
    raise StreamConfigError(f"unknown stream policy kind: {kind!r}")


class PushStatus(Enum):
    ACCEPTED = "accepted"
    DROPPED_OLDEST = "dropped_oldest"
    REJECTED = "rejected"


class PushOutcome(NamedTuple):
    """Result of one push: an immutable tuple ``(status, dropped, successive_misses)``."""

    status: PushStatus
    dropped: Optional[Packet] = None
    successive_misses: int = 0

    @property
    def accepted(self) -> bool:
        return self.status is not PushStatus.REJECTED


#: The outcome of every push that evicts nothing; shared, since outcomes are immutable.
ACCEPTED = PushOutcome(PushStatus.ACCEPTED)
REJECTED = PushOutcome(PushStatus.REJECTED)


class Stream:
    """Thread-safe FIFO between one producer and one consumer.

    Counters satisfy ``pushed == delivered + dropped + queued`` at all times.
    An optional :class:`Watchdog` observes pushes, pops and drops; policy
    violations (miss limit, lossless deadline) are recorded by the stream
    itself. Monitoring never blocks either side.

    The policy is resolved once, at construction, into a capacity and miss
    limit (lossy) or a deadline (lossless); the unused ones are None.
    """

    def __init__(
        self,
        stream_id: str,
        policy: StreamPolicy,
        clock=None,
        watchdog: Optional[Watchdog] = None,
    ):
        self.stream_id = stream_id
        self.policy = policy
        self.clock = clock
        self.watchdog = watchdog
        self.violations: list[Violation] = []
        self.pushed = 0
        self.delivered = 0
        self.dropped = 0
        self.successive_misses = 0
        self._q: deque[Packet] = deque()
        self._lock = threading.Lock()
        self._closed = False
        lossy = isinstance(policy, LossyPolicy)
        self._capacity: Optional[int] = policy.capacity if lossy else None
        self._miss_limit: Optional[int] = policy.max_successive_misses if lossy else None
        self._deadline_us: Optional[int] = None if lossy else policy.deadline_us

    def _now(self, fallback: int) -> int:
        return self.clock.now_us() if self.clock is not None else fallback

    def push(self, packet: Packet, now_us: Optional[int] = None) -> PushOutcome:
        now = self._now(packet.timestamp_us) if now_us is None else now_us
        with self._lock:
            if self._closed:
                return REJECTED
            q = self._q
            self.pushed += 1
            capacity = self._capacity
            if capacity is None or len(q) < capacity:
                q.append(packet)
                self.successive_misses = 0
                if self.watchdog is not None:
                    self.violations.extend(self.watchdog.packet_in(now))
                return ACCEPTED
            evicted = q.popleft()
            q.append(packet)
            self.dropped += 1
            self.successive_misses = misses = self.successive_misses + 1
            if self.watchdog is not None:
                self.violations.extend(self.watchdog.packet_in(now))
                self.violations.extend(self.watchdog.drop(now))
            if self._miss_limit is not None and misses > self._miss_limit:
                self.violations.append(
                    Violation(
                        kind=ViolationKind.BACKPRESSURE_MISS_LIMIT,
                        at_us=now,
                        observed=float(misses),
                        bound=float(self._miss_limit),
                    )
                )
        return tuple.__new__(PushOutcome, (PushStatus.DROPPED_OLDEST, evicted, misses))

    def pop(self, now_us: Optional[int] = None) -> Optional[Packet]:
        """Dequeue the oldest packet, or None when empty (a poll outcome)."""
        with self._lock:
            if not self._q:
                return None
            packet = self._q.popleft()
            self.delivered += 1
            now = self._now(packet.timestamp_us) if now_us is None else now_us
            deadline = self._deadline_us
            if deadline is not None:
                age = now - packet.timestamp_us
                if age > deadline:
                    self.violations.append(
                        Violation(
                            kind=ViolationKind.LATENCY_EXCEEDED,
                            at_us=now,
                            observed=float(age),
                            bound=float(deadline),
                        )
                    )
            if self.watchdog is not None:
                self.violations.extend(self.watchdog.packet_out(now))
            return packet

    def peek_timestamp(self) -> Optional[int]:
        with self._lock:
            return self._q[0].timestamp_us if self._q else None

    def close(self) -> None:
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def queued(self) -> int:
        with self._lock:
            return len(self._q)

    def __len__(self) -> int:
        return self.queued()

    def finalize(self, end_us: int) -> None:
        """Close out watchdog observation windows at the end of a run."""
        if self.watchdog is not None:
            self.violations.extend(self.watchdog.flush(end_us))

    def counters(self) -> dict:
        with self._lock:
            return {
                "pushed": self.pushed,
                "delivered": self.delivered,
                "dropped": self.dropped,
                "queued": len(self._q),
            }
