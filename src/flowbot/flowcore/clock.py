"""Injected time sources: virtual for deterministic runs, monotonic for live ones.

A run's time is its schedule: the runner reads a clock once, when it starts,
and then calls ``advance_to(t_us)`` whenever the next event is later than the
last. A virtual clock jumps to that time and a monotonic clock sleeps until
it, so a clock paces a run and never changes what the run reports.
"""

from __future__ import annotations

import time


class VirtualClock:
    """Manually advanced clock counting microseconds from 0."""

    def __init__(self):
        self._now_us = 0

    def now_us(self) -> int:
        return self._now_us

    def advance_to(self, t_us: int) -> None:
        if t_us < self._now_us:
            raise ValueError(f"clock cannot move backwards: {t_us} < {self._now_us}")
        self._now_us = int(t_us)


class MonotonicClock:
    """Microsecond clock backed by ``time.monotonic_ns``, zeroed at its first
    reading, so a fresh one starts a run at 0 as a fresh VirtualClock does."""

    def __init__(self):
        self._origin_ns: int | None = None

    def now_us(self) -> int:
        now_ns = time.monotonic_ns()  # one reading per call: the first is exactly 0
        if self._origin_ns is None:
            self._origin_ns = now_ns
        return (now_ns - self._origin_ns) // 1000

    def advance_to(self, t_us: int) -> None:
        """Sleep until ``t_us``; return at once when it is already past."""
        lag_us = t_us - self.now_us()
        if lag_us > 0:
            time.sleep(lag_us / 1e6)
