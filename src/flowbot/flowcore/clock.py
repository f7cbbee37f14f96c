"""Injected time sources: virtual for deterministic runs, monotonic for live ones.

Every time-dependent component reads an injected clock instead of the wall
clock, so a whole graph run can be replayed tick for tick.
"""

from __future__ import annotations

import time


class VirtualClock:
    """Manually advanced clock counting microseconds from an arbitrary origin."""

    is_virtual = True

    def __init__(self, start_us: int = 0):
        self._now_us = int(start_us)

    def now_us(self) -> int:
        return self._now_us

    def advance_to(self, t_us: int) -> None:
        if t_us < self._now_us:
            raise ValueError(f"clock cannot move backwards: {t_us} < {self._now_us}")
        self._now_us = int(t_us)


class MonotonicClock:
    """Microsecond clock backed by ``time.monotonic_ns``, zeroed at creation."""

    is_virtual = False

    def __init__(self):
        self._origin_ns = time.monotonic_ns()

    def now_us(self) -> int:
        return (time.monotonic_ns() - self._origin_ns) // 1000
