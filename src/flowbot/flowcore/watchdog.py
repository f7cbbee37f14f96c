"""Watchdog bounds on a stream's latency and throughput, and the violation records.

A :class:`~flowbot.flowcore.stream.Stream` built with a :class:`WatchdogConfig`
checks these bounds itself at push and pop time; monitoring never blocks or
alters packet flow. Throughput is measured over tumbling windows aligned to
the first observed event.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

from .record import FrozenRecord
from .schema import get_value


class ViolationKind(str, Enum):
    DEADLINE_EXCEEDED = "DeadlineExceeded"
    LATENCY_EXCEEDED = "LatencyExceeded"
    THROUGHPUT_BELOW = "ThroughputBelow"
    BACKPRESSURE_MISS_LIMIT = "BackpressureMissLimit"


class Violation(NamedTuple):
    kind: ViolationKind
    at_us: int
    observed: float
    bound: float

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "at_us": self.at_us,
            "observed": self.observed,
            "bound": self.bound,
        }


class WatchdogConfigError(ValueError):
    pass


class WatchdogConfig(FrozenRecord):
    """Bounds to enforce; any bound may be individually disabled with None."""

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
                raise WatchdogConfigError(f"{key} must be finite and > 0 when enabled, got {value!r:.40}")
        if min_throughput_hz is not None and window_us is None:
            raise WatchdogConfigError("min_throughput_hz requires window_us")

    @staticmethod
    def from_json(doc: dict, path: str = "") -> "WatchdogConfig":
        """A config from ``doc``; a bad value raises :class:`SchemaError` naming ``path.<key>``."""
        return WatchdogConfig(
            max_latency_us=get_value(doc, "max_latency_us", path, int, None),
            min_throughput_hz=get_value(doc, "min_throughput_hz", path, float, None),
            window_us=get_value(doc, "window_us", path, int, None),
        )
