"""Passive per-stream monitor for latency, throughput and backpressure bounds.

The watchdog only observes timestamps recorded at push/pop time; it never
blocks or alters packet flow. Throughput is measured over tumbling windows
aligned to the first observed event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class ViolationKind(str, Enum):
    LATENCY_EXCEEDED = "LatencyExceeded"
    THROUGHPUT_BELOW = "ThroughputBelow"
    BACKPRESSURE_MISS_LIMIT = "BackpressureMissLimit"


@dataclass(frozen=True)
class Violation:
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


@dataclass(frozen=True)
class WatchdogConfig:
    """Bounds to enforce; any bound may be individually disabled with None."""

    max_latency_us: Optional[int] = None
    min_throughput_hz: Optional[float] = None
    window_us: Optional[int] = None

    def __post_init__(self):
        for key in ("max_latency_us", "min_throughput_hz", "window_us"):
            value = getattr(self, key)
            # false for NaN too, which would otherwise switch the bound off
            if value is not None and not 0 < value < math.inf:
                raise WatchdogConfigError(f"{key} must be finite and > 0 when enabled, got {value!r:.40}")
        if self.min_throughput_hz is not None and self.window_us is None:
            raise WatchdogConfigError("min_throughput_hz requires window_us")

    def to_json(self) -> dict:
        out = {}
        if self.max_latency_us is not None:
            out["max_latency_us"] = self.max_latency_us
        if self.min_throughput_hz is not None:
            out["min_throughput_hz"] = self.min_throughput_hz
        if self.window_us is not None:
            out["window_us"] = self.window_us
        return out

    @staticmethod
    def from_json(doc: dict) -> "WatchdogConfig":
        return WatchdogConfig(
            max_latency_us=doc.get("max_latency_us"),
            min_throughput_hz=doc.get("min_throughput_hz"),
            window_us=doc.get("window_us"),
        )


class Watchdog:
    """Stateful observer fed with PacketIn/PacketOut timestamps.

    Each ``packet_*`` call returns the violations newly raised by that event.
    The watchdog keeps no state for each packet: ``packet_out`` is given the
    popped packet's push time by the stream, which stores it in the queue
    entry. Out-of-order timestamps are recorded as monitoring errors and
    ignored.
    """

    def __init__(self, config: WatchdogConfig):
        self.config = config
        self.errors: list[dict] = []
        self._last_ts: Optional[int] = None
        self._window_start: Optional[int] = None
        self._window_out = 0

    def packet_in(self, ts_us: int) -> list[Violation]:
        if self._reject_out_of_order(ts_us, "PacketIn"):
            return []
        return self._advance_windows(ts_us)

    def packet_out(self, ts_us: int, pushed_us: int) -> list[Violation]:
        """Observe a pop at ``ts_us`` of the packet pushed at ``pushed_us``."""
        if self._reject_out_of_order(ts_us, "PacketOut"):
            return []
        out = self._advance_windows(ts_us)
        self._window_out += 1
        latency = ts_us - pushed_us
        if self.config.max_latency_us is not None and latency > self.config.max_latency_us:
            out.append(
                Violation(
                    kind=ViolationKind.LATENCY_EXCEEDED,
                    at_us=ts_us,
                    observed=float(latency),
                    bound=float(self.config.max_latency_us),
                )
            )
        return out

    def flush(self, end_us: int) -> list[Violation]:
        """Close all throughput windows that completed by ``end_us``."""
        if end_us is None or (self._last_ts is not None and end_us < self._last_ts):
            return []
        return self._advance_windows(end_us, count_event=False)

    def _reject_out_of_order(self, ts_us: int, kind: str) -> bool:
        if self._last_ts is not None and ts_us < self._last_ts:
            self.errors.append({"kind": "OutOfOrderEvent", "event": kind, "at_us": ts_us})
            return True
        self._last_ts = ts_us
        return False

    def _advance_windows(self, ts_us: int, count_event: bool = True) -> list[Violation]:
        cfg = self.config
        if cfg.min_throughput_hz is None or cfg.window_us is None:
            return []
        if self._window_start is None:
            if count_event:
                self._window_start = ts_us
            return []
        violations: list[Violation] = []
        while ts_us >= self._window_start + cfg.window_us:
            window_end = self._window_start + cfg.window_us
            rate_hz = self._window_out * 1e6 / cfg.window_us
            if rate_hz < cfg.min_throughput_hz:
                violations.append(
                    Violation(
                        kind=ViolationKind.THROUGHPUT_BELOW,
                        at_us=window_end,
                        observed=rate_hz,
                        bound=float(cfg.min_throughput_hz),
                    )
                )
            self._window_start = window_end
            self._window_out = 0
        return violations
