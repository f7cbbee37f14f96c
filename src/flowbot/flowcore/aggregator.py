"""Sliding-window slicer turning a sample stream into fixed-length windows.

Windows of ``window_samples`` are emitted at every multiple of
``hop_samples``; feeding the same samples in any chunking yields the same
windows as one batch feed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AggregatorConfigError(ValueError):
    pass


@dataclass(frozen=True)
class AggregatorConfig:
    window_samples: int
    hop_samples: int
    sample_rate_hz: int

    def __post_init__(self):
        if not (0 < self.hop_samples <= self.window_samples):
            raise AggregatorConfigError(
                f"need 0 < hop_samples ({self.hop_samples}) <= window_samples ({self.window_samples})"
            )
        if self.sample_rate_hz <= 0:
            raise AggregatorConfigError("sample_rate_hz must be > 0")


@dataclass(frozen=True)
class SampleChunk:
    """A rated run of mono samples, as emitted by capture devices."""

    samples: np.ndarray
    sample_rate_hz: int


@dataclass(frozen=True)
class AggWindow:
    """One complete window: ``index``-th emission, starting at ``start_sample``."""

    index: int
    start_sample: int
    sample_rate_hz: int
    samples: np.ndarray

    @property
    def span_s(self) -> tuple[float, float]:
        """Half-open [start, end) span of the window in seconds of sample time."""
        start = self.start_sample / self.sample_rate_hz
        return (start, start + len(self.samples) / self.sample_rate_hz)


class Aggregator:
    def __init__(self, config: AggregatorConfig):
        self.config = config
        self.emitted = 0
        self._buf = np.zeros(0, dtype=np.float64)
        self._next_start = 0

    def feed(self, samples, sample_rate_hz: int | None = None) -> list[AggWindow]:
        """Append samples and return every newly completed window."""
        if sample_rate_hz is not None and sample_rate_hz != self.config.sample_rate_hz:
            raise AggregatorConfigError(
                f"sample rate {sample_rate_hz} does not match "
                f"configured {self.config.sample_rate_hz}"
            )
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1:
            raise AggregatorConfigError("aggregator expects mono 1-D samples")
        self._buf = np.concatenate([self._buf, samples]) if len(self._buf) else samples.copy()
        window, hop = self.config.window_samples, self.config.hop_samples
        out: list[AggWindow] = []
        while len(self._buf) >= window:
            out.append(
                AggWindow(
                    index=self.emitted,
                    start_sample=self._next_start,
                    sample_rate_hz=self.config.sample_rate_hz,
                    samples=self._buf[:window].copy(),
                )
            )
            self.emitted += 1
            self._next_start += hop
            self._buf = self._buf[hop:]
        return out

    def pending(self) -> int:
        """Samples buffered but not yet part of a complete window."""
        return len(self._buf)
