"""Sliding-window slicer turning a sample stream into fixed-length windows.

Windows of ``window_samples`` are emitted at every multiple of
``hop_samples``; feeding the same samples in any chunking yields the same
windows as one batch feed.

Samples live in one float64 buffer between a start and an end index. A
chunk is copied in place at the end; a window is copied out of
``[start, start + window)`` exactly once, so every window owns its samples,
and emitting it advances start by a hop. Only when the next chunk would not
fit past the end are the pending samples (fewer than one window) moved: to
the front, or, when they and the chunk would fill more than half the
buffer, into a new buffer twice their size. Either way a move of P samples
leaves room for P more plus the chunk, so feeding costs at most one sample
moved per sample fed, instead of the whole buffer being re-joined for every
chunk, and the buffer is at most twice the largest pending samples plus
chunk that it has had to hold.

A chunk's float values are ``samples * scale``. The buffer holds the raw
samples, cast to float64 by the slice assignment that copies the chunk in,
and the scale is applied in the window copy-out. So a chunk of int16 PCM
codes with scale ``2**-15`` is never decoded as a whole: every int16 is
exact in float64 and ``2**-15`` is a power of two, so each window equals,
bit for bit, the same window cut from the decoded audio. An aggregator
holds the one scale of its first chunk; a chunk with another scale, like
one with another rate, raises :class:`AggregatorConfigError`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .record import FrozenRecord


class AggregatorConfigError(ValueError):
    pass


class AggregatorConfig(FrozenRecord):
    __slots__ = _fields = ("window_samples", "hop_samples", "sample_rate_hz")

    def __init__(self, window_samples: int, hop_samples: int, sample_rate_hz: int):
        if not (0 < hop_samples <= window_samples):
            raise AggregatorConfigError(
                f"hop_samples: must be > 0 and <= window_samples ({window_samples}), got {hop_samples}"
            )
        if sample_rate_hz <= 0:
            raise AggregatorConfigError("sample_rate_hz must be > 0")
        self._init(window_samples, hop_samples, sample_rate_hz)


class SampleChunk(NamedTuple):
    """A rated run of mono samples, as emitted by capture devices.

    The float value of sample ``i`` is ``samples[i] * scale``: a chunk of
    PCM16 codes carries scale ``2**-15``, one of floats scale 1.0.
    """

    samples: np.ndarray
    sample_rate_hz: int
    scale: float = 1.0


class AggWindow(NamedTuple):
    """One complete window: the ``index``-th emission, starting at sample
    ``start_sample``, which is ``index * hop_samples``."""

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
        self._start = 0
        self._end = 0
        self._scale = None

    def feed(self, samples, sample_rate_hz: int | None = None, scale: float = 1.0) -> list[AggWindow]:
        """Append samples, whose float values are ``samples * scale``, and
        return every newly completed window."""
        if sample_rate_hz is not None and sample_rate_hz != self.config.sample_rate_hz:
            raise AggregatorConfigError(
                f"sample rate {sample_rate_hz} does not match "
                f"configured {self.config.sample_rate_hz}"
            )
        if scale != self._scale:
            if self._scale is not None:
                raise AggregatorConfigError(
                    f"sample scale {scale!r} does not match earlier chunks' {self._scale!r}"
                )
            self._scale = scale
        samples = np.asarray(samples)
        if samples.ndim != 1:
            raise AggregatorConfigError("aggregator expects mono 1-D samples")
        n = len(samples)
        if self._end + n > len(self._buf):
            self._make_room(n)
        self._buf[self._end : self._end + n] = samples  # casts to float64 exactly
        self._end += n
        window, hop = self.config.window_samples, self.config.hop_samples
        out: list[AggWindow] = []
        while self._end - self._start >= window:
            # built by position: this runs once per window
            out.append(AggWindow(
                self.emitted, self.emitted * hop, self.config.sample_rate_hz,
                self._buf[self._start : self._start + window] * scale,
            ))
            self.emitted += 1
            self._start += hop
        return out

    def _make_room(self, n: int) -> None:
        """Move the pending samples to the front of a buffer with room for ``n`` more."""
        pending = self._end - self._start
        if 2 * (pending + n) > len(self._buf):
            buf = np.empty(2 * (pending + n), dtype=np.float64)
        else:
            buf = self._buf
        buf[:pending] = self._buf[self._start : self._end]
        self._buf, self._start, self._end = buf, 0, pending

    def pending(self) -> int:
        """Samples buffered but not yet part of a complete window."""
        return self._end - self._start
