"""Sliding-window slicer turning a sample stream into fixed-length windows.

Windows of ``window_samples`` are emitted at every multiple of
``hop_samples``; feeding the same samples in any chunking yields the same
windows as one batch feed.

Samples live in one buffer between a start and an end index, as the raw
samples of the chunks: the buffer has the dtype of the first chunk (int16
codes for a WAV file, float64 for synthetic or resampled audio), and a chunk
of another dtype raises :class:`AggregatorConfigError`. A chunk is copied in
at the end; a window is a read-only view of ``[start, start + window)``, not
a copy, and emitting it advances start by a hop.

Buffers are written once. A chunk is only ever copied past the end, beyond
every window emitted so far, and when the next chunk would not fit, the
pending samples (fewer than one window) are moved into a new buffer of
``max(2 * (pending + chunk), len(old))`` samples, never to the front of the
old one. So no sample a window can see is written again, and every window
emitted stays as it was. A move of P samples leaves room for P more plus the
chunk, so feeding costs at most one sample moved per sample fed, and a
buffer is at most twice the largest pending samples plus chunk that it has
had to hold.

A chunk's float values are ``samples * scale``. A window keeps its raw view
and the scale, and :attr:`AggWindow.samples` multiplies them in float64 each
time it is read; a window whose samples nobody reads costs one view. So a
chunk of int16 PCM codes with scale ``2**-15`` is never decoded as a whole:
every int16 is exact in float64 and ``2**-15`` is a power of two, so each
window's samples equal, bit for bit, the same window cut from the decoded
audio. An aggregator holds the one scale and dtype of its first accepted
chunk; a chunk with another scale or dtype, like one with another rate,
raises :class:`AggregatorConfigError`, and a rejected chunk changes nothing.
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
    ``start_sample``, which is ``index * hop_samples``. ``raw`` holds the
    window's samples as fed, read-only, and their float values are
    ``raw * scale``."""

    index: int
    start_sample: int
    sample_rate_hz: int
    raw: np.ndarray
    scale: float = 1.0

    @property
    def samples(self) -> np.ndarray:
        """The window's float values, ``raw * scale`` in float64: a new array on every read."""
        return np.multiply(self.raw, self.scale, dtype=np.float64)

    @property
    def span_s(self) -> tuple[float, float]:
        """Half-open [start, end) span of the window in seconds of sample time."""
        start = self.start_sample / self.sample_rate_hz
        return (start, start + len(self.raw) / self.sample_rate_hz)


class Aggregator:
    def __init__(self, config: AggregatorConfig):
        self.config = config
        self.emitted = 0
        self._buf = self._view = np.empty(0)
        self._start = 0
        self._end = 0
        self._scale = None
        self._dtype = None  # both fixed by the first accepted chunk

    def feed(self, samples, sample_rate_hz: int | None = None, scale: float = 1.0) -> list[AggWindow]:
        """Append samples, whose float values are ``samples * scale``, and
        return every newly completed window."""
        if sample_rate_hz is not None and sample_rate_hz != self.config.sample_rate_hz:
            raise AggregatorConfigError(
                f"sample rate {sample_rate_hz} does not match "
                f"configured {self.config.sample_rate_hz}"
            )
        samples = np.asarray(samples)
        if samples.ndim != 1:
            raise AggregatorConfigError("aggregator expects mono 1-D samples")
        if self._dtype is None:
            if samples.dtype.kind not in "iuf":
                raise AggregatorConfigError(
                    f"aggregator expects integer or floating samples, got {samples.dtype}"
                )
            self._scale, self._dtype = scale, samples.dtype
        elif scale != self._scale:
            raise AggregatorConfigError(
                f"sample scale {scale!r} does not match earlier chunks' {self._scale!r}"
            )
        elif samples.dtype is not self._dtype and samples.dtype != self._dtype:
            raise AggregatorConfigError(
                f"sample dtype {samples.dtype} does not match earlier chunks' {self._dtype}"
            )
        n = len(samples)
        if self._end + n > len(self._buf):
            self._make_room(n)
        self._buf[self._end : self._end + n] = samples
        self._end += n
        config = self.config
        window = config.window_samples
        if self._end - self._start < window:  # most chunks complete no window
            return []
        hop, rate = config.hop_samples, config.sample_rate_hz
        out: list[AggWindow] = []
        while self._end - self._start >= window:
            # built by position, with no constructor call: this runs once per window
            out.append(tuple.__new__(AggWindow, (
                self.emitted, self.emitted * hop, rate,
                self._view[self._start : self._start + window], scale,
            )))
            self.emitted += 1
            self._start += hop
        return out

    def _make_room(self, n: int) -> None:
        """Move the pending samples into a new buffer with room for ``n`` more;
        the old buffer, which windows may still view, is not written again."""
        pending = self._end - self._start
        buf = np.empty(max(2 * (pending + n), len(self._buf)), dtype=self._dtype)
        buf[:pending] = self._buf[self._start : self._end]
        self._view = buf.view()
        self._view.flags.writeable = False
        self._buf, self._start, self._end = buf, 0, pending

    def pending(self) -> int:
        """Samples buffered but not yet part of a complete window."""
        return self._end - self._start
