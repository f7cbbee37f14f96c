"""48 kHz -> 16 kHz conversion: anti-alias low-pass, then decimate by 3.

The filter is a 159-tap Hamming-windowed sinc with 7.5 kHz cutoff: flat to
within 0.03 dB below 7 kHz, -51 dB by 8 kHz, -81 dB at 23 kHz.
:class:`Decimator3to1` applies it causally to a stream, in any chunking, with
158 samples of history. It computes only the outputs it keeps: the reversed
kernel is split into three 53-tap branches, each correlated with every third
input sample (a polyphase decimator; Crochiere & Rabiner, *Multirate Digital
Signal Processing*, 1983). :func:`resample_3to1` runs it over a whole buffer and
trims the filter's 79-sample group delay, so the batch form is zero-phase.
"""

from __future__ import annotations

import numpy as np

from .audio import AudioBuffer

FILTER_TAPS = 159
CUTOFF_HZ = 7500.0


class ResampleError(ValueError):
    pass


def lowpass_kernel(numtaps: int, cutoff_hz: float, fs_hz: float) -> np.ndarray:
    n = np.arange(numtaps)
    m = (numtaps - 1) / 2
    fc = cutoff_hz / fs_hz
    h = 2 * fc * np.sinc(2 * fc * (n - m))
    h *= np.hamming(numtaps)
    return h / h.sum()


_KERNEL_48K = lowpass_kernel(FILTER_TAPS, CUTOFF_HZ, 48000.0)
# branch r holds reversed taps r, r+3, ...; it weighs inputs r, r+3, ... of a span
_BRANCHES = tuple(_KERNEL_48K[::-1][r::3] for r in range(3))


class Decimator3to1:
    """Output ``m`` is the causal filter output at input index ``3*m``."""

    def __init__(self):
        self._hist = np.zeros(FILTER_TAPS - 1)
        self._consumed = 0

    def process(self, samples) -> np.ndarray:
        x = np.asarray(samples, dtype=np.float64)
        buf = np.concatenate([self._hist, x])
        # span j of buf (159 samples from j) gives the filter output at input
        # index consumed + j; keep the spans j0, j0 + 3, ...
        j0 = (-self._consumed) % 3
        n_out = -(-(len(buf) - FILTER_TAPS + 1 - j0) // 3)
        out = np.zeros(n_out)
        if n_out:  # else a branch may be shorter than its taps, and np.correlate swaps them
            for r, branch in enumerate(_BRANCHES):
                out += np.correlate(buf[j0 + r :: 3], branch, mode="valid")[:n_out]
        self._consumed += len(x)
        self._hist = buf[1 - FILTER_TAPS :]
        return out


def resample_3to1(buffer: AudioBuffer) -> AudioBuffer:
    """Convert a 48 kHz buffer to 16 kHz; output length is floor(N/3)."""
    if buffer.sample_rate_hz != 48000:
        raise ResampleError(f"expected 48000 Hz input, got {buffer.sample_rate_hz}")
    # two leading zeros put input index 3*m, delayed 79 by the filter, at output m + 27
    padded = np.concatenate([np.zeros(2), buffer.samples, np.zeros(79)])
    decimated = Decimator3to1().process(padded)[27 : 27 + len(buffer.samples) // 3]
    return AudioBuffer(samples=decimated, sample_rate_hz=16000)
