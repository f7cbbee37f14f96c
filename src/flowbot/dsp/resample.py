"""48 kHz -> 16 kHz conversion: anti-alias low-pass, then decimate by 3.

The filter is a 159-tap Hamming-windowed sinc with 7.5 kHz cutoff: flat to
within 0.03 dB below 7 kHz, -51 dB by 8 kHz, -81 dB at 23 kHz.
:class:`Decimator3to1` applies it causally to a stream, in any chunking, with
158 samples of history. Like a polyphase decimator (Crochiere & Rabiner,
*Multirate Digital Signal Processing*, 1983) it computes only the outputs it
keeps, as matrix products of one fixed shape rather than one short dot
product per output (Goto & van de Geijn, "Anatomy of High-Performance Matrix
Multiplication", ACM TOMS 2008):

- a constant Toeplitz matrix of 204 rows and 16 columns, built once, holds
  the reversed kernel in rows ``3i .. 3i+158`` of column ``i``, so one
  204-sample row of input gives 16 consecutive outputs;
- the input is cut into such rows, each starting 48 samples after the one
  before, and copied 40 rows at a time into a contiguous workspace, since
  overlapping rows cannot go to BLAS; the tail is padded with zeros and
  only the outputs the input reaches are kept. A 1600-sample chunk fills
  one product;
- the history, the chunk and that padding share one buffer, laid out once
  for each chunk length together with the 40-row views of its three phases
  (which of the chunk's samples the first kept output sits at), as a
  streaming plan is made once and run many times (Frigo & Johnson, "The
  Design and Implementation of FFTW3", Proc. IEEE 2005). A call
  scale-copies the chunk into its slot, copies its phase's rows into the
  workspace, runs the products into a fresh output and moves the last 158
  samples to the buffer's head. No call writes the padding, so it stays
  zero; a new chunk length lays out a new buffer and carries the history
  over from the old one's head.

Why no chunking changes an output's bits: every product has the same shape,
so BLAS picks one kernel for all of them. The samples of a row outside an
output's 159-sample span meet zeros of the Toeplitz matrix, and a finite
sample times zero adds a zero, which changes no sum. What is left is that
the kernel sums each entry over the row in one order wherever the entry
sits. That is a property of the BLAS build, not a promise of BLAS: a kernel
that split the row, or kept split sums, at places that depend on the
entry's row or column would break it. It was checked with numpy 2.4.6 and
its bundled OpenBLAS 0.3.31 (SkylakeX kernels) on a 2 vCPU Intel Xeon, with
BLAS threads unpinned. ``tests/test_resample.py`` pins it, and the chunking
itself, wherever the tests run, CI's numpy 2.0 floor among them.

That promise covers finite input only. A NaN or an infinity times zero is
NaN, so a non-finite sample reaches every output of each product row whose
204 samples hold it, not only the outputs whose 159-tap span holds it, and
which outputs those are depends on the chunking. Every output whose span
holds it is non-finite, and the outputs are finite again one row (16
outputs) past the last of them. An infinite sample also makes numpy warn of
an invalid value in ``matmul``, for the same 0 * inf.

The shape is sized for the 1600-sample (33 ms) chunks that the shipped
graphs feed it. A product costs the same however few of its 640 outputs a
chunk needs, so short chunks pay for all of them. Per call on the host
above (int16 codes at scale 2**-15, median of 30 interleaved passes), with
one dot product per output in parentheses: 1600 samples 10.6 us (18.1),
4800 samples 26.2 us (47.2), but 480 samples 9.9 us (7.7), 160 samples 9.4
us (4.7) and 48 samples 8.9 us (3.5). The two break even near 700 samples.

:func:`resample_3to1` runs it over a whole buffer and trims the filter's
79-sample group delay, so the batch form is zero-phase.
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


# Every product is (_PRODUCT_ROWS, _ROW_SPAN) @ (_ROW_SPAN, _ROW_OUTPUTS): a row
# of input times the Toeplitz matrix gives _ROW_OUTPUTS consecutive outputs.
# Both counts are multiples of 8, and one 1600-sample chunk fills one product.
_ROW_OUTPUTS = 16
_PRODUCT_ROWS = 40
_PRODUCT_OUTPUTS = _PRODUCT_ROWS * _ROW_OUTPUTS
_ROW_SPAN = 3 * (_ROW_OUTPUTS - 1) + FILTER_TAPS  # 204 input samples per row
_ROW_STEP = 3 * _ROW_OUTPUTS  # input samples from one row's start to the next
_HIST = FILTER_TAPS - 1


def _toeplitz() -> np.ndarray:
    """Column ``i`` holds the reversed kernel in rows ``3i .. 3i+158``, so a
    row of input that starts at sample ``j`` gives, in column ``i``, the
    causal filter output at sample ``j + 3i + 158``."""
    kernel_rev = lowpass_kernel(FILTER_TAPS, CUTOFF_HZ, 48000.0)[::-1]
    t = np.zeros((_ROW_SPAN, _ROW_OUTPUTS))
    for i in range(_ROW_OUTPUTS):
        t[3 * i : 3 * i + FILTER_TAPS, i] = kernel_rev
    t.flags.writeable = False
    return t


_TOEPLITZ = _toeplitz()


class Decimator3to1:
    """Output ``m`` is the causal filter output at input index ``3*m``. For
    finite input no chunking changes it by a bit: it is one entry of a
    fixed-shape product, whose bits do not depend on where it sits there."""

    def __init__(self):
        self._consumed = 0
        self._rows = np.empty((_PRODUCT_ROWS, _ROW_SPAN))  # contiguous, as BLAS needs
        self._n = -1  # the chunk length the layout below is built for
        self._buf = np.zeros(_HIST)  # the history at its head

    def _build(self, n: int) -> None:
        """Lay out a buffer for ``n``-sample chunks: the history at its head,
        the chunk's slot after it, then zeros for the last product's padding,
        which no call writes. Span ``j`` of the buffer (159 samples from
        ``j``) gives the filter output at input index ``consumed + j``; the
        phase ``j0 = -consumed % 3`` keeps the spans ``j0, j0 + 3, ...``, cut
        into the products' 40-row blocks."""
        layout = []
        for j0 in range(3):
            n_out = -(-(n - j0) // 3)
            layout.append((j0, n_out, -(-n_out // _PRODUCT_OUTPUTS) * _PRODUCT_ROWS))
        size = max(_HIST + n, *(j0 + _ROW_STEP * (n_rows - 1) + _ROW_SPAN for j0, _, n_rows in layout))
        buf = np.zeros(size)
        buf[:_HIST] = self._buf[:_HIST]
        self._phases = []
        for j0, n_out, n_rows in layout:
            spans = np.ndarray((n_rows, _ROW_SPAN), np.float64, buf, j0 * 8, (_ROW_STEP * 8, 8))
            blocks = [spans[row : row + _PRODUCT_ROWS] for row in range(0, n_rows, _PRODUCT_ROWS)]
            self._phases.append((blocks, n_out))
        self._n, self._buf, self._slot = n, buf, buf[_HIST : _HIST + n]

    def process(self, samples, scale: float = 1.0) -> np.ndarray:
        """Filter the input values ``samples * scale``, with the scale
        applied as they are copied in after the history."""
        n = len(samples)
        if n != self._n:
            self._build(n)
        np.multiply(samples, scale, out=self._slot)
        blocks, n_out = self._phases[-self._consumed % 3]
        out = np.empty((len(blocks), _PRODUCT_ROWS, _ROW_OUTPUTS))
        rows = self._rows
        for block, product in zip(blocks, out):
            rows[:] = block
            np.matmul(rows, _TOEPLITZ, out=product)
        self._consumed += n
        buf = self._buf
        buf[:_HIST] = buf[n : n + _HIST]  # overlapping when n < 158, which numpy allows
        return out.reshape(-1)[:n_out]


def resample_3to1(buffer: AudioBuffer) -> AudioBuffer:
    """Convert a 48 kHz buffer to 16 kHz; output length is floor(N/3)."""
    if buffer.sample_rate_hz != 48000:
        raise ResampleError(f"expected 48000 Hz input, got {buffer.sample_rate_hz}")
    # two leading zeros put input index 3*m, delayed 79 by the filter, at output m + 27
    padded = np.concatenate([np.zeros(2), buffer.samples, np.zeros(79)])
    decimated = Decimator3to1().process(padded)[27 : 27 + len(buffer.samples) // 3]
    return AudioBuffer(samples=decimated, sample_rate_hz=16000)
