"""Log-mel filterbank front-end for 16 kHz speech.

Per frame: periodic Hann window, power spectrum, triangular filters on the
HTK mel scale (mel = 2595 * log10(1 + f/700)), then log with a floor. The
default configuration (25 ms frame, 10 ms hop, 512-point FFT, 40 bands,
20 Hz - 7600 Hz) maps one 16000-sample window to a 98 x 40 matrix.

Frames are batched: a strided view of the input holds every frame, and each
step is one call over a block of rows. A call allocates only its outputs, the
(frames, n_mels) matrix and the frame times, and the two copies it remembers
(see below). The windowed frames, their spectrum and their power go to a
workspace that calls reuse: windowed frames are written into a zero-padded
(rows, fft_size) buffer, ``rfft`` writes into a reused spectrum, and the
power is ``re * re + im * im``: one in-place square of the spectrum's
float64 view, then one add of each (re, im) pair.
Workspaces sit on a module-level free list: a call pops one (or makes one)
and pushes it back when it returns, so a nested or concurrent call never
shares one. A workspace holds ``_BLOCK_FRAMES`` frames (about 1.3 MB at the
default configuration), and a longer input goes through it block by block,
so the memory held does not grow with the input.

An input of one block or less (a 1 s window is 98 frames) is computed bit
for bit as by the unbuffered formula ``log(max((|rfft(frame * window,
fft_size)|^2) @ fbank.T, floor))``: each step is the same elementwise
operation, FFT or matrix product, only written into a buffer that already
exists. A longer input runs the filterbank product once per block, which
stays within 1e-12 of the per-frame result.

Frames are shared between calls. A keyword spotter slides a 1 s window by
250 ms, so 73 of a window's 98 frames were transformed for the window
before. ``logmel`` remembers its last call of one block or less: the
config, a private copy of the input and a private copy of the power
spectra (the rows before the filterbank). When the next call has an equal
config, it looks for a shift ``k`` such that the new input's first ``m``
frames are, bit for bit, frames ``k .. k+m-1`` of the remembered input.
The candidates are the remembered frame starts whose first sample is the
new input's first sample; each is confirmed by comparing the overlapping
samples as ``uint64`` bit patterns, so ``-0.0`` and ``+0.0`` never pass for
each other. The ``m`` power rows are copied and only the remaining frames
are windowed and transformed. Any miss computes the whole input, so the
input never has to slide for the result to be right.

The shared rows stop before the filterbank because the window, ``rfft``
and the power give each row the same bits whatever rows surround it, and
the filterbank product does not: BLAS picks its kernel by the matrix
size, and kernels sum in different orders. numpy sends a one-row product
to gemv, and OpenBLAS 0.3.31 a product of at most 10**6 multiplications to
a small-matrix kernel, which sums in another order than the large one at
some sizes (the 513 bins of a 1024-point FFT, for one). So the product,
the floor and the log always run over all rows, as in the formula above,
and an input of one block or less stays bit for bit the formula's whatever
the calls before it.

The memo is one tuple of arrays that are never written after it is
stored, and a call replaces it in one assignment. A nested or concurrent
call therefore sees either the old memo or the new one, never a half
written one. It holds one block of input and power, about 430 KB at the
default configuration.

The window and the filterbank are built once per :class:`LogMelConfig` and
shared read-only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..flowcore.record import FrozenRecord
from .audio import AudioBuffer


class LogMelError(ValueError):
    pass


class LogMelConfig(FrozenRecord):
    """Front-end settings; hashable, since it keys the window and filterbank cache."""

    __slots__ = _fields = (
        "n_mels", "frame_len_samples", "hop_samples", "fft_size",
        "fmin_hz", "fmax_hz", "log_floor", "sample_rate_hz",
    )

    def __init__(
        self,
        n_mels: int = 40,
        frame_len_samples: int = 400,
        hop_samples: int = 160,
        fft_size: int = 512,
        fmin_hz: float = 20.0,
        fmax_hz: float = 7600.0,
        log_floor: float = 1e-10,
        sample_rate_hz: int = 16000,
    ):
        if not (0 <= fmin_hz < fmax_hz <= sample_rate_hz / 2):
            raise LogMelError("need 0 <= fmin < fmax <= sample_rate/2")
        if fft_size < frame_len_samples:
            raise LogMelError("fft_size must be >= frame_len_samples")
        if n_mels < 1:
            raise LogMelError("n_mels must be >= 1")
        if hop_samples < 1:
            raise LogMelError("hop_samples must be >= 1")
        if log_floor <= 0:
            raise LogMelError("log_floor must be > 0")
        self._init(
            n_mels, frame_len_samples, hop_samples, fft_size, fmin_hz, fmax_hz, log_floor, sample_rate_hz,
        )


class LogMelFeature(NamedTuple):
    """frames x n_mels matrix plus the start time of every frame (seconds)."""

    matrix: np.ndarray
    frame_times: np.ndarray


def hz_to_mel(f_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(f_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_band_centers_hz(config: LogMelConfig) -> np.ndarray:
    """Apex frequency of each triangular band."""
    mels = np.linspace(hz_to_mel(config.fmin_hz), hz_to_mel(config.fmax_hz), config.n_mels + 2)
    return mel_to_hz(mels)[1:-1]


def mel_filterbank(config: LogMelConfig) -> np.ndarray:
    """(n_mels, fft_size//2 + 1) triangular weights."""
    n_bins = config.fft_size // 2 + 1
    bin_hz = np.arange(n_bins) * config.sample_rate_hz / config.fft_size
    mels = np.linspace(hz_to_mel(config.fmin_hz), hz_to_mel(config.fmax_hz), config.n_mels + 2)
    edges_hz = mel_to_hz(mels)
    lo, mid, hi = edges_hz[:-2, None], edges_hz[1:-1, None], edges_hz[2:, None]
    rising = (bin_hz - lo) / (mid - lo)
    falling = (hi - bin_hz) / (hi - mid)
    return np.clip(np.minimum(rising, falling), 0.0, None)


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@lru_cache(maxsize=8)
def _tables(config: LogMelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The config's window and transposed filterbank, read-only since every
    call with an equal config shares them."""
    window = _hann_periodic(config.frame_len_samples)
    fbank_t = np.ascontiguousarray(mel_filterbank(config).T)
    window.flags.writeable = False
    fbank_t.flags.writeable = False
    return window, fbank_t


# Frames per workspace block: a longer input goes through the workspace in
# blocks of this many rows.
_BLOCK_FRAMES = 128

# Workspaces not in use, each (frame_len, fft_size, padded, spectrum, power).
_FREE_WORKSPACES: list = []

# The last call of one block or less, as (config, samples, power): private
# copies, never written once stored.
_MEMO = None


def _new_workspace(frame_len: int, fft_size: int) -> tuple:
    n_bins = fft_size // 2 + 1
    # columns past frame_len are never written, so they stay the zero padding
    padded = np.zeros((_BLOCK_FRAMES, fft_size))
    spectrum = np.empty((_BLOCK_FRAMES, n_bins), dtype=np.complex128)
    power = np.empty((_BLOCK_FRAMES, n_bins))
    return frame_len, fft_size, padded, spectrum, power


def _shared_rows(memo, config: LogMelConfig, x: np.ndarray, n_frames: int) -> tuple[int, int]:
    """``(k, m)`` such that the first ``m`` frames of ``x`` are frames ``k ..
    k+m-1`` of the memo's input, bit for bit; ``m`` is 0 when no frame is
    shared."""
    if memo is None or memo[0] != config:
        return 0, 0
    _, memo_x, memo_power = memo
    memo_frames = len(memo_power)
    hop, frame_len = config.hop_samples, config.frame_len_samples
    bits, memo_bits = x.view(np.uint64), memo_x.view(np.uint64)
    starts = memo_bits[: (memo_frames - 1) * hop + 1 : hop]
    for k in np.flatnonzero(starts == bits[0]).tolist():
        shared = min(n_frames, memo_frames - k)
        last, offset = (shared - 1) * hop, k * hop
        # the frame starts first: a cheap test that rejects most false candidates
        if np.array_equal(bits[: last + 1 : hop], memo_bits[offset : offset + last + 1 : hop]) and (
                np.array_equal(bits[: last + frame_len], memo_bits[offset : offset + last + frame_len])):
            return k, shared
    return 0, 0


def logmel(samples, config: LogMelConfig = LogMelConfig()) -> LogMelFeature:
    """Extract log-mel energies; frame count is floor((N - frame)/hop) + 1.

    Accepts a bare sample array or an :class:`AudioBuffer`, whose rate must
    match the configured one.
    """
    global _MEMO
    if isinstance(samples, AudioBuffer):
        if samples.sample_rate_hz != config.sample_rate_hz:
            raise LogMelError(
                f"buffer at {samples.sample_rate_hz} Hz does not match "
                f"configured {config.sample_rate_hz} Hz"
            )
        samples = samples.samples
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise LogMelError("expected mono 1-D samples")
    frame_len, hop = config.frame_len_samples, config.hop_samples
    if len(x) < frame_len:
        raise LogMelError(f"buffer of {len(x)} samples shorter than one frame ({frame_len})")
    if not x.flags.c_contiguous:
        x = np.ascontiguousarray(x)
    window, fbank_t = _tables(config)
    n_frames = (len(x) - frame_len) // hop + 1
    frames = np.ndarray((n_frames, frame_len), np.float64, x, strides=(hop * x.itemsize, x.itemsize))
    matrix = np.empty((n_frames, config.n_mels))
    one_block = n_frames <= _BLOCK_FRAMES
    memo = _MEMO
    k, shared = _shared_rows(memo, config, x, n_frames) if one_block else (0, 0)
    try:
        workspace = _FREE_WORKSPACES.pop()
    except IndexError:
        workspace = None
    if workspace is None or workspace[:2] != (frame_len, config.fft_size):
        workspace = _new_workspace(frame_len, config.fft_size)
    try:
        _, _, padded, spectrum, power = workspace
        if shared:  # then the input is one block
            power[:shared] = memo[2][k : k + shared]
        for start in range(0, n_frames, _BLOCK_FRAMES):
            stop = min(start + _BLOCK_FRAMES, n_frames)
            rows = stop - start
            np.multiply(frames[start + shared : stop], window, out=padded[shared:rows, :frame_len])
            block = np.fft.rfft(padded[shared:rows], axis=1, out=spectrum[shared:rows])
            parts = block.view(np.float64)  # re, im, re, im, ... along a row
            np.multiply(parts, parts, out=parts)
            np.add(parts[:, 0::2], parts[:, 1::2], out=power[shared:rows])
            np.matmul(power[:rows], fbank_t, out=matrix[start:stop])
        if one_block:
            _MEMO = (config, x.copy(), power[:n_frames].copy())
    finally:
        _FREE_WORKSPACES.append(workspace)
    np.maximum(matrix, config.log_floor, out=matrix)
    np.log(matrix, out=matrix)
    frame_times = np.arange(n_frames) * hop / config.sample_rate_hz
    return LogMelFeature(matrix=matrix, frame_times=frame_times)
