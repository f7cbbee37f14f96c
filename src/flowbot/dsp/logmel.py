"""Log-mel filterbank front-end for 16 kHz speech.

Per frame: periodic Hann window, power spectrum, triangular filters on the
HTK mel scale (mel = 2595 * log10(1 + f/700)), then log with a floor. The
default configuration (25 ms frame, 10 ms hop, 512-point FFT, 40 bands,
20 Hz - 7600 Hz) maps one 16000-sample window to a 98 x 40 matrix.

Frames are batched: a strided view of the input holds every frame, and each
step is one call over a block of rows. A call allocates only its outputs, the
(frames, n_mels) matrix and the frame times, and the two copies it remembers
(see below). The windowed frames, their spectrum, their power and their
filterbank product go to a workspace that calls reuse: windowed frames are
written into a zero-padded (rows, fft_size) buffer, ``rfft`` writes into a
reused spectrum, and the power is ``re * re + im * im``: one in-place square
of the spectrum's float64 view, then one add of each (re, im) pair.
Workspaces sit on a module-level free list: a call pops one (or makes one)
and pushes it back when it returns, so a nested or concurrent call never
shares one. A workspace holds ``_BLOCK_FRAMES`` frames (about 1.3 MB at the
default configuration), and a longer input goes through it block by block,
so the memory held does not grow with the input.

Every filterbank product has ``_PRODUCT_ROWS`` rows: a block's power rows
go through it 32 at a time, and the last product is padded with zero rows.
BLAS picks its kernel by the matrix size, and kernels sum in different
orders: numpy sends a one-row product to gemv, and OpenBLAS 0.3.31 sends a
product of at most 10**6 multiplications to a small-matrix kernel, which
sums in another order than the large one at some sizes. With one row count
for every product, a row's output has the same bits whatever rows surround
it, at any offset in the product. So every input, of any length, is
computed bit for bit as by the formula ``log(max(P @ fbank.T, floor))``,
where ``P`` is ``|rfft(frame * window, fft_size)|^2`` cut into zero-padded
32-row products, and it stays within 1e-12 of a per-frame loop. Against an
unpadded product of all rows, the bits differ only where that product took
another kernel: at the default configuration, a one-frame input (gemv); at
a 1024-point FFT (513 bins), inputs of 82 frames or more (the large
kernel). A 32-row product also takes OpenBLAS's small-matrix path, which
allocates no buffer, so a warm call takes no page faults with one BLAS
thread too.

Frames are shared between calls. A keyword spotter slides a 1 s window by
250 ms, so 73 of a window's 98 frames were computed for the window before.
``logmel`` remembers its last call of one block or less: the config, a
private copy of the input and a private copy of its output rows (the
logged filterbank energies). When the next call has an equal config, it
looks for a shift ``k`` such that the new input's first ``m`` frames are,
bit for bit, frames ``k .. k+m-1`` of the remembered input. The candidates
are the remembered frame starts whose first sample is the new input's first
sample; each is confirmed by one comparison of the overlapping samples as
``uint64`` bit patterns, so ``-0.0`` and ``+0.0`` never pass for each
other. That comparison is made only when the overlap's last sample is equal
too: in digital silence every remembered frame start is a candidate,
and one scalar test drops each false one of a window leaving the silence,
while steady silence matches at ``k = 0`` and shares every row. A false
candidate still costs a full comparison when its overlap also ends in
silence. The ``m`` output rows are copied, and the window, ``rfft``, power,
product, floor and log run only over the remaining frames: a 250 ms slide
computes 25 rows, not 98. Since a row's bits depend on that row alone, the
result is the formula's whatever the calls before it. Any miss computes the
whole input, so the input never has to slide for the result to be right.

The memo is one tuple of arrays that are never written after it is
stored, and a call replaces it in one assignment. A nested or concurrent
call therefore sees either the old memo or the new one, never a half
written one. It holds at most one block of input and output rows; for a
1 s window at the default configuration, about 160 KB (128 KB of input and
31 KB of output rows).

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


def _count(name: str, value) -> int:
    """``value`` as an int >= 1; a bool, a float or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise LogMelError(f"{name} must be an integer, got {value!r:.40}")
    if value < 1:
        raise LogMelError(f"{name} must be >= 1")
    return int(value)


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
        n_mels = _count("n_mels", n_mels)
        frame_len_samples = _count("frame_len_samples", frame_len_samples)
        hop_samples = _count("hop_samples", hop_samples)
        fft_size = _count("fft_size", fft_size)
        if not (0 <= fmin_hz < fmax_hz <= sample_rate_hz / 2):
            raise LogMelError("need 0 <= fmin < fmax <= sample_rate/2")
        if fft_size < frame_len_samples:
            raise LogMelError("fft_size must be >= frame_len_samples")
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
# blocks of this many rows. A multiple of _PRODUCT_ROWS.
_BLOCK_FRAMES = 128

# Rows of every filterbank product: the last product of a call is padded with
# zero rows, so BLAS always picks the same kernel and a row's output bits
# depend on that row alone.
_PRODUCT_ROWS = 32

# Workspaces not in use, each ((frame_len, fft_size, n_mels), padded,
# spectrum, power, product).
_FREE_WORKSPACES: list = []

# The last call of one block or less, as (config, samples, matrix): private
# copies, never written once stored.
_MEMO = None


def _new_workspace(key: tuple[int, int, int]) -> tuple:
    _, fft_size, n_mels = key
    n_bins = fft_size // 2 + 1
    # columns past frame_len are never written, so they stay the zero padding
    padded = np.zeros((_BLOCK_FRAMES, fft_size))
    spectrum = np.empty((_BLOCK_FRAMES, n_bins), dtype=np.complex128)
    power = np.empty((_BLOCK_FRAMES, n_bins))
    product = np.empty((_BLOCK_FRAMES, n_mels))
    return key, padded, spectrum, power, product


def _shared_rows(memo, config: LogMelConfig, x: np.ndarray, n_frames: int) -> tuple[int, int]:
    """``(k, m)`` such that the first ``m`` frames of ``x`` are frames ``k ..
    k+m-1`` of the memo's input, bit for bit; ``m`` is 0 when no frame is
    shared."""
    if memo is None or memo[0] != config:
        return 0, 0
    _, memo_x, memo_matrix = memo
    memo_frames = len(memo_matrix)
    hop, frame_len = config.hop_samples, config.frame_len_samples
    bits, memo_bits = x.view(np.uint64), memo_x.view(np.uint64)
    starts = memo_bits[: (memo_frames - 1) * hop + 1 : hop]
    for k in np.flatnonzero(starts == bits[0]).tolist():
        shared = min(n_frames, memo_frames - k)
        overlap, offset = (shared - 1) * hop + frame_len, k * hop
        end = offset + overlap - 1
        if bits[overlap - 1] == memo_bits[end] and (bits[:overlap] == memo_bits[offset : end + 1]).all():
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
    if shared:  # then the input is one block
        matrix[:shared] = memo[2][k : k + shared]
    key = (frame_len, config.fft_size, config.n_mels)
    try:
        workspace = _FREE_WORKSPACES.pop()
    except IndexError:
        workspace = None
    if workspace is None or workspace[0] != key:
        workspace = _new_workspace(key)
    try:
        _, padded, spectrum, power, product = workspace
        # the frames not shared, block by block, each block's rows from row 0
        for start in range(shared, n_frames, _BLOCK_FRAMES):
            rows = min(_BLOCK_FRAMES, n_frames - start)
            out = matrix[start : start + rows]
            np.multiply(frames[start : start + rows], window, out=padded[:rows, :frame_len])
            block = np.fft.rfft(padded[:rows], axis=1, out=spectrum[:rows])
            parts = block.view(np.float64)  # re, im, re, im, ... along a row
            np.multiply(parts, parts, out=parts)
            np.add(parts[:, 0::2], parts[:, 1::2], out=power[:rows])
            padded_rows = -(-rows // _PRODUCT_ROWS) * _PRODUCT_ROWS
            # an earlier call's rows there may be inf, and a warning must come
            # from this call's input
            power[rows:padded_rows] = 0.0
            for row in range(0, padded_rows, _PRODUCT_ROWS):
                np.matmul(power[row : row + _PRODUCT_ROWS], fbank_t, out=product[row : row + _PRODUCT_ROWS])
            np.maximum(product[:rows], config.log_floor, out=out)
            np.log(out, out=out)
    finally:
        _FREE_WORKSPACES.append(workspace)
    if one_block:
        _MEMO = (config, x.copy(), matrix.copy())
    frame_times = np.arange(n_frames) * hop / config.sample_rate_hz
    return LogMelFeature(matrix=matrix, frame_times=frame_times)
