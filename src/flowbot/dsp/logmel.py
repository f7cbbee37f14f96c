"""Log-mel filterbank front-end for 16 kHz speech.

Per frame: periodic Hann window, power spectrum, triangular filters on the
HTK mel scale (mel = 2595 * log10(1 + f/700)), then log with a floor. The
default configuration (25 ms frame, 10 ms hop, 512-point FFT, 40 bands,
20 Hz - 7600 Hz) maps one 16000-sample window to a 98 x 40 matrix.

All frames of a buffer are computed at once: one strided frame matrix, one
batched FFT and one product with the filterbank. The window and the
filterbank are built once per :class:`LogMelConfig` and shared read-only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def logmel(samples, config: LogMelConfig = LogMelConfig()) -> LogMelFeature:
    """Extract log-mel energies; frame count is floor((N - frame)/hop) + 1.

    Accepts a bare sample array or an :class:`AudioBuffer`, whose rate must
    match the configured one.
    """
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
    if len(x) < config.frame_len_samples:
        raise LogMelError(
            f"buffer of {len(x)} samples shorter than one frame ({config.frame_len_samples})"
        )
    window, fbank_t = _tables(config)
    frames = sliding_window_view(x, config.frame_len_samples)[:: config.hop_samples] * window
    spectrum = np.fft.rfft(frames, n=config.fft_size, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    matrix = np.log(np.maximum(power @ fbank_t, config.log_floor))
    frame_times = np.arange(len(frames)) * config.hop_samples / config.sample_rate_hz
    return LogMelFeature(matrix=matrix, frame_times=frame_times)
