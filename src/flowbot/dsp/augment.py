"""Waveform augmentations: SNR-controlled noise mixing and circular shift."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .audio import AudioBuffer


class AugmentError(ValueError):
    pass


class MixResult(NamedTuple):
    buffer: AudioBuffer
    gain: float
    snr_db: float
    clipped: int


def mix_noise_at_snr(signal: AudioBuffer, noise: AudioBuffer, snr_db, rng=None) -> MixResult:
    """Mix noise into signal at a target SNR.

    The noise gain g solves 10*log10(P_signal / P_{g*noise}) = snr_db with P
    the mean square, so the pre-clipping SNR matches the target exactly.
    ``snr_db`` may be a (low, high) range, sampled uniformly with ``rng``.
    The sum is clamped to [-1, 1]; the clip count is reported rather than
    renormalizing, keeping signal level semantics.
    """
    if len(signal) != len(noise):
        raise AugmentError(f"length mismatch: signal {len(signal)} vs noise {len(noise)}")
    if signal.sample_rate_hz != noise.sample_rate_hz:
        raise AugmentError("sample rate mismatch between signal and noise")
    if isinstance(snr_db, (tuple, list)):
        if rng is None:
            raise AugmentError("sampling an SNR range requires an rng")
        low, high = float(snr_db[0]), float(snr_db[1])
        snr = float(rng.uniform(low, high))
    else:
        snr = float(snr_db)
    p_signal = float(np.mean(signal.samples**2))
    p_noise = float(np.mean(noise.samples**2))
    if p_signal == 0.0:
        raise AugmentError("signal has zero power")
    if p_noise == 0.0:
        raise AugmentError("noise has zero power")
    gain = float(np.sqrt(p_signal / (p_noise * 10.0 ** (snr / 10.0))))
    mixed = signal.samples + gain * noise.samples
    clipped = int(np.count_nonzero((mixed < -1.0) | (mixed > 1.0)))
    out = AudioBuffer(samples=np.clip(mixed, -1.0, 1.0), sample_rate_hz=signal.sample_rate_hz)
    return MixResult(buffer=out, gain=gain, snr_db=snr, clipped=clipped)


def random_shift(buffer: AudioBuffer, max_shift_samples: int, rng) -> AudioBuffer:
    """Circularly shift by s ~ uniform{-max_shift .. +max_shift}.

    Length and the multiset of sample values are preserved.
    """
    if max_shift_samples < 0:
        raise AugmentError("max_shift_samples must be >= 0")
    if max_shift_samples >= len(buffer):
        raise AugmentError("max_shift_samples must be smaller than the buffer")
    shift = int(rng.integers(-max_shift_samples, max_shift_samples + 1))
    return AudioBuffer(
        samples=np.roll(buffer.samples, shift), sample_rate_hz=buffer.sample_rate_hz
    )
