"""Deterministic audio processing: PCM, resampling, log-mel, augmentation."""

from .audio import (
    AudioBuffer,
    PcmFormatError,
    WavFormatError,
    pcm16_decode,
    pcm16_encode,
    read_wav,
    round_half_away,
    write_wav,
    write_wav_bytes,
)
from .augment import AugmentError, MixResult, mix_noise_at_snr, random_shift
from .detect import rms_detect
from .logmel import (
    LogMelConfig,
    LogMelError,
    LogMelFeature,
    hz_to_mel,
    logmel,
    mel_band_centers_hz,
    mel_filterbank,
    mel_to_hz,
)
from .resample import Decimator3to1, ResampleError, resample_3to1

__all__ = [
    "AudioBuffer",
    "AugmentError",
    "Decimator3to1",
    "LogMelConfig",
    "LogMelError",
    "LogMelFeature",
    "MixResult",
    "PcmFormatError",
    "ResampleError",
    "WavFormatError",
    "hz_to_mel",
    "logmel",
    "mel_band_centers_hz",
    "mel_filterbank",
    "mel_to_hz",
    "mix_noise_at_snr",
    "pcm16_decode",
    "pcm16_encode",
    "random_shift",
    "read_wav",
    "resample_3to1",
    "rms_detect",
    "round_half_away",
    "write_wav",
    "write_wav_bytes",
]
