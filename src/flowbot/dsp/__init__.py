"""Deterministic audio processing: PCM, resampling, log-mel, augmentation.

A public name is imported from its submodule on first use, so the run path,
which needs ``audio`` and ``resample``, does not load ``augment``.
"""

from .._lazy import lazy_exports

# ``logmel`` names both a submodule and its function. Importing the function
# here keeps it the package attribute, which ``import flowbot.dsp.logmel``
# would otherwise replace with the submodule.
from .logmel import logmel

__all__, __getattr__ = lazy_exports(__name__, {
    "audio": (
        "AudioBuffer", "PCM16_SCALE", "PcmFormatError", "WavFormatError", "pcm16_decode",
        "pcm16_encode", "read_wav", "read_wav_pcm16", "round_half_away", "write_wav",
    ),
    "augment": ("AugmentError", "MixResult", "mix_noise_at_snr", "random_shift"),
    "logmel": (
        "LogMelConfig", "LogMelError", "LogMelFeature", "hz_to_mel", "logmel",
        "mel_band_centers_hz", "mel_filterbank", "mel_to_hz",
    ),
    "resample": ("Decimator3to1", "ResampleError", "resample_3to1"),
})
