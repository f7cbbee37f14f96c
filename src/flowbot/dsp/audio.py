"""Audio buffers, signed 16-bit PCM codec and RIFF/WAV file I/O.

PCM mapping: little-endian int16 ``q`` decodes to ``q / 32768``; encoding
rounds half away from zero and clamps to [-32768, 32767], so
``decode(encode(decode(b))) == decode(b)`` bit-exactly.

Decoding is one pass: each int16 is cast to float64 and multiplied by
``PCM16_SCALE = 2**-15`` into the output array, with no float64 temporary.
Every int16 is exact in float64 and ``2**-15`` is a power of two, so the
product only shifts the exponent and equals ``q / 32768`` bit for bit. The
same holds wherever else the product is formed, so a consumer may keep the
int16 codes and apply the scale later, in a copy it makes anyway: a
scenario run carries its WAV audio as the int16 view that
:func:`read_wav_pcm16` returns, and the aggregator and the resampler scale
it as they copy it.
"""

from __future__ import annotations

import io
import wave

import numpy as np

from ..flowcore.record import FrozenRecord


#: The float value of PCM16 code ``q`` is ``q * PCM16_SCALE``.
PCM16_SCALE = 2.0**-15


class PcmFormatError(ValueError):
    pass


class WavFormatError(ValueError):
    pass


class AudioBuffer(FrozenRecord):
    """Mono samples in [-1, 1] at a fixed rate."""

    __slots__ = _fields = ("samples", "sample_rate_hz")

    def __init__(self, samples: np.ndarray, sample_rate_hz: int):
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("AudioBuffer holds mono 1-D samples")
        if sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be > 0")
        self._init(samples, sample_rate_hz)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


def round_half_away(x):
    """Round half away from zero (platform-independent, unlike bankers')."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def pcm16_decode(data: bytes, sample_rate_hz: int = 16000) -> AudioBuffer:
    if len(data) % 2 != 0:
        raise PcmFormatError(f"PCM16 byte stream has odd length {len(data)}")
    samples = np.multiply(np.frombuffer(data, dtype="<i2"), PCM16_SCALE, dtype=np.float64)
    return AudioBuffer(samples=samples, sample_rate_hz=sample_rate_hz)


def pcm16_encode(buffer: AudioBuffer) -> bytes:
    scaled = round_half_away(buffer.samples * 32768.0)
    clamped = np.clip(scaled, -32768, 32767).astype("<i2")
    return clamped.tobytes()


def read_wav_pcm16(path) -> tuple[np.ndarray, int]:
    """Read a RIFF PCM16 file as its first channel's int16 codes and its rate.

    The codes are a read-only view of the file's data bytes, strided for
    stereo input. Compressed, non-16-bit or malformed files, and a rate of
    0, are rejected with WavFormatError.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            nchannels = wf.getnchannels()
            sampwidth = wf.getsampwidth()
            rate = wf.getframerate()
            frames = wf.readframes(wf.getnframes())
    except wave.Error as exc:
        raise WavFormatError(f"not an uncompressed PCM WAV file: {exc}") from exc
    except EOFError as exc:
        raise WavFormatError("truncated WAV file") from exc
    if sampwidth != 2:
        raise WavFormatError(f"expected 16-bit PCM, got {8 * sampwidth}-bit")
    if len(frames) % 2 != 0:  # a data chunk cut short inside a sample
        raise WavFormatError(f"PCM16 data has odd length {len(frames)}")
    if rate <= 0:
        raise WavFormatError(f"sample rate must be > 0, got {rate}")
    return np.frombuffer(frames, dtype="<i2")[::nchannels], rate


def read_wav(path) -> AudioBuffer:
    """Read a RIFF PCM16 file; stereo input keeps the first channel only.

    :func:`read_wav_pcm16` decoded to floats, so its errors are this one's.
    """
    pcm, rate = read_wav_pcm16(path)
    return AudioBuffer(samples=np.multiply(pcm, PCM16_SCALE, dtype=np.float64), sample_rate_hz=rate)


def write_wav(path, buffer: AudioBuffer) -> None:
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(buffer.sample_rate_hz)
        wf.writeframes(pcm16_encode(buffer))


def write_wav_bytes(buffer: AudioBuffer) -> bytes:
    bio = io.BytesIO()
    with wave.open(bio, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(buffer.sample_rate_hz)
        wf.writeframes(pcm16_encode(buffer))
    return bio.getvalue()
