"""PCM16 codec exactness and WAV file handling."""

import mmap
import struct
import wave

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowbot.dsp import (
    AudioBuffer,
    PcmFormatError,
    WavFormatError,
    pcm16_decode,
    pcm16_encode,
    read_wav,
    read_wav_pcm16,
    write_wav,
)


def test_decode_zero_bytes():
    assert pcm16_decode(bytes([0x00, 0x00])).samples.tolist() == [0.0]


def test_decode_int16_min_is_minus_one():
    assert pcm16_decode(bytes([0x00, 0x80])).samples.tolist() == [-1.0]


def test_decode_is_little_endian():
    # 0x0001 little-endian = bytes 01 00
    assert pcm16_decode(bytes([0x01, 0x00])).samples.tolist() == [1.0 / 32768.0]


def test_odd_length_rejected():
    with pytest.raises(PcmFormatError):
        pcm16_decode(bytes([0x00]))


def test_round_trip_exhaustive_over_int16():
    codes = np.arange(-32768, 32768, dtype="<i2")
    data = codes.tobytes()
    buf = pcm16_decode(data)
    assert pcm16_encode(buf) == data


def test_encode_clamps_out_of_range():
    buf = AudioBuffer(samples=np.array([1.5, -1.5]), sample_rate_hz=16000)
    out = np.frombuffer(pcm16_encode(buf), dtype="<i2")
    assert out.tolist() == [32767, -32768]


def test_encode_rounds_half_away_from_zero():
    half = 0.5 / 32768.0
    buf = AudioBuffer(samples=np.array([half, -half]), sample_rate_hz=16000)
    out = np.frombuffer(pcm16_encode(buf), dtype="<i2")
    assert out.tolist() == [1, -1]


@given(st.binary(max_size=512).map(lambda b: b[: len(b) // 2 * 2]))
def test_decode_encode_decode_is_identity(data):
    once = pcm16_decode(data)
    again = pcm16_decode(pcm16_encode(once))
    assert np.array_equal(once.samples, again.samples)


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    buf = AudioBuffer(
        samples=np.round(rng.uniform(-1, 1, 500) * 32767) / 32768.0, sample_rate_hz=16000
    )
    path = tmp_path / "t.wav"
    write_wav(path, buf)
    back = read_wav(path)
    assert back.sample_rate_hz == 16000
    np.testing.assert_allclose(back.samples, buf.samples, atol=1.0 / 32768.0)


def test_wav_stereo_keeps_first_channel(tmp_path):
    left = np.array([100, 200, 300], dtype="<i2")
    right = np.array([-1, -2, -3], dtype="<i2")
    interleaved = np.empty(6, dtype="<i2")
    interleaved[0::2], interleaved[1::2] = left, right
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(48000)
        wf.writeframes(interleaved.tobytes())
    buf = read_wav(path)
    assert buf.sample_rate_hz == 48000
    np.testing.assert_allclose(buf.samples * 32768.0, left.astype(float))


def _fake_wav(format_tag: int, bits: int = 16) -> bytes:
    fmt = struct.pack("<HHIIHH", format_tag, 1, 16000, 32000, 2, bits)
    data = b"\x00\x00"
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_compressed_wav_rejected(tmp_path):
    path = tmp_path / "adpcm.wav"
    path.write_bytes(_fake_wav(format_tag=2))
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_non_16bit_wav_rejected(tmp_path):
    path = tmp_path / "w8.wav"
    path.write_bytes(_fake_wav(format_tag=1, bits=8))
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_not_a_wav_rejected(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"this is not RIFF data at all")
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_decode_of_every_int16_code_is_q_over_32768_bit_for_bit():
    codes = np.arange(-32768, 32768, dtype="<i2")
    samples = pcm16_decode(codes.tobytes()).samples
    assert samples.dtype == np.float64
    expected = np.array([q / 32768.0 for q in range(-32768, 32768)])
    assert np.array_equal(samples.view(np.uint64), expected.view(np.uint64))


# -- the mapped reader against a copying one --------------------------------------


def reference_codes(path) -> tuple[np.ndarray, int]:
    """The first channel's codes as a reader that copies the data chunk gets them."""
    with wave.open(str(path), "rb") as wf:
        channels = wf.getnchannels()
        return np.frombuffer(wf.readframes(wf.getnframes()), "<i2")[::channels], wf.getframerate()


def riff(channels: int, data: bytes, declared=None, before_data: bytes = b"") -> bytes:
    """A 16 kHz PCM16 RIFF file: ``before_data`` chunks, then a data chunk
    whose header says ``declared`` bytes (its length by default)."""
    fmt = struct.pack("<HHIIHH", 1, channels, 16000, 16000 * 2 * channels, 2 * channels, 16)
    size = len(data) if declared is None else declared
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + before_data
    body += b"data" + struct.pack("<I", size) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


_CODES = np.random.default_rng(7).integers(-32768, 32768, 2 * 999, dtype=np.int16)
_LIST = b"LIST" + struct.pack("<I", 14) + b"INFOISFT\x02\x00\x00\x00x\x00"

MAPPED_CASES = {
    "mono": riff(1, _CODES.tobytes()),
    "stereo": riff(2, _CODES.tobytes()),
    "list_chunk_before_data": riff(1, _CODES.tobytes(), before_data=_LIST),
    "declared_longer_than_the_file": riff(1, _CODES[:40].tobytes(), declared=4000),
    "zero_frames": riff(1, b""),
}


@pytest.mark.parametrize("name", sorted(MAPPED_CASES))
def test_the_mapped_codes_are_the_copied_codes_and_read_only(tmp_path, name):
    path = tmp_path / f"{name}.wav"
    path.write_bytes(MAPPED_CASES[name])
    codes, rate = read_wav_pcm16(path)
    expected, expected_rate = reference_codes(path)
    assert rate == expected_rate == 16000
    assert codes.dtype == np.dtype("<i2") and codes.tolist() == expected.tolist()
    assert codes.flags.writeable is False


def test_the_codes_are_a_view_of_a_memory_map(tmp_path):
    path = tmp_path / "mono.wav"
    path.write_bytes(MAPPED_CASES["mono"])
    owner = read_wav_pcm16(path)[0]
    while isinstance(owner, (np.ndarray, memoryview)):
        owner = owner.obj if isinstance(owner, memoryview) else owner.base
    assert isinstance(owner, mmap.mmap)
