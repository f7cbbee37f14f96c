"""SNR-exact noise mixing and circular shift augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowbot.dsp import AudioBuffer, AugmentError, mix_noise_at_snr, random_shift


def buf(samples, rate=16000):
    return AudioBuffer(samples=np.asarray(samples, dtype=float), sample_rate_hz=rate)


def tone(freq, n=4000, amp=0.4, rate=16000):
    t = np.arange(n) / rate
    return buf(amp * np.sin(2 * np.pi * freq * t), rate)


def measured_snr_db(signal: AudioBuffer, noise: AudioBuffer, gain: float) -> float:
    p_signal = np.mean(signal.samples**2)
    p_scaled = np.mean((gain * noise.samples) ** 2)
    return 10 * np.log10(p_signal / p_scaled)


def test_zero_db_with_identical_noise_gives_unit_gain():
    signal = tone(440)
    result = mix_noise_at_snr(signal, signal, 0.0)
    assert result.gain == pytest.approx(1.0, abs=1e-12)


def test_plus_10db_scales_noise_power_to_a_tenth():
    rng = np.random.default_rng(3)
    signal = tone(440)
    noise = buf(rng.standard_normal(len(signal)) * 0.2)
    result = mix_noise_at_snr(signal, noise, 10.0)
    p_signal = np.mean(signal.samples**2)
    p_scaled = np.mean((result.gain * noise.samples) ** 2)
    assert p_scaled == pytest.approx(p_signal / 10.0, rel=1e-12)


def test_minus_5db_scales_noise_power_up():
    rng = np.random.default_rng(4)
    signal = tone(300)
    noise = buf(rng.standard_normal(len(signal)) * 0.1)
    result = mix_noise_at_snr(signal, noise, -5.0)
    p_signal = np.mean(signal.samples**2)
    p_scaled = np.mean((result.gain * noise.samples) ** 2)
    assert p_scaled == pytest.approx(p_signal * 10**0.5, rel=1e-12)


def test_measured_snr_matches_target_to_1e6_db():
    rng = np.random.default_rng(5)
    for _ in range(20):
        signal = buf(rng.uniform(-0.5, 0.5, 3000))
        noise = buf(rng.standard_normal(3000) * rng.uniform(0.05, 0.5))
        target = float(rng.uniform(-5.0, 10.0))
        result = mix_noise_at_snr(signal, noise, target)
        assert abs(measured_snr_db(signal, noise, result.gain) - target) < 1e-6


def test_zero_power_inputs_rejected():
    silent = buf(np.zeros(100))
    loud = buf(np.ones(100) * 0.5)
    with pytest.raises(AugmentError):
        mix_noise_at_snr(silent, loud, 0.0)
    with pytest.raises(AugmentError):
        mix_noise_at_snr(loud, silent, 0.0)


def test_length_mismatch_rejected():
    with pytest.raises(AugmentError):
        mix_noise_at_snr(buf(np.ones(10)), buf(np.ones(11)), 0.0)


def test_sample_rate_mismatch_rejected():
    with pytest.raises(AugmentError, match="sample rate mismatch"):
        mix_noise_at_snr(buf(np.ones(10)), AudioBuffer(np.ones(10), 8000), 0.0)


def test_clipping_is_counted_not_renormalized():
    signal = buf(np.full(100, 0.9))
    noise = buf(np.full(100, 0.9))
    result = mix_noise_at_snr(signal, noise, 0.0)  # sums to 1.8 everywhere
    assert result.clipped == 100
    assert np.all(result.buffer.samples == 1.0)


def test_snr_range_sampling_needs_rng_and_is_reproducible():
    signal = tone(500)
    noise = tone(700)
    with pytest.raises(AugmentError):
        mix_noise_at_snr(signal, noise, (-5.0, 10.0))
    r1 = mix_noise_at_snr(signal, noise, (-5.0, 10.0), rng=np.random.default_rng(9))
    r2 = mix_noise_at_snr(signal, noise, (-5.0, 10.0), rng=np.random.default_rng(9))
    assert r1.snr_db == r2.snr_db
    assert -5.0 <= r1.snr_db <= 10.0


class FixedRng:
    def __init__(self, value):
        self.value = value

    def integers(self, low, high):
        assert low <= self.value < high
        return self.value


def test_shift_zero_is_identity():
    b = buf([1.0, 2.0, 3.0, 4.0])
    out = random_shift(b, 0, np.random.default_rng(0))
    np.testing.assert_array_equal(out.samples, b.samples)


def test_shift_plus_one_rotates_right():
    out = random_shift(buf([1.0, 2.0, 3.0, 4.0]), 1, FixedRng(1))
    np.testing.assert_array_equal(out.samples, [4.0, 1.0, 2.0, 3.0])


def test_shift_seeded_reproducible():
    b = buf(np.arange(50, dtype=float))
    out1 = random_shift(b, 10, np.random.default_rng(123))
    out2 = random_shift(b, 10, np.random.default_rng(123))
    np.testing.assert_array_equal(out1.samples, out2.samples)


def test_shift_bounds_validated():
    b = buf(np.arange(4, dtype=float))
    with pytest.raises(AugmentError):
        random_shift(b, 4, np.random.default_rng(0))
    with pytest.raises(AugmentError):
        random_shift(b, -1, np.random.default_rng(0))


@settings(max_examples=60)
@given(
    values=st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=64),
    seed=st.integers(0, 2**31),
)
def test_shift_preserves_multiset_and_length(values, seed):
    b = buf(values)
    out = random_shift(b, len(values) - 1, np.random.default_rng(seed))
    assert len(out) == len(b)
    assert sorted(out.samples.tolist()) == sorted(b.samples.tolist())
