"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

from contextlib import contextmanager
from pathlib import Path

import numpy as np

from flowbot.dsp import AudioBuffer, mix_noise_at_snr
from flowbot.flowcore import (
    Aggregator,
    AggregatorConfig,
    Latch,
    LatchState,
    LosslessPolicy,
    LossyPolicy,
    Packet,
    Stream,
    ViolationKind,
)
from flowbot.harness import (
    load_scenario,
    reference_pipeline,
    report_to_json_str,
    run_scenario,
)
from flowbot.perception import (
    LayerSpec,
    QuantParams,
    dequantize,
    kws_reference_table,
    l2_squared,
    layer_param_count,
    quantize,
    representable_range,
)
from flowbot.robotics import (
    LocomotionCommand,
    Direction,
    MalformedPacket,
    SweepConfig,
    decode_locomotion,
    encode_locomotion,
    max_sampling_rate,
    sweep_schedule,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_tof_sampling_rate_bound():
    with criterion(1, "ToF max sampling rate 69.2 Hz"):
        assert abs(max_sampling_rate(2.5, 346.0) - 69.2) <= 0.05


def test_criterion_02_parameter_table():
    with criterion(2, "parameter table rows and total"):
        assert layer_param_count(LayerSpec(kind="conv", m=24, r=10, n=64, in_channels=1)) == 15360
        assert layer_param_count(LayerSpec(kind="lin", n=32, in_features=2048)) == 65536
        assert layer_param_count(LayerSpec(kind="dnn", n=128, in_features=32)) == 4096
        assert layer_param_count(LayerSpec(kind="softmax", n=4, in_features=128)) == 512
        table = kws_reference_table()
        assert table.total == 250304
        flagged = [r for r in table.rows if not r.derivable]
        assert len(flagged) == 1 and flagged[0].count == 164800


def test_criterion_03_locomotion_codec_exhaustive():
    with criterion(3, "codec round-trip and reserved-bit rejection"):
        for direction in Direction:
            for speed in range(256):
                cmd = LocomotionCommand(direction, speed)
                assert decode_locomotion(encode_locomotion(cmd)) == cmd
        rejected = 0
        for word in range(0x10000):
            try:
                decode_locomotion(word)
            except MalformedPacket:
                rejected += 1
        assert rejected == 0x10000 - 1024


def test_criterion_04_servo_travel_invariant():
    with criterion(4, "total servo travel 0.28 s for every step"):
        for step in (0.25, 0.5, 1.0, 2.5, 7.0, 11.0, 13.0, 30.0, 40.0, 45.0, 60.0, 120.0):
            schedule = sweep_schedule(SweepConfig(step_deg=step))
            assert abs(schedule.total_travel_s - 0.28) <= 1e-9


def test_criterion_05_aggregator_window_count():
    with criterion(5, "aggregator window count and chunking invariance"):
        window, hop = 16000, 4000
        cfg = AggregatorConfig(window_samples=window, hop_samples=hop, sample_rate_hz=16000)
        rng = np.random.default_rng(105)
        for _ in range(50):
            n = int(rng.integers(0, 60001))
            samples = rng.standard_normal(n)
            batch = Aggregator(cfg).feed(samples)
            expected = (n - window) // hop + 1 if n >= window else 0
            assert len(batch) == expected
            # independent oracle: enumerate complete-window offsets
            assert [w.start_sample for w in batch] == [
                o for o in range(0, n - window + 1, hop)
            ] if n >= window else batch == []

            incremental = []
            agg = Aggregator(cfg)
            offset = 0
            while offset < n:
                size = int(rng.integers(1, 9000))
                incremental.extend(agg.feed(samples[offset : offset + size]))
                offset += size
            assert len(incremental) == expected
            for a, b in zip(incremental, batch):
                assert a.start_sample == b.start_sample
                assert np.array_equal(a.samples, b.samples)


def test_criterion_06_snr_mixing_accuracy():
    with criterion(6, "SNR mixing within 1e-6 dB pre-clip"):
        rng = np.random.default_rng(106)
        for _ in range(100):
            n = int(rng.integers(1000, 5000))
            signal = AudioBuffer(samples=rng.uniform(-0.5, 0.5, n), sample_rate_hz=16000)
            noise = AudioBuffer(
                samples=rng.standard_normal(n) * float(rng.uniform(0.01, 0.5)),
                sample_rate_hz=16000,
            )
            target = float(rng.uniform(-5.0, 10.0))
            result = mix_noise_at_snr(signal, noise, target)
            p_signal = np.mean(signal.samples**2)
            p_scaled = np.mean((result.gain * noise.samples) ** 2)
            measured = 10 * np.log10(p_signal / p_scaled)
            assert abs(measured - target) <= 1e-6


def test_criterion_07_quantization_error_bound():
    with criterion(7, "quantization error bound and int8 extremes"):
        rng = np.random.default_rng(107)
        for _ in range(10_000):
            scale = float(10.0 ** rng.uniform(-3, 1))
            params = QuantParams(scale=scale)
            lo, hi = representable_range(params)
            x = float(rng.uniform(lo, hi))
            err = abs(x - dequantize(quantize(x, params), params))
            assert err <= scale / 2 * (1 + 1e-9)
        params = QuantParams(scale=0.5)
        assert dequantize(-128, params) == (-128 - 0) * 0.5
        assert dequantize(127, params) == (127 - 0) * 0.5


def test_criterion_08_embedding_distance_oracle():
    with criterion(8, "squared-L2 against summation oracle"):
        rng = np.random.default_rng(108)
        for _ in range(1000):
            a, b = rng.standard_normal(128), rng.standard_normal(128)
            oracle = 0.0
            for x, y in zip(a, b):
                oracle += (x - y) ** 2
            assert abs(l2_squared(a, b) - oracle) <= 1e-12
        e = rng.standard_normal(128)
        assert l2_squared(e, e) == 0.0
        u1, u2 = np.zeros(128), np.zeros(128)
        u1[0] = 1.0
        u2[1] = 1.0
        assert l2_squared(u1, u2) == 2.0


def _random_stream_case(rng):
    capacity = int(rng.integers(1, 9))
    s = Stream("s", LossyPolicy(capacity=capacity))
    seq = 0
    delivered = []
    for _ in range(int(rng.integers(1, 120))):
        if rng.random() < 0.6:
            s.push(Packet(payload=None, timestamp_us=seq, seq=seq), seq)
            seq += 1
        else:
            p = s.pop(seq)
            if p is not None:
                delivered.append(p.seq)
        assert len(s) <= capacity  # bounded memory
    assert s.pushed == s.delivered + s.dropped + len(s)  # conservation
    assert delivered == sorted(set(delivered))  # FIFO, strictly increasing


def _random_lossless_case(rng):
    s = Stream("s", LosslessPolicy(deadline_us=10**9))
    pushed = 0
    for _ in range(int(rng.integers(1, 120))):
        if rng.random() < 0.7:
            s.push(Packet(payload=None, timestamp_us=pushed, seq=pushed), pushed)
            pushed += 1
        else:
            s.pop(pushed)
    assert s.dropped == 0
    assert s.pushed == s.delivered + len(s)


def _random_latch_case(rng):
    events = []
    t = 0
    for _ in range(int(rng.integers(1, 60))):
        t += int(rng.integers(0, 3))
        if rng.random() < 0.3:
            events.append(("ctl", t, int(rng.integers(0, 2))))
        else:
            events.append(("data", t, len(events)))

    def replay():
        latch = Latch(LatchState.CLOSED)
        forwarded = []
        for kind, ts, value in sorted(events, key=lambda e: (e[1], 0 if e[0] == "ctl" else 1)):
            if kind == "ctl":
                latch.apply_control(value, ts)
            elif latch.forward(Packet(payload=value, timestamp_us=ts, seq=value), ts) is not None:
                forwarded.append(value)
        return forwarded, latch.transitions

    assert replay() == replay()


def test_criterion_09_dataflow_property_suites():
    with criterion(9, "dataflow conservation/FIFO/lossless/bounded/latch"):
        rng = np.random.default_rng(109)
        for _ in range(200):
            _random_stream_case(rng)
        for _ in range(200):
            _random_lossless_case(rng)
        for _ in range(200):
            _random_latch_case(rng)

        # deterministic drop-count scenario: capacity 2, miss limit 2,
        # five pushes with no pops
        s = Stream("s", LossyPolicy(capacity=2, max_successive_misses=2))
        for i in range(1, 6):
            s.push(Packet(payload=i, timestamp_us=i, seq=i), i)
        assert s.successive_misses == 3
        assert [v["kind"] for v in s.violations] == [ViolationKind.BACKPRESSURE_MISS_LIMIT]
        assert s.dropped == 3 and len(s) == 2


def test_criterion_10_end_to_end_reference_scenario():
    with criterion(10, "end-to-end keyword scenario, deterministic replay"):
        scenario_doc = {
            "audio": {"synthetic": {"kind": "silence", "duration_s": 4.0}},
            "annotations": [{"start_s": 2.0, "end_s": 2.5, "label": "keyword"}],
            "interpreter_script": [
                {"trigger_window_index": 5, "skill_id": "get_time",
                 "entities": {}, "confidence": 0.9}
            ],
            "seed": 0,
        }
        first = run_scenario(reference_pipeline(), load_scenario(scenario_doc))
        second = run_scenario(reference_pipeline(), load_scenario(scenario_doc))
        assert first["latches"]["s_win_gated"]["openings"] == 1
        assert [i["skill_id"] for i in first["skill_invocations"]] == ["get_time"]
        assert report_to_json_str(first) == report_to_json_str(second)


def test_criterion_11_scope_limitations_documented():
    with criterion(11, "desk-scale limitations stated in README"):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert "not reproducible" in readme.lower()
        assert "property suites" in readme.lower()
