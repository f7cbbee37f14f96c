"""Per-layer timings for code that no workload reaches.

These numbers are recorded in the traced run but move no end-to-end metric:
the floors that the executor's per-packet cost is compared against, and the
perception and robotics kernels that no pipeline calls yet. Each kernel's
output is checked; each timing is the median of several batches.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter

import numpy as np

from flowbot.flowcore import LosslessPolicy, Packet, Stream
from flowbot.perception import Identity, QuantParams, dequantize, identify, quantize
from flowbot.robotics import (
    Direction,
    LocomotionCommand,
    UartDeframer,
    decode_locomotion,
    encode_locomotion,
    echo_round_trip_s,
    frame_uart,
    scan_to_points,
)
from flowbot.robotics.sweep import EchoClass, SweepConfig

BATCHES = 5


def _median_us(fn, ops_per_batch: int) -> float:
    """Median over batches of the wall time per operation, in microseconds."""
    times = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) / ops_per_batch * 1e6)
    return statistics.median(times)


def deque_floor(n: int = 100_000) -> tuple[float, list[str]]:
    q: deque = deque()

    def batch():
        for i in range(n):
            q.append(i)
            q.popleft()

    return _median_us(batch, n), []


def stream_floor(n: int = 50_000) -> tuple[float, list[str]]:
    stream = Stream("floor", LosslessPolicy(deadline_us=10**12))
    packets = [Packet(payload=i, timestamp_us=i, seq=i) for i in range(n)]
    popped = []

    def batch():
        popped.clear()
        push, pop = stream.push, stream.pop
        for p in packets:
            push(p, now_us=p.timestamp_us)
            popped.append(pop(now_us=p.timestamp_us))

    us = _median_us(batch, n)
    errors = [] if popped == packets else ["bare stream did not return packets in order"]
    return us, errors


def identify_gallery(rng: np.random.Generator, size: int = 1000) -> tuple[float, list[str]]:
    gallery = {f"id{i:04d}": rng.standard_normal(128) for i in range(size)}
    names = sorted(gallery)[:: size // 10]
    queries = [(name, gallery[name] + 0.01 * rng.standard_normal(128)) for name in names]
    results = []

    def batch():
        results.clear()
        for _, query in queries:
            results.append(identify(query, gallery, threshold=1.0))

    us = _median_us(batch, len(queries))
    ok = all(isinstance(r, Identity) and r.name == name for r, (name, _) in zip(results, queries))
    return us, [] if ok else ["identify missed a gallery identity"]


def quantize_roundtrip(rng: np.random.Generator, n: int = 2000) -> tuple[float, list[str]]:
    params = QuantParams(scale=0.01)
    vectors = [np.clip(rng.standard_normal(128) * 0.3, -1.2, 1.2) for _ in range(n)]
    codes = []

    def batch():
        codes.clear()
        for v in vectors:
            codes.append(quantize(v, params))

    us = _median_us(batch, n)
    worst = max(float(np.max(np.abs(dequantize(q, params) - v))) for q, v in zip(codes, vectors))
    return us, [] if worst <= 0.005 + 1e-12 else [f"quantize error {worst} > scale/2"]


def locomotion_roundtrip() -> tuple[float, list[str]]:
    commands = [LocomotionCommand(direction=d, speed=s) for d in Direction for s in range(256)]
    decoded = []

    def batch():
        decoded.clear()
        deframer = UartDeframer()
        for cmd in commands:
            for word in deframer.feed(frame_uart(encode_locomotion(cmd))):
                decoded.append(decode_locomotion(word))

    us = _median_us(batch, len(commands))
    return us, [] if decoded == commands else ["locomotion round trip changed a command"]


def scan(rng: np.random.Generator, n_sweeps: int = 200) -> tuple[float, list[str]]:
    config = SweepConfig(step_deg=5.0)
    # every 5 degrees over the servo's range, skipping 90 where the paper's
    # tan-based vertical component is undefined
    angles = [5.0 * k for k in range(25) if k != 18]
    sweeps = []
    for _ in range(n_sweeps):
        distances = rng.uniform(0.2, 3.0, len(angles))
        sweeps.append([(a, echo_round_trip_s(float(d))) for a, d in zip(angles, distances)])
    results = []

    def batch():
        results.clear()
        for raw in sweeps:
            results.append(scan_to_points(raw, config))

    us = _median_us(batch, n_sweeps)
    ok = all(
        len(points) == len(angles)
        and all((p.classification is EchoClass.NO_ECHO) == (p.d_ideal_m is None) for p in points)
        for points in results
    )
    return us, [] if ok else ["scan_to_points returned inconsistent points"]


def measure(seed: int) -> tuple[dict[str, float], list[str]]:
    """All kernel timings (µs per operation) and any output errors."""
    rng = np.random.default_rng(seed)
    cases = {
        "flowcore.floor.deque_us": deque_floor,
        "flowcore.floor.stream_push_pop_us": stream_floor,
        "perception.identify.us_per_call": lambda: identify_gallery(rng),
        "perception.quantize.us_per_call": lambda: quantize_roundtrip(rng),
        "robotics.locomotion.roundtrip_us": locomotion_roundtrip,
        "robotics.scan_to_points.us_per_call": lambda: scan(rng),
    }
    values, errors = {}, []
    for name, fn in cases.items():
        try:
            values[name], errs = fn()
        except Exception as exc:
            values[name], errs = 0.0, [f"{type(exc).__name__}: {exc}"]
        errors += [f"{name}: {e}" for e in errs]
    return values, errors
