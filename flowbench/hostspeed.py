"""Host speed probe: a fixed piece of work timed between repetitions.

The benchmark runs on a few cores of a shared host whose speed drifts by a
factor of up to two, for seconds to whole minutes at a time (see README.md).
Every wall-clock metric drifts with it. The probe times fixed work that owes
nothing to the program but resembles its three kinds of cost: an event loop
over Python objects (the executor), a JSON round trip of a report-like
document (report serialisation) and short numpy calls on one frame of audio
(the DSP kernels). Its time over ``REFERENCE_S`` is the host's slowdown at
that moment; the end-to-end times are divided by it.
"""

from __future__ import annotations

import heapq
import json
import random
import statistics
from time import perf_counter

import numpy as np

ROUNDS = 3  # the probe's time is the median of three back-to-back rounds
# The probe's time on the reference host: 2 vCPU Xeon, Python 3.11.7,
# numpy 2.4.6, in its fast state.
REFERENCE_S = 0.0075


class _Event:
    __slots__ = ("t", "kind", "value")

    def __init__(self, t: int, kind: int, value: float):
        self.t, self.kind, self.value = t, kind, value


_rng = random.Random(20191127)
_EVENTS = [_Event(i, i % 13, _rng.random()) for i in range(20_000)]
_DOC = {
    "streams": {
        f"s{i}": {"pushed": i, "events": [{"t_us": j, "kind": "drop", "seq": [j, j + 1]} for j in range(20)]}
        for i in range(60)
    }
}
_DOC_TEXT = json.dumps(_DOC)
_FRAME = np.random.default_rng(20191127).standard_normal(512)
_FBANK = np.random.default_rng(20191128).random((40, 257))


def _event_loop() -> int:
    heap: list = []
    total = 0
    for i in range(3_000):
        event = _EVENTS[(i * 7919) % len(_EVENTS)]
        heapq.heappush(heap, (event.t + i, i, event))
        if len(heap) > 512:
            _, _, popped = heapq.heappop(heap)
            total += popped.kind
    return total


def _json_round_trip() -> bool:
    return json.dumps(json.loads(_DOC_TEXT)) == _DOC_TEXT


def _dsp_calls() -> tuple:
    for _ in range(150):
        spectrum = np.fft.rfft(_FRAME)
        out = np.log(np.maximum(_FBANK @ (spectrum.real ** 2 + spectrum.imag ** 2), 1e-10))
    return out.shape


_EXPECTED = (_event_loop(), True, (40,))


def probe() -> float:
    """The host's slowdown now: probe time over the reference time."""
    times = []
    for _ in range(ROUNDS):
        t0 = perf_counter()
        result = (_event_loop(), _json_round_trip(), _dsp_calls())
        times.append(perf_counter() - t0)
        if result != _EXPECTED:
            raise RuntimeError(f"host speed probe computed {result}, expected {_EXPECTED}")
    return statistics.median(times) / REFERENCE_S
