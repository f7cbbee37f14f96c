"""Timing kernels for ``scripts/ab_pairs.py --kernel scripts/kernels.py:FUNC``.

Each function takes no argument, imports ``flowbot`` from the ``src`` that is
first on ``sys.path``, and returns one timing in milliseconds: lower is better.

    python3 scripts/ab_pairs.py --parent HEAD --kernel scripts/kernels.py:aggregator_feed_600s
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
import wave

import numpy as np

REPEATS = 5  # timed passes per call, after one untimed warm-up pass


def _median_feed_ms(chunks: list[np.ndarray], scale: float, read_samples: bool) -> float:
    """Median milliseconds to feed ``chunks`` to a 1 s / 250 ms aggregator at
    16 kHz, reading each window's ``samples`` or only its ``span_s``."""
    from flowbot.flowcore import Aggregator, AggregatorConfig

    times = []
    for _ in range(REPEATS + 1):
        agg = Aggregator(AggregatorConfig(16000, 4000, 16000))
        t0 = time.perf_counter()
        for chunk in chunks:
            for window in agg.feed(chunk, 16000, scale):
                window.samples if read_samples else window.span_s
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:]) * 1e3


def aggregator_feed_600s() -> float:
    """600 s of seeded int16 codes in 1600-sample chunks at scale ``2**-15``,
    reading each window's span, as ``speech_ref``'s scripted detector does."""
    codes = np.random.default_rng(3).integers(-32768, 32768, 600 * 16000, dtype=np.int16)
    return _median_feed_ms([codes[i : i + 1600] for i in range(0, len(codes), 1600)], 2.0**-15, False)


def aggregator_read_float64_600s() -> float:
    """600 s of seeded float64 samples in the resampler's 533- and 534-sample
    chunks at scale 1.0, reading each window's samples, as
    ``kws_frontend_48k``'s log-mel detector does."""
    x = np.random.default_rng(3).standard_normal(600 * 16000)
    ends = np.cumsum([533 + (k % 3 == 0) for k in range(len(x) // 533)])
    return _median_feed_ms(np.split(x, ends[ends < len(x)]), 1.0, True)


def logmel_sliding_60s() -> float:
    """60 s of seeded noise through the default ``logmel`` in 1 s windows at
    250 ms hops, each window a fresh float64 array as ``AggWindow.samples``
    gives: 73 of each window's 98 frames were in the window before."""
    from flowbot.dsp import logmel

    audio = np.random.default_rng(3).standard_normal(60 * 16000)
    starts = range(0, len(audio) - 16000 + 1, 4000)
    times = []
    for _ in range(REPEATS + 1):
        t0 = time.perf_counter()
        for start in starts:
            logmel(np.multiply(audio[start : start + 16000], 1.0))
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:]) * 1e3


def _median_stream_ms(chunk: int) -> float:
    """Median milliseconds to feed 60 s of seeded 48 kHz int16 codes in
    ``chunk``-sample pieces at scale ``2**-15`` through one ``Decimator3to1``."""
    from flowbot.dsp import Decimator3to1

    codes = np.random.default_rng(3).integers(-32768, 32768, 60 * 48000, dtype=np.int16)
    chunks = [codes[i : i + chunk] for i in range(0, len(codes), chunk)]
    times = []
    for _ in range(REPEATS + 1):
        decimator = Decimator3to1()
        t0 = time.perf_counter()
        for piece in chunks:
            decimator.process(piece, 2.0**-15)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:]) * 1e3


def resampler_stream_60s() -> float:
    """The 1600-sample chunks that ``kws_frontend_48k``'s resampler node gets."""
    return _median_stream_ms(1600)


def resampler_stream_60s_160() -> float:
    """The same codes in 160-sample (3.3 ms) chunks, ten times as many calls:
    the short-chunk cost that no shipped graph pays yet."""
    return _median_stream_ms(160)


def wav_read_600s() -> float:
    """``read_wav_pcm16`` of a seeded 600 s 16 kHz mono WAV (19.2 MB), written
    once, then one sample read per 4 KiB page, so that a reader that maps
    the file pays for its page faults as a reader that copies it pays for
    the copy."""
    from flowbot.dsp import read_wav_pcm16

    codes = np.random.default_rng(3).integers(-32768, 32768, 600 * 16000, dtype=np.int16)
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "audio.wav")
        with wave.open(path, "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(codes.tobytes())
        for _ in range(REPEATS + 1):
            t0 = time.perf_counter()
            pcm, _rate = read_wav_pcm16(path)
            pcm[::2048].sum()
            times.append(time.perf_counter() - t0)
            del pcm  # the next pass reads the file again
    return statistics.median(times[1:]) * 1e3
