"""Attention decision: one bit per window, failing safe to 0, and the
detector table the attention node builds its detector from: the shipped
``constant``, RMS-energy (the node's default) and scripted keyword
detectors, and any kind added with :func:`register_detector`."""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .schema import get_value


def rms_detect(window, threshold: float) -> int:
    """Return 1 iff the window's root-mean-square level reaches ``threshold``."""
    x = np.asarray(window, dtype=np.float64)
    if x.size == 0:
        raise ValueError("rms_detect needs a nonempty window")
    return 1 if float(np.sqrt(np.mean(x * x))) >= threshold else 0


class AnnotationIndex:
    """Annotation spans (``start_s``, ``end_s``) sorted once by start, with a
    running maximum of their ends.

    A half-open window ``[lo, hi)`` overlaps a span ``(s, e)`` iff
    ``s < hi and lo < e``. The ``k = bisect_left(starts, hi)`` spans that
    start before ``hi`` are a prefix of the sorted spans, so the window
    overlaps one of them iff ``k > 0`` and the largest end in that prefix,
    ``max_end[k - 1]``, is after ``lo``: O(log A) per window instead of a
    scan of all A spans.
    """

    def __init__(self, annotations):
        spans = sorted((ann.start_s, ann.end_s) for ann in annotations)
        self._starts = [start for start, _ in spans]
        self._max_end = list(accumulate((end for _, end in spans), max))

    def __call__(self, window) -> int:
        """The scripted detector: 1 iff an annotation overlaps the
        :class:`~flowbot.flowcore.aggregator.AggWindow`'s ``span_s``, inlined."""
        rate = window.sample_rate_hz
        lo = window.start_sample / rate
        hi = lo + len(window.raw) / rate
        k = bisect_left(self._starts, hi)
        return 1 if k and self._max_end[k - 1] > lo else 0


def attention_decide(detector: Callable, window, on_error: Optional[Callable] = None) -> int:
    """Run a pluggable detector over one window and return exactly one bit.

    A detector failure yields 0 (the gate must not open on error); the
    exception is reported through ``on_error`` when given.
    """
    try:
        return 1 if detector(window) else 0
    except Exception as exc:  # fail safe: never open the gate on error
        if on_error is not None:
            on_error(exc)
        return 0


DETECTOR_FACTORIES: dict[str, Callable] = {}


def register_detector(kind: str, factory: Callable) -> None:
    DETECTOR_FACTORIES[kind] = factory


def _constant_detector(spec, env):
    # an integer only: truncating 0.9 would give a gate that never opens
    value = get_value(spec, "value", "detector", int, 1)
    return lambda w: value


def _rms_detector(spec, env):
    threshold = get_value(spec, "threshold", "detector", float, 0.1)
    return lambda w: rms_detect(w.samples, threshold)


register_detector("constant", _constant_detector)
register_detector("rms", _rms_detector)
register_detector("scripted", lambda spec, env: AnnotationIndex(env.get("annotations", ())))
