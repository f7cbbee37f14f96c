"""Attention decision: one bit per window, failing safe to 0, and the
energy-based detector the attention node uses by default."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np


def rms_detect(window, threshold: float) -> int:
    """Return 1 iff the window's root-mean-square level reaches ``threshold``."""
    x = np.asarray(window, dtype=np.float64)
    if x.size == 0:
        raise ValueError("rms_detect needs a nonempty window")
    return 1 if float(np.sqrt(np.mean(x * x))) >= threshold else 0


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
