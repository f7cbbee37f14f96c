"""Symmetric signed 8-bit quantization.

Dequantization is exactly ``real = (int8 - zero_point) * scale``; in the
symmetric regime the zero point is 0. Quantization rounds half away from
zero and clamps to [-128, 127], giving |x - deq(quant(x))| <= scale/2 for
any x inside the representable range.
"""

from __future__ import annotations

import numpy as np

from ..dsp.audio import round_half_away
from ..flowcore.record import FrozenRecord

INT8_MIN = -128
INT8_MAX = 127


class QuantError(ValueError):
    pass


class QuantParams(FrozenRecord):
    __slots__ = _fields = ("scale", "zero_point", "symmetric")

    def __init__(self, scale: float, zero_point: int = 0, symmetric: bool = True):
        if scale <= 0:
            raise QuantError(f"scale must be > 0, got {scale}")
        if symmetric and zero_point != 0:
            raise QuantError("symmetric quantization requires zero_point == 0")
        self._init(scale, zero_point, symmetric)


def quantize(x, params: QuantParams):
    """Real -> int8 code(s); scalar in, scalar out."""
    arr = np.asarray(x, dtype=np.float64)
    q = round_half_away(arr / params.scale) + params.zero_point
    q = np.clip(q, INT8_MIN, INT8_MAX).astype(np.int64)
    return int(q) if np.isscalar(x) or arr.ndim == 0 else q


def dequantize(q, params: QuantParams):
    """int8 code(s) -> real value(s): (q - zero_point) * scale."""
    arr = np.asarray(q, dtype=np.float64)
    if np.any(arr < INT8_MIN) or np.any(arr > INT8_MAX):
        raise QuantError("int8 code out of [-128, 127]")
    out = (arr - params.zero_point) * params.scale
    return float(out) if np.isscalar(q) or arr.ndim == 0 else out


def representable_range(params: QuantParams) -> tuple[float, float]:
    return (
        (INT8_MIN - params.zero_point) * params.scale,
        (INT8_MAX - params.zero_point) * params.scale,
    )
