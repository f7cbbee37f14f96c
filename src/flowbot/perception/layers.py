"""Parameter accounting for the small-footprint keyword-spotting net.

Counting conventions that reproduce the published per-layer figures:
conv layers count m*r*n*in_channels weights; dense kinds (lin/dnn/softmax)
count in_features*n with no bias term. The second conv row of the reference
table is not derivable from its listed hyperparameters for any integer
channel count, so it carries a pinned count and is flagged.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..flowcore.record import FrozenRecord

DENSE_KINDS = ("lin", "dnn", "softmax")


class LayerSpecError(ValueError):
    pass


class LayerSpec(FrozenRecord):
    """One layer's hyperparameters. ``count_override`` pins the parameter
    count of a row whose published figure cannot be reproduced from the
    listed hyperparameters."""

    __slots__ = _fields = ("kind", "n", "m", "r", "p", "q", "in_channels", "in_features", "count_override")

    def __init__(
        self,
        kind: str,
        n: int,
        m: Optional[int] = None,
        r: Optional[int] = None,
        p: Optional[int] = None,
        q: Optional[int] = None,
        in_channels: Optional[int] = None,
        in_features: Optional[int] = None,
        count_override: Optional[int] = None,
    ):
        self._init(kind, n, m, r, p, q, in_channels, in_features, count_override)
        if kind not in ("conv",) + DENSE_KINDS:
            raise LayerSpecError(f"unknown layer kind {kind!r}")
        if n <= 0:
            raise LayerSpecError("n must be > 0")
        if kind == "conv" and count_override is None:
            for field_name in ("m", "r", "in_channels"):
                value = getattr(self, field_name)
                if value is None or value <= 0:
                    raise LayerSpecError(f"conv layer needs positive {field_name}")
        if kind in DENSE_KINDS:
            if in_features is None or in_features <= 0:
                raise LayerSpecError(f"{kind} layer needs positive in_features")

    @property
    def derivable(self) -> bool:
        return self.count_override is None


def layer_param_count(spec: LayerSpec) -> int:
    if spec.count_override is not None:
        return spec.count_override
    if spec.kind == "conv":
        return spec.m * spec.r * spec.n * spec.in_channels
    return spec.in_features * spec.n


class ParamRow(NamedTuple):
    kind: str
    count: int
    derivable: bool


class ParamTable(NamedTuple):
    rows: tuple[ParamRow, ...]
    total: int

    def format(self) -> str:
        lines = [f"{'layer':<10}{'params':>10}  note"]
        for row in self.rows:
            note = "" if row.derivable else "pinned: not derivable from m*r*n*channels"
            lines.append(f"{row.kind:<10}{row.count:>10}  {note}".rstrip())
        lines.append(f"{'total':<10}{self.total:>10}")
        return "\n".join(lines)


def model_param_table(specs) -> ParamTable:
    rows = tuple(ParamRow(s.kind, layer_param_count(s), s.derivable) for s in specs)
    return ParamTable(rows=rows, total=sum(r.count for r in rows))


def kws_reference_layers() -> tuple[LayerSpec, ...]:
    """Layer stack of the reference keyword-spotting architecture."""
    return (
        LayerSpec(kind="conv", m=24, r=10, n=64, p=1, q=3, in_channels=1),
        LayerSpec(kind="conv", m=12, r=5, n=64, p=1, q=1, count_override=164800),
        LayerSpec(kind="lin", n=32, in_features=2048),
        LayerSpec(kind="dnn", n=128, in_features=32),
        LayerSpec(kind="softmax", n=4, in_features=128),
    )


def kws_reference_table() -> ParamTable:
    return model_param_table(kws_reference_layers())
