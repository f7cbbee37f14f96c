"""The unit of data exchanged between graph nodes."""

from __future__ import annotations

from typing import Any, NamedTuple


class Packet(NamedTuple):
    """Immutable, timestamped, sequence-numbered payload carrier.

    A packet is an immutable tuple type, ``(payload, timestamp_us, seq)``:
    fields cannot be reassigned, and the hot path builds one with
    ``tuple.__new__(Packet, (payload, timestamp_us, seq))`` without running
    any Python-level constructor.

    The executor sets ``seq`` to the number of packets pushed onto the
    packet's stream before it, so seqs count up by one along a stream. The
    payload is treated as immutable once emitted; holders must not mutate
    it, which makes packets safe to share between nodes.
    """

    payload: Any
    timestamp_us: int
    seq: int

