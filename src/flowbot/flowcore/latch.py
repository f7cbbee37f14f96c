"""Binary gate on a data stream, driven by a bit-valued control stream.

A control bit takes effect for every data packet with a later timestamp; on
an exact timestamp tie the control applies first, so a gate opened "by" a
packet admits that packet.

A latch keeps the packets it suppresses in ``suppressed_runs``, as a
stream keeps its evictions in ``drop_runs``: one record ``[first_seq,
last_seq, first_t_us, last_t_us, count]`` per run of suppressed packets
with consecutive seqs, stamped with the ``now_us`` each ``forward`` is
given, which never decreases within a run. A stream pops in seq order, so
a forwarded packet, or one dropped before it reached the latch, ends a run.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .packet import Packet, runs_to_json


class LatchState(Enum):
    OPEN = "open"
    CLOSED = "closed"


class Latch:
    def __init__(self, initial: LatchState = LatchState.CLOSED):
        self.state = initial
        self.initial = initial
        self.forwarded = 0
        self.suppressed = 0
        self.suppressed_runs: list[list[int]] = []
        self.transitions: list[tuple[int, LatchState]] = []

    def apply_control(self, bit, ts_us: int) -> None:
        """Set the gate from a control bit; a change of state is a transition."""
        target = LatchState.OPEN if bit else LatchState.CLOSED
        if target is not self.state:
            self.state = target
            self.transitions.append((ts_us, target))

    def forward(self, packet: Packet, now_us: int) -> Optional[Packet]:
        """Pass the packet through when open; when closed, drop it and record
        it in its run at ``now_us``, the runner's time."""
        if self.state is LatchState.OPEN:
            self.forwarded += 1
            return packet
        self.suppressed += 1
        seq = packet.seq
        runs = self.suppressed_runs
        if runs and runs[-1][1] == seq - 1:
            run = runs[-1]
            run[1], run[3], run[4] = seq, now_us, run[4] + 1
        else:
            runs.append([seq, seq, now_us, now_us, 1])
        return None

    @property
    def openings(self) -> int:
        return sum(1 for _, s in self.transitions if s is LatchState.OPEN)

    def to_json(self) -> dict:
        return {
            "initial": self.initial.value,
            "state": self.state.value,
            "forwarded": self.forwarded,
            "suppressed": self.suppressed,
            "openings": self.openings,
            "transitions": [{"t_us": t, "state": s.value} for t, s in self.transitions],
            "suppressed_runs": runs_to_json(self.suppressed_runs),
        }
