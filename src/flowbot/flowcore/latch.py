"""Binary gate on a data stream, driven by a bit-valued control stream.

The control rule: a control bit applies to every data packet stamped at or
after it, and on an exact timestamp tie the control applies first, so a gate
opened "by" a packet admits that packet. A latch holds its data and
control streams, and :meth:`Latch.pop` and :meth:`Latch.drain` keep the
rule: before the data stream's head is popped, every queued control stamped
no later than that head and than ``now_us`` is popped and applied; a control
stamped later waits for the data in front of it. The latch reads both
streams' ``queue`` heads and pops through the streams' instance attributes,
so wrappers on a stream's ``pop`` see every call.

A latch keeps the packets it suppresses in ``suppressed_runs``, as a
stream keeps its evictions in ``drop_runs``: one dict ``{first_seq,
last_seq, first_t_us, last_t_us, count}`` per run of suppressed packets
with consecutive seqs, stamped with the ``now_us`` each ``forward`` is
given, which never decreases within a run. A stream pops in seq order, so
a forwarded packet, or one dropped before it reached the latch, ends a run.
Each change of state is kept in ``transitions`` as ``{t_us, state}``, with
the state's value, ``"open"`` or ``"closed"``; the report entry keeps no
other copy of ``state``.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .packet import Packet
from .stream import Stream


class LatchState(Enum):
    OPEN = "open"
    CLOSED = "closed"


class Latch:
    def __init__(self, data: Stream, control: Stream, initial: LatchState = LatchState.CLOSED):
        self.data = data
        self.control = control
        self.state = initial
        self.initial = initial
        self.forwarded = 0
        self.suppressed = 0
        self.suppressed_runs: list[dict] = []
        self.transitions: list[dict] = []

    def apply_control(self, bit, ts_us: int) -> None:
        """Set the gate from a control bit; a change of state is a transition."""
        target = LatchState.OPEN if bit else LatchState.CLOSED
        if target is not self.state:
            self.state = target
            self.transitions.append({"t_us": ts_us, "state": target.value})

    def drain(self, now_us: int) -> None:
        """Apply the queued controls that the control rule lets through now."""
        queue = self.data.queue
        limit = queue[0][1].timestamp_us if queue else now_us
        if limit > now_us:
            limit = now_us
        control = self.control
        controls = control.queue
        while controls and controls[0][1].timestamp_us <= limit:
            bit, ts, _ = control.pop(now_us)
            self.apply_control(bit, ts)

    def pop(self, now_us: int) -> Optional[Packet]:
        """Pop the data stream's head through the gate, after the controls
        that apply to it; None when the stream is empty or the gate closed."""
        if self.control.queue:
            self.drain(now_us)
        packet = self.data.pop(now_us)
        return None if packet is None else self.forward(packet, now_us)

    def forward(self, packet: Packet, now_us: int) -> Optional[Packet]:
        """Pass the packet through when open; when closed, drop it and record
        it in its run at ``now_us``, the runner's time."""
        if self.state is LatchState.OPEN:
            self.forwarded += 1
            return packet
        self.suppressed += 1
        seq = packet.seq
        runs = self.suppressed_runs
        if runs and runs[-1]["last_seq"] == seq - 1:
            run = runs[-1]
            run["last_seq"], run["last_t_us"], run["count"] = seq, now_us, run["count"] + 1
        else:
            runs.append({"first_seq": seq, "last_seq": seq, "first_t_us": now_us, "last_t_us": now_us, "count": 1})
        return None

    @property
    def openings(self) -> int:
        return sum(1 for t in self.transitions if t["state"] == "open")

    def to_json(self) -> dict:
        """The latch's report entry, a snapshot that later calls leave as it is."""
        return {
            "initial": self.initial.value,
            "forwarded": self.forwarded,
            "suppressed": self.suppressed,
            "openings": self.openings,
            "transitions": list(self.transitions),
            "suppressed_runs": [dict(run) for run in self.suppressed_runs],
        }
