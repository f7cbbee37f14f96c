"""Latch gating: suppression, timestamp ordering, replay determinism."""

from hypothesis import given, strategies as st

from flowbot.flowcore import Latch, LatchState, Packet


def pkt(ts, seq=0):
    return Packet(payload=None, timestamp_us=ts, seq=seq)


def replay(events, initial=LatchState.CLOSED):
    """Feed (kind, ts, value) events in timestamp order, controls first on ties.

    Data packets carry the value as payload and consecutive integer seqs.
    The latch's suppression runs are checked against a list model: suppressed
    packets with consecutive seqs form one run.
    """
    latch = Latch(initial)
    forwarded, runs = [], []
    seq = 0
    for kind, ts, value in sorted(events, key=lambda e: (e[1], 0 if e[0] == "ctl" else 1)):
        if kind == "ctl":
            latch.apply_control(value, ts)
            continue
        packet = Packet(payload=value, timestamp_us=ts, seq=seq)
        if latch.forward(packet, ts) is not None:
            forwarded.append(value)
        elif runs and runs[-1][-1][0] == seq - 1:
            runs[-1].append((seq, ts))
        else:
            runs.append([(seq, ts)])
        seq += 1
    expected = [
        {"first_seq": run[0][0], "last_seq": run[-1][0], "first_t_us": run[0][1], "last_t_us": run[-1][1],
         "count": len(run)}
        for run in runs
    ]
    assert latch.suppressed_runs == expected
    assert sum(run["count"] for run in latch.suppressed_runs) == latch.suppressed
    return latch, forwarded


def test_closed_latch_suppresses():
    latch = Latch(LatchState.CLOSED)
    assert latch.forward(pkt(0), 0) is None
    assert latch.suppressed == 1 and latch.forwarded == 0
    assert latch.suppressed_runs == [{"first_seq": 0, "last_seq": 0, "first_t_us": 0, "last_t_us": 0, "count": 1}]


def test_suppressed_runs_are_stamped_at_the_given_time():
    latch = Latch(LatchState.CLOSED)
    latch.forward(pkt(10, seq=4), now_us=25)
    latch.forward(pkt(11, seq=5), now_us=30)
    latch.forward(pkt(12, seq=7), now_us=40)  # seq 6 never reached the latch: a new run
    assert latch.suppressed_runs == [
        {"first_seq": 4, "last_seq": 5, "first_t_us": 25, "last_t_us": 30, "count": 2},
        {"first_seq": 7, "last_seq": 7, "first_t_us": 40, "last_t_us": 40, "count": 1},
    ]


def test_control_applies_to_later_data_only():
    # open bit at t=5: data at t=4 suppressed, t=6 forwarded
    _, forwarded = replay([("ctl", 5, 1), ("data", 4, "a"), ("data", 6, "b")])
    assert forwarded == ["b"]


def test_control_data_sequence():
    events = []
    t = 0
    for i, bit in enumerate([1, 0, 1]):
        events.append(("ctl", t, bit))
        for j in range(3):
            t += 1
            events.append(("data", t, f"{i}.{j}"))
        t += 1
    latch, forwarded = replay(events)
    assert len(forwarded) == 6
    assert latch.suppressed == 3


def test_tie_control_applies_first():
    _, forwarded = replay([("ctl", 5, 1), ("data", 5, "x")])
    assert forwarded == ["x"]
    _, forwarded = replay([("ctl", 5, 0), ("data", 5, "x")], initial=LatchState.OPEN)
    assert forwarded == []


def test_openings_counts_transitions_to_open():
    latch = Latch()
    latch.apply_control(1, 0)
    latch.apply_control(1, 1)  # reassertion, no transition
    latch.apply_control(0, 2)
    latch.apply_control(1, 3)
    assert latch.openings == 2
    assert [t["state"] for t in latch.transitions] == ["open", "closed", "open"]


@given(
    st.lists(
        st.tuples(st.sampled_from(["ctl", "data"]), st.integers(0, 50), st.integers(0, 1)),
        max_size=60,
    ),
    st.sampled_from([LatchState.OPEN, LatchState.CLOSED]),
)
def test_replay_determinism(events, initial):
    latch1, forwarded1 = replay(events, initial)
    latch2, forwarded2 = replay(events, initial)
    assert forwarded1 == forwarded2
    assert (latch1.forwarded, latch1.suppressed) == (latch2.forwarded, latch2.suppressed)
    assert latch1.transitions == latch2.transitions
    data_count = sum(1 for kind, _, _ in events if kind == "data")
    assert latch1.forwarded + latch1.suppressed == data_count
