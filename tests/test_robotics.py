"""Wire codec round-trips, ToF geometry, sweep timing, scan classification."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from flowbot.harness.config import load_scan_scene, packaged_config_text
from flowbot.robotics import (
    BeamMode,
    CodecError,
    Direction,
    DomainError,
    EchoClass,
    GeometryError,
    LocomotionCommand,
    MalformedPacket,
    SweepConfig,
    SweepConfigError,
    UartDeframer,
    beam_components,
    decode_locomotion,
    echo_round_trip_s,
    encode_locomotion,
    frame_uart,
    max_sampling_rate,
    scan_points_to_csv,
    scan_to_points,
    sweep_angles,
    sweep_schedule,
    tof_distance,
    uart_transfer_time_s,
)


# -- codec ---------------------------------------------------------------------


def test_stop_command_encodes_to_zero():
    assert encode_locomotion(LocomotionCommand(Direction.LEFT_FORWARD, 0)) == 0x0000


def test_right_backward_full_speed():
    assert encode_locomotion(LocomotionCommand(Direction.RIGHT_BACKWARD, 255)) == 0x03FF


def test_decode_rejects_reserved_bits():
    with pytest.raises(MalformedPacket):
        decode_locomotion(0x8000)
    with pytest.raises(MalformedPacket):
        decode_locomotion(0x0400)


def test_round_trip_exhaustive_all_1024_commands():
    for direction in Direction:
        for speed in range(256):
            cmd = LocomotionCommand(direction, speed)
            assert decode_locomotion(encode_locomotion(cmd)) == cmd


def test_acceptance_rate_over_all_words():
    accepted = 0
    for word in range(0x10000):
        try:
            decode_locomotion(word)
            accepted += 1
        except MalformedPacket:
            pass
    assert accepted == 1024


def test_speed_zero_means_stopped_in_any_direction():
    for direction in Direction:
        assert LocomotionCommand(direction, 0).stopped


def test_speed_range_validated():
    with pytest.raises(CodecError):
        LocomotionCommand(Direction.LEFT_FORWARD, 256)
    with pytest.raises(CodecError):
        LocomotionCommand(Direction.LEFT_FORWARD, -1)


def test_frame_is_little_endian():
    assert frame_uart(0x03FF) == bytes([0xFF, 0x03])


def test_deframe_pairs_bytes_and_holds_odd_tail():
    deframer = UartDeframer()
    words = deframer.feed(bytes([0xFF, 0x03, 0x00]))
    assert words == [0x03FF]
    assert deframer.pending_bytes == 1
    assert deframer.feed(bytes([0x02])) == [0x0200]
    assert deframer.pending_bytes == 0


def test_two_bytes_take_20_bit_times_at_115200():
    assert uart_transfer_time_s(2) == pytest.approx(20 / 115200, rel=1e-12)
    assert uart_transfer_time_s(2) == pytest.approx(173.6e-6, abs=0.1e-6)


@given(word=st.integers(0, 0x03FF))
def test_frame_deframe_round_trip(word):
    assert UartDeframer().feed(frame_uart(word)) == [word]


# -- geometry --------------------------------------------------------------------


def test_tof_zero_time_zero_distance():
    assert tof_distance(0.0) == 0.0


def test_tof_inverse_round_trip():
    t = echo_round_trip_s(2.5, 346.0)
    assert tof_distance(t, 346.0) == pytest.approx(2.5, abs=1e-12)


def test_tof_negative_time_rejected():
    with pytest.raises(GeometryError):
        tof_distance(-1e-6)


def test_max_sampling_rate_at_bound():
    assert max_sampling_rate(2.5, 346.0) == pytest.approx(69.2, abs=0.05)


def test_max_sampling_rate_formula():
    assert max_sampling_rate(1.0, 346.0) == pytest.approx(173.0, abs=1e-9)
    assert max_sampling_rate(2.5, 692.0) == pytest.approx(2 * 69.2, abs=1e-9)


def test_rate_times_round_trip_is_one():
    for d in (0.3, 1.0, 2.5):
        assert max_sampling_rate(d) * echo_round_trip_s(d) == pytest.approx(1.0, abs=1e-12)


def test_beam_theta_zero_both_modes():
    for mode in BeamMode:
        d_x, d_y = beam_components(1.7, 0.0, mode)
        assert (d_x, d_y) == pytest.approx((1.7, 0.0), abs=1e-12)


def test_beam_45_degrees_paper_mode():
    d_x, d_y = beam_components(1.0, 45.0, BeamMode.PAPER)
    assert d_y == pytest.approx(1.0, abs=1e-9)
    assert d_x == pytest.approx(0.70711, abs=1e-5)


def test_beam_45_degrees_trig_mode_is_consistent():
    d_x, d_y = beam_components(1.0, 45.0, BeamMode.TRIG)
    assert d_x == pytest.approx(0.70711, abs=1e-5)
    assert d_y == pytest.approx(0.70711, abs=1e-5)


@given(d=st.floats(0.0, 2.5), theta=st.floats(0.0, 120.0))
def test_trig_mode_components_recompose(d, theta):
    d_x, d_y = beam_components(d, theta, BeamMode.TRIG)
    assert d_x * d_x + d_y * d_y == pytest.approx(d * d, abs=1e-12)


def test_paper_mode_uses_tan_and_cos():
    for theta in (10.0, 30.0, 60.0, 89.0, 100.0, 120.0):
        d_x, d_y = beam_components(2.0, theta, BeamMode.PAPER)
        assert d_y == pytest.approx(2.0 * math.tan(math.radians(theta)), rel=1e-12)
        assert d_x == pytest.approx(2.0 * math.cos(math.radians(theta)), rel=1e-12)


def test_paper_mode_singularity_at_90():
    with pytest.raises(DomainError):
        beam_components(1.0, 90.0, BeamMode.PAPER)
    beam_components(1.0, 90.0, BeamMode.TRIG)  # fine in trig mode


def test_beam_range_validated():
    with pytest.raises(GeometryError):
        beam_components(1.0, 121.0)
    with pytest.raises(GeometryError):
        beam_components(-0.1, 10.0)


# -- sweep schedule -----------------------------------------------------------------


def test_sweep_angles_truncate_final_step():
    cfg = SweepConfig(step_deg=50.0)
    assert sweep_angles(cfg) == [0.0, 50.0, 100.0, 120.0]


def test_step_60_travel_times():
    schedule = sweep_schedule(SweepConfig(step_deg=60.0))
    assert [s.theta_deg for s in schedule.stops] == [0.0, 60.0, 120.0]
    assert [s.travel_s for s in schedule.stops] == pytest.approx([0.0, 0.14, 0.14], abs=1e-12)
    dwell = SweepConfig(step_deg=60.0).dwell_s
    assert [s.earliest_time_s for s in schedule.stops] == pytest.approx(
        [0.0, 0.14 + dwell, 0.28 + 2 * dwell], abs=1e-9
    )


def test_step_120_is_a_single_028s_move():
    schedule = sweep_schedule(SweepConfig(step_deg=120.0))
    assert [s.theta_deg for s in schedule.stops] == [0.0, 120.0]
    assert schedule.total_travel_s == pytest.approx(0.28, abs=1e-9)


def test_step_30_gives_four_moves_of_007s():
    schedule = sweep_schedule(SweepConfig(step_deg=30.0))
    moves = [s.travel_s for s in schedule.stops[1:]]
    assert moves == pytest.approx([0.07] * 4, abs=1e-12)


@pytest.mark.parametrize("step", [0.5, 1.0, 7.0, 13.0, 30.0, 45.0, 60.0, 120.0])
def test_total_travel_is_028_for_any_step(step):
    schedule = sweep_schedule(SweepConfig(step_deg=step))
    assert schedule.total_travel_s == pytest.approx(0.28, abs=1e-9)


def test_sweep_times_nondecreasing():
    schedule = sweep_schedule(SweepConfig(step_deg=7.0))
    times = [s.earliest_time_s for s in schedule.stops]
    assert times == sorted(times)


def test_dwell_is_one_full_round_trip():
    cfg = SweepConfig()
    assert cfg.dwell_s == pytest.approx(2 * 2.5 / 346.0, abs=1e-12)


def test_sweep_config_validation():
    with pytest.raises(SweepConfigError):
        SweepConfig(theta_min_deg=10.0, theta_max_deg=5.0)
    with pytest.raises(SweepConfigError):
        SweepConfig(step_deg=0.0)
    with pytest.raises(SweepConfigError):
        SweepConfig(theta_max_deg=130.0)


# -- scan conversion ------------------------------------------------------------------


def test_no_echo_passthrough():
    points = scan_to_points([(10.0, None)])
    assert points[0].classification is EchoClass.NO_ECHO
    assert points[0].d_ideal_m is None


def test_theta_zero_is_climbable():
    t = echo_round_trip_s(1.0)
    points = scan_to_points([(0.0, t)], climb_height_m=0.05)
    assert points[0].classification is EchoClass.CLIMBABLE
    assert points[0].d_y_m == 0.0


def test_theta_45_one_meter_is_obstacle_in_paper_mode():
    t = echo_round_trip_s(1.0)
    points = scan_to_points([(45.0, t)], climb_height_m=0.05, mode=BeamMode.PAPER)
    assert points[0].classification is EchoClass.OBSTACLE
    assert points[0].d_y_m == pytest.approx(1.0, abs=1e-9)


def test_demo_scene_echoes_past_90_degrees_are_obstacles_in_paper_mode():
    # d_y = d * tan(theta) is negative past 90 degrees; its sign once made
    # both of these echoes climbable however near they were
    raw, config, climb = load_scan_scene(json.loads(packaged_config_text("demo_scan_scene.json")))
    points = {p.theta_deg: p for p in scan_to_points(raw, config, climb, BeamMode.PAPER)}
    assert points[105.0].d_ideal_m == pytest.approx(2.4)
    assert points[105.0].d_y_m < 0 and points[105.0].classification is EchoClass.OBSTACLE
    assert points[120.0].d_ideal_m == pytest.approx(0.8)
    assert points[120.0].d_y_m < 0 and points[120.0].classification is EchoClass.OBSTACLE


@given(
    st.floats(90.0, 120.0, exclude_min=True),
    st.floats(0.0, 2.5),
    st.floats(0.0, 1.0),
)
def test_paper_mode_past_90_degrees_classifies_by_the_magnitude_of_d_y(theta, distance, climb):
    (point,) = scan_to_points([(theta, echo_round_trip_s(distance))], climb_height_m=climb,
                              mode=BeamMode.PAPER)
    if point.classification is EchoClass.NO_ECHO:  # rounding put it past d_max
        assert point.d_ideal_m is None and distance > 2.5 - 1e-9
        return
    assert point.d_y_m <= 0.0
    expected = EchoClass.CLIMBABLE if -point.d_y_m <= climb else EchoClass.OBSTACLE
    assert point.classification is expected


def test_beyond_d_max_is_no_echo():
    t = echo_round_trip_s(3.0)  # beyond the 2.5 m bound
    points = scan_to_points([(20.0, t)])
    assert points[0].classification is EchoClass.NO_ECHO


def test_csv_export_shape():
    t = echo_round_trip_s(1.0)
    csv_text = scan_points_to_csv(scan_to_points([(0.0, t), (30.0, None)]))
    lines = csv_text.strip().split("\n")
    assert lines[0] == "theta_deg,T_s,d_ideal_m,d_x_m,d_y_m,classification"
    assert len(lines) == 3
    assert lines[2].startswith("30,,,,,no_echo")
