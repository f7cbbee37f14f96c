"""Servo sweep scheduling and polar-scan-to-obstacle-point conversion.

The servo travels at 0.14 s per 60 degrees (treated as a rate, so smaller
steps interpolate linearly); each stop then dwells one full echo round trip
at d_max before the next move.
"""

from __future__ import annotations

import io
import csv
from enum import Enum
from typing import NamedTuple, Optional

from ..flowcore.record import FrozenRecord

from .geometry import (
    BeamMode,
    GeometryError,
    SPEED_OF_SOUND_MPS,
    beam_components,
    max_sampling_rate,
    tof_distance,
)

SERVO_LATENCY_S_PER_60DEG = 0.14


class SweepConfigError(ValueError):
    pass


class SweepConfig(FrozenRecord):
    __slots__ = _fields = (
        "theta_min_deg", "theta_max_deg", "step_deg", "servo_latency_s_per_60deg", "c_air_mps", "d_max_m",
    )

    def __init__(
        self,
        theta_min_deg: float = 0.0,
        theta_max_deg: float = 120.0,
        step_deg: float = 30.0,
        servo_latency_s_per_60deg: float = SERVO_LATENCY_S_PER_60DEG,
        c_air_mps: float = SPEED_OF_SOUND_MPS,
        d_max_m: float = 2.5,
    ):
        if not (0.0 <= theta_min_deg < theta_max_deg <= 120.0):
            raise SweepConfigError("need 0 <= theta_min < theta_max <= 120")
        if step_deg <= 0:
            raise SweepConfigError("step_deg must be > 0")
        if servo_latency_s_per_60deg <= 0 or c_air_mps <= 0 or d_max_m <= 0:
            raise SweepConfigError("timing and range parameters must be > 0")
        self._init(theta_min_deg, theta_max_deg, step_deg, servo_latency_s_per_60deg, c_air_mps, d_max_m)

    @property
    def dwell_s(self) -> float:
        """Echo wait per stop: a full round trip at d_max."""
        return 1.0 / max_sampling_rate(self.d_max_m, self.c_air_mps)


def sweep_angles(config: SweepConfig) -> list[float]:
    """Stops from theta_min to theta_max; a non-dividing step truncates the
    final move at theta_max."""
    angles = []
    theta = config.theta_min_deg
    while theta < config.theta_max_deg - 1e-12:
        angles.append(theta)
        theta += config.step_deg
    angles.append(config.theta_max_deg)
    return angles


class SweepStop(NamedTuple):
    theta_deg: float
    earliest_time_s: float
    travel_s: float


class SweepSchedule(NamedTuple):
    stops: tuple[SweepStop, ...]
    total_travel_s: float
    total_time_s: float


def sweep_schedule(config: SweepConfig) -> SweepSchedule:
    """Earliest measurement time per stop: accumulated travel plus dwells."""
    rate_s_per_deg = config.servo_latency_s_per_60deg / 60.0
    stops = []
    t = 0.0
    travel_total = 0.0
    prev: Optional[float] = None
    for theta in sweep_angles(config):
        travel = 0.0 if prev is None else abs(theta - prev) * rate_s_per_deg
        travel_total += travel
        t += travel
        stops.append(SweepStop(theta_deg=theta, earliest_time_s=t, travel_s=travel))
        t += config.dwell_s
        prev = theta
    return SweepSchedule(stops=tuple(stops), total_travel_s=travel_total, total_time_s=t)


class EchoClass(Enum):
    NO_ECHO = "no_echo"
    CLIMBABLE = "climbable"
    OBSTACLE = "obstacle"


class ScanPoint(NamedTuple):
    theta_deg: float
    classification: EchoClass
    time_of_flight_s: Optional[float] = None
    d_ideal_m: Optional[float] = None
    d_x_m: Optional[float] = None
    d_y_m: Optional[float] = None


def scan_to_points(
    raw: list,
    config: SweepConfig = SweepConfig(),
    climb_height_m: float = 0.05,
    mode: BeamMode = BeamMode.PAPER,
) -> list[ScanPoint]:
    """Classify raw (theta, round-trip-time) echoes into obstacle points.

    ``raw`` entries are (theta_deg, t_s) with t_s None for no echo. Ranges
    beyond d_max are treated as no echo; a reachable point is climbable when
    the magnitude of its vertical component does not exceed
    ``climb_height_m``. In ``paper`` mode ``d_y = d * tan(theta)`` is
    negative past 90 degrees, and its magnitude, not its sign, says how far
    the echo is off the floor.
    """
    points = []
    for theta_deg, t_s in raw:
        if not (config.theta_min_deg <= theta_deg <= config.theta_max_deg):
            raise GeometryError(f"theta {theta_deg} outside sweep range")
        if t_s is None:
            points.append(ScanPoint(theta_deg=theta_deg, classification=EchoClass.NO_ECHO))
            continue
        d_ideal = tof_distance(t_s, config.c_air_mps)
        if d_ideal > config.d_max_m:
            points.append(ScanPoint(theta_deg=theta_deg, classification=EchoClass.NO_ECHO))
            continue
        d_x, d_y = beam_components(d_ideal, theta_deg, mode)
        cls = EchoClass.CLIMBABLE if abs(d_y) <= climb_height_m else EchoClass.OBSTACLE
        points.append(
            ScanPoint(
                theta_deg=theta_deg,
                classification=cls,
                time_of_flight_s=t_s,
                d_ideal_m=d_ideal,
                d_x_m=d_x,
                d_y_m=d_y,
            )
        )
    return points


def scan_points_to_csv(points: list[ScanPoint]) -> str:
    """CSV with columns theta_deg, T_s, d_ideal_m, d_x_m, d_y_m, classification."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["theta_deg", "T_s", "d_ideal_m", "d_x_m", "d_y_m", "classification"])
    for p in points:
        writer.writerow(
            [
                f"{p.theta_deg:g}",
                "" if p.time_of_flight_s is None else f"{p.time_of_flight_s:.9f}",
                "" if p.d_ideal_m is None else f"{p.d_ideal_m:.6f}",
                "" if p.d_x_m is None else f"{p.d_x_m:.6f}",
                "" if p.d_y_m is None else f"{p.d_y_m:.6f}",
                p.classification.value,
            ]
        )
    return out.getvalue()
