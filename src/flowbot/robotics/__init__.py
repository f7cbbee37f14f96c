"""Locomotion wire codec and obstacle-scan geometry.

A public name is imported from its submodule on first use, so the run path,
which needs ``locomotion`` and ``geometry``, does not load ``sweep``.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "geometry": (
        "BeamMode", "DomainError", "GeometryError", "SPEED_OF_SOUND_MPS", "beam_components",
        "echo_round_trip_s", "max_sampling_rate", "tof_distance",
    ),
    "locomotion": (
        "BITS_PER_BYTE_8N1", "CodecError", "Direction", "LocomotionCommand", "MalformedPacket",
        "UART_BAUD", "UartDeframer", "decode_locomotion", "encode_locomotion", "frame_uart",
        "uart_transfer_time_s",
    ),
    "sweep": (
        "EchoClass", "ScanPoint", "SweepConfig", "SweepConfigError", "SweepSchedule", "SweepStop",
        "scan_points_to_csv", "scan_to_points", "sweep_angles", "sweep_schedule",
    ),
})
