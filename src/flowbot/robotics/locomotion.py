"""Drive-command wire codec: one 16-bit word per wheel-side action over UART.

Word layout (10 informative bits):

    bits 15..10  reserved, must be zero
    bits  9..8   direction: 00 LeftForward, 01 LeftBackward,
                            10 RightForward, 11 RightBackward
    bits  7..0   speed, normalized to [0, 255]; speed 0 means stop
                 regardless of direction

Wire order is little-endian (low byte first). At 115200 baud 8N1 each byte
occupies 10 bit-times, so one command word takes 20/115200 s on the wire.
"""

from __future__ import annotations

from enum import Enum

from ..flowcore.record import FrozenRecord

RESERVED_MASK = 0xFC00
DIRECTION_SHIFT = 8
SPEED_MASK = 0x00FF
UART_BAUD = 115200
BITS_PER_BYTE_8N1 = 10


class CodecError(ValueError):
    pass


class MalformedPacket(CodecError):
    pass


class Direction(Enum):
    LEFT_FORWARD = 0b00
    LEFT_BACKWARD = 0b01
    RIGHT_FORWARD = 0b10
    RIGHT_BACKWARD = 0b11


class LocomotionCommand(FrozenRecord):
    __slots__ = _fields = ("direction", "speed")

    def __init__(self, direction: Direction, speed: int):
        if not isinstance(direction, Direction):
            raise CodecError(f"invalid direction {direction!r}")
        if not (0 <= speed <= 255):
            raise CodecError(f"speed {speed} out of [0, 255]")
        self._init(direction, speed)

    @property
    def stopped(self) -> bool:
        return self.speed == 0


def encode_locomotion(cmd: LocomotionCommand) -> int:
    return (cmd.direction.value << DIRECTION_SHIFT) | cmd.speed


def decode_locomotion(word: int) -> LocomotionCommand:
    if not (0 <= word <= 0xFFFF):
        raise CodecError(f"word {word:#x} is not a 16-bit value")
    if word & RESERVED_MASK:
        raise MalformedPacket(f"reserved bits set in {word:#06x}")
    return LocomotionCommand(
        direction=Direction((word >> DIRECTION_SHIFT) & 0b11),
        speed=word & SPEED_MASK,
    )


def frame_uart(word: int) -> bytes:
    """Serialize one 16-bit word, low byte first."""
    if not (0 <= word <= 0xFFFF):
        raise CodecError(f"word {word:#x} is not a 16-bit value")
    return bytes((word & 0xFF, word >> 8))


class UartDeframer:
    """Reassembles 16-bit words from a byte stream; an odd trailing byte is
    held until its partner arrives."""

    def __init__(self):
        self._pending: int | None = None

    def feed(self, data: bytes) -> list[int]:
        words = []
        for byte in data:
            if self._pending is None:
                self._pending = byte
            else:
                words.append(self._pending | (byte << 8))
                self._pending = None
        return words

    @property
    def pending_bytes(self) -> int:
        return 0 if self._pending is None else 1


def uart_transfer_time_s(n_bytes: int, baud: int = UART_BAUD) -> float:
    """Wire time for n bytes at 8N1 (start + 8 data + stop bits per byte)."""
    if n_bytes < 0 or baud <= 0:
        raise CodecError("need n_bytes >= 0 and baud > 0")
    return n_bytes * BITS_PER_BYTE_8N1 / baud
