"""Built-in demo skills and the capability facades handlers receive.

High-level handlers get speak/notify/query_state plus an in-memory schedule
store; low-level handlers additionally get the locomotion output. Side
effects are simulated: they land in the facade's logs or device sinks.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..flowcore.record import Record
from ..robotics.locomotion import Direction, LocomotionCommand
from .registry import SkillRegistry
from .types import SkillDescriptor, SkillLevel


class CapabilityError(RuntimeError):
    pass


class SkillContext(Record):
    """Abstract facade injected into high-level skill handlers."""

    __slots__ = _fields = ("speak_fn", "notify_fn", "state", "schedule_store")

    def __init__(
        self,
        speak_fn: Callable[[str], None],
        notify_fn: Optional[Callable[[str], None]] = None,
        state: Optional[dict] = None,
        schedule_store: Optional[list] = None,
    ):
        self.speak_fn = speak_fn
        self.notify_fn = notify_fn
        self.state = {} if state is None else state
        self.schedule_store = [] if schedule_store is None else schedule_store

    def speak(self, text: str) -> None:
        self.speak_fn(text)

    def notify(self, text: str) -> None:
        (self.notify_fn or self.speak_fn)(text)

    def query_state(self, key: str):
        return self.state.get(key)

    def schedule_note(self, when: str, note: str) -> None:
        self.schedule_store.append({"when": when, "note": note})


class LowLevelContext(SkillContext):
    """Facade extension for developer skills with device access."""

    __slots__ = ("locomotion_fn",)
    _fields = SkillContext._fields + __slots__

    def __init__(
        self,
        speak_fn: Callable[[str], None],
        notify_fn: Optional[Callable[[str], None]] = None,
        state: Optional[dict] = None,
        schedule_store: Optional[list] = None,
        locomotion_fn: Optional[Callable[[LocomotionCommand], None]] = None,
    ):
        super().__init__(speak_fn, notify_fn, state, schedule_store)
        self.locomotion_fn = locomotion_fn

    def emit_locomotion(self, cmd: LocomotionCommand) -> None:
        if self.locomotion_fn is None:
            raise CapabilityError("no locomotion output wired into this context")
        self.locomotion_fn(cmd)


def _format_hms(t_us: int) -> str:
    seconds = int(t_us // 1_000_000)
    return f"{seconds // 3600:02d}:{(seconds % 3600) // 60:02d}:{seconds % 60:02d}"


def get_time_handler(entities, ctx: SkillContext):
    t_us = ctx.query_state("time_us") or 0
    text = f"the time is {_format_hms(t_us)}"
    ctx.speak(text)
    return text


def find_object_handler(entities, ctx: SkillContext):
    label = entities["object_label"]
    ctx.speak(f"looking for the {label}")
    ctx.notify(f"search_started:object:{label}")
    return label


def find_person_handler(entities, ctx: SkillContext):
    name = entities["person_name"]
    ctx.speak(f"looking for {name}")
    ctx.notify(f"search_started:person:{name}")
    return name


def call_phone_handler(entities, ctx: SkillContext):
    contact = entities["contact_name"]
    ctx.speak(f"calling {contact}")
    ctx.notify(f"call_started:{contact}")
    return contact


def schedule_note_handler(entities, ctx: SkillContext):
    ctx.schedule_note(when=str(entities["when"]), note=str(entities["note"]))
    ctx.speak(f"noted {entities['note']} for {entities['when']}")
    return len(ctx.schedule_store)


_DIRECTIONS = {
    "left_forward": Direction.LEFT_FORWARD,
    "left_backward": Direction.LEFT_BACKWARD,
    "right_forward": Direction.RIGHT_FORWARD,
    "right_backward": Direction.RIGHT_BACKWARD,
}


def drive_handler(entities, ctx: LowLevelContext):
    direction = _DIRECTIONS.get(str(entities["direction"]).lower())
    if direction is None:
        raise ValueError(f"unknown drive direction {entities['direction']!r}")
    speed = int(entities["speed"])
    cmd = LocomotionCommand(direction=direction, speed=speed)
    ctx.emit_locomotion(cmd)
    return cmd


def demo_descriptors() -> list[SkillDescriptor]:
    return [
        SkillDescriptor(id="get_time"),
        SkillDescriptor(id="find_object", required_entities=("object_label",)),
        SkillDescriptor(id="find_person", required_entities=("person_name",)),
        SkillDescriptor(id="call_phone", required_entities=("contact_name",)),
        SkillDescriptor(id="schedule_note", required_entities=("note", "when")),
        SkillDescriptor(id="drive", required_entities=("direction", "speed"), level=SkillLevel.LOW_LEVEL),
    ]


_HANDLERS = {
    "get_time": get_time_handler,
    "find_object": find_object_handler,
    "find_person": find_person_handler,
    "call_phone": call_phone_handler,
    "schedule_note": schedule_note_handler,
    "drive": drive_handler,
}


def register_demo_skills(registry: SkillRegistry) -> None:
    for descriptor in demo_descriptors():
        registry.register(descriptor, _HANDLERS[descriptor.id])
