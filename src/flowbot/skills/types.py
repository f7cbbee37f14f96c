"""Skill descriptors, interpretations and the slot-filling session."""

from __future__ import annotations

from enum import Enum
from typing import Optional

from ..flowcore.record import FrozenRecord, Record


class SkillError(Exception):
    pass


class DuplicateSkillError(SkillError):
    pass


class SkillNotFoundError(SkillError):
    pass


class MissingEntitiesError(SkillError):
    def __init__(self, skill_id: str, missing: list[str]):
        self.skill_id = skill_id
        self.missing = list(missing)
        super().__init__(f"skill {skill_id!r} missing entities: {missing}")


class SkillLevel(Enum):
    HIGH_LEVEL = "high"
    LOW_LEVEL = "low"


class SkillDescriptor(FrozenRecord):
    """What a skill needs before it can run: the names of its required and
    optional entities, and its level.

    High-level skills see only the abstract capability facade; low-level
    skills additionally get device outputs (e.g. the locomotion stream).
    """

    __slots__ = _fields = ("id", "required_entities", "optional_entities", "level")

    def __init__(
        self,
        id: str,
        required_entities: tuple[str, ...] = (),
        optional_entities: tuple[str, ...] = (),
        level: SkillLevel = SkillLevel.HIGH_LEVEL,
    ):
        if not id:
            raise SkillError("skill id must be nonempty")
        req, opt = tuple(required_entities), tuple(optional_entities)
        if "" in req + opt:
            raise SkillError(f"skill {id!r} declares an empty entity name")
        if len(set(req)) != len(req) or len(set(opt)) != len(opt):
            raise SkillError(f"skill {id!r} declares a duplicate entity name")
        clash = set(req) & set(opt)
        if clash:
            raise SkillError(f"skill {id!r}: entities both required and optional: {sorted(clash)}")
        self._init(id, req, opt, level)

    @property
    def declared_entity_names(self) -> set[str]:
        return set(self.required_entities) | set(self.optional_entities)

    def missing_from(self, entities: dict) -> list[str]:
        return [name for name in self.required_entities if name not in entities]


class Interpretation(FrozenRecord):
    """A recognized command: skill id, entity values and the recognizer's
    confidence. An empty skill_id marks a bare entity answer to the skill
    manager's open session."""

    __slots__ = _fields = ("skill_id", "entities", "confidence")

    def __init__(self, skill_id: str, entities: Optional[dict] = None, confidence: float = 1.0):
        if not (0.0 <= confidence <= 1.0):
            raise SkillError(f"confidence {confidence} outside [0, 1]")
        self._init(skill_id, {} if entities is None else entities, confidence)


class SkillSession(Record):
    """The skill manager's open slot-filling session: the entities filled
    so far, the required ones still missing (the first is the one prompted
    for) and the reprompts spent. It lives only while it is open."""

    __slots__ = _fields = ("descriptor", "filled", "missing", "reprompts_used")

    def __init__(
        self,
        descriptor: SkillDescriptor,
        filled: Optional[dict] = None,
        missing: Optional[list[str]] = None,
        reprompts_used: int = 0,
    ):
        self._init(
            descriptor, {} if filled is None else filled, [] if missing is None else missing,
            reprompts_used,
        )
