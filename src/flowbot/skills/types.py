"""Skill descriptors, interpretations and the slot-filling session."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from ..flowcore.record import FrozenRecord, Record
from ..flowcore.schema import SchemaError, check_value, get_value, read_document


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


class EntityType(Enum):
    TEXT = "text"
    NUMBER = "number"
    DURATION = "duration"
    OBJECT_LABEL = "object_label"
    PERSON_NAME = "person_name"


class EntitySpec(NamedTuple):
    name: str
    type: EntityType = EntityType.TEXT


class ExecutionPolicy(Enum):
    INLINE = "inline"
    DEFERRED = "deferred"


class SkillLevel(Enum):
    HIGH_LEVEL = "high"
    LOW_LEVEL = "low"


class SkillDescriptor(FrozenRecord):
    """What a skill needs before it can run and how it executes.

    High-level skills see only the abstract capability facade; low-level
    skills additionally get device outputs (e.g. the locomotion stream).
    """

    __slots__ = _fields = ("id", "required_entities", "optional_entities", "execution_policy", "level")

    def __init__(
        self,
        id: str,
        required_entities: tuple[EntitySpec, ...] = (),
        optional_entities: tuple[EntitySpec, ...] = (),
        execution_policy: ExecutionPolicy = ExecutionPolicy.INLINE,
        level: SkillLevel = SkillLevel.HIGH_LEVEL,
    ):
        if not id:
            raise SkillError("skill id must be nonempty")
        required_entities, optional_entities = tuple(required_entities), tuple(optional_entities)
        req = [e.name for e in required_entities]
        opt = [e.name for e in optional_entities]
        if len(set(req)) != len(req) or len(set(opt)) != len(opt):
            raise SkillError(f"skill {id!r} declares a duplicate entity name")
        clash = set(req) & set(opt)
        if clash:
            raise SkillError(f"skill {id!r}: entities both required and optional: {sorted(clash)}")
        self._init(id, required_entities, optional_entities, execution_policy, level)

    @property
    def declared_entity_names(self) -> set[str]:
        return {e.name for e in self.required_entities} | {e.name for e in self.optional_entities}

    def missing_from(self, entities: dict) -> list[str]:
        return [e.name for e in self.required_entities if e.name not in entities]


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


def _key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _enum(cls: type, doc: dict, key: str, path: str, default: str) -> Enum:
    value = get_value(doc, key, path, str, default)
    try:
        return cls(value)
    except ValueError:
        names = ", ".join(m.value for m in cls)
        raise SchemaError(_key(path, key), f"must be one of {names}, got {value!r:.40}") from None


def descriptor_from_json(doc: dict, path: str = "") -> SkillDescriptor:
    """One catalog entry; a bad value raises :class:`SchemaError` naming its
    key below ``path``, e.g. ``[0].required_entities[1].name``."""
    check_value(doc, path or "$", dict)

    def entities(key: str) -> tuple[EntitySpec, ...]:
        specs = []
        for i, entity in enumerate(get_value(doc, key, path, list, [])):
            where = f"{_key(path, key)}[{i}]"
            check_value(entity, where, dict)
            name = get_value(entity, "name", where, str)
            specs.append(EntitySpec(name, _enum(EntityType, entity, "type", where, "text")))
        return tuple(specs)

    try:
        return SkillDescriptor(
            id=get_value(doc, "id", path, str),
            required_entities=entities("required_entities"),
            optional_entities=entities("optional_entities"),
            execution_policy=_enum(ExecutionPolicy, doc, "execution_policy", path, "inline"),
            level=_enum(SkillLevel, doc, "level", path, "high"),
        )
    except SkillError as exc:
        raise SchemaError(path or "$", str(exc)) from exc


def load_catalog(path) -> list[SkillDescriptor]:
    """Load skill descriptors from a JSON document (a list of objects).

    A document that is not JSON, or breaks the catalog schema, raises
    :class:`SchemaError` naming the offending key, e.g. ``[0].id``.
    """
    doc = check_value(read_document(path), "$", list)
    return [descriptor_from_json(entry, f"[{i}]") for i, entry in enumerate(doc)]
