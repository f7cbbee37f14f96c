"""Skill registry: exact-match string keys to handlers, with dispatch.

Dispatch looks the skill up, checks its required entities and returns the
handler's value. A handler's exception passes through unchanged. The
registry keeps no log and no time: the skill_manager node records each
invocation and failure with the run's ``now``.
"""

from __future__ import annotations

from typing import Any, Callable

from .types import (
    DuplicateSkillError,
    MissingEntitiesError,
    SkillDescriptor,
    SkillNotFoundError,
)


class SkillRegistry:
    """Hash map of skill id -> (descriptor, handler). Lookup is exact-match.

    Registration happens during construction/wiring, before any dispatch.
    Dispatch changes nothing here, so a registry can be reused across runs.
    """

    def __init__(self):
        self._entries: dict[str, tuple[SkillDescriptor, Callable]] = {}

    def register(self, descriptor: SkillDescriptor, handler: Callable) -> None:
        if descriptor.id in self._entries:
            raise DuplicateSkillError(f"skill already registered: {descriptor.id!r}")
        self._entries[descriptor.id] = (descriptor, handler)

    def __contains__(self, skill_id: str) -> bool:
        return skill_id in self._entries

    def lookup(self, skill_id: str) -> tuple[SkillDescriptor, Callable]:
        try:
            return self._entries[skill_id]
        except KeyError:
            raise SkillNotFoundError(f"no skill registered under {skill_id!r}") from None

    def dispatch(self, skill_id: str, entities: dict, context=None) -> Any:
        descriptor, handler = self.lookup(skill_id)
        missing = descriptor.missing_from(entities)
        if missing:
            raise MissingEntitiesError(skill_id, missing)
        return handler(dict(entities), context)
