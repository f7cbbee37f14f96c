"""Skill registry: exact-match string keys to handlers, with dispatch.

Dispatch runs the handler to completion and returns its value, whatever the
descriptor's execution policy; ``Deferred`` is kept because catalogs declare
it and skill events report it. Exactly one SkillInvoked event is logged per
dispatch; a handler that raises logs SkillFailed, and dispatch re-raises its
exception. The registry keeps no time: whoever listens to its events stamps
them, as the skill_manager node does with the run's ``now``.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional

from .types import (
    DuplicateSkillError,
    MissingEntitiesError,
    SkillDescriptor,
    SkillNotFoundError,
)


class SkillEvent(NamedTuple):
    kind: str  # "invoked" | "failed"
    skill_id: str
    entities: dict
    policy: str
    error: Optional[str] = None

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "skill_id": self.skill_id,
            "entities": dict(self.entities),
            "policy": self.policy,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


class SkillRegistry:
    """Hash map of skill id -> (descriptor, handler). Lookup is exact-match.

    Registration happens during construction/wiring, before any dispatch.
    Events go only to ``event_listener``: a registry reused across runs keeps none.
    """

    def __init__(self):
        self._entries: dict[str, tuple[SkillDescriptor, Callable]] = {}
        self.event_listener: Optional[Callable[[SkillEvent], None]] = None

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

    def _log(self, event: SkillEvent) -> None:
        if self.event_listener is not None:
            self.event_listener(event)

    def dispatch(self, skill_id: str, entities: dict, context=None) -> Any:
        descriptor, handler = self.lookup(skill_id)
        missing = descriptor.missing_from(entities)
        if missing:
            raise MissingEntitiesError(skill_id, missing)
        policy = descriptor.execution_policy.value
        self._log(SkillEvent("invoked", skill_id, dict(entities), policy))
        try:
            return handler(dict(entities), context)
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
            self._log(SkillEvent("failed", skill_id, dict(entities), policy, error))
            raise
