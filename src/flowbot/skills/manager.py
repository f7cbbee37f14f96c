"""Skill manager: confidence gating, dispatch decisions and slot filling.

A form-based dialogue with one active form: ``SkillManager.session`` is the
one open slot-filling session, or None. ``handle`` first rejects an
interpretation below ``confidence_floor``, a bare answer too, and leaves the
session as it is. With no session open, it rejects a bare answer (empty
``skill_id``) as ``no_open_session``, naming its sorted entity keys, and
takes any other interpretation as a fresh request. One with every required
entity present yields Execute; a missing entity opens a session and prompts
for slots in declaration order. While a session is open, ``handle`` takes
the interpretation as its answer, and a request naming a different skill
aborts the session and is handled as a fresh one (barge-in wins).
``timeout`` is a prompt left unanswered. An answer that does not name the
prompted slot, or a timeout, reprompts up to ``reprompt_limit`` times and
then aborts. A session ends in exactly one of Execute or a
``session_aborted`` Reject, and either sets ``session`` back to None.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, Union

from .registry import SkillRegistry
from .types import Interpretation, SkillError, SkillSession


class RejectReason(Enum):
    UNKNOWN_SKILL = "unknown_skill"
    LOW_CONFIDENCE = "low_confidence"
    SESSION_ABORTED = "session_aborted"
    NO_OPEN_SESSION = "no_open_session"


class Execute(NamedTuple):
    skill_id: str
    entities: dict


class Prompt(NamedTuple):
    entity_name: str
    prompt_text: str


class Reject(NamedTuple):
    reason: RejectReason
    detail: str = ""


Action = Union[Execute, Prompt, Reject]


class ManagerConfig(NamedTuple):
    confidence_floor: float = 0.5
    reprompt_limit: int = 2


class SkillManager:
    def __init__(self, registry: SkillRegistry, config: ManagerConfig = ManagerConfig()):
        self.registry = registry
        self.config = config
        self.session: Optional[SkillSession] = None

    def handle(self, interp: Interpretation) -> Action:
        """A fresh request, or the open session's answer."""
        if interp.confidence < self.config.confidence_floor:
            return Reject(
                RejectReason.LOW_CONFIDENCE,
                detail=f"{interp.confidence:g} < {self.config.confidence_floor:g}",
            )
        session = self.session
        if session is not None:
            if not interp.skill_id or interp.skill_id == session.descriptor.id:
                return self._answer(session, interp)
            self.session = None  # barge-in: the new request wins, the open session dies
        elif not interp.skill_id:
            return Reject(RejectReason.NO_OPEN_SESSION, detail=",".join(sorted(interp.entities)))
        if interp.skill_id not in self.registry:
            return Reject(RejectReason.UNKNOWN_SKILL, detail=interp.skill_id)
        descriptor, _ = self.registry.lookup(interp.skill_id)
        entities = {k: v for k, v in interp.entities.items() if k in descriptor.declared_entity_names}
        missing = descriptor.missing_from(entities)
        if not missing:
            return Execute(skill_id=descriptor.id, entities=entities)
        self.session = SkillSession(descriptor, filled=entities, missing=missing)
        return self._prompt()

    def timeout(self) -> Action:
        """The open session's prompt went unanswered."""
        if self.session is None:
            raise SkillError("no session is open")
        return self._reprompt_or_abort(why="timed out waiting for an answer")

    def _answer(self, session: SkillSession, interp: Interpretation) -> Action:
        provided = {
            k: v for k, v in interp.entities.items()
            if k in session.descriptor.declared_entity_names and k not in session.filled
        }
        prompted = session.missing[0]
        if prompted not in provided:
            return self._reprompt_or_abort(why=f"answer did not name {prompted!r}")
        session.filled.update(provided)
        session.missing = [name for name in session.missing if name not in provided]
        if session.missing:
            return self._prompt()
        self.session = None
        return Execute(skill_id=session.descriptor.id, entities=session.filled)

    def _prompt(self) -> Prompt:
        session = self.session
        entity = session.missing[0]
        return Prompt(
            entity_name=entity,
            prompt_text=f"What {entity.replace('_', ' ')} for {session.descriptor.id}?",
        )

    def _reprompt_or_abort(self, why: str) -> Action:
        session = self.session
        session.reprompts_used += 1
        if session.reprompts_used > self.config.reprompt_limit:
            self.session = None
            return Reject(
                RejectReason.SESSION_ABORTED,
                detail=f"giving up on {session.descriptor.id}: {why}",
            )
        return self._prompt()
