"""Skill manager: confidence gating, dispatch decisions and slot filling.

An interpretation with every required entity present yields Execute; a
missing entity opens a session and prompts for slots in declaration order.
A followup naming a different skill aborts the session and is handled as a
fresh interpretation (barge-in wins). Sessions end in exactly one of
Execute or Aborted.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import NamedTuple, Optional, Union

from .registry import SkillRegistry
from .types import (
    Interpretation,
    SessionState,
    SkillSession,
    UnknownSessionError,
)


class RejectReason(Enum):
    UNKNOWN_SKILL = "unknown_skill"
    LOW_CONFIDENCE = "low_confidence"
    SESSION_ABORTED = "session_aborted"


class Execute(NamedTuple):
    skill_id: str
    entities: dict
    session_id: Optional[str] = None


class Prompt(NamedTuple):
    session_id: str
    entity_name: str
    prompt_text: str


class Reject(NamedTuple):
    reason: RejectReason
    detail: str = ""


Action = Union[Execute, Prompt, Reject]

#: marker passed to followup() when the user said nothing in time
TIMEOUT = object()


class ManagerConfig(NamedTuple):
    confidence_floor: float = 0.5
    reprompt_limit: int = 2


class SkillManager:
    def __init__(self, registry: SkillRegistry, config: ManagerConfig = ManagerConfig()):
        self.registry = registry
        self.config = config
        self.sessions: dict[str, SkillSession] = {}
        self._ids = itertools.count(1)

    def active_session(self) -> Optional[SkillSession]:
        for session in self.sessions.values():
            if session.state is SessionState.FILLING:
                return session
        return None

    def handle(self, interp: Interpretation) -> Action:
        if interp.skill_id not in self.registry:
            return Reject(RejectReason.UNKNOWN_SKILL, detail=interp.skill_id)
        if interp.confidence < self.config.confidence_floor:
            return Reject(
                RejectReason.LOW_CONFIDENCE,
                detail=f"{interp.confidence:g} < {self.config.confidence_floor:g}",
            )
        descriptor, _ = self.registry.lookup(interp.skill_id)
        entities = {k: v for k, v in interp.entities.items() if k in descriptor.declared_entity_names}
        missing = descriptor.missing_from(entities)
        if not missing:
            return Execute(skill_id=descriptor.id, entities=entities)
        session = SkillSession(
            session_id=f"s{next(self._ids)}",
            descriptor=descriptor,
            filled=entities,
            missing=missing,
        )
        self.sessions[session.session_id] = session
        return self._prompt(session)

    def followup(self, session_id: str, answer: Union[Interpretation, object]) -> Action:
        """Advance a session with the user's answer, or TIMEOUT."""
        session = self.sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(f"no such session {session_id!r}")
        if session.state is not SessionState.FILLING:
            raise UnknownSessionError(f"session {session_id!r} is {session.state.value}, not filling")

        if answer is TIMEOUT:
            return self._reprompt_or_abort(session, why="timed out waiting for an answer")

        interp: Interpretation = answer
        if interp.skill_id and interp.skill_id != session.descriptor.id:
            # barge-in: the new request wins, the open session dies
            session.state = SessionState.ABORTED
            return self.handle(interp)

        provided = {
            k: v for k, v in interp.entities.items()
            if k in session.descriptor.declared_entity_names and k not in session.filled
        }
        prompted = session.missing[0]
        if prompted not in provided:
            return self._reprompt_or_abort(session, why=f"answer did not name {prompted!r}")
        session.filled.update(provided)
        session.missing = [name for name in session.missing if name not in provided]
        if session.missing:
            return self._prompt(session)
        session.state = SessionState.READY
        return Execute(
            skill_id=session.descriptor.id,
            entities=dict(session.filled),
            session_id=session.session_id,
        )

    def mark_done(self, session_id: str) -> None:
        self.sessions[session_id].state = SessionState.DONE

    def _prompt(self, session: SkillSession) -> Prompt:
        entity = session.missing[0]
        return Prompt(
            session_id=session.session_id,
            entity_name=entity,
            prompt_text=f"What {entity.replace('_', ' ')} for {session.descriptor.id}?",
        )

    def _reprompt_or_abort(self, session: SkillSession, why: str) -> Action:
        session.reprompts_used += 1
        if session.reprompts_used > self.config.reprompt_limit:
            session.state = SessionState.ABORTED
            return Reject(
                RejectReason.SESSION_ABORTED,
                detail=f"giving up on {session.descriptor.id}: {why}",
            )
        return self._prompt(session)
