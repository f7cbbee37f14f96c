"""Registry dispatch, skill descriptors and the slot-filling session."""

import pytest
from hypothesis import given, strategies as st

from flowbot.skills import (
    CapabilityError,
    DuplicateSkillError,
    Execute,
    Interpretation,
    LowLevelContext,
    ManagerConfig,
    MissingEntitiesError,
    Prompt,
    Reject,
    RejectReason,
    SkillContext,
    SkillDescriptor,
    SkillError,
    SkillManager,
    SkillNotFoundError,
    SkillRegistry,
    register_demo_skills,
)


def make_registry():
    reg = SkillRegistry()
    reg.register(SkillDescriptor(id="get_time"), lambda entities, ctx: "12:00")
    reg.register(
        SkillDescriptor(id="find_object", required_entities=("object_label",)),
        lambda entities, ctx: f"found {entities['object_label']}",
    )
    return reg


# -- registry ----------------------------------------------------------------


def test_register_and_lookup():
    reg = make_registry()
    descriptor, handler = reg.lookup("get_time")
    assert descriptor.id == "get_time"
    assert handler({}, None) == "12:00"


def test_duplicate_registration_rejected():
    reg = make_registry()
    with pytest.raises(DuplicateSkillError):
        reg.register(SkillDescriptor(id="get_time"), lambda e, c: None)


def test_lookup_unknown_is_not_found():
    with pytest.raises(SkillNotFoundError):
        make_registry().lookup("unknown")


def test_lookup_is_exact_match_only():
    reg = make_registry()
    assert "get_time" in reg
    assert "get_tim" not in reg
    assert "GET_TIME" not in reg


def test_descriptor_invariants():
    with pytest.raises(SkillError):
        SkillDescriptor(id="")
    with pytest.raises(SkillError):
        SkillDescriptor(id="x", required_entities=("a",), optional_entities=("a",))


def test_dispatch_inline_returns_the_handler_value():
    assert make_registry().dispatch("get_time", {}) == "12:00"


def test_dispatch_missing_entities():
    reg = make_registry()
    with pytest.raises(MissingEntitiesError) as exc:
        reg.dispatch("find_object", {})
    assert exc.value.missing == ["object_label"]


def test_dispatch_not_found():
    with pytest.raises(SkillNotFoundError):
        make_registry().dispatch("nope", {})


def test_handler_failure_passes_through_dispatch():
    reg = SkillRegistry()

    def broken(entities, ctx):
        raise ValueError("nope")

    reg.register(SkillDescriptor(id="bad"), broken)
    with pytest.raises(ValueError, match="nope"):
        reg.dispatch("bad", {})


# -- manager -----------------------------------------------------------------


def test_handle_executes_when_entities_complete():
    mgr = SkillManager(make_registry())
    action = mgr.handle(Interpretation("get_time", {}, confidence=0.9))
    assert action == Execute(skill_id="get_time", entities={})


def test_handle_prompts_for_missing_entity():
    mgr = SkillManager(make_registry())
    action = mgr.handle(Interpretation("find_object", {}, confidence=0.9))
    assert isinstance(action, Prompt)
    assert action.entity_name == "object_label"


def test_handle_rejects_low_confidence():
    mgr = SkillManager(make_registry())
    action = mgr.handle(Interpretation("get_time", {}, confidence=0.3))
    assert action == Reject(RejectReason.LOW_CONFIDENCE, detail="0.3 < 0.5")


def test_an_interpretation_below_the_floor_leaves_the_open_session_alone():
    mgr = SkillManager(make_registry())
    mgr.handle(Interpretation("find_object", {}, confidence=0.9))
    session = mgr.session
    for low in (Interpretation("get_time", {}, 0.1), Interpretation("", {"object_label": "keys"}, 0.0)):
        assert mgr.handle(low) == Reject(RejectReason.LOW_CONFIDENCE, detail=f"{low.confidence:g} < 0.5")
        assert mgr.session is session
        assert (session.filled, session.missing, session.reprompts_used) == ({}, ["object_label"], 0)
    action = mgr.handle(Interpretation("", {"object_label": "keys"}))
    assert action == Execute(skill_id="find_object", entities={"object_label": "keys"})


def test_handle_rejects_unknown_skill():
    mgr = SkillManager(make_registry())
    action = mgr.handle(Interpretation("fly_to_moon", {}, confidence=1.0))
    assert isinstance(action, Reject) and action.reason is RejectReason.UNKNOWN_SKILL


def test_a_bare_answer_with_no_open_session_is_rejected_naming_its_entity_keys():
    mgr = SkillManager(make_registry())
    bare = Interpretation("", {"object_label": "keys"})
    assert mgr.handle(bare) == Reject(RejectReason.NO_OPEN_SESSION, detail="object_label")
    assert mgr.handle(Interpretation("", {"when": "10m", "note": "x"})) == Reject(
        RejectReason.NO_OPEN_SESSION, detail="note,when"
    )
    assert mgr.handle(Interpretation("", {})) == Reject(RejectReason.NO_OPEN_SESSION, detail="")
    # once the answer it was waiting for closes the session, the same answer again has none
    mgr.handle(Interpretation("find_object", {}, confidence=1.0))
    assert isinstance(mgr.handle(bare), Execute)
    assert mgr.handle(bare) == Reject(RejectReason.NO_OPEN_SESSION, detail="object_label")
    assert mgr.session is None


def test_answer_fills_slot_then_executes():
    mgr = SkillManager(make_registry())
    mgr.handle(Interpretation("find_object", {}, confidence=1.0))
    assert mgr.session is not None
    action = mgr.handle(Interpretation("", {"object_label": "keys"}))
    assert action == Execute(skill_id="find_object", entities={"object_label": "keys"})
    assert mgr.session is None


def test_prompt_order_follows_declaration_order():
    reg = SkillRegistry()
    reg.register(
        SkillDescriptor(id="multi", required_entities=("first", "second", "third")),
        lambda e, c: None,
    )
    mgr = SkillManager(reg)
    action = mgr.handle(Interpretation("multi", {"second": "x"}, confidence=1.0))
    assert action.entity_name == "first"
    action = mgr.handle(Interpretation("", {"first": "a"}))
    assert action.entity_name == "third"


def test_two_timeouts_with_reprompt_limit_one_aborts():
    mgr = SkillManager(make_registry(), ManagerConfig(reprompt_limit=1))
    mgr.handle(Interpretation("find_object", {}, confidence=1.0))
    again = mgr.timeout()
    assert isinstance(again, Prompt)
    final = mgr.timeout()
    assert isinstance(final, Reject) and final.reason is RejectReason.SESSION_ABORTED
    assert mgr.session is None


def test_request_for_another_skill_aborts_the_session_and_is_handled():
    mgr = SkillManager(make_registry())
    mgr.handle(Interpretation("find_object", {}, confidence=1.0))
    action = mgr.handle(Interpretation("get_time", {}, confidence=1.0))
    assert action == Execute(skill_id="get_time", entities={})
    assert mgr.session is None


def test_request_for_the_open_skill_answers_the_session():
    mgr = SkillManager(make_registry())
    mgr.handle(Interpretation("find_object", {}, confidence=1.0))
    session = mgr.session
    again = mgr.handle(Interpretation("find_object", {}, confidence=1.0))
    assert again == Prompt("object_label", "What object label for find_object?")
    assert mgr.session is session and session.reprompts_used == 1


def test_unknown_skill_barges_in_and_is_rejected():
    mgr = SkillManager(make_registry())
    mgr.handle(Interpretation("find_object", {}, confidence=1.0))
    action = mgr.handle(Interpretation("fly_to_moon", {}, confidence=1.0))
    assert action == Reject(RejectReason.UNKNOWN_SKILL, detail="fly_to_moon")
    assert mgr.session is None


def test_timeout_with_no_open_session_errors():
    mgr = SkillManager(make_registry())
    with pytest.raises(SkillError, match="no session is open"):
        mgr.timeout()
    mgr.handle(Interpretation("find_object", {}, confidence=1.0))
    assert isinstance(mgr.handle(Interpretation("", {"object_label": "keys"})), Execute)
    with pytest.raises(SkillError, match="no session is open"):
        mgr.timeout()


def test_unhelpful_answer_reprompts_same_entity():
    mgr = SkillManager(make_registry())
    mgr.handle(Interpretation("find_object", {}, confidence=1.0))
    again = mgr.handle(Interpretation("", {"irrelevant": 1}))
    assert isinstance(again, Prompt) and again.entity_name == "object_label"
    assert mgr.session.reprompts_used == 1


entity_names = st.sampled_from(["alpha", "beta", "gamma", "delta"])


@given(
    required=st.lists(entity_names, unique=True, max_size=4),
    provided=st.dictionaries(entity_names, st.integers(0, 9), max_size=4),
)
def test_handler_only_runs_with_all_required_entities(required, provided):
    reg = SkillRegistry()
    seen = []
    reg.register(
        SkillDescriptor(id="s", required_entities=required),
        lambda entities, ctx: seen.append(dict(entities)),
    )
    try:
        reg.dispatch("s", provided)
    except MissingEntitiesError as exc:
        assert set(exc.missing) == {n for n in required if n not in provided}
        assert seen == []
    else:
        assert all(n in seen[0] for n in required)


@given(
    answers=st.lists(
        st.one_of(
            st.none(),  # timeout
            st.dictionaries(entity_names, st.integers(0, 9), max_size=3),
        ),
        max_size=8,
    )
)
def test_every_opened_session_terminates_in_execute_or_abort(answers):
    reg = SkillRegistry()
    reg.register(
        SkillDescriptor(id="s", required_entities=("alpha", "beta")),
        lambda e, c: None,
    )
    mgr = SkillManager(reg, ManagerConfig(reprompt_limit=2))
    mgr.handle(Interpretation("s", {}, confidence=1.0))
    session = mgr.session
    outcome = None
    for answer in answers:
        if mgr.session is None:
            break
        action = mgr.timeout() if answer is None else mgr.handle(Interpretation("", answer))
        if isinstance(action, (Execute, Reject)):
            outcome = action
            break
    if outcome is None:
        assert mgr.session is session  # ran out of scripted answers
    elif isinstance(outcome, Execute):
        assert mgr.session is None
        assert {"alpha", "beta"} <= set(outcome.entities)
    else:
        assert outcome.reason is RejectReason.SESSION_ABORTED
        assert mgr.session is None


# -- facades and catalog -------------------------------------------------------


def test_high_level_facade_has_no_device_access():
    spoken = []
    ctx = SkillContext(speak_fn=spoken.append)
    ctx.speak("hello")
    assert spoken == ["hello"]
    assert not hasattr(ctx, "emit_locomotion")


def test_low_level_facade_requires_wired_output():
    ctx = LowLevelContext(speak_fn=lambda t: None)
    with pytest.raises(CapabilityError):
        ctx.emit_locomotion(None)


def test_demo_skill_set_registers():
    reg = SkillRegistry()
    register_demo_skills(reg)
    for skill_id in ("get_time", "find_object", "find_person", "call_phone", "drive"):
        assert skill_id in reg


@pytest.mark.parametrize(
    "skill_id, entities, spoken, notified",
    [
        ("find_object", {"object_label": "keys"}, "looking for the keys", "search_started:object:keys"),
        ("find_person", {"person_name": "ada"}, "looking for ada", "search_started:person:ada"),
        ("call_phone", {"contact_name": "bob"}, "calling bob", "call_started:bob"),
    ],
)
def test_search_and_call_demo_skills_speak_notify_and_return_their_target(skill_id, entities, spoken, notified):
    reg = SkillRegistry()
    register_demo_skills(reg)
    said, notes = [], []
    ctx = SkillContext(speak_fn=said.append, notify_fn=notes.append)
    assert reg.dispatch(skill_id, entities, context=ctx) == next(iter(entities.values()))
    assert (said, notes) == ([spoken], [notified])


def test_drive_demo_skill_refuses_an_unknown_direction():
    reg = SkillRegistry()
    register_demo_skills(reg)
    sent = []
    ctx = LowLevelContext(speak_fn=lambda text: None, locomotion_fn=sent.append)
    with pytest.raises(ValueError, match="unknown drive direction 'sideways'"):
        reg.dispatch("drive", {"direction": "sideways", "speed": 10}, context=ctx)
    assert sent == []


def test_schedule_demo_skill_keeps_in_memory_state():
    reg = SkillRegistry()
    register_demo_skills(reg)
    spoken = []
    ctx = SkillContext(speak_fn=spoken.append)
    reg.dispatch("schedule_note", {"note": "water plants", "when": "18:00"}, context=ctx)
    assert ctx.schedule_store == [{"when": "18:00", "note": "water plants"}]
    assert spoken
