"""Value-class semantics: every record keeps the behaviour of the dataclass it
replaced.

Each case gives a class, arguments for its fields in order, and the default
of every field left out. A case checks construction by position and by
keyword, field-wise ``==``, the ``Cls(field=value, ...)`` repr, and, for the
classes that were frozen, ``hash`` and ``AttributeError`` on assignment.
"""

import math

import numpy as np
import pytest

from flowbot.dsp import AudioBuffer, LogMelConfig, LogMelError, LogMelFeature, MixResult
from flowbot.flowcore import (
    AggregatorConfig,
    AggregatorConfigError,
    AggWindow,
    Diagnostic,
    GraphDef,
    GraphRunner,
    LatchDef,
    LatchState,
    LosslessPolicy,
    LossyPolicy,
    NodeDef,
    PortSpec,
    RunReport,
    SampleChunk,
    StopCondition,
    StreamConfigError,
    StreamDef,
    VirtualClock,
    WatchdogConfig,
)
from flowbot.harness import (
    Annotation,
    DeviceSample,
    ScenarioScript,
    harness_kind_registry,
    load_scenario,
    reference_pipeline,
    scenario_audio,
)
from flowbot.perception import (
    Identity,
    LayerSpec,
    LayerSpecError,
    ParamRow,
    ParamTable,
    QuantError,
    QuantParams,
    Unknown,
)
from flowbot.robotics import (
    CodecError,
    Direction,
    EchoClass,
    LocomotionCommand,
    ScanPoint,
    SweepConfig,
    SweepConfigError,
    SweepSchedule,
    SweepStop,
)
from flowbot.skills import (
    Execute,
    Interpretation,
    LowLevelContext,
    ManagerConfig,
    Prompt,
    Reject,
    RejectReason,
    SkillContext,
    SkillDescriptor,
    SkillError,
    SkillLevel,
    SkillSession,
)

SAMPLES = np.zeros(4)


def speak(text):
    pass


# (class, arguments in field order, defaults of the fields after them, frozen)
CASES = [
    # flowcore
    (PortSpec, (), {"type_tag": "any", "optional": False}, True),
    (Diagnostic, ("UnknownNodeKind", "node a", "no such kind"), {}, True),
    (WatchdogConfig, (), {"max_latency_us": None, "min_throughput_hz": None, "window_us": None}, True),
    (LossyPolicy, (4,), {"max_successive_misses": None}, True),
    (LosslessPolicy, (100,), {}, True),
    (AggregatorConfig, (16000, 4000, 16000), {}, True),
    (SampleChunk, (SAMPLES, 16000), {"scale": 1.0}, True),
    (AggWindow, (2, 8000, 16000, SAMPLES), {"scale": 1.0}, True),
    (NodeDef, ("mic", "audio_source"), {"params": {}}, True),
    (
        StreamDef,
        ("s", "a", "out", "b", "in", LossyPolicy(2)),
        {"watchdog": None},
        True,
    ),
    (LatchDef, ("s", "ctl"), {"initial_state": LatchState.CLOSED}, True),
    (GraphDef, (), {"nodes": (), "streams": (), "latches": ()}, True),
    (StopCondition, (), {"time_limit_us": None, "max_packets": None}, True),
    (
        RunReport,
        ("ok", "exhausted", 10, 0, {}, {}, [], [], "", {}, [], {}),
        {"failed_node": None},
        True,
    ),
    # dsp
    (AudioBuffer, (SAMPLES, 16000), {}, True),
    (
        LogMelConfig,
        (),
        {
            "n_mels": 40, "frame_len_samples": 400, "hop_samples": 160, "fft_size": 512,
            "fmin_hz": 20.0, "fmax_hz": 7600.0, "log_floor": 1e-10, "sample_rate_hz": 16000,
        },
        True,
    ),
    (LogMelFeature, (SAMPLES, SAMPLES), {}, True),
    (MixResult, (AudioBuffer(SAMPLES, 16000), 0.5, 10.0, 0), {}, True),
    # harness
    (DeviceSample, ("mic0", SampleChunk(SAMPLES, 16000)), {}, True),
    (Annotation, (1.0, 2.0), {}, True),
    (
        ScenarioScript,
        ({"synthetic": {"kind": "silence"}},),
        {"annotations": (), "interpreter_script": (), "time_limit_s": None, "seed": 0},
        True,
    ),
    # skills
    (
        SkillDescriptor,
        ("get_time",),
        {"required_entities": (), "optional_entities": (), "level": SkillLevel.HIGH_LEVEL},
        True,
    ),
    (Interpretation, ("get_time",), {"entities": {}, "confidence": 1.0}, True),
    (SkillSession, (SkillDescriptor("get_time"),), {"filled": {}, "missing": [], "reprompts_used": 0}, False),
    (Execute, ("get_time", {}), {}, True),
    (Prompt, ("when", "when?"), {}, True),
    (Reject, (RejectReason.UNKNOWN_SKILL,), {"detail": ""}, True),
    (ManagerConfig, (), {"confidence_floor": 0.5, "reprompt_limit": 2}, True),
    (SkillContext, (speak,), {"notify_fn": None, "state": {}, "schedule_store": []}, False),
    (
        LowLevelContext,
        (speak,),
        {"notify_fn": None, "state": {}, "schedule_store": [], "locomotion_fn": None},
        False,
    ),
    # perception
    (Identity, ("ada", 0.25), {}, True),
    (Unknown, (3.5,), {}, True),
    (QuantParams, (0.5,), {"zero_point": 0, "symmetric": True}, True),
    (LayerSpec, ("conv", 64, 24, 10, 1, 3, 1), {"in_features": None, "count_override": None}, True),
    (ParamRow, ("lin", 100, True), {}, True),
    (ParamTable, ((ParamRow("lin", 100, True),), 100), {}, True),
    # robotics
    (LocomotionCommand, (Direction.LEFT_FORWARD, 3), {}, True),
    (
        SweepConfig,
        (),
        {
            "theta_min_deg": 0.0, "theta_max_deg": 120.0, "step_deg": 30.0,
            "servo_latency_s_per_60deg": 0.14, "c_air_mps": 346.0, "d_max_m": 2.5,
        },
        True,
    ),
    (SweepStop, (30.0, 0.1, 0.07), {}, True),
    (SweepSchedule, ((SweepStop(30.0, 0.1, 0.07),), 0.07, 0.1), {}, True),
    (
        ScanPoint,
        (30.0, EchoClass.NO_ECHO),
        {"time_of_flight_s": None, "d_ideal_m": None, "d_x_m": None, "d_y_m": None},
        True,
    ),
]
IDS = [case[0].__name__ for case in CASES]


def test_every_converted_class_has_a_case():
    assert len(CASES) == 41 and len(set(IDS)) == 41


@pytest.mark.parametrize("cls, args, defaults, frozen", CASES, ids=IDS)
def test_construction_by_position_and_keyword_with_the_old_defaults(cls, args, defaults, frozen):
    fields = cls._fields
    assert len(fields) == len(args) + len(defaults)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_position == by_keyword
    for name, value in zip(fields, args):
        assert getattr(by_position, name) is value or getattr(by_position, name) == value
    for name, value in defaults.items():
        assert getattr(by_position, name) == value
    everything = cls(*(getattr(by_position, name) for name in fields))
    assert everything == by_position


@pytest.mark.parametrize("cls, args, defaults, frozen", CASES, ids=IDS)
def test_repr_is_the_dataclass_form(cls, args, defaults, frozen):
    record = cls(*args)
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
    assert repr(record) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls, args, defaults, frozen", CASES, ids=IDS)
def test_frozen_classes_refuse_assignment_and_mutable_ones_take_it(cls, args, defaults, frozen):
    record = cls(*args)
    name = cls._fields[-1]
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
    else:
        setattr(record, name, "changed")
        assert getattr(record, name) == "changed"
        assert record != cls(*args)
        with pytest.raises(TypeError):
            hash(record)


def _hashable(record) -> bool:
    try:
        hash(tuple(getattr(record, name) for name in type(record)._fields))
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, args, defaults, frozen", [c for c in CASES if c[3]],
                         ids=[i for i, c in zip(IDS, CASES) if c[3]])
def test_frozen_classes_hash_field_wise(cls, args, defaults, frozen):
    a, b = cls(*args), cls(*args)
    if _hashable(a):
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:  # a dict or array field: unhashable, as the dataclass was
        with pytest.raises(TypeError):
            hash(a)


def test_records_of_different_classes_or_values_differ():
    assert LossyPolicy(4) != LossyPolicy(5)
    assert LossyPolicy(4) != LosslessPolicy(4)
    assert SkillContext(speak) != LowLevelContext(speak)
    assert QuantParams(0.5).__eq__((0.5, 0, True)) is NotImplemented


def test_log_mel_config_stays_a_cache_key():
    assert hash(LogMelConfig()) == hash(LogMelConfig(n_mels=40))
    assert {LogMelConfig(): 1}[LogMelConfig()] == 1
    assert LogMelConfig(n_mels=20) != LogMelConfig()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: LossyPolicy(capacity=0), StreamConfigError, "lossy capacity must be >= 1, got 0"),
        (lambda: LossyPolicy(2, -1), StreamConfigError, "max_successive_misses must be >= 0"),
        (lambda: LosslessPolicy(0), StreamConfigError, "deadline_us must be > 0, got 0"),
        (lambda: WatchdogConfig(max_latency_us=0), StreamConfigError,
         "max_latency_us must be finite and > 0 when enabled, got 0"),
        (lambda: WatchdogConfig(window_us=math.nan), StreamConfigError,
         "window_us must be finite and > 0 when enabled, got nan"),
        (lambda: WatchdogConfig(min_throughput_hz=1.0), StreamConfigError,
         "min_throughput_hz requires window_us"),
        (lambda: AggregatorConfig(10, 20, 16000), AggregatorConfigError,
         "hop_samples: must be > 0 and <= window_samples (10), got 20"),
        (lambda: AggregatorConfig(10, 5, 0), AggregatorConfigError, "sample_rate_hz must be > 0"),
        (lambda: AudioBuffer(np.zeros((2, 2)), 16000), ValueError, "AudioBuffer holds mono 1-D samples"),
        (lambda: AudioBuffer([0.0], 0), ValueError, "sample_rate_hz must be > 0"),
        (lambda: LogMelConfig(fmax_hz=9000.0), LogMelError, "need 0 <= fmin < fmax <= sample_rate/2"),
        (lambda: LogMelConfig(fft_size=256), LogMelError, "fft_size must be >= frame_len_samples"),
        (lambda: LogMelConfig(n_mels=0), LogMelError, "n_mels must be >= 1"),
        (lambda: LogMelConfig(hop_samples=0), LogMelError, "hop_samples must be >= 1"),
        (lambda: LogMelConfig(log_floor=0.0), LogMelError, "log_floor must be > 0"),
        (lambda: SkillDescriptor(""), SkillError, "skill id must be nonempty"),
        (lambda: SkillDescriptor("s", [""]), SkillError, "skill 's' declares an empty entity name"),
        (lambda: SkillDescriptor("s", ["a"], [""]), SkillError, "skill 's' declares an empty entity name"),
        (lambda: SkillDescriptor("s", ["a", "a"]), SkillError,
         "skill 's' declares a duplicate entity name"),
        (lambda: SkillDescriptor("s", ["a"], ["a"]), SkillError,
         "skill 's': entities both required and optional: ['a']"),
        (lambda: Interpretation("s", confidence=1.5), SkillError, "confidence 1.5 outside [0, 1]"),
        (lambda: LocomotionCommand("fwd", 1), CodecError, "invalid direction 'fwd'"),
        (lambda: LocomotionCommand(Direction.LEFT_FORWARD, 256), CodecError, "speed 256 out of [0, 255]"),
        (lambda: SweepConfig(theta_max_deg=150.0), SweepConfigError, "need 0 <= theta_min < theta_max <= 120"),
        (lambda: SweepConfig(step_deg=0.0), SweepConfigError, "step_deg must be > 0"),
        (lambda: SweepConfig(d_max_m=-1.0), SweepConfigError, "timing and range parameters must be > 0"),
        (lambda: QuantParams(0.0), QuantError, "scale must be > 0, got 0.0"),
        (lambda: QuantParams(1.0, zero_point=1), QuantError, "symmetric quantization requires zero_point == 0"),
        (lambda: LayerSpec("pool", 1), LayerSpecError, "unknown layer kind 'pool'"),
        (lambda: LayerSpec("lin", 0), LayerSpecError, "n must be > 0"),
        (lambda: LayerSpec("conv", 4, m=2, r=2), LayerSpecError, "conv layer needs positive in_channels"),
        (lambda: LayerSpec("dnn", 4), LayerSpecError, "dnn layer needs positive in_features"),
    ],
)
def test_validation_errors_are_unchanged(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_conversions_are_unchanged():
    assert AudioBuffer([0, 1], 16000).samples.dtype == np.float64
    descriptor = SkillDescriptor("s", ["a"], ["b"])
    assert descriptor.required_entities == ("a",) and type(descriptor.optional_entities) is tuple


@pytest.mark.parametrize(
    "build, names",
    [
        (lambda: NodeDef("a", "k"), ("params",)),
        (lambda: Interpretation("s"), ("entities",)),
        (lambda: SkillSession(SkillDescriptor("s")), ("filled", "missing")),
        (lambda: SkillContext(speak), ("state", "schedule_store")),
        (lambda: LowLevelContext(speak), ("state", "schedule_store")),
    ],
)
def test_mutable_defaults_are_not_shared(build, names):
    first, second = build(), build()
    for name in names:
        assert getattr(first, name) is not getattr(second, name)


def test_a_run_of_200_aborted_requests_keeps_no_session():
    requests = [
        {"trigger_window_index": i, "skill_id": "find_object", "entities": {}, "confidence": 0.9}
        for i in range(4, 204)
    ]
    scenario = load_scenario({
        "audio": {"synthetic": {"kind": "silence", "duration_s": 52.0}},
        "annotations": [{"start_s": 1.0, "end_s": 52.0}],
        "interpreter_script": requests,
    })
    env = {"audio": scenario_audio(scenario), "annotations": list(scenario.annotations),
           "interpreter_script": list(scenario.interpreter_script)}
    graph = reference_pipeline(manager_params={"followup_timeout_s": 0.1, "reprompt_limit": 0})
    runner = GraphRunner(graph, harness_kind_registry(), VirtualClock(),
                         StopCondition(time_limit_us=53_000_000), env=env)
    report = runner.run()
    aborts = [e for e in report.events if e["kind"] == "reject" and e["reason"] == "session_aborted"]
    assert len(aborts) == 200
    manager = runner.nodes["mgr"].manager
    assert manager.session is None
    assert sorted(vars(manager)) == ["config", "registry", "session"]
