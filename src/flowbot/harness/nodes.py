"""Simulated device layer and pipeline nodes wired from the dataflow core.

Kinds registered here, beside the scheduler's ``source``, ``sink`` and
``splitter``: audio_source (plays scenario audio as timed chunks),
io_manager (routes device samples to interfaces), resampler_48to16,
aggregator (sliding windows), attention (one bit per window from a detector
of :mod:`flowbot.flowcore.attention`'s table), interpreter_stub (scripted
recognizer), skill_manager, speaker_sink and uart_sink. Each node reads its
params with :func:`~flowbot.flowcore.schema.get_value`, so a bad value fails
the build with an error that starts with its key, e.g. ``routing.mic0: must
be a list, got 'ui_audio'``.

Audio moves as :class:`SampleChunk` views of the scenario's samples, each
with the scale that turns them into floats: a WAV file's int16 codes carry
``2**-15``. No node here decodes them: the resampler applies the scale in
the copy it already makes, and the aggregator's windows apply it when their
samples are read.

The skill_manager node dispatches through the build environment's
``skill_registry``, or through a fresh registry of the demo skills when the
environment has none, and writes nothing to it. The node keeps the skill
log: each dispatch goes into ``skill_invocations`` before it runs, stamped
with the run's ``now``, and a handler that raises goes into
``skill_failures`` without stopping the run.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..dsp.resample import Decimator3to1
from ..flowcore.aggregator import Aggregator, AggregatorConfig, AggWindow, SampleChunk
from ..flowcore.attention import DETECTOR_FACTORIES, attention_decide
from ..flowcore.node import Node, NodeKindRegistry, PortSpec
from ..flowcore.runtime import default_kind_registry
from ..flowcore.schema import SchemaError, check_names, check_value, get_value
from ..robotics.locomotion import encode_locomotion, frame_uart
from ..skills.builtin import LowLevelContext, SkillContext, register_demo_skills
from ..skills.manager import Execute, ManagerConfig, Prompt, Reject, SkillManager
from ..skills.registry import SkillRegistry
from ..skills.types import Interpretation, SkillLevel


class DeviceSample(NamedTuple):
    """Raw sample from one input device, as handed to the I/O manager."""

    device_id: str
    chunk: SampleChunk


class AudioSourceNode(Node):
    """Plays scenario audio as chunked device samples under the run clock.

    Chunk k covering samples [k*chunk, (k+1)*chunk) is emitted at the
    virtual time its last sample was captured. Audio is zero-padded to
    ``pad_to_samples`` (one aggregation window by default) and to a whole
    number of chunks.

    The build environment's ``audio`` is a :class:`SampleChunk`, as
    :func:`~flowbot.harness.scenario.scenario_audio` returns it. Each chunk
    emitted is a view of its samples with the audio's scale, so WAV audio
    stays int16 codes until a consumer scales it.
    """

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self.device_id = get_value(params, "device_id", "", str, "mic0")
        self.chunk_samples = get_value(params, "chunk_samples", "", int, 1600, minimum=1)
        pad_to = get_value(params, "pad_to_samples", "", int, 16000)
        audio = env.get("audio")
        if audio is None:
            raise ValueError("audio_source requires scenario audio in the build environment")
        self.samples = np.asarray(audio.samples)
        self.scale = audio.scale
        self._n_chunks = -(-max(len(self.samples), pad_to) // self.chunk_samples)
        self.sample_rate_hz = int(audio.sample_rate_hz)
        self._next_chunk = 0

    def output_ports(self):
        return {"out": PortSpec("DeviceSample")}

    def start(self, ctx):
        if self._n_chunks:
            ctx.schedule_at(round(self.chunk_samples * 1e6 / self.sample_rate_hz))

    def on_timer(self, tag, ctx):
        k = self._next_chunk
        n = self.chunk_samples
        samples = self.samples[k * n : (k + 1) * n]
        if len(samples) < n:  # padding is made per chunk, never up front
            samples = np.concatenate([samples, np.zeros(n - len(samples), samples.dtype)])
        # built by position, as the executor builds a Packet: this runs once per chunk
        chunk = tuple.__new__(SampleChunk, (samples, self.sample_rate_hz, self.scale))
        ctx.emit("out", tuple.__new__(DeviceSample, (self.device_id, chunk)))
        self._next_chunk = k = k + 1
        if k < self._n_chunks:
            ctx.schedule_at(round((k + 1) * n * 1e6 / self.sample_rate_hz))


class IoManagerNode(Node):
    """Sends each device sample's chunk, stamped as the sample, to every
    interface routed from its device; an unrouted sample is dead-lettered."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self.routing = {
            device: check_names(check_value(targets, f"routing.{device}", list), f"routing.{device}")
            for device, targets in get_value(params, "routing", "", dict, {}).items()
        }
        self._ports = sorted({p for targets in self.routing.values() for p in targets})
        if not self._ports:
            raise SchemaError("routing", "needs at least one interface")
        self.dead_letter = 0

    def input_ports(self):
        return {"in": PortSpec("DeviceSample")}

    def output_ports(self):
        return {name: PortSpec("SampleChunk") for name in self._ports}

    def on_packet(self, port, packet, ctx):
        sample, ts, _ = packet
        interfaces = self.routing.get(sample.device_id)
        if not interfaces:
            self.dead_letter += 1
            return
        chunk = sample.chunk
        for interface_id in interfaces:
            ctx.emit(interface_id, chunk, ts)

    def finish(self, ctx):
        ctx.collector.channel("io_manager").append({"dead_letter": self.dead_letter})


class ResamplerNode(Node):
    """Streaming 48 kHz -> 16 kHz through :class:`Decimator3to1`, which
    applies each chunk's scale as it copies the chunk in; the 16 kHz chunks
    out are floats with scale 1.0."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self._decimator = Decimator3to1()

    def input_ports(self):
        return {"in": PortSpec("SampleChunk")}

    def output_ports(self):
        return {"out": PortSpec("SampleChunk")}

    def on_packet(self, port, packet, ctx):
        chunk: SampleChunk = packet.payload
        if chunk.sample_rate_hz != 48000:
            raise ValueError(f"resampler expects 48000 Hz input, got {chunk.sample_rate_hz}")
        out = self._decimator.process(chunk.samples, chunk.scale)
        if len(out):
            ctx.emit("out", tuple.__new__(SampleChunk, (out, 16000, 1.0)), packet.timestamp_us)


class AggregatorNode(Node):
    """Graph wrapper over :class:`Aggregator`: its ``in`` port takes
    :class:`SampleChunk` payloads, whose rate it checks and whose scale each
    window carries, and its ``windows`` port emits :class:`AggWindow`
    payloads, read-only views of the raw samples."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self.agg = Aggregator(
            AggregatorConfig(
                window_samples=get_value(params, "window_samples", "", int, minimum=1),
                hop_samples=get_value(params, "hop_samples", "", int, minimum=1),
                sample_rate_hz=get_value(params, "sample_rate_hz", "", int, minimum=1),
            )
        )

    def input_ports(self):
        return {"in": PortSpec("SampleChunk")}

    def output_ports(self):
        return {"windows": PortSpec("AggWindow")}

    def on_packet(self, port, packet, ctx):
        chunk = packet.payload
        for window in self.agg.feed(chunk.samples, chunk.sample_rate_hz, chunk.scale):
            ctx.emit("windows", window)


class AttentionNode(Node):
    """Emits one bit per :class:`AggWindow` on its ``in`` port from a detector:
    the shipped ``constant``, ``rms`` (default) or ``scripted``, which indexes
    the build environment's ``annotations``, or a
    :func:`~flowbot.flowcore.attention.register_detector` kind."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        spec = get_value(params, "detector", "", dict, {"kind": "rms"})
        kind = get_value(spec, "kind", "detector", str)
        if kind not in DETECTOR_FACTORIES:
            raise SchemaError("detector.kind", f"unknown detector kind {kind!r:.40}")
        self.detector = DETECTOR_FACTORIES[kind](spec, env)

    def input_ports(self):
        return {"in": PortSpec("AggWindow")}

    def output_ports(self):
        return {"bit": PortSpec("bit")}

    def on_packet(self, port, packet, ctx):
        errors: list[Exception] = []
        window, ts, _ = packet
        bit = attention_decide(self.detector, window, errors.append)
        for exc in errors:
            ctx.log("attention_error", error=f"{type(exc).__name__}: {exc}")
        ctx.emit("bit", bit, ts)


class InterpreterStubNode(Node):
    """Deterministic stand-in for a recognizer: emits the scenario's
    :class:`Interpretation` records scripted for each window index, and logs
    nothing: its windows are the seqs its gated stream's latch forwarded."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self._by_index: dict[int, list[Interpretation]] = {}
        for index, interpretation in env.get("interpreter_script", []):
            self._by_index.setdefault(index, []).append(interpretation)

    def input_ports(self):
        return {"in": PortSpec("AggWindow")}

    def output_ports(self):
        return {"out": PortSpec("Interpretation")}

    def on_packet(self, port, packet, ctx):
        window: AggWindow = packet.payload
        for interpretation in self._by_index.get(window.index, []):
            ctx.emit("out", interpretation)


class SkillManagerNode(Node):
    """Feeds interpretations through the skill manager and runs the actions.

    Each interpretation is one ``handle`` call: a fresh request, or the
    answer to the manager's open session. Speech (including prompts and
    abort notices) goes out the ``speech`` port; low-level skills may emit
    locomotion commands. Each prompt schedules a timer tagged ``(session,
    reprompts_used)`` on the run clock; it is stale, and does nothing,
    unless that session is still open and not reprompted since.
    """

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self.config = ManagerConfig(
            confidence_floor=get_value(params, "confidence_floor", "", float, 0.5, minimum=0),
            reprompt_limit=get_value(params, "reprompt_limit", "", int, 2, minimum=0),
        )
        if self.config.confidence_floor > 1:
            raise SchemaError("confidence_floor", f"must be <= 1, got {self.config.confidence_floor:g}")
        timeout_s = get_value(params, "followup_timeout_s", "", float, 10.0)
        if timeout_s <= 0:
            raise SchemaError("followup_timeout_s", f"must be > 0, got {timeout_s:g}")
        try:
            self.followup_timeout_us = int(timeout_s * 1e6)
        except OverflowError as exc:
            raise SchemaError("followup_timeout_s", f"{timeout_s:g} s is too long: {exc}") from exc
        self.registry: SkillRegistry | None = env.get("skill_registry")

    def input_ports(self):
        return {"in": PortSpec("Interpretation")}

    def output_ports(self):
        return {"speech": PortSpec("text"), "locomotion": PortSpec("LocomotionCommand", optional=True)}

    def start(self, ctx):
        if self.registry is None:
            self.registry = SkillRegistry()
            register_demo_skills(self.registry)
        self.manager = SkillManager(self.registry, self.config)
        self._schedule_store: list = []

    def _facade(self, ctx, level: SkillLevel):
        """High-level skills see only the abstract capabilities; low-level
        skills additionally get the device outputs."""
        common = dict(
            speak_fn=lambda text: ctx.emit("speech", text),
            notify_fn=lambda text: ctx.log("notify", text=text),
            state={"time_us": ctx.now_us()},
            schedule_store=self._schedule_store,
        )
        if level is SkillLevel.LOW_LEVEL:
            return LowLevelContext(
                locomotion_fn=lambda cmd: ctx.emit("locomotion", cmd), **common
            )
        return SkillContext(**common)

    def on_packet(self, port, packet, ctx):
        self._run_action(self.manager.handle(packet.payload), ctx)

    def on_timer(self, tag, ctx):
        session, reprompts_at_schedule = tag
        if self.manager.session is session and session.reprompts_used == reprompts_at_schedule:
            self._run_action(self.manager.timeout(), ctx)

    def _run_action(self, action, ctx):
        if isinstance(action, Execute):
            descriptor, _ = self.registry.lookup(action.skill_id)
            facade = self._facade(ctx, descriptor.level)
            invoked = {"kind": "invoked", "skill_id": action.skill_id, "entities": dict(action.entities),
                       "t_us": ctx.now_us()}
            ctx.collector.skill_invocations.append(invoked)
            try:
                self.registry.dispatch(action.skill_id, action.entities, context=facade)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                ctx.collector.skill_failures.append({**invoked, "kind": "failed", "error": error})
        elif isinstance(action, Prompt):
            ctx.emit("speech", action.prompt_text)
            session = self.manager.session
            ctx.schedule_at(ctx.now_us() + self.followup_timeout_us, tag=(session, session.reprompts_used))
        elif isinstance(action, Reject):
            ctx.log("reject", reason=action.reason.value, detail=action.detail)
            if action.reason.value == "session_aborted":
                ctx.emit("speech", action.detail)


class SpeakerSinkNode(Node):
    """Simulated speaker: spoken text becomes a timestamped event log."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)

    def input_ports(self):
        return {"in": PortSpec("text")}

    def on_packet(self, port, packet, ctx):
        ctx.collector.channel("speech").append({"t_us": ctx.now_us(), "text": str(packet.payload)})


class UartSinkNode(Node):
    """Simulated UART: encodes locomotion commands and captures wire bytes."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)

    def input_ports(self):
        return {"in": PortSpec("LocomotionCommand")}

    def on_packet(self, port, packet, ctx):
        ctx.collector.uart.extend(frame_uart(encode_locomotion(packet.payload)))


def harness_kind_registry() -> NodeKindRegistry:
    reg = default_kind_registry()
    reg.register("audio_source", AudioSourceNode)
    reg.register("io_manager", IoManagerNode)
    reg.register("resampler_48to16", ResamplerNode)
    reg.register("aggregator", AggregatorNode)
    reg.register("attention", AttentionNode)
    reg.register("interpreter_stub", InterpreterStubNode)
    reg.register("skill_manager", SkillManagerNode)
    reg.register("speaker_sink", SpeakerSinkNode)
    reg.register("uart_sink", UartSinkNode)
    return reg
