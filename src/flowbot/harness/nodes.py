"""Simulated device layer and pipeline nodes wired from the dataflow core.

Kinds registered here: audio_source (plays scenario audio as timed chunks),
io_manager (routes device samples to interfaces), resampler_48to16,
interpreter_stub (scripted recognizer), skill_manager, speaker_sink and
uart_sink. The core registers every detector, ``scripted`` included. Each
node reads its params with :func:`~flowbot.flowcore.schema.get_value`, so a
bad value fails the build with an error that starts with its key, e.g.
``routing.mic0: must be a list, got 'ui_audio'``.

Audio moves as :class:`SampleChunk` views of the scenario's samples, each
with the scale that turns them into floats: a WAV file's int16 codes carry
``2**-15``. No node here decodes them; the aggregator and the resampler
apply the scale in the copies they already make.

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
from ..flowcore.aggregator import AggWindow, SampleChunk
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


def io_manager_route(sample: DeviceSample, routing_table: dict) -> list[tuple[str, SampleChunk]]:
    """Duplicate a device sample to every subscribed interface.

    An unrouted device yields an empty list; the caller counts it as
    dead-lettered.
    """
    interfaces = routing_table.get(sample.device_id, [])
    return [(interface_id, sample.chunk) for interface_id in interfaces]


class AudioSourceNode(Node):
    """Plays scenario audio as chunked device samples under the run clock.

    Chunk k covering samples [k*chunk, (k+1)*chunk) is emitted at the
    virtual time its last sample was captured. Audio is zero-padded to
    ``pad_to_samples`` (one aggregation window by default) and to a whole
    number of chunks.

    The build environment's ``audio`` is a :class:`SampleChunk`, as
    :func:`~flowbot.harness.scenario.scenario_audio` returns it. Each chunk
    emitted is a view of its samples with the audio's scale, so WAV audio
    stays int16 codes until a consumer copies it.
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
        return {"out": PortSpec("samples")}

    def start(self, ctx):
        if self._n_chunks:
            ctx.schedule_at(self._chunk_end_us(0))

    def _chunk_end_us(self, k: int) -> int:
        return round((k + 1) * self.chunk_samples * 1e6 / self.sample_rate_hz)

    def on_timer(self, tag, ctx):
        k = self._next_chunk
        samples = self.samples[k * self.chunk_samples : (k + 1) * self.chunk_samples]
        if len(samples) < self.chunk_samples:  # padding is made per chunk, never up front
            pad = np.zeros(self.chunk_samples - len(samples), samples.dtype)
            samples = np.concatenate([samples, pad])
        # built by position: this runs once per chunk
        ctx.emit("out", DeviceSample(self.device_id, SampleChunk(samples, self.sample_rate_hz, self.scale)))
        self._next_chunk += 1
        if self._next_chunk < self._n_chunks:
            ctx.schedule_at(self._chunk_end_us(self._next_chunk))


class IoManagerNode(Node):
    """Dispatches device samples to the interfaces subscribed to them."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self.routing = {
            device: check_names(check_value(targets, f"routing.{device}", list), f"routing.{device}")
            for device, targets in get_value(params, "routing", "", dict, {}).items()
        }
        self._ports = sorted({p for targets in self.routing.values() for p in targets})
        if not self._ports:
            raise SchemaError("routing", "needs at least one interface")
        self.delivered = 0
        self.dead_letter = 0

    def input_ports(self):
        return {"in": PortSpec("samples")}

    def output_ports(self):
        return {name: PortSpec("samples") for name in self._ports}

    def on_packet(self, port, packet, ctx):
        routed = io_manager_route(packet.payload, self.routing)
        if not routed:
            self.dead_letter += 1
            return
        for interface_id, chunk in routed:
            self.delivered += 1
            ctx.emit(interface_id, chunk, timestamp_us=packet.timestamp_us)

    def finish(self, ctx):
        ctx.collector.channel("io_manager").append(
            {"delivered": self.delivered, "dead_letter": self.dead_letter}
        )


class ResamplerNode(Node):
    """Streaming 48 kHz -> 16 kHz through :class:`Decimator3to1`, which
    applies each chunk's scale as it copies the chunk in; the 16 kHz chunks
    out are floats with scale 1.0."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self._decimator = Decimator3to1()

    def input_ports(self):
        return {"in": PortSpec("samples")}

    def output_ports(self):
        return {"out": PortSpec("samples")}

    def on_packet(self, port, packet, ctx):
        chunk: SampleChunk = packet.payload
        if chunk.sample_rate_hz != 48000:
            raise ValueError(f"resampler expects 48000 Hz input, got {chunk.sample_rate_hz}")
        out = self._decimator.process(chunk.samples, chunk.scale)
        if len(out):
            ctx.emit("out", SampleChunk(out, 16000), timestamp_us=packet.timestamp_us)


class InterpreterStubNode(Node):
    """Deterministic stand-in for a recognizer: emits the scenario's
    :class:`Interpretation` records scripted for each window index."""

    def __init__(self, node_id: str, params: dict, env: dict):
        super().__init__(node_id)
        self._by_index: dict[int, list[Interpretation]] = {}
        for index, interpretation in env.get("interpreter_script", []):
            self._by_index.setdefault(index, []).append(interpretation)

    def input_ports(self):
        return {"in": PortSpec("window")}

    def output_ports(self):
        return {"out": PortSpec("interpretation")}

    def on_packet(self, port, packet, ctx):
        window: AggWindow = packet.payload
        ctx.log("interpreter_window", index=window.index)
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
        return {"in": PortSpec("interpretation")}

    def output_ports(self):
        return {"speech": PortSpec("text"), "locomotion": PortSpec("locomotion", optional=True)}

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
        return {"in": PortSpec("locomotion")}

    def on_packet(self, port, packet, ctx):
        ctx.collector.uart.extend(frame_uart(encode_locomotion(packet.payload)))


def harness_kind_registry() -> NodeKindRegistry:
    reg = default_kind_registry()
    reg.register("audio_source", AudioSourceNode)
    reg.register("io_manager", IoManagerNode)
    reg.register("resampler_48to16", ResamplerNode)
    reg.register("interpreter_stub", InterpreterStubNode)
    reg.register("skill_manager", SkillManagerNode)
    reg.register("speaker_sink", SpeakerSinkNode)
    reg.register("uart_sink", UartSinkNode)
    return reg
