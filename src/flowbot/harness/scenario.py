"""Scenario scripts: audio, keyword annotations, scripted interpretations.

A scenario document:

    {
      "audio": {"wav": "path.wav"}
             | {"synthetic": {"kind": "silence"|"tone"|"bursts"|"noise", ...}},
      "annotations": [{"start_s": 2.0, "end_s": 2.5}],
      "interpreter_script": [{"trigger_window_index": 5,
                              "skill_id": "get_time",
                              "entities": {}, "confidence": 1.0}],
      "time_limit_s": 5.0,
      "seed": 0
    }

:func:`load_scenario` builds each script entry's ``Interpretation`` once:
``interpreter_script`` holds ``(trigger_window_index, Interpretation)`` pairs.

Values are read with :mod:`flowbot.flowcore.schema`, so a malformed one
raises :class:`SchemaError` (alias ``ScenarioError``) whose ``path`` names
its key, e.g. ``annotations[0].start_s``; other keys are ignored. The WAV
file or synthetic spec is read when :func:`scenario_audio` produces the
audio, and an annotation that ends beyond it is ``annotations[i].end_s``.

A WAV file's audio stays the int16 codes of its first channel, in a
:class:`SampleChunk` with scale ``2**-15``; the nodes that copy it convert it
as it streams, so no run decodes the whole file to floats.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ..dsp.audio import PCM16_SCALE, AudioBuffer, read_wav_pcm16
from ..flowcore.aggregator import SampleChunk
from ..flowcore.schema import SchemaError, check_value, get_value, read_document
from ..skills.types import Interpretation, SkillError


#: Scenario errors are schema errors: ``path`` names the key, ``reason`` says why.
ScenarioError = SchemaError


class Annotation(NamedTuple):
    start_s: float
    end_s: float


class ScenarioScript(NamedTuple):
    audio: dict
    annotations: tuple[Annotation, ...] = ()
    interpreter_script: tuple[tuple[int, Interpretation], ...] = ()
    time_limit_s: Optional[float] = None
    seed: int = 0


def load_scenario(source) -> ScenarioScript:
    """Build a scenario from a dict or a file path."""
    doc = read_document(source)
    audio = dict(get_value(check_value(doc, "$", dict), "audio", "", dict))
    if "wav" in audio:
        get_value(audio, "wav", "audio", str)
    elif "synthetic" not in audio:
        raise SchemaError("audio", "needs 'wav' or 'synthetic'")
    annotations, script = [], []
    for i, ann in enumerate(get_value(doc, "annotations", "", list, [])):
        path = f"annotations[{i}]"
        start_s = get_value(check_value(ann, path, dict), "start_s", path, float, minimum=0.0)
        end_s = get_value(ann, "end_s", path, float)
        if end_s <= start_s:
            raise SchemaError(f"{path}.end_s", f"must be > start_s {start_s:g}, got {end_s:g}")
        annotations.append(Annotation(start_s, end_s))
    for i, entry in enumerate(get_value(doc, "interpreter_script", "", list, [])):
        path = f"interpreter_script[{i}]"
        index = get_value(check_value(entry, path, dict), "trigger_window_index", path, int, minimum=0)
        # both flat entries and nested {"interpretation": {...}} are accepted
        if "interpretation" in entry:
            path += ".interpretation"
            entry = check_value(entry["interpretation"], path, dict)
        confidence = get_value(entry, "confidence", path, float, 1.0)
        skill_id = get_value(entry, "skill_id", path, str, "")
        entities = get_value(entry, "entities", path, dict, {})
        try:
            script.append((index, Interpretation(skill_id, entities, confidence)))
        except SkillError:  # the record owns the [0, 1] rule
            raise SchemaError(f"{path}.confidence", f"must be in [0, 1], got {confidence:g}") from None
    return ScenarioScript(
        audio=audio,
        annotations=tuple(annotations),
        interpreter_script=tuple(script),
        time_limit_s=get_value(doc, "time_limit_s", "", float, None, minimum=0.0),
        seed=get_value(doc, "seed", "", int, 0, minimum=0),
    )


def synthesize_audio(spec: dict, seed: int = 0) -> AudioBuffer:
    """Deterministic test signals: silence, tone, tone bursts over silence,
    or seeded Gaussian noise."""
    path = "audio.synthetic"
    kind = get_value(check_value(spec, path, dict), "kind", path, str, "silence")
    rate = get_value(spec, "sample_rate_hz", path, int, 16000, minimum=1)
    duration_s = get_value(spec, "duration_s", path, float, 1.0, minimum=0.0)
    try:
        n = int(round(duration_s * rate))
        t = np.arange(n) / rate
    # numpy's "Unable to allocate" is a MemoryError
    except (OverflowError, ValueError, MemoryError) as exc:
        raise SchemaError(f"{path}.duration_s", f"{duration_s:g} s is too long: {exc}") from exc
    if kind == "silence":
        samples = np.zeros(n)
    elif kind == "tone":
        amp = get_value(spec, "amp", path, float, 0.5)
        freq = get_value(spec, "freq_hz", path, float, 440.0)
        samples = amp * np.sin(2 * np.pi * freq * t)
    elif kind == "bursts":
        samples = np.zeros(n)
        for i, burst in enumerate(get_value(spec, "bursts", path, list, [])):
            where = f"{path}.bursts[{i}]"
            start_s = get_value(check_value(burst, where, dict), "start_s", where, float, minimum=0.0)
            lo = int(round(start_s * rate))
            hi = min(n, int(round(get_value(burst, "end_s", where, float, minimum=0.0) * rate)))
            amp = get_value(burst, "amp", where, float, 0.5)
            freq = get_value(burst, "freq_hz", where, float, 440.0)
            samples[lo:hi] = amp * np.sin(2 * np.pi * freq * t[lo:hi])
    elif kind == "noise":
        amp = get_value(spec, "amp", path, float, 0.1)
        rng = np.random.default_rng(seed)
        samples = amp * rng.standard_normal(n)
        samples = np.clip(samples, -1.0, 1.0)
    else:
        raise SchemaError(f"{path}.kind", f"unknown synthetic audio kind {kind!r:.40}")
    return AudioBuffer(samples=samples, sample_rate_hz=rate)


def scenario_audio(scenario: ScenarioScript) -> SampleChunk:
    """The scenario's whole audio as one chunk: a WAV file's int16 codes with
    scale ``2**-15``, or synthetic floats with scale 1.0."""
    if "wav" in scenario.audio:
        try:
            pcm, rate = read_wav_pcm16(scenario.audio["wav"])
        except (OSError, ValueError) as exc:  # WavFormatError, or a NUL byte in the path
            raise SchemaError("audio.wav", str(exc)) from exc
        audio = SampleChunk(pcm, rate, PCM16_SCALE)
    else:
        buf = synthesize_audio(get_value(scenario.audio, "synthetic", "audio", dict), seed=scenario.seed)
        audio = SampleChunk(buf.samples, buf.sample_rate_hz)
    duration_s = len(audio.samples) / audio.sample_rate_hz
    for i, ann in enumerate(scenario.annotations):
        if ann.end_s > duration_s + 1e-9:
            raise SchemaError(
                f"annotations[{i}].end_s", f"{ann.end_s:g} s is beyond the audio of {duration_s:.3f} s"
            )
    return audio
