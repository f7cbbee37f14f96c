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

A malformed value raises :class:`ScenarioError` naming its key path, e.g.
``annotations[0].start_s``; other keys are ignored. The WAV file or synthetic
spec is read when :func:`scenario_audio` produces the audio.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..dsp.audio import AudioBuffer, WavFormatError, read_wav


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Annotation:
    start_s: float
    end_s: float


@dataclass(frozen=True)
class ScenarioScript:
    audio: dict
    annotations: tuple[Annotation, ...] = ()
    interpreter_script: tuple[dict, ...] = ()
    time_limit_s: Optional[float] = None
    seed: int = 0


_REQUIRED = object()
_KINDS = {dict: "an object", list: "a list", str: "a string", float: "a finite number", int: "an integer"}


def _check(value, path: str, kind: type, minimum: float = -math.inf):
    """``value`` as JSON ``kind``: numbers finite and >= ``minimum``, integral floats as ints."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool):
        if kind not in (int, float) or (minimum <= value and abs(value) < 1e308):
            return float(value) if kind is float else value
    bound = f" >= {minimum:g}" if minimum > -math.inf else ""
    raise ScenarioError(f"{path}: must be {_KINDS[kind]}{bound}, got {value!r:.40}")


def _get(doc: dict, key: str, path: str, kind: type, default=_REQUIRED, minimum=-math.inf):
    """``doc[key]`` checked as ``kind``; ``default`` if absent (or null, when that is None)."""
    where = f"{path}.{key}" if path else key
    value = doc.get(key, default)
    if value is _REQUIRED:
        raise ScenarioError(f"{where}: missing required key")
    return value if value is default else _check(value, where, kind, minimum)


def load_scenario(source) -> ScenarioScript:
    """Build a scenario from a dict, a JSON string or a file path."""
    if isinstance(source, dict):
        doc = source
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        doc = json.loads(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    audio = dict(_get(_check(doc, "$", dict), "audio", "", dict))
    if "wav" in audio:
        _get(audio, "wav", "audio", str)
    elif "synthetic" not in audio:
        raise ScenarioError("audio: needs 'wav' or 'synthetic'")
    annotations, script = [], []
    for i, ann in enumerate(_get(doc, "annotations", "", list, [])):
        path = f"annotations[{i}]"
        start_s = _get(_check(ann, path, dict), "start_s", path, float, minimum=0.0)
        end_s = _get(ann, "end_s", path, float)
        if end_s <= start_s:
            raise ScenarioError(f"{path}.end_s: must be > start_s {start_s:g}, got {end_s:g}")
        annotations.append(Annotation(start_s, end_s))
    for i, entry in enumerate(_get(doc, "interpreter_script", "", list, [])):
        path = f"interpreter_script[{i}]"
        index = _get(_check(entry, path, dict), "trigger_window_index", path, int, minimum=0)
        flat = {"trigger_window_index": index}
        # both flat entries and nested {"interpretation": {...}} are accepted
        if "interpretation" in entry:
            path += ".interpretation"
            entry = _check(entry["interpretation"], path, dict)
        _get(entry, "entities", path, dict, {})
        _get(entry, "confidence", path, float, 1.0)
        flat.update((k, v) for k, v in entry.items() if k != "trigger_window_index")
        script.append(flat)
    return ScenarioScript(
        audio=audio,
        annotations=tuple(annotations),
        interpreter_script=tuple(script),
        time_limit_s=_get(doc, "time_limit_s", "", float, None, minimum=0.0),
        seed=_get(doc, "seed", "", int, 0, minimum=0),
    )


def synthesize_audio(spec: dict, seed: int = 0) -> AudioBuffer:
    """Deterministic test signals: silence, tone, tone bursts over silence,
    or seeded Gaussian noise."""
    path = "audio.synthetic"
    kind = _check(spec, path, dict).get("kind", "silence")
    rate = _get(spec, "sample_rate_hz", path, int, 16000, minimum=1)
    duration_s = _get(spec, "duration_s", path, float, 1.0, minimum=0.0)
    try:
        n = int(round(duration_s * rate))
        t = np.arange(n) / rate
    except (OverflowError, ValueError) as exc:
        raise ScenarioError(f"{path}.duration_s: {duration_s:g} s is too long: {exc}") from exc
    if kind == "silence":
        samples = np.zeros(n)
    elif kind == "tone":
        amp = _get(spec, "amp", path, float, 0.5)
        freq = _get(spec, "freq_hz", path, float, 440.0)
        samples = amp * np.sin(2 * np.pi * freq * t)
    elif kind == "bursts":
        samples = np.zeros(n)
        for i, burst in enumerate(_get(spec, "bursts", path, list, [])):
            where = f"{path}.bursts[{i}]"
            lo = int(round(_get(_check(burst, where, dict), "start_s", where, float, minimum=0.0) * rate))
            hi = min(n, int(round(_get(burst, "end_s", where, float, minimum=0.0) * rate)))
            amp = _get(burst, "amp", where, float, 0.5)
            freq = _get(burst, "freq_hz", where, float, 440.0)
            samples[lo:hi] = amp * np.sin(2 * np.pi * freq * t[lo:hi])
    elif kind == "noise":
        amp = _get(spec, "amp", path, float, 0.1)
        rng = np.random.default_rng(seed)
        samples = amp * rng.standard_normal(n)
        samples = np.clip(samples, -1.0, 1.0)
    else:
        raise ScenarioError(f"{path}.kind: unknown synthetic audio kind {kind!r:.40}")
    return AudioBuffer(samples=samples, sample_rate_hz=rate)


def scenario_audio(scenario: ScenarioScript) -> AudioBuffer:
    if "wav" in scenario.audio:
        try:
            audio = read_wav(scenario.audio["wav"])
        except (OSError, WavFormatError) as exc:
            raise ScenarioError(f"audio.wav: {exc}") from exc
    elif "synthetic" in scenario.audio:
        audio = synthesize_audio(scenario.audio["synthetic"], seed=scenario.seed)
    else:
        raise ScenarioError("scenario audio needs 'wav' or 'synthetic'")
    for ann in scenario.annotations:
        if ann.end_s > audio.duration_s + 1e-9:
            raise ScenarioError(
                f"annotation [{ann.start_s}, {ann.end_s}] beyond audio of {audio.duration_s:.3f}s"
            )
    return audio
