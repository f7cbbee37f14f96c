"""The one reader of config documents and values: graphs, policies, node
params, detector specs, scenarios and scan scenes. A document that is not
JSON raises :class:`SchemaError` at ``$``; a bad value raises one whose
``path`` names its key, e.g. ``streams[2].policy`` or, for node params,
``window_samples``.
"""

from __future__ import annotations

import json
import math


class SchemaError(ValueError):
    """A config document does not match the published schema.

    ``path`` points at the offending key, e.g. ``streams[2].capacity``.
    """

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


_REQUIRED = object()
_KINDS = {dict: "an object", list: "a list", str: "a string", float: "a finite number", int: "an integer"}


def check_value(value, path: str, kind: type, minimum: float = -math.inf):
    """``value`` as JSON ``kind``: numbers finite and >= ``minimum``, integral floats as ints."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool):
        if kind not in (int, float) or (minimum <= value and abs(value) < 1e308):
            return float(value) if kind is float else value
    bound = f" >= {minimum:g}" if minimum > -math.inf else ""
    raise SchemaError(path, f"must be {_KINDS[kind]}{bound}, got {value!r:.40}")


def check_names(values: list, path: str) -> list[str]:
    """``values`` as distinct strings; a repeat is named by its index."""
    for i, name in enumerate(values):
        if check_value(name, f"{path}[{i}]", str) in values[:i]:
            raise SchemaError(f"{path}[{i}]", f"repeats {name!r:.40}")
    return values


def get_value(doc: dict, key: str, path: str, kind: type, default=_REQUIRED, minimum=-math.inf):
    """``doc[key]`` checked as ``kind`` at ``path.key`` (``key`` when ``path``
    is empty); ``default`` if absent (or null, when that is None)."""
    where = f"{path}.{key}" if path else key
    value = doc.get(key, default)
    if value is _REQUIRED:
        raise SchemaError(where, "missing required key")
    return value if value is default else check_value(value, where, kind, minimum)


def read_document(source):
    """A JSON document from a dict (returned as is) or a file path; malformed
    JSON raises :class:`SchemaError` at ``$``."""
    if isinstance(source, dict):
        return source
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
