"""File-level loading of graph and scene documents."""

from __future__ import annotations

import json
import math
from importlib import resources

from ..flowcore.graphdef import GraphDef, SchemaError, graph_from_json


def load_graph_config(source) -> GraphDef:
    """Load a GraphDef from a dict, a JSON string or a file path.

    Schema violations raise :class:`SchemaError` naming the offending key.
    """
    if isinstance(source, dict):
        return graph_from_json(source)
    if isinstance(source, str) and source.lstrip().startswith("{"):
        return graph_from_json(json.loads(source))
    with open(source, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"not valid JSON: {exc}") from exc
    return graph_from_json(doc)


def load_scan_scene(source) -> dict:
    """Load an ultrasonic scene: {"ultrasonic_scene": [...], "climb_height_m": ...}.

    Each scene entry needs a number ``theta_deg``; its ``t_s`` and
    ``distance_m`` are numbers or null. The optional ``d_max_m``,
    ``c_air_mps`` and ``climb_height_m`` are numbers. Anything else raises
    :class:`SchemaError` naming the key.
    """
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaError("$", "must be an object")
    if "ultrasonic_scene" not in doc:
        raise SchemaError("ultrasonic_scene", "missing required key")
    if not isinstance(doc["ultrasonic_scene"], list):
        raise SchemaError("ultrasonic_scene", "must be a list")
    for key in ("d_max_m", "c_air_mps", "climb_height_m"):
        if key in doc:
            _check_number(doc[key], key, nullable=False)
    for i, entry in enumerate(doc["ultrasonic_scene"]):
        path = f"ultrasonic_scene[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "must be an object")
        _check_number(entry.get("theta_deg"), f"{path}.theta_deg", nullable=False)
        for key in ("t_s", "distance_m"):
            _check_number(entry.get(key), f"{path}.{key}", nullable=True)
    return doc


def _check_number(value, path: str, nullable: bool) -> None:
    if value is None and nullable:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        kind = "a finite number or null" if nullable else "a finite number"
        raise SchemaError(path, f"must be {kind}, got {value!r:.40}")


def packaged_config_text(name: str) -> str:
    return resources.files("flowbot.configs").joinpath(name).read_text(encoding="utf-8")


def packaged_graph(name: str = "reference_pipeline.json") -> GraphDef:
    return graph_from_json(json.loads(packaged_config_text(name)))
