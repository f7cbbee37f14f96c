"""File-level loading of graph and scene documents."""

from __future__ import annotations

import json
from importlib import resources

from ..flowcore.graphdef import GraphDef, graph_from_json
from ..flowcore.schema import SchemaError, check_value, get_value


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
    scene = get_value(check_value(doc, "$", dict), "ultrasonic_scene", "", list)
    for key in ("d_max_m", "c_air_mps", "climb_height_m"):
        if key in doc:
            check_value(doc[key], key, float)
    for i, entry in enumerate(scene):
        path = f"ultrasonic_scene[{i}]"
        get_value(check_value(entry, path, dict), "theta_deg", path, float)
        for key in ("t_s", "distance_m"):
            get_value(entry, key, path, float, None)
    return doc


def packaged_config_text(name: str) -> str:
    return resources.files("flowbot.configs").joinpath(name).read_text(encoding="utf-8")


def packaged_graph(name: str = "reference_pipeline.json") -> GraphDef:
    return graph_from_json(json.loads(packaged_config_text(name)))
