"""File-level loading of graph and scene documents."""

from __future__ import annotations

import os

from ..flowcore.graphdef import GraphDef, graph_from_json
from ..flowcore.schema import check_value, get_value, read_document
from ..robotics.geometry import echo_round_trip_s

#: the JSON documents shipped in ``flowbot/configs``
_CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def load_graph_config(source) -> GraphDef:
    """Load a GraphDef from a dict or a file path.

    Schema violations raise :class:`SchemaError` naming the offending key.
    """
    return graph_from_json(read_document(source))


def load_scan_scene(source) -> tuple[list, SweepConfig, float]:
    """Load an ultrasonic scene, {"ultrasonic_scene": [...], "climb_height_m": ...},
    from a dict or a file path.

    Each scene entry needs a number ``theta_deg``; its ``t_s`` and
    ``distance_m`` are numbers or null. The optional ``d_max_m``,
    ``c_air_mps`` and ``climb_height_m`` are numbers. Anything else raises
    :class:`SchemaError` naming the key. Returns the readings ``(theta_deg,
    t_s)`` that :func:`scan_to_points` takes (``t_s`` None for no echo, or
    the round trip of ``distance_m`` when ``t_s`` is null), the sweep config
    and the climb height.
    """
    from ..robotics.sweep import SweepConfig  # only the scan command needs it

    doc = read_document(source)
    scene = get_value(check_value(doc, "$", dict), "ultrasonic_scene", "", list)
    config = SweepConfig(
        d_max_m=get_value(doc, "d_max_m", "", float, 2.5),
        c_air_mps=get_value(doc, "c_air_mps", "", float, 346.0),
    )
    readings = []
    for i, entry in enumerate(scene):
        path = f"ultrasonic_scene[{i}]"
        theta = get_value(check_value(entry, path, dict), "theta_deg", path, float)
        t_s = get_value(entry, "t_s", path, float, None)
        distance = get_value(entry, "distance_m", path, float, None)
        if t_s is None and distance is not None:
            t_s = echo_round_trip_s(distance, config.c_air_mps)
        readings.append((theta, t_s))
    return readings, config, get_value(doc, "climb_height_m", "", float, 0.05)


def packaged_config_text(name: str) -> str:
    with open(os.path.join(_CONFIG_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()
