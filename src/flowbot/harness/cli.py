"""Command line interface.

Subcommands:
  run       execute a scenario against a graph config, emit the JSON report
  validate  structurally check a graph config
  params    print the reference model's parameter-count table
  scan      classify an ultrasonic scene into obstacle points (CSV)

Exit codes: 0 success, 1 run failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..flowcore.aggregator import SampleChunk
from ..flowcore.runtime import GraphValidationError
from ..flowcore.schema import SchemaError, check_value
from ..flowcore.validation import validate_graph
from ..robotics.geometry import BeamMode
from .config import load_graph_config, load_scan_scene
from .nodes import harness_kind_registry
from .reference import reference_pipeline, report_to_json_str, run_scenario
from .scenario import load_scenario


def _load(loader, flag: str, path: str):
    """``loader(path)``; a file it cannot read or parse raises ValueError
    whose message ends with the flag that named the file and its path."""
    try:
        return loader(path)
    # SchemaError, JSONDecodeError and UnicodeDecodeError are ValueErrors
    except (OSError, ValueError) as exc:
        raise ValueError(f"{exc} ({flag} {path})") from exc


def _write(flag: str, path: str, text: str) -> int:
    """Write ``text`` to ``path``: 0, or 2 after an error naming the flag."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc} ({flag} {path})", file=sys.stderr)
        return 2
    return 0


def _cmd_run(args) -> int:
    try:
        graph = _load(load_graph_config, "--graph", args.graph) if args.graph else reference_pipeline()
        scenario = _load(load_scenario, "--scenario", args.scenario)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_scenario(graph, scenario, seed=args.seed)
    except (GraphValidationError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report_to_json_str(report)
    if not args.report:
        print(text)
    elif _write("--report", args.report, text + "\n"):
        return 2
    return 0 if report["status"] == "ok" else 1


def _cmd_validate(args) -> int:
    try:
        graph = _load(load_graph_config, "--graph", args.graph) if args.graph else reference_pipeline()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diags = validate_graph(graph, harness_kind_registry(), env=_validation_env())
    if not diags:
        print("ok")
        return 0
    for d in diags:
        print(str(d), file=sys.stderr)
    return 2


def _validation_env() -> dict:
    # audio_source factories need audio present; validation runs with a stub
    return {"audio": SampleChunk(np.zeros(1), 16000)}


def _cmd_params(args) -> int:
    from ..perception.layers import kws_reference_table

    print(kws_reference_table().format())
    return 0


def _cmd_scan(args) -> int:
    from ..robotics.sweep import scan_points_to_csv, scan_to_points

    mode = BeamMode.PAPER if args.mode == "paper" else BeamMode.TRIG
    try:
        raw, config, climb = _load(load_scan_scene, "--scene", args.scene)
        if args.climb is not None:
            climb = check_value(args.climb, "--climb", float)
        points = scan_to_points(raw, config=config, climb_height_m=climb, mode=mode)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    csv_text = scan_points_to_csv(points)
    if args.out:
        return _write("--out", args.out, csv_text)
    print(csv_text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowbot", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and emit the JSON report")
    p_run.add_argument("--graph", help="graph config JSON (default: shipped reference pipeline)")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--report", help="write the report here instead of stdout")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a graph config")
    p_val.add_argument("--graph", help="graph config JSON (default: shipped reference pipeline)")
    p_val.set_defaults(fn=_cmd_validate)

    p_par = sub.add_parser("params", help="print the model parameter-count table")
    p_par.set_defaults(fn=_cmd_params)

    p_scan = sub.add_parser("scan", help="convert an ultrasonic scene to obstacle points")
    p_scan.add_argument("--scene", required=True, help="scene JSON file")
    p_scan.add_argument("--mode", choices=["paper", "trig"], default="paper")
    p_scan.add_argument("--climb", type=float, default=None, help="climbable height bound in meters")
    p_scan.add_argument("--out", help="write CSV here instead of stdout")
    p_scan.set_defaults(fn=_cmd_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
