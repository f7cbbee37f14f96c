#!/usr/bin/env python3
"""flowbot benchmark: seeded replay workloads under the virtual clock.

Usage (from the repository root):

    python3 flowbench/run.py --workload speech_ref --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes a Chrome trace to ``.flowbench_out/``). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. See ``flowbench/README.md`` for what each number means.
"""

import argparse
import json
import os
import shutil
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".flowbench_work")

WORKLOADS = ("speech_ref", "executor_fanout", "kws_frontend_48k")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()

    if not os.path.isfile(os.path.join(SRC, "flowbot", "__init__.py")):
        print(f"error: the program's source is missing ({SRC}/flowbot)", file=sys.stderr)
        return 2
    # one thread, as the workloads are defined; set before numpy loads BLAS,
    # and inherited by the set-up children
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    import flowbot

    if not os.path.abspath(flowbot.__file__).startswith(SRC + os.sep):
        print(f"error: flowbot imported from {flowbot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import measure
    import workloads

    machine = measure.machine_info()
    os.makedirs(WORK_DIR, exist_ok=True)
    in_dir = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(in_dir)
    try:
        workloads.generate(args.workload, args.seed, in_dir)
        workload = workloads.Workload(in_dir)
        gate = measure.Gate(workload)
        if args.trace:
            trace_path = os.path.join(measure.OUT_DIR, f"trace-{args.workload}.json")
            metrics, info = measure.per_layer(workload, gate, in_dir, args.seconds, started,
                                              args.seed, trace_path, machine)
            units = measure.per_layer_units(metrics)
        else:
            metrics, info = measure.end_to_end(workload, gate, in_dir, args.seconds, started)
            units = measure.END_TO_END_UNITS
    finally:
        shutil.rmtree(in_dir, ignore_errors=True)

    print(json.dumps({"machine": machine, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "info": info, "errors": gate.errors,
                      "wall_s": round(perf_counter() - started, 3)}))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
