"""Fresh-interpreter set-up and memory probe for one generated workload.

Usage: python3 child.py <input-dir> <spawn-monotonic-s> [--setup-only]

The parent stamps ``time.monotonic()`` just before it spawns this process;
both sides read the same system-wide monotonic clock. The child imports the
program, loads the generated files, decodes the audio, builds the
``GraphRunner`` and stamps again: that interval is the set-up time. Unless
``--setup-only`` is given, it then runs the workload once and serialises the
report as the public entry point does. It prints one JSON line with the
set-up phases and, after a run, the report digest, the oracle errors and
its peak resident set size.
"""

import json
import resource
import sys
import time


def main() -> None:
    in_dir, spawned = sys.argv[1], float(sys.argv[2])
    import workloads  # imports the program

    t_import = time.monotonic()
    workload = workloads.Workload(in_dir)
    t_load = time.monotonic()
    audio = workload.decode_audio()
    t_decode = time.monotonic()
    runner = workload.build_runner(workloads.VirtualClock(), audio=audio)
    t_built = time.monotonic()
    result = {
        "setup_s": t_built - spawned,
        "import_s": t_import - spawned,
        "load_s": t_load - t_import,
        "audio_decode_s": t_decode - t_load,
        "build_s": t_built - t_decode,
    }
    if "--setup-only" not in sys.argv[3:]:
        report_bytes = workload.finish(runner.run())
        result.update({
            "digest": workloads.digest(report_bytes),
            "errors": workload.check(report_bytes),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
