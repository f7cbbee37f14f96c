"""Measurement loops, the correctness gate and the set-up children.

``end_to_end`` interleaves plain (timed) repetitions, recording-clock
repetitions and fresh-interpreter set-up children for the requested number
of seconds and reports medians. ``per_layer`` alternates plain and traced
repetitions, adds the set-up phases and the kernel timings, and writes the
kept spans as a Chrome trace.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from time import perf_counter

import numpy

import hostspeed
import kernels
from traced import DepthProbe, instrument, report_metrics, span_metrics
from tracer import Tracer
from workloads import CountingClock, RecordingClock, demo_registry, digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".flowbench_out")

RUN_TIMEOUT_S = 60.0  # per repetition; a hang counts as a failed run
HARD_STOP_S = 140.0  # stop repeating after this long, whatever the minimums
SETUP_CHILDREN = 12  # fresh-interpreter set-up samples in an end-to-end run
RSS_CHILDREN = 3  # of which this many also run the workload, for memory and digest
SETUP_CHILDREN_TRACED = 3
MIN_REPS = 3

END_TO_END_UNITS = {
    "realtime_factor": "s/s",
    "tick_p50_us": "us",
    "tick_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class RunTimeout(BaseException):
    """Raised by the wall-clock alarm; a BaseException so that the
    executor's per-node ``except Exception`` cannot swallow it."""


@contextmanager
def wall_limit(seconds: float):
    def on_alarm(signum, frame):
        raise RunTimeout(f"repetition exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Gate:
    """Correctness gate: every run's report must match the reference bytes,
    and the reference must pass status, conservation and the oracles."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {why}")

    def check_digest(self, label: str, report_digest: str, errors=()) -> bool:
        self.attempted += 1
        if errors:
            self.fail(label, "; ".join(errors))
            return False
        if report_digest != self.reference:
            self.fail(label, "report bytes differ from the first repetition")
            return False
        return True

    def run(self, label: str, fn):
        """Run ``fn`` (which returns report bytes and a result) under the
        wall limit; returns the result, or None if the run failed."""
        gc.collect()
        try:
            with wall_limit(RUN_TIMEOUT_S):
                report_bytes, result = fn()
            report_digest = digest(report_bytes)
            errors = self.workload.check(report_bytes) if self.reference is None else ()
        except (Exception, RunTimeout) as exc:
            self.attempted += 1
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None
        if self.reference is None:
            self.reference = report_digest
        return result if self.check_digest(label, report_digest, errors) else None


def spawn_child(in_dir: str, run: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), in_dir, repr(spawned)]
        + ([] if run else ["--setup-only"]),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunTimeout(f"set-up child exceeded {RUN_TIMEOUT_S:g} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {err.decode()[-500:]}")
    return json.loads(out.decode().strip().splitlines()[-1])


def run_child(gate: Gate, in_dir: str, run: bool = True) -> dict | None:
    """One set-up child, gated; returns its result, or None if it failed.
    A child that also runs the workload must reproduce the reference report."""
    try:
        child = spawn_child(in_dir, run)
    except (Exception, RunTimeout) as exc:
        gate.attempted += 1
        gate.fail("setup child", f"{type(exc).__name__}: {exc}")
        return None
    if not run:
        gate.attempted += 1
        return child
    return child if gate.check_digest("setup child", child["digest"], child["errors"]) else None


def timed_plain(workload):
    registry = demo_registry()
    t0 = perf_counter()
    report_bytes = workload.run_plain(registry)
    wall = perf_counter() - t0
    return report_bytes, workload.virtual_s / wall


def recorded(workload):
    clock = RecordingClock()
    runner = workload.build_runner(clock)
    report_bytes = workload.finish(runner.run())
    return report_bytes, clock.tick_us()


def end_to_end(workload, gate: Gate, in_dir: str, seconds: float, started: float) -> tuple[dict, dict]:
    """Interleave plain and recording-clock repetitions and set-up children
    for ``seconds``, and report medians over them.

    The host's speed is probed before and after every repetition and
    set-up child, and each time is scaled to the reference host speed by
    the mean of the two probes (see hostspeed.py and README.md).
    """
    samples = {
        k: [] for k in ("rtf", "p50", "p99", "setup", "rss",
                        "rtf_slowdown", "tick_slowdown", "setup_slowdown")
    }
    tick_counts = []
    gate.run("warm-up", lambda: timed_plain(workload))

    def probed(fn):
        before = hostspeed.probe()
        result = fn()
        return result, (before + hostspeed.probe()) / 2

    loop_start = perf_counter()
    while True:
        elapsed = perf_counter() - loop_start
        done = (
            elapsed >= seconds and len(samples["rtf"]) >= MIN_REPS
            and len(samples["p99"]) >= MIN_REPS and len(samples["setup"]) >= SETUP_CHILDREN
        )
        if done or perf_counter() - started > HARD_STOP_S or gate.failed:
            break
        # spread the set-up children evenly over the measured interval
        if len(samples["setup"]) < min(SETUP_CHILDREN, 1 + int(elapsed / seconds * SETUP_CHILDREN)):
            run = len(samples["setup"]) < RSS_CHILDREN
            child, slowdown = probed(lambda: run_child(gate, in_dir, run))
            if child is not None:
                samples["setup"].append(child["setup_s"])
                samples["setup_slowdown"].append(slowdown)
                if run:
                    samples["rss"].append(child["peak_rss_mib"])
        value, slowdown = probed(lambda: gate.run("plain", lambda: timed_plain(workload)))
        if value is not None:
            samples["rtf"].append(value)
            samples["rtf_slowdown"].append(slowdown)
        ticks, slowdown = probed(lambda: gate.run("recording clock", lambda: recorded(workload)))
        if ticks is not None:
            samples["p50"].append(float(numpy.percentile(ticks, 50)))
            samples["p99"].append(float(numpy.percentile(ticks, 99)))
            samples["tick_slowdown"].append(slowdown)
            tick_counts.append(len(ticks))
    median = lambda xs: statistics.median(xs) if xs else 0.0
    metrics = {
        "realtime_factor": median([v * s for v, s in zip(samples["rtf"], samples["rtf_slowdown"])]),
        "tick_p50_us": median([v / s for v, s in zip(samples["p50"], samples["tick_slowdown"])]),
        "tick_p99_us": median([v / s for v, s in zip(samples["p99"], samples["tick_slowdown"])]),
        "setup_s": median([v / s for v, s in zip(samples["setup"], samples["setup_slowdown"])]),
        "peak_rss_mib": median(samples["rss"]),
    }
    info = {
        "plain_reps": len(samples["rtf"]),
        "recording_reps": len(samples["p99"]),
        "ticks_per_rep": tick_counts[0] if tick_counts else 0,
        "setup_children": len(samples["setup"]),
        "host_slowdown_median": round(median(samples["rtf_slowdown"] + samples["tick_slowdown"]), 4),
        "realtime_factor_unscaled": round(median(samples["rtf"]), 4),
        "tick_p50_us_unscaled": round(median(samples["p50"]), 4),
        "tick_p99_us_unscaled": round(median(samples["p99"]), 4),
        "setup_s_unscaled": round(median(samples["setup"]), 4),
        "samples": {k: [round(x, 4) for x in v] for k, v in samples.items()},
    }
    return metrics, info


def per_layer(workload, gate: Gate, in_dir: str, seconds: float, started: float,
              seed: int, trace_path: str, machine: dict) -> tuple[dict, dict]:
    def plain_report():
        report_bytes, _ = timed_plain(workload)
        return report_bytes, report_bytes

    reference = gate.run("warm-up", plain_report)
    children = [run_child(gate, in_dir) for _ in range(SETUP_CHILDREN_TRACED)]
    children = [c for c in children if c is not None]
    ticks = gate.run("recording clock", lambda: recorded(workload))

    tracer, depth = Tracer(), DepthProbe()
    plain_rtf, traced_rtf, traced_wall = [], [], [0.0]
    dispatches, aggregator_windows = [0], [0]

    def traced_rep():
        registry = demo_registry()
        registry.dispatch = tracer.wrap("skills.dispatch", registry.dispatch)
        clock = CountingClock()
        t0 = perf_counter()
        audio = tracer.wrap("harness.scenario_audio", workload.decode_audio)()
        runner = tracer.wrap("flowcore.build", workload.build_runner)(
            clock, audio=audio, registry=registry, extra_env={"bench_tracer": tracer}
        )
        instrument(runner, tracer, depth)
        report = tracer.wrap("flowcore.run", runner.run)()
        report_bytes = tracer.wrap("flowcore.report", workload.finish)(report)
        wall = perf_counter() - t0
        traced_wall[0] += wall
        dispatches[0] += clock.dispatches
        aggregator_windows[0] += sum(
            n.agg.emitted for n in runner.nodes.values() if hasattr(n, "agg")
        )
        tracer.run_id += 1
        tracer.keep = False  # keep the spans of the first traced repetition only
        return report_bytes, workload.virtual_s / wall

    kernel_budget = 3.0
    loop_start = perf_counter()
    while not gate.failed and perf_counter() - started < HARD_STOP_S:
        elapsed = perf_counter() - loop_start
        if elapsed >= seconds - kernel_budget and len(traced_rtf) >= 2 and len(plain_rtf) >= 2:
            break
        value = gate.run("plain", lambda: timed_plain(workload))
        if value is not None:
            plain_rtf.append(value)
        value = gate.run("traced", traced_rep)
        if value is not None:
            traced_rtf.append(value)

    kernel_values, kernel_errors = kernels.measure(seed)
    gate.attempted += 1
    if kernel_errors:
        gate.fail("kernels", "; ".join(kernel_errors))

    metrics = dict(kernel_values)
    reps = max(len(traced_rtf), 1)
    metrics.update(span_metrics(tracer, reps, max(dispatches[0], 1), max(traced_wall[0], 1e-9)))
    metrics["flowcore.aggregator.windows"] = aggregator_windows[0] / reps
    metrics["flowcore.stream.max_depth"] = float(depth.max_depth)
    if reference is not None:
        doc = json.loads(reference)
        metrics.update(report_metrics(workload.graph, doc))
        metrics["flowcore.report.bytes"] = float(len(reference))
    metrics["flowcore.clock.ticks"] = float(len(ticks)) if ticks is not None else 0.0
    for phase in ("import_s", "load_s", "audio_decode_s", "build_s"):
        metrics[f"setup.{phase}"] = statistics.median([c[phase] for c in children]) if children else 0.0
    rtf_plain = statistics.median(plain_rtf) if plain_rtf else 0.0
    rtf_traced = statistics.median(traced_rtf) if traced_rtf else 0.0
    metrics["trace.realtime_factor_plain"] = rtf_plain
    metrics["trace.realtime_factor_traced"] = rtf_traced
    metrics["trace.overhead_pct"] = (1.0 - rtf_traced / rtf_plain) * 100 if rtf_plain else 0.0

    os.makedirs(OUT_DIR, exist_ok=True)
    kept = tracer.write_chrome_trace(trace_path, {
        "machine": machine, "workload": workload.name, "seed": seed, "run": 0,
    })
    info = {"trace_file": os.path.relpath(trace_path, ROOT), "trace_spans": kept,
            "plain_reps": len(plain_rtf), "traced_reps": len(traced_rtf)}
    return metrics, info


def per_layer_units(metrics: dict) -> dict:
    def unit(name: str) -> str:
        if name.endswith(("_us", ".us_per_call", ".self_us_per_call", "_us_per_dispatch")):
            return "us"
        if name.endswith("_s"):
            return "s"
        if name.endswith(".ms_per_call"):
            return "ms"
        if name.endswith("_pct"):
            return "%"
        if name.endswith(("_ratio", ".coverage")) or ".self_share." in name:
            return "ratio"
        if name.endswith(".bytes"):
            return "bytes"
        if name.startswith("trace.realtime_factor"):
            return "s/s"
        return "count"

    return {name: unit(name) for name in metrics}
