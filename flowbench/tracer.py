"""Span tracer for the traced run.

Spans are recorded from outside the program: the benchmark replaces bound
methods on the objects a ``GraphRunner`` exposes (node handlers, stream
push/pop, ``runner.emit``, the aggregator's ``feed``) and on the objects it
owns (the skill registry, the log-mel detector) with timing wrappers. Each
span has a name, start, end, parent span and run id. Per-name counts,
inclusive time and self time (duration minus the part covered by child
spans) are accumulated for every span; the spans themselves are kept in
memory up to a cap and written as Chrome Trace Event JSON at the end, which
Perfetto and chrome://tracing open directly.
"""

from __future__ import annotations

import json
from time import perf_counter

# Enough for one traced repetition of every workload; bounds memory and the
# size of the trace file.
MAX_KEPT_SPANS = 250_000


class Tracer:
    def __init__(self):
        self.run_id = 0
        self.keep = True
        self.spans: list = []  # (name, start_s, end_s, parent_index, run_id)
        self.stats: dict[str, list] = {}  # name -> [count, inclusive_s, self_s]
        self._stack: list[list] = []  # open spans: [span_index, child_s]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans = self._stack, self.spans
        keep, run_id = self.keep, self.run_id

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep and len(spans) < MAX_KEPT_SPANS:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if index >= 0:
                    spans[index] = (name, t0, t1, parent[0] if parent is not None else -1, run_id)

        return traced

    def count(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def write_chrome_trace(self, path: str, metadata: dict) -> int:
        """Write the kept spans as complete ("X") events; returns the count."""
        kept = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        origin = min((s[1] for _, s in kept), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"displayTimeUnit":"ms","otherData":')
            fh.write(json.dumps(metadata, sort_keys=True))
            fh.write(',"traceEvents":[')
            for n, (i, (name, t0, t1, parent, run_id)) in enumerate(kept):
                event = {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((t0 - origin) * 1e6, 3),
                    "dur": round((t1 - t0) * 1e6, 3),
                    "pid": 1,
                    "tid": run_id,
                    "args": {"span": i, "parent": parent, "run": run_id},
                }
                fh.write(("," if n else "") + json.dumps(event, separators=(",", ":")))
            fh.write("]}\n")
        return len(kept)
