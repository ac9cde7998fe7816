"""In-memory spans around every call the benchmark makes into rankcert.

A span is (name, start, end, parent, request).  Request spans have no
parent; a call span's parent is the request span it ran in.  Span names
are "<module>.<function>" with an optional split suffix, so a layer is
the part of the name before the first dot.  Spans stay in memory during
the run and are written out once, at exit.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter


class NullTracer:
    """Runs the same calls as Tracer and records nothing."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass

    def begin(self, request_id, start):
        pass

    def end(self, stop):
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, request]
        self.counts = Counter()
        self._parent = None
        self._request = None

    def begin(self, request_id, start):
        self._parent = len(self.spans)
        self._request = request_id
        self.spans.append(["request", start, None, None, request_id])

    def end(self, stop):
        self.spans[self._parent][2] = stop
        self._parent = self._request = None

    def call(self, name, fn, *args):
        start = perf_counter()
        out = fn(*args)
        self.spans.append([name, start, perf_counter(), self._parent, self._request])
        return out

    def count(self, name, n=1):
        self.counts[name] += n

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent, "request": request}))
                fh.write("\n")

    def layer_metrics(self) -> dict:
        """Calls, busy time and p50 per span name; self time per layer of a request."""
        child_time = defaultdict(float)
        durations = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if end is None:
                continue
            durations[name].append(end - start)
            if parent is not None:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            if end is not None and (parent is not None or name == "request"):
                self_time[name.split(".")[0]] += end - start - child_time[idx]
        out = {}
        for name, ds in durations.items():
            if name == "request":
                continue
            out[f"{name}.calls"] = len(ds)
            out[f"{name}.busy_s"] = sum(ds)
            out[f"{name}.p50_ms"] = statistics.median(ds) * 1e3
        for layer, t in self_time.items():
            out[f"{layer}.self_s"] = t
        requests = sum(durations["request"])
        out["trace.coverage"] = sum(child_time.values()) / requests if requests else 0.0
        out.update(self.counts)
        return out
