"""In-memory span tracer for the benchmark's own calls into each layer.

Every call the benchmark makes across a layer boundary runs inside
``tracer.span(name)``.  A span always measures (the workloads read
``span.dur`` for their own timings, so there is one timing mechanism),
but it is *recorded* — name, start, end, parent, op id — only while
``tracer.enabled`` is set, which only a ``--trace 1`` run does.  Spans
stay in memory until the run ends and are then written as Chrome-trace
JSON (``chrome://tracing`` / Perfetto "X" events).

A span's self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import json
from time import perf_counter

__all__ = ["Tracer", "Span"]


class Span:
    """One timed interval; a context manager handed out by :class:`Tracer`."""

    __slots__ = ("tracer", "name", "start", "end", "parent", "op", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = -1
        self.op = -1
        self.index = -1

    @property
    def dur(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        tracer = self.tracer
        if tracer.enabled:
            self.parent = tracer._stack[-1] if tracer._stack else -1
            self.op = tracer.op
            self.index = len(tracer.spans)
            tracer.spans.append(self)
            tracer._stack.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf_counter()
        if self.index >= 0:
            self.tracer._stack.pop()


class Tracer:
    """Hands out spans; keeps the recorded ones until the run ends."""

    def __init__(self) -> None:
        self.enabled = False
        #: id of the op the next recorded spans belong to (-1 = outside any op)
        self.op = -1
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str) -> Span:
        return Span(self, name)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every recorded span, by span index."""
        out = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.dur
        return out

    def by_name(self) -> dict[str, list[float]]:
        """Durations of the recorded spans, grouped by name."""
        out: dict[str, list[float]] = {}
        for s in self.spans:
            out.setdefault(s.name, []).append(s.dur)
        return out

    def coverage_pct(self, root: str = "op") -> float:
        """Share of the ``root`` spans' time that named child spans cover."""
        total = covered = 0.0
        for s in self.spans:
            if s.name == root:
                total += s.dur
            elif s.parent >= 0 and self.spans[s.parent].name == root:
                covered += s.dur
        return 100.0 * covered / total if total else 0.0

    # -- export ---------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The recorded spans as a Chrome-trace ("X" complete events) object."""
        if not self.spans:
            return {"traceEvents": []}
        t0 = min(s.start for s in self.spans)
        self_times = self.self_times()
        events = [
            {
                "name": s.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round(s.dur * 1e6, 3),
                "args": {
                    "op": s.op,
                    "parent": s.parent,
                    "self_us": round(self_times[s.index] * 1e6, 3),
                },
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
