"""Spans recorded by the benchmark around each call into a noflip layer.

Every span is timed whether or not tracing is on, because the untraced
run needs the same latencies.  Tracing on means the span is also kept:
its request id, its own id, its parent's id, its name and both clock
readings.  Kept spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Span:
    __slots__ = ("tracer", "name", "rid", "sid", "parent", "start", "ns")

    def __init__(self, tracer: Tracer, name: str, rid: int, parent: int | None):
        self.tracer = tracer
        self.name = name
        self.rid = rid
        self.parent = parent
        self.sid = 0
        self.ns = 0

    def __enter__(self) -> Span:
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter_ns()
        self.ns = end - self.start
        if self.tracer.enabled:
            self.tracer.keep(self, end)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._next_sid = 1

    def span(self, name: str, rid: int, parent: Span | None = None) -> Span:
        s = Span(self, name, rid, parent.sid if parent is not None else None)
        if self.enabled:
            s.sid = self._next_sid
            self._next_sid += 1
        return s

    def keep(self, span: Span, end: int) -> None:
        self.spans.append(
            (span.rid, span.sid, span.parent, span.name, span.start, end)
        )

    def self_ns_by_layer(self, spans: list[tuple]) -> dict[str, int]:
        """Self time per layer: each span's duration minus the part its
        children cover, summed over the layer named before the first dot."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for _, sid, _, name, start, end in spans:
            out[name.split(".", 1)[0]] += end - start - child_ns[sid]
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rid, sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"rid": rid, "sid": sid, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
