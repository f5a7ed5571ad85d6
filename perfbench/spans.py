"""In-memory spans recorded around the benchmark's calls into each layer.

A span has an id (its index), a name ``<layer>.<call>``, a start and an end (seconds on the
``perf_counter`` clock), the index of its parent span, and an instance id
for per-instance calls.  Spans are kept in a list and written out once, at
the end of the run.  The untraced run uses ``NULL_TRACER``, whose spans
record nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, instance: int | None = None):
        index = len(self.spans)
        record = {
            "id": index,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "instance": instance,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


class _NullTracer:
    def span(self, name: str, instance: int | None = None):
        return nullcontext()


NULL_TRACER = _NullTracer()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def descendants(spans: list[dict], root: int) -> list[dict]:
    """Every span below ``root``; parents always precede their children."""
    inside = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i]["parent"] in inside:
            inside.add(i)
            out.append(spans[i])
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += duration(s)
    by_layer = defaultdict(float)
    for s in spans:
        by_layer[s["name"].split(".", 1)[0]] += duration(s) - child_time[s["id"]]
    return dict(by_layer)
