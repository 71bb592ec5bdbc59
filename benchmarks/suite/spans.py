"""Benchmark-side spans for the traced pass.

The spans are recorded around the benchmark's own calls into each layer
(no probe lives under ``src/``).  A span has a name, start, end, the
span that caused it, and the id of the statement it belongs to.  Spans
stay in memory and are written out once, after the measured window.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "statement")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 statement: int):
        self.name = name
        self.start = start
        self.end = start
        #: Index of the causing span in the recorder's list (None: root).
        self.parent = parent
        self.statement = statement

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """One thread's spans.  Not thread-safe: each client owns one."""

    def __init__(self, client: int = 0):
        self.client = client
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._statement = 0

    def next_statement(self) -> int:
        self._statement += 1
        return self._statement

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, perf_counter(), parent, self._statement)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` (children may overlap when
    they ran on other threads)."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Self time of every span, in the order given: duration minus the
    part of the span's own interval that its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            clipped = (max(span.start, parent.start),
                       min(span.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(span.parent, []).append(clipped)
    return [span.duration - covered(children.get(index, []))
            for index, span in enumerate(spans)]


def by_name(spans: List[Span], values: List[float]) -> Dict[str, List[float]]:
    """Group per-span ``values`` (durations or self times) by span name."""
    grouped: Dict[str, List[float]] = {}
    for span, value in zip(spans, values):
        grouped.setdefault(span.name, []).append(value)
    return grouped


def dump(path: str, recorders: List[SpanRecorder], summary: dict,
         limit: int = 50_000) -> None:
    """Write the span files: the summary plus up to ``limit`` spans per
    client (the head of the run; every span counted toward the summary
    regardless)."""
    clients = []
    for recorder in recorders:
        clients.append({
            "client": recorder.client,
            "span_count": len(recorder.spans),
            "spans": [
                {"id": index, "name": span.name, "start": span.start,
                 "end": span.end, "parent": span.parent,
                 "statement": span.statement}
                for index, span in enumerate(recorder.spans[:limit])],
        })
    with open(path, "w") as handle:
        json.dump({"summary": summary, "clients": clients}, handle)
        handle.write("\n")
