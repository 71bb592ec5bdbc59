"""Request-scoped tracing for the serving layer.

A :class:`RequestTrace` is a tree of :class:`Span` records covering one
wire request end to end — wire read to response flush — keyed by a
per-request ``trace_id``.  Spans carry ``time.monotonic_ns`` timestamps;
on Linux ``CLOCK_MONOTONIC`` is system-wide, so timestamps recorded
inside forked snapshot/parallel workers are directly comparable to the
parent's and a worker-side span *fragment* can be grafted into the
parent tree with no clock translation (:meth:`RequestTrace.
attach_worker_fragments` groups fragments by worker pid).

Every instrumentation site guards on ``trace is not None``, and the
:class:`SpanRecorder`'s sampling decision (``maybe_start``) returns
``None`` without allocating when tracing is off or this request lost the
sampling draw — the untraced hot path pays one attribute read and one
``is not None`` branch per site.

Sampling is deterministic (a modular counter, not ``random``): ``"off"``
never traces, ``"always"`` traces every request, a ratio ``0 < r < 1``
traces every ``round(1/r)``-th request — reproducible in tests and free
of RNG state that would differ across forks.

The same tree carries a compile.  ``compile_statement`` opens one span
per Figure-1 phase (``parse``, ``rewrite``, ``optimize``, ``refine``,
``codegen``), and each decision a phase makes is an *event*
(:meth:`RequestTrace.event`): a zero-length child of the current span
whose name is the event's kind and whose attrs are its fields.  Kinds in
use (extensible — DBC code may emit its own):

- ``rewrite.fire``     — a rule fired: ``rule``, ``rule_class``, ``box``,
  ``budget_spent``,
- ``rewrite.budget``   — the rewrite budget ran out: ``budget``,
- ``rewrite.search``   — search-mode progress, by ``phase``: ``baseline``
  (sequential fixpoint costed), ``explore`` (one alternative firing
  tried on a snapshot), ``fire`` (a firing of the adopted sequence) or
  ``done`` (summary: chosen variant, cost),
- ``star``             — a STAR expansion produced plans: ``star``,
  ``alternatives``, ``produced``, ``plans`` (the first three),
- ``optimizer.prune``  — plans pruned for a quantifier ``subset``:
  ``considered``, ``kept``, ``losing_costs``,
- ``optimizer.winner`` — a box's winning ``plan``, ``cost``, ``card``,
  ``considered``,
- ``optimizer.plan``   — the final plan's ``cost``, ``card`` and per-node
  ``breakdown``,
- ``glue.parallel``    — the parallel glue looked at a scan: ``node``,
  ``scan``, ``eligible``, ``spliced`` (the Exchange, or None), ``dop``,
- ``codegen.pipeline`` — the codegen backend emitted one fused pipeline:
  ``region``, ``pipeline``, ``table``, ``role``, ``shared`` (code object
  reused from the cross-statement cache), ``source_lines``.

Every emit site guards on ``trace is not None``, so an untraced compile
allocates no span.

The same tree carries what each LOLEPOP did, when the trace asks for
operator detail (``RequestTrace(..., operators=True)``; EXPLAIN ANALYZE
sets it).  Every executed plan node then gets one span under
``execute`` (:class:`OpSpans`):

- ``op``           — ``op`` (operator name), ``node`` (its
  ``plan.walk()`` index), ``est`` and ``cost`` (the optimizer's
  estimates), ``rows`` (items yielded), ``loops`` (times opened) and
  ``time_ns`` (inclusive wall time, measured around each ``next()`` so
  consumer time between pulls is never billed to the producer).  Inside
  a fused region only the root is timed; the other nodes get rows from
  the row counters of the region's analyze variant,
- ``worker.morsel`` — one forked task of an exchange, grafted under the
  exchange's ``op`` span inside a per-pid ``worker`` group: ``pid``,
  ``pages`` (the morsel's page range), ``rows`` (rows it returned),
  and the task's own ``op`` spans, keyed by the same walk indices.

``repro.obs.render.render_analyze`` renders EXPLAIN ANALYZE from these
spans alone.  With operator detail off, each dispatch site pays one
``ctx.ops is not None`` branch.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import deque
from contextlib import contextmanager
from time import monotonic_ns, perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple


class Span:
    """One timed region: name, monotonic-ns bounds, attrs, children."""

    __slots__ = ("name", "start_ns", "end_ns", "attrs", "children")

    def __init__(self, name: str, start_ns: Optional[int] = None):
        self.name = name
        self.start_ns = start_ns if start_ns is not None else monotonic_ns()
        self.end_ns: Optional[int] = None
        self.attrs: Dict[str, Any] = {}
        self.children: List["Span"] = []

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self) -> "Span":
        if self.end_ns is None:
            self.end_ns = monotonic_ns()
        return self

    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None else monotonic_ns()
        return end - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def child(self, name: str) -> "Span":
        span = Span(name)
        self.children.append(span)
        return span

    def find_all(self, name: str) -> List["Span"]:
        """Every span with ``name`` in this subtree, depth-first — for
        events, the order they were emitted in."""
        found = [self] if self.name == name else []
        for sub in self.children:
            found.extend(sub.find_all(name))
        return found

    def find(self, name: str) -> Optional["Span"]:
        """First span with ``name`` in this subtree (depth-first)."""
        if self.name == name:
            return self
        for sub in self.children:
            found = sub.find(name)
            if found is not None:
                return found
        return None

    def export(self) -> Tuple:
        """A picklable nested tuple — the cross-process fragment format:
        ``(name, start_ns, end_ns, attrs, (child exports...))``."""
        return (self.name, self.start_ns,
                self.end_ns if self.end_ns is not None else self.start_ns,
                dict(self.attrs),
                tuple(sub.export() for sub in self.children))

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name,
                               "start_ns": self.start_ns,
                               "ms": round(self.duration_ns / 1e6, 4)}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [sub.as_dict() for sub in self.children]
        return out

    def render(self, depth: int = 0) -> str:
        attrs = " ".join("%s=%s" % (key, value)
                         for key, value in self.attrs.items())
        line = "%s%s %.3fms%s" % ("  " * depth, self.name,
                                  self.duration_ns / 1e6,
                                  (" " + attrs) if attrs else "")
        parts = [line]
        parts.extend(sub.render(depth + 1) for sub in self.children)
        return "\n".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Span %s %.3fms children=%d>" % (
            self.name, self.duration_ns / 1e6, len(self.children))


def import_fragment(export) -> Span:
    """Rebuild a :class:`Span` subtree from :meth:`Span.export` output.

    Raises ``ValueError`` on a malformed export; callers that must not
    fail (fragment merging) catch it and record the degradation instead.
    """
    try:
        name, start_ns, end_ns, attrs, children = export
        if not isinstance(name, str) or not isinstance(start_ns, int) \
                or not isinstance(end_ns, int) \
                or not isinstance(attrs, dict):
            raise TypeError
        span = Span(name, start_ns=start_ns)
        span.end_ns = end_ns
        span.attrs = dict(attrs)
        span.children = [import_fragment(sub) for sub in children]
        return span
    except (TypeError, ValueError) as exc:
        raise ValueError("malformed span fragment: %r" % (export,)) \
            from exc


class RequestTrace:
    """The span tree of one request, with a span stack for nesting.

    Not thread-safe by design: a session serializes its own statements,
    so exactly one thread drives a trace at a time.
    """

    __slots__ = ("trace_id", "root", "events", "operators", "_stack")

    def __init__(self, trace_id: str, name: str = "request",
                 operators: bool = False):
        self.trace_id = trace_id
        self.root = Span(name)
        #: Record one ``op`` span per executed plan node (EXPLAIN
        #: ANALYZE); off, execution records only its ``execute`` span.
        self.operators = operators
        #: Events recorded through :meth:`event`.
        self.events = 0
        self._stack: List[Span] = [self.root]

    def current(self) -> Span:
        return self._stack[-1]

    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a child of the current span and make it current.  Pair
        with :meth:`end`; use :meth:`span` where a ``with`` block fits."""
        span = self.current().child(name)
        if attrs:
            span.attrs.update(attrs)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.finish()
        # Strict nesting is the invariant; if an error path skipped an
        # inner end(), close the orphans rather than corrupt the stack.
        while len(self._stack) > 1:
            top = self._stack.pop()
            if top is span:
                return
            top.finish().set(abandoned=True)

    def event(self, kind: str, **data: Any) -> Span:
        """Record one decision as a zero-length child of the current span,
        named ``kind`` with ``data`` as its attrs."""
        span = Span(kind)
        span.end_ns = span.start_ns
        span.attrs = data
        self._stack[-1].children.append(span)
        self.events += 1
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any):
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def attach_worker_fragments(self, parent: Span, fragments) -> int:
        """Graft worker-exported span fragments under ``parent``, grouped
        by worker pid into one ``worker`` span per process.

        ``fragments`` is an iterable of :meth:`Span.export` tuples whose
        root attrs carry ``pid``.  Malformed fragments never raise: the
        degradation is recorded on ``parent`` (``fragment_errors``) and
        the rest of the tree stays intact.
        """
        by_pid: Dict[Any, List[Span]] = {}
        errors = 0
        for export in fragments:
            if export is None:
                continue
            try:
                span = import_fragment(export)
            except ValueError:
                errors += 1
                continue
            by_pid.setdefault(span.attrs.get("pid"), []).append(span)
        for pid in sorted(by_pid, key=lambda p: (p is None, p)):
            spans = by_pid[pid]
            group = Span("worker",
                         start_ns=min(s.start_ns for s in spans))
            group.end_ns = max(s.end_ns for s in spans)
            group.attrs["pid"] = pid
            group.children = spans
            parent.children.append(group)
        if errors:
            parent.set(fragment_errors=errors,
                       degraded="worker fragment(s) unreadable; "
                                "parent-only trace")
        return len(by_pid)

    def finish(self) -> Span:
        while self._stack:
            self._stack.pop().finish()
        self._stack = [self.root]
        return self.root

    @property
    def duration_ns(self) -> int:
        return self.root.duration_ns

    @property
    def duration_ms(self) -> float:
        return self.root.duration_ns / 1e6

    def to_dict(self) -> Dict[str, Any]:
        return {"trace_id": self.trace_id,
                "ms": round(self.root.duration_ns / 1e6, 4),
                "spans": self.root.as_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), default=repr,
                          separators=(",", ":"))

    def render_text(self) -> str:
        return "trace %s\n%s" % (self.trace_id, self.root.render())


class OpSpans:
    """The ``op`` spans of one plan execution: one child of ``parent``
    per executed node, created on the node's first open and keyed by its
    ``plan.walk()`` index, which is the same across the fork boundary."""

    __slots__ = ("parent", "_index", "_spans")

    def __init__(self, parent: Span, plan):
        self.parent = parent
        self._index = {id(node): index
                       for index, node in enumerate(plan.walk())}
        self._spans: Dict[int, Span] = {}

    def span(self, node) -> Span:
        span = self._spans.get(id(node))
        if span is None:
            span = self.parent.child("op")
            span.attrs = {"op": node.op_name,
                          "node": self._index.get(id(node)),
                          "est": node.props.card, "cost": node.props.cost,
                          "rows": 0, "loops": 0, "time_ns": 0}
            self._spans[id(node)] = span
        return span

    def credit(self, node, rows: int) -> None:
        """One untimed loop of ``node`` that yielded ``rows`` (a node
        inside a fused region, counted by the region's analyze
        variant)."""
        span = self.span(node)
        span.attrs["rows"] += rows
        span.attrs["loops"] += 1
        span.end_ns = monotonic_ns()

    def iter_stream(self, plan, handler, ctx, env):
        """Wrap a row/binding stream, timing each pull and counting
        yields.  ``handler`` is only invoked inside, so eager handlers
        (e.g. a sort that materializes on open) bill their setup here."""
        span = self.span(plan)
        attrs = span.attrs
        attrs["loops"] += 1
        rows = spent = 0
        t0 = perf_counter_ns()
        try:
            stream = handler(plan, ctx, env)
            while True:
                try:
                    item = next(stream)
                except StopIteration:
                    spent += perf_counter_ns() - t0
                    break
                spent += perf_counter_ns() - t0
                rows += 1
                yield item
                t0 = perf_counter_ns()
        finally:
            attrs["rows"] += rows
            attrs["time_ns"] += spent
            span.end_ns = monotonic_ns()


class SpanRecorder:
    """Per-server sampling decision plus a ring of completed traces.

    ``sample`` is ``"off"`` (default), ``"always"``, or a ratio in
    (0, 1) — also accepted as a string like ``"0.25"``.  ``maybe_start``
    is the single gate every request passes: it returns ``None``
    (allocating nothing) for unsampled requests and a fresh
    :class:`RequestTrace` otherwise.
    """

    def __init__(self, sample="off", keep: int = 128):
        self._period = 0  # 0 = off, 1 = always, N = every Nth
        self.set_sample(sample)
        self._counter = itertools.count()
        self._completed: "deque[RequestTrace]" = deque(maxlen=max(1, keep))
        self._lock = threading.Lock()
        self._seq = itertools.count(1)

    def set_sample(self, sample) -> None:
        if sample in (None, False, 0, "off", ""):
            self._period = 0
            return
        if sample in (True, "always"):
            self._period = 1
            return
        ratio = float(sample)
        if ratio >= 1.0:
            self._period = 1
        elif ratio <= 0.0:
            self._period = 0
        else:
            self._period = max(1, int(round(1.0 / ratio)))

    @property
    def enabled(self) -> bool:
        return self._period > 0

    def describe_sample(self) -> str:
        if self._period == 0:
            return "off"
        if self._period == 1:
            return "always"
        return "1/%d" % self._period

    def maybe_start(self, name: str = "request") -> Optional[RequestTrace]:
        period = self._period
        if period == 0:
            return None
        if period > 1 and next(self._counter) % period:
            return None
        trace_id = "t%x-%x" % (os.getpid(), next(self._seq))
        return RequestTrace(trace_id, name=name)

    def finish(self, trace: RequestTrace) -> RequestTrace:
        trace.finish()
        with self._lock:
            self._completed.append(trace)
        return trace

    def completed(self) -> List[RequestTrace]:
        with self._lock:
            return list(self._completed)

    def find(self, trace_id: str) -> Optional[RequestTrace]:
        with self._lock:
            for trace in self._completed:
                if trace.trace_id == trace_id:
                    return trace
        return None

    def clear(self) -> None:
        with self._lock:
            self._completed.clear()
