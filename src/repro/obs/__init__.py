"""Observability: one trace tree, process metrics, statement stats.

Every piece is opt-in and costs nothing when unused:

- :mod:`repro.obs.spans` — the one trace model: a request's span tree,
  from the wire through the compile phases (each carrying its rewrite
  firings, STAR expansions and optimizer decisions as zero-length event
  spans) to execution, its per-operator ``op`` spans when the trace asks
  for operator detail, and the forked workers' fragments; sampled, and
  allocation-free when off,
- :mod:`repro.obs.render` — ``EXPLAIN ANALYZE`` text, read off a plan's
  ``op`` spans,
- :mod:`repro.obs.metrics` — a process-level metrics registry (counters,
  gauges, latency histograms) with Prometheus-style text exposition,
- :mod:`repro.obs.statstats` — per-fingerprint statement aggregates
  (``SHOW STATEMENTS`` / ``GET /statements``),
- :mod:`repro.obs.slowlog` — the slow-query log (one JSON line per slow
  statement, literal-free text, attached span tree when traced).
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.render import render_analyze
from repro.obs.slowlog import SlowQueryLog
from repro.obs.spans import OpSpans, RequestTrace, Span, SpanRecorder
from repro.obs.statstats import StatementStat, StatementStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OpSpans",
    "RequestTrace",
    "SlowQueryLog",
    "Span",
    "SpanRecorder",
    "StatementStat",
    "StatementStats",
    "render_analyze",
]
