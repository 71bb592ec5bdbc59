"""Observability: one trace tree, runtime profiles, process metrics.

Every piece is opt-in and costs nothing when unused:

- :mod:`repro.obs.spans` — the one trace model: a request's span tree,
  from the wire through the compile phases (each carrying its rewrite
  firings, STAR expansions and optimizer decisions as zero-length event
  spans) to execution and the forked workers' fragments; sampled, and
  allocation-free when off,
- :mod:`repro.obs.profile` — per-operator runtime instrumentation behind
  ``CompileOptions.analyze`` (rows and wall time per LOLEPOP on the
  tuple, fused and parallel execution paths), rendered as ``EXPLAIN
  ANALYZE`` text by :mod:`repro.obs.render`,
- :mod:`repro.obs.metrics` — a process-level metrics registry (counters,
  gauges, latency histograms) with Prometheus-style text exposition,
- :mod:`repro.obs.statstats` — per-fingerprint statement aggregates
  (``SHOW STATEMENTS`` / ``GET /statements``),
- :mod:`repro.obs.slowlog` — the slow-query log (one JSON line per slow
  statement, literal-free text, attached span tree when traced).
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import OpProbe, PlanProfile
from repro.obs.render import render_analyze
from repro.obs.slowlog import SlowQueryLog
from repro.obs.spans import RequestTrace, Span, SpanRecorder
from repro.obs.statstats import StatementStat, StatementStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OpProbe",
    "PlanProfile",
    "RequestTrace",
    "SlowQueryLog",
    "Span",
    "SpanRecorder",
    "StatementStat",
    "StatementStats",
    "render_analyze",
]
