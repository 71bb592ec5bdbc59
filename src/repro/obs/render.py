"""Render a :class:`PlanProfile` as ``EXPLAIN ANALYZE`` text.

The layout mirrors ``PlanOp.explain`` (same indentation, same static
marks for order/backend/dop/fallback) with each operator line extended by
its runtime: actual rows vs the optimizer's estimate, inclusive wall time
and its share of total execution, loop counts, and — below an
Exchange — the rows/time the parallel workers spent producing the subtree
in other processes.  A trailing summary reports worker-pool capacity,
Figure-1 phase timings, and the execution-stats counters.
"""

from __future__ import annotations

from typing import List, Optional


def _ms(nanoseconds: int) -> str:
    return "%.3f" % (nanoseconds / 1e6)


def _worker_walls(detail) -> List[float]:
    """Per-worker wall seconds for one exchange, sorted ascending: each
    worker's task times summed by the worker id recorded alongside them.
    Empty when ids are missing (an old export or a single-task ship with
    no id), which suppresses the wall view rather than mislabeling."""
    times = detail.get("worker_times") or ()
    ids = detail.get("worker_ids") or ()
    if not times or len(ids) != len(times) or any(
            worker_id is None for worker_id in ids):
        return []
    by_worker: dict = {}
    for worker_id, elapsed in zip(ids, times):
        by_worker[worker_id] = by_worker.get(worker_id, 0.0) + elapsed
    return sorted(by_worker.values())


def _node_line(node, profile, total_ns: int, depth: int) -> str:
    static = "cost=%.2f est=%.1f" % (node.props.cost, node.props.card)
    marks = ""
    if node.props.order:
        marks += " order=" + str(list(node.props.order))
    if node.exec_backend != "tuple":
        marks += " backend=%s" % node.exec_backend
    program = getattr(node, "codegen_program", None)
    if program is not None:
        marks += " fused=%d" % program.n_pipelines
    if node.props.dop > 1:
        marks += " dop=%d" % node.props.dop
    if getattr(node, "fallback_mark", None):
        marks += " fallback=%s" % node.fallback_mark

    probe = profile.probe_for(node)
    if probe is None or probe.loops == 0 and probe.worker_tasks == 0:
        actual = "(never executed)"
    else:
        pieces = ["rows=%d" % probe.rows]
        if probe.loops > 1:
            pieces.append("loops=%d" % probe.loops)
        # Inside a fused region only the root is timed: its time covers
        # the whole region.
        if node.exec_backend != "compiled" or program is not None:
            pieces.append("time=%sms" % _ms(probe.time_ns))
            if total_ns > 0:
                pieces.append("%.1f%%" % (100.0 * probe.time_ns / total_ns))
        if probe.worker_tasks:
            pieces.append("workers(rows=%d time=%sms tasks=%d)" % (
                probe.worker_rows, _ms(probe.worker_time_ns),
                probe.worker_tasks))
        actual = "actual " + " ".join(pieces)

    detail = profile.exchanges.get(id(node))
    exchange = ""
    if detail is not None:
        extra = ""
        times = sorted(detail.get("worker_times") or ())
        if times:
            # Per-task wall-time skew: with a hot hash partition (or one
            # giant morsel) max pulls far away from the median.
            median = times[len(times) // 2]
            extra += (" skew(min=%.1fms median=%.1fms max=%.1fms)"
                      % (times[0] * 1e3, median * 1e3, times[-1] * 1e3))
        walls = _worker_walls(detail)
        if walls:
            # Per-worker wall time (all of a worker's tasks summed): a
            # balanced task histogram can still hide one overloaded
            # worker when the pool is smaller than the task count.
            median = walls[len(walls) // 2]
            extra += (" wall(workers=%d min=%.1fms median=%.1fms"
                      " max=%.1fms)"
                      % (len(walls), walls[0] * 1e3, median * 1e3,
                         walls[-1] * 1e3))
        if detail.get("wire_bytes"):
            extra += " wire=%dB" % detail["wire_bytes"]
        exchange = " exchange(morsels=%d workers=%d runs=%d%s)" % (
            detail["morsels"], detail["workers"], detail["runs"], extra)

    return "%s%s  (%s%s) (%s)%s" % ("  " * depth, node.describe(), static,
                                    marks, actual, exchange)


def _render_tree(node, profile, total_ns: int, depth: int,
                 lines: List[str]) -> None:
    lines.append(_node_line(node, profile, total_ns, depth))
    for child in node.children:
        _render_tree(child, profile, total_ns, depth + 1, lines)
    for binding in getattr(node, "subplans", []):
        lines.append("%s[subquery %s:%s]" % ("  " * (depth + 1),
                                             binding.quantifier.name,
                                             binding.quantifier.qtype))
        _render_tree(binding.plan, profile, total_ns, depth + 2, lines)


def render_analyze(profile, timings=None, stats=None, options=None,
                   cores: Optional[int] = None) -> str:
    """Text report for one analyzed execution.

    ``profile`` is the populated :class:`PlanProfile`; ``timings`` the
    :class:`PhaseTimings` (``execute`` supplies the denominator for
    per-operator percentages), ``stats`` the :class:`ExecutionStats`,
    ``cores`` the effective worker-pool capacity to report.
    """
    total_ns = int(timings.execute * 1e9) if timings is not None else 0

    title = "=== EXPLAIN ANALYZE ==="
    if options is not None:
        described = options.describe()
        if described:
            title = "=== EXPLAIN ANALYZE (%s) ===" % described
    lines = [title]
    if getattr(profile, "trace_id", None):
        lines.append("trace: %s" % profile.trace_id)
    _render_tree(profile.plan, profile, total_ns, 0, lines)

    if cores is not None:
        requested = getattr(options, "dop", None) if options is not None \
            else None
        note = "worker pool: %d core(s) available" % cores
        if requested and requested > cores:
            note += (" (requested dop=%d exceeds cores; pool clamped "
                     "to %d)" % (requested, cores))
        lines.append(note)

    if timings is not None:
        codegen = ""
        if getattr(timings, "codegen", 0.0):
            codegen = " codegen=%.3fms" % (timings.codegen * 1e3)
        lines.append(
            "phases: parse=%.3fms rewrite=%.3fms optimize=%.3fms "
            "refine=%.3fms%s execute=%.3fms (%s)"
            % (timings.parse * 1e3, timings.rewrite * 1e3,
               timings.optimize * 1e3, timings.refine * 1e3,
               codegen, timings.execute * 1e3, timings.pipeline))

    if stats is not None:
        pipelines = ""
        if getattr(stats, "codegen_pipelines", 0):
            pipelines = " pipelines=%d" % stats.codegen_pipelines
        movement = ""
        if getattr(stats, "exchange_bytes", 0):
            movement += " exchange_bytes=%d" % stats.exchange_bytes
        if getattr(stats, "partitions_pruned", 0):
            movement += " partitions_pruned=%d" % stats.partitions_pruned
        lines.append(
            "execution: scanned=%d emitted=%d fallbacks=%d%s "
            "exchanges=%d morsels=%d parallel_fallbacks=%d%s"
            % (stats.rows_scanned, stats.rows_emitted, stats.fallbacks,
               pipelines, stats.parallel_exchanges, stats.morsels,
               stats.parallel_fallbacks, movement))
        for reason in stats.parallel_reasons:
            lines.append("parallel note: %s" % reason)

    return "\n".join(lines)
