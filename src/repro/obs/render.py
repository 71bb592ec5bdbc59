"""Render an execution's ``op`` spans as ``EXPLAIN ANALYZE`` text.

The layout mirrors ``PlanOp.explain`` (same indentation, same static
marks for order/backend/dop/fallback) with each operator line extended by
its runtime, read off the request trace: actual rows vs the optimizer's
estimate, inclusive wall time and its share of total execution, loop
counts, and — below an Exchange — the rows/time the parallel workers
spent producing the subtree in other processes (their ``op`` spans,
grafted under the exchange's span inside ``worker.morsel`` task spans).
A trailing summary reports worker-pool capacity, Figure-1 phase timings,
and the execution-stats counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional


def _ms(nanoseconds: int) -> str:
    return "%.3f" % (nanoseconds / 1e6)


def _worker_walls(tasks) -> List[int]:
    """Per-worker wall nanoseconds for one exchange, sorted ascending:
    each worker's task durations summed by the pid the task recorded.
    Empty when a pid is missing, which suppresses the wall view rather
    than mislabeling."""
    by_worker: Dict[int, int] = {}
    for task in tasks:
        pid = task.attrs.get("pid")
        if pid is None:
            return []
        by_worker[pid] = by_worker.get(pid, 0) + task.duration_ns
    return sorted(by_worker.values())


def _exchange_detail(span) -> str:
    """The ``exchange(...)`` view of a node whose span has worker task
    spans grafted under it (an Exchange that ran in workers)."""
    tasks = [task for group in span.children if group.name == "worker"
             for task in group.children if task.name == "worker.morsel"]
    errors = span.attrs.get("fragment_errors", 0)
    if not tasks and not errors:
        return ""
    runs = max(1, span.attrs["loops"])
    extra = ""
    times = sorted(task.duration_ns for task in tasks)
    if times:
        # Per-task wall-time skew: with a hot hash partition (or one
        # giant morsel) max pulls far away from the median.
        extra += " skew(min=%.1fms median=%.1fms max=%.1fms)" % (
            times[0] / 1e6, times[len(times) // 2] / 1e6, times[-1] / 1e6)
    walls = _worker_walls(tasks)
    if walls:
        # Per-worker wall time (all of a worker's tasks summed): a
        # balanced task histogram can still hide one overloaded worker
        # when the pool is smaller than the task count.
        extra += (" wall(workers=%d min=%.1fms median=%.1fms max=%.1fms)"
                  % (len(walls), walls[0] / 1e6,
                     walls[len(walls) // 2] / 1e6, walls[-1] / 1e6))
    if errors:
        extra += " fragment_errors=%d" % errors
    # Workers that actually ran tasks (the pool may be clamped below
    # the node's dop); 0 when the tasks carry no pid.
    return " exchange(morsels=%d workers=%d runs=%d%s)" % (
        len(tasks), len(walls), runs, extra)


def _node_line(node, span, worker_spans, total_ns: int, depth: int) -> str:
    """One plan line: ``span`` is the node's own ``op`` span (None when
    the coordinator never opened it), ``worker_spans`` its ``op`` spans
    from worker tasks."""
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

    own = span.attrs if span is not None else {"rows": 0, "loops": 0,
                                               "time_ns": 0}
    tasks = [worker.attrs for worker in worker_spans
             if worker.attrs["loops"]]
    if not own["loops"] and not tasks:
        actual = "(never executed)"
    else:
        pieces = ["rows=%d" % own["rows"]]
        if own["loops"] > 1:
            pieces.append("loops=%d" % own["loops"])
        # Inside a fused region only the root is timed: its time covers
        # the whole region.
        if node.exec_backend != "compiled" or program is not None:
            pieces.append("time=%sms" % _ms(own["time_ns"]))
            if total_ns > 0:
                pieces.append("%.1f%%" % (100.0 * own["time_ns"]
                                          / total_ns))
        if tasks:
            pieces.append("workers(rows=%d time=%sms tasks=%d)" % (
                sum(worker.attrs["rows"] for worker in worker_spans),
                _ms(sum(worker["time_ns"] for worker in tasks)),
                len(tasks)))
        actual = "actual " + " ".join(pieces)

    exchange = _exchange_detail(span) if span is not None else ""
    return "%s%s  (%s%s) (%s)%s" % ("  " * depth, node.describe(), static,
                                    marks, actual, exchange)


def render_analyze(plan, execute, timings=None, stats=None, options=None,
                   cores: Optional[int] = None,
                   trace_id: Optional[str] = None) -> str:
    """Text report for one analyzed execution.

    ``plan`` is the executed plan and ``execute`` the ``execute`` span
    its run recorded under a trace with operator detail on; each node's
    runtime is read from the ``op`` span carrying its ``plan.walk()``
    index.  ``timings`` is the :class:`PhaseTimings` (``execute``
    supplies the denominator for per-operator percentages), ``stats``
    the :class:`ExecutionStats`, ``cores`` the effective worker-pool
    capacity to report, ``trace_id`` the trace to name.
    """
    total_ns = int(timings.execute * 1e9) if timings is not None else 0
    own = {span.attrs.get("node"): span for span in execute.children
           if span.name == "op"}
    remote: Dict[int, list] = {}
    for task in execute.find_all("worker.morsel"):
        for span in task.children:
            if span.name == "op":
                remote.setdefault(span.attrs.get("node"), []).append(span)

    title = "=== EXPLAIN ANALYZE ==="
    if options is not None:
        described = options.describe()
        if described:
            title = "=== EXPLAIN ANALYZE (%s) ===" % described
    lines = [title]
    if trace_id:
        lines.append("trace: %s" % trace_id)
    index_of = {id(node): index for index, node in enumerate(plan.walk())}

    def render(node, depth: int) -> None:
        index = index_of[id(node)]
        lines.append(_node_line(node, own.get(index),
                                remote.get(index, ()), total_ns, depth))
        for child in node.children:
            render(child, depth + 1)
        for binding in getattr(node, "subplans", []):
            lines.append("%s[subquery %s:%s]" % (
                "  " * (depth + 1), binding.quantifier.name,
                binding.quantifier.qtype))
            render(binding.plan, depth + 2)

    render(plan, 0)

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
        pruned = ""
        if getattr(stats, "partitions_pruned", 0):
            pruned = " partitions_pruned=%d" % stats.partitions_pruned
        lines.append(
            "execution: scanned=%d emitted=%d fallbacks=%d%s "
            "exchanges=%d morsels=%d parallel_fallbacks=%d%s"
            % (stats.rows_scanned, stats.rows_emitted, stats.fallbacks,
               pipelines, stats.parallel_exchanges, stats.morsels,
               stats.parallel_fallbacks, pruned))
        for reason in stats.parallel_reasons:
            lines.append("parallel note: %s" % reason)

    return "\n".join(lines)
