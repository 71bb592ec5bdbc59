"""Morsel-driven parallel runtime for Exchange LOLEPOPs.

The optimizer's parallel glue (``repro.optimizer.stars.parallelize_plan``)
splices Gather/MergeGather operators over eligible scan pyramids; this
module supplies the machinery that runs them:

- **morsels** — the scanned table's heap pages cut into ``dop``
  contiguous ranges, one task each, so a pool of ``dop`` workers (the
  usual ``dop`` = cores) gives every worker one task holding its whole
  share; morsel order equals serial scan order, so concatenating task
  results reproduces serial output byte-for-byte,
- **workers** — the database's :class:`~repro.executor.workerpool.
  WorkerPool` (DESIGN.md "Worker pool"): forked children that inherit
  the open in-memory database copy-on-write; no state is shipped besides
  the statement text,
- **workers that inherit the plan** — plans hold compiled expression
  closures that cannot cross a pipe, so each worker looks the statement
  text up in the database's plan cache, which it inherited at fork
  after the coordinator admitted the plan there (a miss, e.g. under
  ``plan_cache=False``, compiles deterministically and caches in the
  worker), and locates the Exchange by its position in ``plan.walk()``
  order, cross-checked with a structural signature,
- **small results** — partial aggregation (GATHER merge-partial-aggs)
  and local top-K (MERGEGATHER) run inside the workers, so only merged
  group rows or dop·K sorted rows cross the exchange; a GROUP BY with
  non-mergeable aggregates (AVG, float SUM) runs in the coordinator
  over a plain GATHER,
- **broadcast joins** — a GATHER over a hash join morsels only the
  probe scan (the one ``ctx.morsel_scan`` points to, by node identity);
  every task builds the inner side in full — once per task, which is
  what ``parallelism="auto"``'s gate charges — so a probe morsel's
  output is exactly its share of the serial stream,
- **counters** — every task ships its ExecutionStats counters back, so
  a parallel run reports the rows its workers scanned.

Every failure path — no fork on this platform, pool creation failure, a
worker error, an open explicit transaction, a plan-shape mismatch —
degrades to executing the Exchange's child inline at dop=1, which is
byte-identical by construction.  Degradations are counted in
``stats.parallel_fallbacks`` with reasons in ``stats.parallel_reasons``.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.executor.workerpool import WorkerPool, data_version

#: Test hook: when not None, overrides the detected multiprocessing start
#: methods.  Forcing e.g. ``["spawn"]`` exercises the serial degradation
#: path on platforms that do have fork.
_FORCED_START_METHODS: Optional[List[str]] = None

_disabled_reason: Optional[str] = None


def _start_methods() -> List[str]:
    if _FORCED_START_METHODS is not None:
        return list(_FORCED_START_METHODS)
    return multiprocessing.get_all_start_methods()


def fork_available() -> bool:
    """Can this platform fork?  The COW database snapshot requires it;
    without fork the whole feature degrades to serial execution and the
    reason is kept for :func:`disabled_reason`."""
    global _disabled_reason
    if "fork" in _start_methods():
        return True
    _disabled_reason = (
        "multiprocessing start methods %s lack 'fork'; workers cannot "
        "inherit the database copy-on-write — parallelism disabled"
        % (_start_methods(),))
    return False


def disabled_reason() -> Optional[str]:
    """Why parallelism is disabled on this platform (None when it isn't)."""
    return _disabled_reason


def available_cores() -> int:
    """Effective worker-pool capacity: the CPUs this process may actually
    run on (its affinity mask), not the machine's total count — on
    cgroup-restricted hosts the two differ and ``dop`` beyond the mask
    just queues tasks."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def pool_size(dop: int) -> int:
    """Worker-pool size for a requested ``dop``: clamped to the process's
    CPU affinity mask (never below one).  Forking more workers than
    runnable cores only adds scheduler churn — the requested ``dop``
    still carves ``dop`` morsels, but the pool is sized to real
    capacity, and its workers take the extra tasks in turn."""
    return max(1, min(dop, available_cores()))


# ---------------------------------------------------------------------------
# Worker side (runs in forked children, as ``task(db, payload)``)
# ---------------------------------------------------------------------------

def _fragment(task, **attrs):
    """The task's span, closed and exported for the trip back to the
    coordinator, which grafts it under the exchange's span."""
    if task is None:
        return None
    return task.finish().set(pid=os.getpid(), **attrs).export()


def _worker_run(db, payload):
    """Execute one task — one morsel — of a Gather/MergeGather and
    return ``(rows,
    stats, fragment)``.

    ``payload`` is ``(head, page_lo, page_hi, operators)`` with ``head``
    = ``(text, options, node_index, signature, params)``.  The worker
    takes the plan from its inherited plan cache (compiling on a miss,
    see :func:`_worker_plan`), locates the coordinator's
    Exchange by ``plan.walk()`` index — cross-checked against the
    structural signature — and runs its child with the scan restricted
    to the page range.

    ``stats`` is the worker's exported ExecutionStats counters, which the
    coordinator adds to its own on every run.  ``fragment`` is None when
    the request is untraced (``operators`` None); otherwise it is this
    task's ``worker.morsel`` span (:meth:`repro.obs.spans.Span.export`),
    with monotonic-ns timestamps directly comparable to the parent's
    (CLOCK_MONOTONIC is system-wide) and, when ``operators`` is true,
    the task's own ``op`` spans keyed by walk index (EXPLAIN ANALYZE
    through a Gather).
    """
    from repro.executor.context import ExecutionContext
    from repro.executor.rowops import sort_rows
    from repro.executor.run import rows_iter
    from repro.obs.spans import OpSpans, Span
    from repro.optimizer import plans as pl

    head, lo, hi, operators = payload
    task = Span("worker.morsel") if operators is not None else None
    text, options, node_index, signature, params = head
    compiled = _worker_plan(db, text, options)
    node = None
    for index, candidate in enumerate(compiled.plan.walk()):
        if index == node_index:
            node = candidate
            break
    if node is None or _signature(node) != signature:
        raise ExecutionError(
            "worker plan diverged from the coordinator's: expected %s at "
            "walk index %d" % (signature, node_index))
    ctx = ExecutionContext(db.engine, db.functions, list(params), txn=None)
    ctx.join_kinds = db.join_kinds
    ctx.batch_size = options.batch_size
    if operators:
        ctx.ops = OpSpans(task, compiled.plan)
    ctx.morsel_range = (lo, hi)
    ctx.morsel_scan = node.morsel_scan
    rows = list(rows_iter(node.children[0], ctx, {}))
    if isinstance(node, pl.MergeGather):
        # Local sort (stable, so ties stay in scan order) and top-K cut:
        # at most dop * K rows cross the exchange.
        sort_rows(rows, node.positions)
        if node.limit_hint is not None:
            del rows[node.limit_hint:]
    return (rows, ctx.stats.export(),
            _fragment(task, pages=[lo, hi], rows=len(rows)))


def _worker_plan(db, text: str, options):
    """The compiled plan for a task's statement text.  The coordinator
    admitted it to ``db.plan_cache`` before the pool forked, so a
    worker forked since finds it there; otherwise (the plan cache off,
    or a pool forked before the plan was admitted) the worker compiles
    it once and caches it in its own copy.  (The text compiled in the
    coordinator, so it lexes and is a cacheable query.)"""
    fingerprint = db._fingerprint(text, options)
    return db._cached_compile(text, fingerprint, options)[0]


def _signature(node) -> str:
    """Structural cross-check that coordinator and worker located the
    same node, guarding against nondeterministic plan divergence."""
    return "%s/%s/%s/%d" % (
        node.op_name, node.morsel_scan.table.name,
        node.children[0].op_name, node.dop)


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


def _carve(pages: int, dop: int) -> List[Tuple[int, int]]:
    """Split a heap file's pages into ``min(dop, pages)`` contiguous
    morsel ranges of near-equal size, one per task."""
    tasks = min(dop, pages)
    return [(pages * i // tasks, pages * (i + 1) // tasks)
            for i in range(tasks)]


def _merge_agg(agg, left, right):
    """Merge two partial accumulator finals of one aggregate."""
    if agg.name == "count":
        return left + right
    if left is None:
        return right
    if right is None:
        return left
    if agg.name == "sum":
        return left + right
    if agg.name == "min":
        return left if not right < left else right
    if agg.name == "max":
        return left if not left < right else right
    raise ExecutionError("aggregate %s is not mergeable" % agg.name)


def _merge_partial_groups(groupby, results) -> List[Tuple[Any, ...]]:
    """Merge per-morsel partial GROUP BY outputs.

    Group order is first-seen across morsels in morsel order, which is
    exactly the serial interpreter's first-seen-in-scan-order.
    """
    nkeys = len(groupby.group_exprs)
    merged: dict = {}  # insertion-ordered, like the executors' group maps
    for part in results:
        for row in part:
            key = row[:nkeys]
            partials = merged.get(key)
            if partials is None:
                merged[key] = list(row[nkeys:])
            else:
                for index, agg in enumerate(groupby.aggregates):
                    partials[index] = _merge_agg(
                        agg, partials[index], row[nkeys + index])
    return [key + tuple(partials) for key, partials in merged.items()]


class ParallelRuntime:
    """Owns one Database's worker pool for exchanges.

    The pool is created lazily and replaced whenever the database's data
    version moves (forked workers hold a copy-on-write snapshot, and any
    parent-side change makes it stale), a worker has died, or a larger
    one is asked for.  Keeping the pool across queries means a
    statement-per-query workload (the differential sweep, the plan-cache
    benchmark) forks once, not per statement.
    """

    def __init__(self, db):
        self.db = db
        self._pool: Optional[WorkerPool] = None
        #: Serializes the pool swap.  Statements run outside it: one
        #: that leased workers from the old pool finishes on them (the
        #: old pool's terminate() waits), the next sees the new pool.
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()

    def __del__(self):  # backstop; Database.close() is the real path
        try:
            self.close()
        except Exception:
            pass

    def _ensure_pool(self, dop: int) -> WorkerPool:
        size = pool_size(dop)
        with self._lock:
            pool = self._pool
            if (pool is not None and pool.healthy and size <= pool.size
                    and pool.version == data_version(self.db)):
                return pool
            self._pool = WorkerPool(self.db, size)
            if pool is not None:
                pool.terminate()
            return self._pool

    def _inline(self, node, ctx, env, reason: Optional[str] = None):
        """Run the node's child in this process at dop=1 — byte-identical
        to the parallel path by construction.  A ``reason`` makes it a
        recorded degradation."""
        from repro.executor.run import rows_iter

        if reason is not None:
            ctx.stats.parallel_fallbacks += 1
            ctx.stats.parallel_reasons.append(reason)
            if ctx.trace is not None:
                ctx.trace.current().set(parallel_degraded=reason)
        return rows_iter(node.children[0], ctx, env)

    def _preflight(self, node, ctx, env):
        """Can ``node`` run in workers?  Returns ``(head, None)`` — the
        task head ``(text, options, walk_index, signature, params)`` —
        or ``(None, reason)``."""
        if env:
            # Opened with outer bindings (e.g. as a re-opened join
            # inner): workers start from an empty environment.
            return None, "%s opened with outer bindings" % node.op_name
        ctx.stats.parallel_exchanges += 1
        if ctx.txn is not None:
            # Worker scans take no locks and cannot see this
            # transaction's isolation scope.
            return None, "explicit transaction open"
        if not fork_available():
            return None, disabled_reason()
        compiled = getattr(ctx, "compiled", None)
        if compiled is None or compiled.plan is None:
            return None, "no compiled statement attached to the context"
        index = next((index for index, candidate
                      in enumerate(compiled.plan.walk())
                      if candidate is node), None)
        if index is None:
            return None, "exchange not found in the compiled plan"
        return (compiled.text, compiled.options, index, _signature(node),
                tuple(ctx.params)), None

    def run(self, node, ctx, env) -> Iterator[Tuple[Any, ...]]:
        """Run a Gather/MergeGather through the worker pool, or degrade
        to its child inline at dop=1."""
        head, reason = self._preflight(node, ctx, env)
        if head is None:
            return self._inline(node, ctx, env, reason)
        try:
            rows = self._exchange(node, ctx, head)
        except Exception as exc:
            # Pool breakage and genuine query errors both land here; the
            # inline rerun either succeeds serially or raises the same
            # deterministic error the serial plan would.
            return self._inline(node, ctx, env,
                                "parallel execution failed: %r" % (exc,))
        if rows is None:
            # Nothing to fan out: the inline run is the dop=1 plan by
            # construction (no fallback).
            return self._inline(node, ctx, env)
        return iter(rows)

    def _exchange(self, exchange, ctx, head):
        """Fan the child out over ``dop`` morsels, recombine."""
        from repro.optimizer import plans as pl

        pages = self.db.engine.table_page_count(
            exchange.morsel_scan.table.name)
        morsels = _carve(pages, exchange.dop)
        if len(morsels) <= 1:
            return None
        # What a task records: None (no span) when the request is
        # untraced, else whether to record its ``op`` spans too.
        operators = None if ctx.trace is None else ctx.ops is not None
        results = self._ensure_pool(exchange.dop).map(
            _worker_run, [(head, lo, hi, operators) for lo, hi in morsels])
        ctx.stats.morsels += len(morsels)
        parts = []
        fragments = []
        for part_rows, stats, fragment in results:
            parts.append(part_rows)
            ctx.stats.merge(stats)
            fragments.append(fragment)
        if ctx.trace is not None:
            # Graft the tasks' spans under the exchange's ``op`` span,
            # or under the current span without operator detail.
            parent = ctx.ops.span(exchange) if ctx.ops is not None \
                else ctx.trace.current()
            ctx.trace.attach_worker_fragments(parent, fragments)
        if isinstance(exchange, pl.MergeGather):
            from repro.executor.rowops import null_last_key

            positions = exchange.positions
            return list(heapq.merge(
                *parts, key=lambda row: null_last_key(row, positions)))
        if (isinstance(exchange, pl.Gather)
                and exchange.merge_groups is not None):
            return _merge_partial_groups(exchange.merge_groups, parts)
        return [row for part in parts for row in part]
