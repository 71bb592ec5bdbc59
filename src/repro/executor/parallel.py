"""Morsel-driven parallel runtime for Exchange LOLEPOPs.

The optimizer's parallel glue (``repro.optimizer.stars.parallelize_plan``)
splices Gather/MergeGather operators over eligible scan pyramids; this
module supplies the machinery that runs them:

- **morsels** — contiguous heap page ranges carved from the scanned
  table; morsel order equals serial scan order, so concatenating worker
  results reproduces serial output byte-for-byte,
- **workers** — a persistent ``multiprocessing`` pool using the *fork*
  start method, so every worker inherits the open in-memory database
  copy-on-write; no state is shipped besides the statement text,
- **self-compiling workers** — plans hold compiled expression closures
  that cannot cross a pipe, so each worker compiles the statement itself
  (memoized, deterministic under fork) and locates the Exchange by its
  position in ``plan.walk()`` order, cross-checked with a structural
  signature,
- **small results** — partial aggregation (GATHER merge-partial-aggs)
  and local top-K (MERGEGATHER) run inside the workers, so only merged
  group rows or dop·K sorted rows cross the exchange,
- **real data movement** — REPARTITION producers hash-route wire-encoded
  row batches into per-destination queues created before the fork; the
  coordinator drains them and hands each partition's feed to a consumer
  worker (PARTITIONGATHER), and SHIP runs its child in a worker standing
  in for the remote site, returning the stream wire-encoded.

The coordinator — not the consumer workers — unloads the shuffle
queues.  A queue's feeder thread flushes blobs in FIFO order, so a
blocked write to one destination pipe can hide messages bound for
another; with a pool smaller than the partition count, consumer-side
draining could deadlock on that ordering.  Round-robin polling in the
parent always drains whatever is ready and terminates because the
producer tasks have already returned (every blob is in flight).

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
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import ExecutionError

#: Morsels carved per worker: small enough to balance skew, large enough
#: that per-task pickle overhead stays negligible.
MORSELS_PER_WORKER = 4

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
    still carves morsels, but the pool is sized to real capacity."""
    return max(1, min(dop, available_cores()))


# ---------------------------------------------------------------------------
# Worker side (runs in forked children)
# ---------------------------------------------------------------------------

#: The Database forked workers operate on.  Set in the parent immediately
#: before pool creation; children inherit it through fork.  The parent
#: never reads it back.
_WORKER_DB = None

#: Per-worker memo of compiled statements, keyed on (text, options key).
#: Lives only in the children; dies with the pool on data-version change.
_WORKER_PLANS: dict = {}

#: Shuffle queues for REPARTITION exchanges.  Created in the parent
#: immediately before pool creation (multiprocessing queues cannot cross
#: the pickle boundary of ``pool.map``); children inherit them through
#: fork.  Index scheme: source slot ``s``, destination partition ``p`` →
#: ``_WORKER_QUEUES[s * dop + p]``.
_WORKER_QUEUES: list = []


def _worker_init():
    """Pool initializer, run once in every forked worker.

    The pool can be forked from a session thread while another thread
    holds one of the database's locks (buffer pool, plan cache, ...);
    the child inherits it locked with no owner left to release it.  The
    worker is single-threaded here, so swapping in fresh locks is safe.
    The inherited parallel runtime belongs to the parent (its pool
    handle is meaningless here): workers execute exchanges inline.
    """
    db = _WORKER_DB
    db.reinit_locks_after_fork()
    db._parallel_runtime = None


def _worker_node(text, options, node_index, signature):
    """Compile the statement in this worker (memoized) and locate the
    coordinator's node by ``plan.walk()`` index, cross-checked against
    the structural signature."""
    from repro.core.pipeline import compile_statement

    db = _WORKER_DB
    key = (text, options.cache_key())
    compiled = _WORKER_PLANS.get(key)
    if compiled is None:
        compiled = compile_statement(db, text, options=options)
        _WORKER_PLANS[key] = compiled
    node = None
    for index, candidate in enumerate(compiled.plan.walk()):
        if index == node_index:
            node = candidate
            break
    if node is None or _signature(node) != signature:
        raise ExecutionError(
            "worker plan diverged from the coordinator's: expected %s at "
            "walk index %d" % (signature, node_index))
    return db, compiled, node


def _worker_run(task):
    """Execute one morsel and return ``(rows, extra, elapsed, worker_id,
    fragment)``.

    ``task`` is (text, options, exchange_index, signature, page_lo,
    page_hi, params, trace_on).  The worker compiles the statement
    against its forked database snapshot, finds the Exchange at
    ``exchange_index`` in ``plan.walk()`` order, verifies the structural
    signature, and runs the Exchange's child with the scan restricted to
    the page range.

    ``extra`` is None normally; under ``options.analyze`` it is
    ``(profile_export, stats_export)`` — the worker's per-operator probes
    keyed by walk index plus its ExecutionStats counters, for the
    coordinator to merge (EXPLAIN ANALYZE through a Gather).
    ``elapsed`` is the task's wall seconds and ``worker_id`` the worker
    process's pid, for the per-task and per-worker skew views.

    ``fragment`` is None unless ``trace_on``: a
    :meth:`repro.obs.spans.Span.export` tuple covering this task, with
    monotonic-ns timestamps directly comparable to the parent's
    (CLOCK_MONOTONIC is system-wide), for the coordinator to graft under
    the request's execute span.
    """
    from time import monotonic_ns, perf_counter

    from repro.executor.context import ExecutionContext
    from repro.executor.rowops import sort_rows
    from repro.executor.run import rows_iter
    from repro.optimizer import plans as pl

    text, options, exchange_index, signature, lo, hi, params, \
        trace_on = task
    started = perf_counter()
    started_ns = monotonic_ns()
    db, compiled, node = _worker_node(text, options, exchange_index,
                                      signature)
    if not isinstance(node, pl.Exchange):
        raise ExecutionError("expected an Exchange at walk index %d"
                             % exchange_index)

    ctx = ExecutionContext(db.engine, db.functions, list(params), txn=None)
    ctx.join_kinds = db.join_kinds
    ctx.batch_size = options.batch_size
    ctx.morsel_range = (lo, hi)
    ctx.morsel_scan = node.morsel_scan
    if options.analyze:
        from repro.obs.profile import PlanProfile

        ctx.profile = PlanProfile(compiled.plan)
    rows = list(rows_iter(node.children[0], ctx, {}))
    if isinstance(node, pl.MergeGather):
        # Local sort (stable, so ties stay in scan order) and top-K cut:
        # at most dop * K rows cross the exchange.
        sort_rows(rows, node.positions)
        if node.limit_hint is not None:
            del rows[node.limit_hint:]
    extra = None
    if ctx.profile is not None:
        from repro.obs.profile import export_stats

        extra = (ctx.profile.export(), export_stats(ctx.stats))
    fragment = None
    if trace_on:
        from repro.obs.spans import Span

        span = Span("worker.morsel", start_ns=started_ns)
        span.finish()
        span.set(pid=os.getpid(), pages=[lo, hi], rows=len(rows))
        fragment = span.export()
    return rows, extra, perf_counter() - started, os.getpid(), fragment


def _worker_shuffle(task):
    """Producer half of a REPARTITION shuffle.

    Runs the Repartition's child chain over one page-range morsel,
    routes every binding by the stable hash of its key column, and ships
    each destination's buffer wire-encoded to that partition's queue —
    always exactly one blob per destination (empty ones included), so
    the coordinator knows how many messages to drain.

    Rows cross the wire as ``(seq_page, seq_slot, *row)``; the sequence
    pair restores serial scan order on the consumer side.  ``seq_page``
    counts page *transitions* from the morsel's low page rather than
    trusting raw page numbers, which keeps tags order-isomorphic to scan
    order even when predicates skip whole pages.

    ``task`` is (text, options, repart_index, signature, page_lo,
    page_hi, source_slot, params).  Returns ``(rows_routed, elapsed)``.
    """
    from time import perf_counter

    from repro.executor.context import ExecutionContext
    from repro.executor.run import env_iter
    from repro.optimizer import plans as pl
    from repro.storage.heap import stable_partition_hash
    from repro.storage.record import pack_rows

    text, options, repart_index, signature, lo, hi, slot, params = task
    started = perf_counter()
    db, compiled, node = _worker_node(text, options, repart_index,
                                      signature)
    if not isinstance(node, pl.Repartition):
        raise ExecutionError("expected a REPARTITION at walk index %d"
                             % repart_index)
    for sub in node.walk():
        # Sequence tags ride in tuple-interpreter envs (RID entries);
        # the batch/compiled backends would lose them.
        sub.exec_backend = "tuple"
    n = node.dop
    ctx = ExecutionContext(db.engine, db.functions, list(params), txn=None)
    ctx.join_kinds = db.join_kinds
    ctx.batch_size = options.batch_size
    ctx.morsel_range = (lo, hi)
    ctx.morsel_scan = node.morsel_scan
    quantifier = node.morsel_scan.quantifier
    key_pos = node.morsel_scan.table.column_index(node.keys[0].column)
    rid_key = ("rid", quantifier)
    buffers: List[list] = [[] for _ in range(n)]
    page_index = lo - 1
    last_page = None
    routed = 0
    for env in env_iter(node.children[0], ctx, {}):
        rid = env[rid_key]
        if rid.page_no != last_page:
            last_page = rid.page_no
            page_index += 1
        row = env[quantifier]
        buffers[stable_partition_hash(row[key_pos]) % n].append(
            (page_index, rid.slot) + tuple(row))
        routed += 1
    base = slot * n
    for dest, rows in enumerate(buffers):
        _WORKER_QUEUES[base + dest].put(pack_rows(rows))
    return routed, perf_counter() - started


def _seq_getter(side):
    """Build a reader for a binding's serial-order tag on one input side
    of a partition-wise plan: the shuffle sequence for a REPARTITION
    feed, the global ``(page, slot)`` RID for a co-located sharded scan
    (its global page number is its scan-order position).  The reader
    returns None for pad rows (outer-join padding)."""
    from repro.optimizer import plans as pl

    if isinstance(side, pl.Repartition):
        key = ("#exchange-seq", id(side))
    else:
        node = side
        while isinstance(node, pl.Filter):
            node = node.children[0]
        key = ("rid", node.quantifier)

    def seq_of(env, _key=key):
        value = env.get(_key)
        if value is None:
            return None
        return (value[0], value[1])

    return seq_of


def _worker_partition(task):
    """Consumer half of a partition-wise plan: rebuild this partition's
    shuffled feeds, restrict co-located scans to the partition, execute
    the PartitionGather's child, and tag every output row with its
    serial sequence so the coordinator's merge reproduces dop=1 order.

    ``task`` is (text, options, gather_index, signature, partition,
    source_blobs, params) with ``source_blobs`` aligned to
    ``gather.sources`` — each entry the wire blobs routed to this
    partition.  Returns ``(tagged_rows, elapsed, worker_id)``.
    """
    from time import perf_counter

    from repro.executor.compiled import closures
    from repro.executor.context import ExecutionContext
    from repro.executor.run import env_iter, rows_iter
    from repro.optimizer import plans as pl
    from repro.storage.record import unpack_rows

    (text, options, gather_index, signature, partition, source_blobs,
     params) = task
    started = perf_counter()
    db, compiled, node = _worker_node(text, options, gather_index,
                                      signature)
    if not isinstance(node, pl.PartitionGather):
        raise ExecutionError("expected a PARTITIONGATHER at walk index %d"
                             % gather_index)
    for sub in node.walk():
        # Feeds and sequence tags live in tuple-interpreter envs; the
        # batch/compiled backends would bypass both.
        sub.exec_backend = "tuple"

    ctx = ExecutionContext(db.engine, db.functions, list(params), txn=None)
    ctx.join_kinds = db.join_kinds
    ctx.batch_size = options.batch_size
    ctx.partition_map = {id(scan): partition
                         for scan in node.colocated_scans}
    feeds = {}
    for source, blobs in zip(node.sources, source_blobs):
        entries = []
        for blob in blobs:
            for decoded in unpack_rows(blob):
                entries.append(((decoded[0], decoded[1]), decoded[2:]))
        entries.sort(key=lambda entry: entry[0])
        quantifier = source.morsel_scan.quantifier
        seq_key = ("#exchange-seq", id(source))
        feeds[id(source)] = [{quantifier: row, seq_key: seq}
                             for seq, row in entries]
    ctx.repartition_feeds = feeds

    child = node.children[0]
    tagged = []
    if node.tag_exprs is not None:
        # Partition-wise GROUP BY: every row of a group lands in this
        # partition, so a key's local first-seen sequence IS its global
        # first-seen sequence — the group's serial output position.
        groupby = child
        feed_root = groupby.children[0]
        if isinstance(feed_root, pl.DerivedScan):
            feed_root = feed_root.children[0].children[0]
        seq_of = _seq_getter(feed_root)
        first_seen = {}
        tags = closures(node.tag_exprs, ctx.functions)
        for env in env_iter(feed_root, ctx, {}):
            key = tuple([fn(env, ctx) for fn in tags])
            if key not in first_seen:
                first_seen[key] = seq_of(env)
        nkeys = len(groupby.group_exprs)
        for row in rows_iter(groupby, ctx, {}):
            tagged.append((first_seen[row[:nkeys]], row))
    else:
        # Partition-wise HASHJOIN under a PROJECT head: serial output
        # order is lexicographic in (outer seq, inner seq), and each
        # partition's stream already comes out in exactly that order
        # (the feed is seq-sorted; the build dict preserves feed order).
        project = child
        join = project.children[0]
        outer_seq = _seq_getter(join.children[0])
        inner_seq = _seq_getter(join.children[1])
        exprs = closures(project.exprs, ctx.functions, True)
        pad = (-1, -1)
        for env in env_iter(join, ctx, {}):
            row = tuple([fn(env, ctx) for fn in exprs])
            tagged.append(((outer_seq(env), inner_seq(env) or pad), row))
    return tagged, perf_counter() - started, os.getpid()


def _worker_ship(task):
    """Run a SHIP's child in a worker — the stand-in for the remote
    site — and return the result stream wire-encoded, plus elapsed
    seconds and the worker pid.  ``task`` is (text, options, ship_index,
    signature, params)."""
    from time import perf_counter

    from repro.executor.context import ExecutionContext
    from repro.executor.run import rows_iter
    from repro.optimizer import plans as pl
    from repro.storage.record import pack_rows

    text, options, ship_index, signature, params = task
    started = perf_counter()
    db, compiled, node = _worker_node(text, options, ship_index, signature)
    if not isinstance(node, pl.Ship):
        raise ExecutionError("expected a SHIP at walk index %d"
                             % ship_index)
    ctx = ExecutionContext(db.engine, db.functions, list(params), txn=None)
    ctx.join_kinds = db.join_kinds
    ctx.batch_size = options.batch_size
    rows = list(rows_iter(node.children[0], ctx, {}))
    return pack_rows(rows), perf_counter() - started, os.getpid()


def _signature(node) -> str:
    """Structural cross-check that coordinator and worker located the
    same node, guarding against nondeterministic plan divergence."""
    scan = getattr(node, "morsel_scan", None)
    anchor = (scan.table.name if scan is not None
              else getattr(node, "to_site", "-"))
    return "%s/%s/%s/%d" % (
        node.op_name, anchor, node.children[0].op_name,
        getattr(node, "dop", node.props.dop))


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


def _carve(pages: int, dop: int) -> List[Tuple[int, int]]:
    """Split a heap file's pages into contiguous morsel ranges."""
    if pages <= 0:
        return []
    target = max(1, dop * MORSELS_PER_WORKER)
    size = max(1, -(-pages // target))
    return [(lo, min(lo + size, pages)) for lo in range(0, pages, size)]


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
    """Owns one Database's fork-based worker pool.

    The pool is created lazily and recreated whenever the database's data
    version — (schema_epoch, stats_epoch, dml_clock) — changes: forked
    workers hold a copy-on-write snapshot, and any parent-side change
    makes that snapshot stale.  Keeping the pool across queries means a
    statement-per-query workload (the differential sweep, the plan-cache
    benchmark) forks once, not per statement.
    """

    def __init__(self, db):
        self.db = db
        self._pool = None
        self._pool_version = None
        self._pool_dop = 0
        self._pool_queues = 0
        # The exact queue list this runtime's pool children inherited at
        # fork.  The coordinator must drain *this* list, never the
        # module global: several Databases (and therefore runtimes) can
        # live in one process, and whichever forks last re-points
        # ``_WORKER_QUEUES`` — draining the global would silently watch
        # queues the reused pool's children have never seen.
        self._queues: list = []

    def data_version(self) -> Tuple:
        catalog = self.db.catalog
        return (catalog.schema_epoch, catalog.stats_epoch,
                catalog.dml_clock)

    def close(self) -> None:
        global _WORKER_QUEUES
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_version = None
            self._pool_dop = 0
            self._pool_queues = 0
            # Queues belong to the dead pool's fork generation; a stale
            # one could leak messages into the next pool's exchanges.
            # Only clear the global if it is still ours — another
            # runtime may have re-pointed it for its own fork since.
            if _WORKER_QUEUES is self._queues:
                _WORKER_QUEUES = []
            self._queues = []

    def __del__(self):  # backstop; Database.close() is the real path
        try:
            self.close()
        except Exception:
            pass

    def _ensure_pool(self, dop: int, queue_count: int = 0):
        size = pool_size(dop)
        version = self.data_version()
        if (self._pool is not None and version == self._pool_version
                and size <= self._pool_dop
                and queue_count <= self._pool_queues):
            return self._pool
        self.close()
        global _WORKER_DB, _WORKER_QUEUES
        _WORKER_DB = self.db
        context = multiprocessing.get_context("fork")
        # Shuffle queues must exist before the fork: children inherit
        # them as pipe descriptors, they cannot cross pool.map's pickle
        # boundary.  A few spares avoid rebuilding the pool when a later
        # query needs slightly more.
        count = max(queue_count, 2 * dop if queue_count else 0)
        self._queues = [context.Queue() for _ in range(count)]
        _WORKER_QUEUES = self._queues
        self._pool = context.Pool(processes=size,
                                  initializer=_worker_init)
        self._pool_version = version
        self._pool_dop = size
        self._pool_queues = count
        return self._pool

    def _inline(self, exchange, ctx, reason: str):
        from repro.executor.run import rows_iter

        ctx.stats.parallel_fallbacks += 1
        ctx.stats.parallel_reasons.append(reason)
        trace = getattr(ctx, "trace", None)
        if trace is not None:
            trace.current().set(parallel_degraded=reason)
        return rows_iter(exchange.children[0], ctx, {})

    def run_exchange(self, exchange, ctx) -> Iterator[Tuple[Any, ...]]:
        """Run one Exchange: fan its child out over morsels, recombine."""
        from repro.executor.run import rows_iter
        from repro.optimizer import plans as pl

        ctx.stats.parallel_exchanges += 1
        if ctx.txn is not None:
            # Worker scans take no locks and cannot see this transaction's
            # isolation scope; stay serial inside explicit transactions.
            return self._inline(exchange, ctx, "explicit transaction open")
        if not fork_available():
            return self._inline(exchange, ctx, disabled_reason())
        compiled = getattr(ctx, "compiled", None)
        if compiled is None or compiled.plan is None:
            return self._inline(
                exchange, ctx,
                "no compiled statement attached to the context")
        pages = self.db.engine.table_page_count(
            exchange.morsel_scan.table.name)
        morsels = _carve(pages, exchange.dop)
        if len(morsels) <= 1:
            # An empty or single-page table has nothing to fan out; the
            # inline run is the dop=1 plan by construction (no fallback).
            return rows_iter(exchange.children[0], ctx, {})
        exchange_index = next(
            (index for index, node in enumerate(compiled.plan.walk())
             if node is exchange), None)
        if exchange_index is None:
            return self._inline(exchange, ctx,
                                "exchange not found in the compiled plan")
        signature = _signature(exchange)
        # A cached plan's options may carry a stale analyze flag (analyze
        # is excluded from the cache key); workers must follow this run's
        # actual profile state.  cache_key() ignores analyze, so both
        # variants share one compiled plan in the worker memo.
        options = compiled.options
        if options.analyze != (ctx.profile is not None):
            options = options.replace(analyze=ctx.profile is not None)
        trace = getattr(ctx, "trace", None)
        try:
            pool = self._ensure_pool(exchange.dop)
            tasks = [(compiled.text, options, exchange_index,
                      signature, lo, hi, tuple(ctx.params),
                      trace is not None)
                     for lo, hi in morsels]
            results = pool.map(_worker_run, tasks)
        except Exception as exc:
            # Pool breakage and genuine query errors both land here; the
            # inline rerun either succeeds serially or raises the same
            # deterministic error the serial plan would.
            self.close()
            return self._inline(exchange, ctx,
                                "parallel execution failed: %r" % (exc,))
        ctx.stats.morsels += len(morsels)
        parts = []
        times = []
        worker_ids = []
        fragments = []
        for part_rows, extra, elapsed, worker_id, fragment in results:
            parts.append(part_rows)
            times.append(elapsed)
            worker_ids.append(worker_id)
            if fragment is not None:
                fragments.append(fragment)
            if extra is not None and ctx.profile is not None:
                from repro.obs.profile import merge_stats

                exported_probes, exported_stats = extra
                ctx.profile.merge_worker(exported_probes)
                merge_stats(ctx.stats, exported_stats)
        if trace is not None and fragments:
            trace.attach_worker_fragments(trace.current(), fragments)
        if ctx.profile is not None:
            ctx.profile.note_exchange(
                exchange, morsels=len(morsels),
                workers=min(exchange.dop, len(morsels)),
                worker_times=times, worker_ids=worker_ids)
        if isinstance(exchange, pl.MergeGather):
            from repro.executor.rowops import null_last_key

            positions = exchange.positions
            rows = list(heapq.merge(
                *parts, key=lambda row: null_last_key(row, positions)))
        elif (isinstance(exchange, pl.Gather)
                and exchange.merge_groups is not None):
            rows = _merge_partial_groups(exchange.merge_groups, parts)
        else:
            rows = [row for part in parts for row in part]
        return iter(rows)

    def _drain_queues(self, sources, counts, n: int):
        """Drain every (source slot, partition) shuffle queue in the
        coordinator, round-robin (see the module docstring for why the
        parent and not the consumers must do this).  ``counts[s]`` is
        the number of producer tasks — and therefore blobs per queue —
        for source slot ``s``.  Returns ``({(slot, partition): [blob]},
        total_bytes)``.

        Drains ``self._queues`` — the list this pool's children
        inherited — and raises if no blob arrives for 10s: the producer
        wave already completed, so a prolonged dry spell means the
        messages can never arrive (e.g. a respawned worker that forked
        off a different queue generation); the caller turns the raise
        into the byte-identical inline fallback instead of hanging."""
        import queue as queue_module
        from time import monotonic

        pending = {}
        blobs = {}
        for slot in range(len(sources)):
            for p in range(n):
                pending[(slot, p)] = counts[slot]
                blobs[(slot, p)] = []
        moved = 0
        last_progress = monotonic()
        while pending:
            drained_any = False
            for key in list(pending):
                slot, p = key
                try:
                    blob = self._queues[slot * n + p].get_nowait()
                except queue_module.Empty:
                    continue
                drained_any = True
                blobs[key].append(blob)
                moved += len(blob)
                pending[key] -= 1
                if not pending[key]:
                    del pending[key]
            if drained_any:
                last_progress = monotonic()
            elif pending:
                if monotonic() - last_progress > 10.0:
                    raise ExecutionError(
                        "shuffle drain stalled: %d queue message(s) "
                        "never arrived" % sum(pending.values()))
                # Nothing ready anywhere: block briefly on one queue so
                # the poll loop doesn't spin while feeders catch up.
                key = next(iter(pending))
                slot, p = key
                try:
                    blob = self._queues[slot * n + p].get(timeout=0.05)
                except queue_module.Empty:
                    continue
                blobs[key].append(blob)
                moved += len(blob)
                pending[key] -= 1
                if not pending[key]:
                    del pending[key]
                last_progress = monotonic()
        return blobs, moved

    def run_partitioned(self, gather, ctx) -> Iterator[Tuple[Any, ...]]:
        """Run one PartitionGather: shuffle (or partition-restrict) its
        inputs, execute the child once per partition, and merge the
        per-partition streams by their serial sequence tags — output is
        byte-identical to dop=1 execution by construction."""
        from repro.executor.run import rows_iter

        ctx.stats.parallel_exchanges += 1
        if ctx.txn is not None:
            return self._inline(gather, ctx, "explicit transaction open")
        if not fork_available():
            return self._inline(gather, ctx, disabled_reason())
        compiled = getattr(ctx, "compiled", None)
        if compiled is None or compiled.plan is None:
            return self._inline(
                gather, ctx,
                "no compiled statement attached to the context")
        n = gather.dop
        if n <= 1:
            return rows_iter(gather.children[0], ctx, {})
        index_of = {id(node): index
                    for index, node in enumerate(compiled.plan.walk())}
        gather_index = index_of.get(id(gather))
        if gather_index is None:
            return self._inline(gather, ctx,
                                "exchange not found in the compiled plan")
        options = compiled.options
        if options.analyze:
            # Partition workers export no probes; keep their compile
            # memo on the analyze=False variant (same cache key).
            options = options.replace(analyze=False)
        producer_tasks = []
        counts = []
        for slot, source in enumerate(gather.sources):
            source_index = index_of.get(id(source))
            if source_index is None:
                return self._inline(
                    gather, ctx,
                    "repartition source missing from the compiled plan")
            pages = self.db.engine.table_page_count(
                source.morsel_scan.table.name)
            morsels = _carve(pages, n)
            counts.append(len(morsels))
            sig = _signature(source)
            producer_tasks.extend(
                (compiled.text, options, source_index, sig, lo, hi, slot,
                 tuple(ctx.params))
                for lo, hi in morsels)
        try:
            pool = self._ensure_pool(
                n, queue_count=max(1, len(gather.sources) * n))
            if producer_tasks:
                shuffle_stats = pool.map(_worker_shuffle, producer_tasks)
            else:
                shuffle_stats = []
            blobs, moved = self._drain_queues(gather.sources, counts, n)
            consumer_tasks = [
                (compiled.text, options, gather_index, _signature(gather),
                 p,
                 tuple(tuple(blobs[(slot, p)])
                       for slot in range(len(gather.sources))),
                 tuple(ctx.params))
                for p in range(n)]
            results = pool.map(_worker_partition, consumer_tasks)
        except Exception as exc:
            self.close()
            return self._inline(gather, ctx,
                                "parallel execution failed: %r" % (exc,))
        ctx.stats.morsels += len(producer_tasks)
        ctx.stats.exchange_bytes += moved
        if ctx.profile is not None:
            ctx.profile.note_exchange(
                gather, morsels=len(producer_tasks) or n,
                workers=pool_size(n),
                worker_times=[elapsed
                              for _tagged, elapsed, _pid in results],
                worker_ids=[pid for _tagged, _elapsed, pid in results],
                wire_bytes=moved)
        merged = heapq.merge(*(tagged for tagged, _elapsed, _pid
                               in results),
                             key=lambda entry: entry[0])
        return iter([row for _tag, row in merged])

    def run_ship(self, ship, ctx) -> Iterator[Tuple[Any, ...]]:
        """Execute SHIP as real inter-process movement: the child runs
        in a forked worker standing in for the remote site, and the
        result stream comes back wire-encoded over the result pipe.
        Any failure degrades to the serial pass-through."""
        from repro.executor.run import rows_iter
        from repro.storage.record import unpack_rows

        compiled = getattr(ctx, "compiled", None)
        if (not fork_available() or compiled is None
                or compiled.plan is None):
            return rows_iter(ship.children[0], ctx, {})
        ship_index = next(
            (index for index, node in enumerate(compiled.plan.walk())
             if node is ship), None)
        if ship_index is None:
            return rows_iter(ship.children[0], ctx, {})
        options = compiled.options
        if options.analyze:
            options = options.replace(analyze=False)
        task = (compiled.text, options, ship_index, _signature(ship),
                tuple(ctx.params))
        try:
            pool = self._ensure_pool(1)
            blob, elapsed, worker_id = pool.apply(_worker_ship, (task,))
        except Exception as exc:
            self.close()
            ctx.stats.parallel_fallbacks += 1
            ctx.stats.parallel_reasons.append(
                "ship execution failed: %r" % (exc,))
            return rows_iter(ship.children[0], ctx, {})
        ctx.stats.parallel_exchanges += 1
        ctx.stats.exchange_bytes += len(blob)
        if ctx.profile is not None:
            ctx.profile.note_exchange(ship, morsels=1, workers=1,
                                      worker_times=[elapsed],
                                      worker_ids=[worker_id],
                                      wire_bytes=len(blob))
        return iter(unpack_rows(blob))
