"""Snapshot-isolated reads via forked copy-on-write worker pools.

The engine has no storage-level MVCC, but it does not need one to give
readers a consistent view: ``fork()`` *is* a snapshot.  A snapshot pool
is a :class:`~repro.executor.workerpool.WorkerPool` (DESIGN.md "Worker
pool") forked while the server holds every write stripe and has drained
live readers, so no statement at all is mid-flight in the image.  Every
read the pool serves sees exactly the committed state at fork time, no
matter what writers commit in the parent afterwards, and never takes an
engine lock — readers cannot block behind writers by construction.

A :class:`SnapshotManager` keeps one *current* pool fresh (re-forking on
a bounded-staleness timer when the data version moves or a worker died)
and lets sessions *pin* pools: ``SNAPSHOT BEGIN`` refcounts the pool it
pins so the old image stays alive — and keeps serving the old rows —
until the session releases it, which is the whole of snapshot isolation
here.  Retired pools are terminated once the last pin drops.

A refresh forks the new pool *outside* the manager lock and only swaps
the pointer under it; retired pools are terminated after the lock is
released.  So a reader picking the current pool never waits on a fork
or a reap: during a fork it keeps reading the old image.  Forks are
serialized among themselves by a separate fork lock.  Nor does a
session pay for a reap: the pools ``SNAPSHOT BEGIN``/``END`` retire are
stopped by their reaper threads.

Workers execute whole read statements (:func:`run_statement`) and
return materialized rows; the parent thread blocks in
``Connection.recv`` — which releases the GIL — so N clients reading
through N workers scale across cores, which is what the serving
benchmark's throughput gate measures.

Workers inherit warmed plans.  A worker's plan cache is the server's,
copied at fork, and the server never runs a snapshot read itself; so
without help every pool generation would recompile the hot reads from
scratch.  Sessions report each worker plan-cache miss
(:meth:`SnapshotManager.note_miss`); a text missed a second time is
compiled into the server's plan cache by the refresher between ticks
(:meth:`SnapshotManager.warm`), after the tick's re-fork and no later
than the next tick is due, so the cadence and the staleness bound stay
``refresh_s``.  Each warm compile holds the read gate shared, as a live
read does, so a fork never captures one half done; it runs under no
manager lock and never inside the fork gate.  The next fork and every
later one inherit the plan copy-on-write.  A text seen once (an ad-hoc
read, a cold key) is never compiled in the server.  The warmed plan is
an ordinary cache entry: DDL and ANALYZE invalidate it under the usual
epoch rules.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.executor.workerpool import WorkerPool, data_version


def run_statement(db, payload) -> Tuple:
    """Worker-pool handler: run one read against the worker's frozen
    image.  ``payload`` is ``(sql, params, options, trace_on)``; returns
    ``(columns, rows, rowcount, cached, fragment)`` — ``cached`` flags a
    worker plan-cache hit (None when the cache cannot serve the text),
    ``fragment`` is the worker's span export when ``trace_on`` (None
    otherwise)."""
    sql, params, options, trace_on = payload
    wtrace = None
    if trace_on:
        from repro.obs.spans import RequestTrace

        # Monotonic-ns timestamps are system-wide, so this fragment
        # slots straight into the parent's tree.
        wtrace = RequestTrace("worker", name="snapshot.worker")
        wtrace.root.set(pid=os.getpid())
    result = db.execute(sql, params, options=options, tracer=wtrace)
    fragment = None
    if wtrace is not None:
        wtrace.finish()
        fragment = wtrace.root.export()
    cached = (result.timings is not None
              and result.timings.pipeline == "cached")
    if not cached and not _cache_serves(db, sql, options):
        cached = None  # EXPLAIN, or the plan cache off: never a hit
    return result.columns, result.rows, result.rowcount, cached, fragment


def _cache_serves(db, sql: str, options) -> bool:
    """Whether ``db.execute`` would look ``sql`` up in the plan cache."""
    if not options.plan_cache:
        return False
    fingerprint = db._fingerprint(sql.strip(), options)
    return fingerprint is not None and fingerprint.cacheable


class SnapshotManager:
    """Keeps the current snapshot pool fresh; refcounts pinned pools.

    ``fork_gate`` is the server's quiesce context manager: it holds all
    write stripes *and* the read gate exclusively for the duration of a
    fork, so neither a writer transaction nor a live reader is
    mid-flight inside the copy-on-write image.  ``warm_gate`` is the
    read gate's shared side, held around each warm compile so a fork
    drains it like a live read.
    """

    def __init__(self, db, workers: int, refresh_s: float, fork_gate,
                 warm_gate, metrics=None):
        self.db = db
        self.workers = workers
        self.refresh_s = refresh_s
        self._fork_gate = fork_gate
        self._warm_gate = warm_gate
        #: Guards _current, _retired and _pins; never held across a
        #: fork or a terminate.
        self._lock = threading.Lock()
        #: Serializes forks: refresh and pin never fork two pools at once.
        self._fork_lock = threading.Lock()
        self._current: Optional[WorkerPool] = None
        self._retired: List[WorkerPool] = []
        #: SNAPSHOT BEGIN refcounts: a pinned pool outlives its retirement.
        self._pins: Dict[WorkerPool, int] = {}
        self._stop = threading.Event()
        self._refresher: Optional[threading.Thread] = None
        #: Guards _misses and _to_warm only; never held across a compile.
        self._warm_lock = threading.Lock()
        #: Worker plan-cache misses per (text, options.key), an LRU no
        #: larger than the plan cache it feeds.
        self._misses: "OrderedDict[Tuple, int]" = OrderedDict()
        #: Texts missed twice, awaiting a warm compile: key ->
        #: (text, options).  Always a subset of _misses.
        self._to_warm: Dict[Tuple, Tuple] = {}
        self._c_forks = (metrics.counter(
            "serve_snapshot_forks_total", "Snapshot pools forked")
            if metrics is not None else None)
        self._g_pools = (metrics.gauge(
            "serve_snapshot_pools", "Snapshot pools alive (current + "
            "pinned retirees)") if metrics is not None else None)
        self._h_fork = (metrics.histogram(
            "serve_snapshot_fork_ms",
            "Milliseconds spent quiesced while forking a snapshot pool")
            if metrics is not None else None)
        self._c_warmed = (metrics.counter(
            "serve_snapshot_warmed_total", "Snapshot reads prepared in "
            "the server's plan cache for later forks to inherit")
            if metrics is not None else None)
        self._c_warm_failed = (metrics.counter(
            "serve_snapshot_warm_failures_total",
            "Warm compiles skipped because they raised")
            if metrics is not None else None)

    # -- version bookkeeping -------------------------------------------------

    def _fresh_locked(self) -> bool:
        """Is the current pool at the database's exact version with all
        its workers alive?"""
        pool = self._current
        return (pool is not None and pool.healthy
                and pool.version == data_version(self.db))

    def _fork_pool(self) -> WorkerPool:
        """Fork a pool at the *committed now*: quiesce writers and live
        readers, stamp the version, fork.  Caller holds self._fork_lock
        and not self._lock."""
        from time import monotonic

        started = monotonic()
        with self._fork_gate():
            pool = WorkerPool(self.db, self.workers)
        if self._c_forks is not None:
            self._c_forks.inc()
        if self._h_fork is not None:
            self._h_fork.observe((monotonic() - started) * 1e3)
        return pool

    def _publish(self) -> None:
        if self._g_pools is not None:
            alive = len(self._retired) + (1 if self._current else 0)
            self._g_pools.set(alive)

    def republish(self) -> None:
        """Re-publish the live gauge (after a registry-wide reset)."""
        with self._lock:
            self._publish()

    # -- the serving surface -------------------------------------------------

    def current_pool(self) -> Optional[WorkerPool]:
        """The pool serving unpinned reads, or None when reads must run
        live.  The pool may lag the database by up to ``refresh_s`` of
        committed DML (bounded staleness) but is refused outright when
        its *schema* epoch is stale: rows under an old schema are merely
        old, rows under an old catalog are wrong."""
        with self._lock:
            pool = self._current
            if pool is None:
                return None
            if pool.version[0] != self.db.catalog.schema_epoch:
                return None
            return pool

    def pin(self) -> WorkerPool:
        """Pin a pool at the database's exact current version (forking a
        fresh one if the current pool lags), for ``SNAPSHOT BEGIN``."""
        with self._fork_lock:
            with self._lock:
                if self._fresh_locked():
                    return self._pin_locked(self._current)
            pool = self._fork_pool()
            with self._lock:
                doomed = self._swap_locked(pool)
                self._pin_locked(pool)
        self._retire(doomed)
        return pool

    def _pin_locked(self, pool: WorkerPool) -> WorkerPool:
        self._pins[pool] = self._pins.get(pool, 0) + 1
        return pool

    def unpin(self, pool: WorkerPool) -> None:
        with self._lock:
            self._pins[pool] -= 1
            if not self._pins[pool]:
                del self._pins[pool]
            doomed = self._reap_locked()
        self._retire(doomed)

    def _swap_locked(self, pool: WorkerPool) -> List[WorkerPool]:
        """Install ``pool`` as current; returns the retirees to
        terminate once the lock is released."""
        old = self._current
        self._current = pool
        if old is not None:
            self._retired.append(old)
        return self._reap_locked()

    def _reap_locked(self) -> List[WorkerPool]:
        """Drop every unpinned retiree from the books and return them."""
        doomed = [pool for pool in self._retired if pool not in self._pins]
        self._retired = [pool for pool in self._retired
                         if pool in self._pins]
        self._publish()
        return doomed

    @staticmethod
    def _terminate(pools: List[WorkerPool]) -> None:
        for pool in pools:
            pool.terminate()

    @staticmethod
    def _retire(pools: List[WorkerPool]) -> None:
        for pool in pools:
            pool.retire()

    # -- warm plans ----------------------------------------------------------

    def note_miss(self, sql: str, options) -> None:
        """A snapshot worker compiled ``sql`` under ``options`` afresh.
        The second miss of one key queues it for :meth:`warm`."""
        key = (sql, options.key)
        with self._warm_lock:
            misses = self._misses.pop(key, 0) + 1
            self._misses[key] = misses
            if misses >= 2:
                self._to_warm[key] = (sql, options)
            while len(self._misses) > self.db.plan_cache.capacity:
                stale, _ = self._misses.popitem(last=False)
                self._to_warm.pop(stale, None)

    def warm(self, until: Optional[float] = None) -> None:
        """Prepare the queued texts in the server's plan cache, so the
        next fork inherits them.  The refresher calls this between
        ticks, with ``until`` the ``time.monotonic()`` the next tick is
        due: texts it does not reach by then stay queued.  A compile
        that raises (say, DDL dropped the table) is skipped and
        counted."""
        with self._warm_lock:
            queued, self._to_warm = self._to_warm, {}
        pending = iter(queued.items())
        for key, (sql, options) in pending:
            if self._stop.is_set() or (until is not None
                                       and time.monotonic() >= until):
                self._requeue([(key, (sql, options))] + list(pending))
                return
            try:
                with self._warm_gate():
                    self.db.prepare(sql, options)
            except Exception:
                if self._c_warm_failed is not None:
                    self._c_warm_failed.inc()
                continue
            if self._c_warmed is not None:
                self._c_warmed.inc()

    def _requeue(self, items) -> None:
        with self._warm_lock:
            for key, item in items:
                if key in self._misses:
                    self._to_warm.setdefault(key, item)

    # -- freshness -----------------------------------------------------------

    def refresh(self, force: bool = False) -> bool:
        """One synchronous freshness check: re-fork the current pool if
        the data version moved or a worker died (or ``force``).  Returns
        True when a new pool was installed.  Tests call this instead of
        waiting out the refresh timer (and :meth:`warm` instead of the
        refresher's warm step)."""
        with self._fork_lock:
            with self._lock:
                if not force and self._fresh_locked():
                    return False
            pool = self._fork_pool()
            with self._lock:
                doomed = self._swap_locked(pool)
        self._terminate(doomed)
        return True

    def start(self) -> None:
        """Fork the initial pool and start the background refresher."""
        self.refresh(force=True)
        self._refresher = threading.Thread(
            target=self._refresh_loop, name="snapshot-refresher",
            daemon=True)
        self._refresher.start()

    def _refresh_loop(self) -> None:
        wait = self.refresh_s
        while not self._stop.wait(wait):
            try:
                self.refresh()
            except Exception:  # pragma: no cover - refresh is best-effort
                # A failed re-fork (e.g. resource exhaustion) keeps the
                # old pool serving; the next tick tries again.
                pass
            # Warm in the wait before the next tick, never past it.
            due = time.monotonic() + self.refresh_s
            self.warm(until=due)
            wait = max(0.0, due - time.monotonic())

    def close(self) -> None:
        self._stop.set()
        if self._refresher is not None:
            self._refresher.join(timeout=2 * self.refresh_s + 2.0)
        with self._fork_lock, self._lock:
            if self._current is not None:
                self._retired.append(self._current)
                self._current = None
            doomed, self._retired = self._retired, []
            self._publish()
        self._terminate(doomed)

    def stats(self) -> dict:
        with self._lock:
            return {
                "current_version": (self._current.version
                                    if self._current else None),
                "data_version": data_version(self.db),
                "retired": len(self._retired),
                "workers": self._current.size if self._current else 0,
            }
