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
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.executor.workerpool import WorkerPool, data_version


def run_statement(db, payload) -> Tuple:
    """Worker-pool handler: run one read against the worker's frozen
    image.  ``payload`` is ``(sql, params, options, trace_on)``; returns
    ``(columns, rows, rowcount, cached, fragment)`` — ``cached`` flags a
    worker plan-cache hit, ``fragment`` is the worker's span export when
    ``trace_on`` (None otherwise)."""
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
    return result.columns, result.rows, result.rowcount, cached, fragment


class SnapshotManager:
    """Keeps the current snapshot pool fresh; refcounts pinned pools.

    ``fork_gate`` is the server's quiesce context manager: it holds all
    write stripes *and* the read gate exclusively for the duration of a
    fork, so neither a writer transaction nor a live reader is
    mid-flight inside the copy-on-write image.
    """

    def __init__(self, db, workers: int, refresh_s: float, fork_gate,
                 metrics=None):
        self.db = db
        self.workers = workers
        self.refresh_s = refresh_s
        self._fork_gate = fork_gate
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

    # -- freshness -----------------------------------------------------------

    def refresh(self, force: bool = False) -> bool:
        """One synchronous freshness check: re-fork the current pool if
        the data version moved or a worker died (or ``force``).  Returns
        True when a new pool was installed.  Tests call this instead of
        waiting out the refresh timer."""
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
        while not self._stop.wait(self.refresh_s):
            try:
                self.refresh()
            except Exception:  # pragma: no cover - refresh is best-effort
                # A failed re-fork (e.g. resource exhaustion) keeps the
                # old pool serving; the next tick tries again.
                pass

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
