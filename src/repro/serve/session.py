"""Per-client sessions: the thread-safe statement surface.

A session serializes its own statements (one client, one ordered
stream) behind a per-session lock; *across* sessions everything runs
concurrently, gated only by admission control.  Dispatch per statement:

- reads go to a forked snapshot pool when one is fresh enough —
  fresh means the pool's schema epoch is current and its dml_clock has
  caught up with this session's own last write (read-your-writes) —
  and run live with a short shared-lock transaction otherwise;
- writes run in the server process through the striped write gate,
  autocommitting through the engine's ordinary 2PL path;
- DDL and explicit write transactions escalate to every stripe;
- ``SNAPSHOT BEGIN`` pins the current data version: until ``SNAPSHOT
  END`` every read in the session sees exactly the rows committed at
  the pin, no matter what other sessions commit meanwhile.

Control statements (BEGIN/COMMIT/ROLLBACK/SNAPSHOT BEGIN/SNAPSHOT END/
SHOW STATEMENTS/STATS RESET) are accepted through
:meth:`Session.execute` too, so a wire client speaks one uniform
statement channel.

Every statement feeds the server's per-fingerprint
:class:`~repro.obs.statstats.StatementStats` and — past the configured
threshold — the slow-query log; when the server's
:class:`~repro.obs.spans.SpanRecorder` samples a request, the whole
journey (admission wait, routing, gate/snapshot waits, compile phases,
execution, worker fragments) lands in one span tree.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Optional, Sequence

from repro.core.database import Result
from repro.errors import ServeError, SessionClosed, rebuild_error
from repro.executor.workerpool import WorkerPoolError
from repro.serve.server import classify
from repro.serve.snapshot import run_statement


class _RequestNote:
    """Mutable routing detail threaded through one statement's dispatch
    so the recording epilogue can feed :class:`StatementStats` and the
    slow-query log without re-deriving how the statement traveled."""

    __slots__ = ("route", "source", "cache_hit", "degraded")

    def __init__(self):
        #: Route kind ("read"/"write"/"ddl"/"meta") or "control".
        self.route: Optional[str] = None
        #: Where it ran: "snapshot", "live", "txn", "write", "ddl",
        #: "control".
        self.source: Optional[str] = None
        #: Worker-side plan-cache hit (snapshot reads only; None when
        #: unknown).
        self.cache_hit: Optional[bool] = None
        #: Why a snapshot read degraded to a live read, when it did.
        self.degraded: Optional[str] = None


class Session:
    """One client's handle on a :class:`~repro.serve.server.Server`."""

    def __init__(self, server):
        self.server = server
        self.db = server.db
        self._lock = threading.RLock()
        self._txn = None
        #: The write gate held for the whole explicit transaction, once
        #: it issues its first write/DDL (entered lazily, exited at
        #: commit/rollback).
        self._txn_gate = None
        self._pinned = None
        self._last_write_clock = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._txn is not None:
                try:
                    self.db.rollback(self._txn)
                finally:
                    self._txn = None
                    self._exit_txn_gate()
            if self._pinned is not None:
                self.server.snapshots.unpin(self._pinned)
                self._pinned = None
            self.server._session_closed()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosed("session is closed")

    # -- transactions --------------------------------------------------------

    def begin(self) -> None:
        with self._lock:
            self._check_open()
            if self._txn is not None:
                raise ServeError("transaction already open")
            self._txn = self.db.begin()

    def commit(self) -> None:
        with self._lock:
            self._check_open()
            if self._txn is None:
                raise ServeError("no open transaction")
            try:
                self.db.commit(self._txn)
            finally:
                self._txn = None
                self._exit_txn_gate()
            self._last_write_clock = self.db.catalog.dml_clock

    def rollback(self) -> None:
        with self._lock:
            self._check_open()
            if self._txn is None:
                raise ServeError("no open transaction")
            try:
                self.db.rollback(self._txn)
            finally:
                self._txn = None
                self._exit_txn_gate()

    def _enter_txn_gate(self) -> None:
        if self._txn_gate is None:
            gate = self.server.write_gate.quiesced()
            gate.__enter__()
            self._txn_gate = gate

    def _exit_txn_gate(self) -> None:
        if self._txn_gate is not None:
            gate, self._txn_gate = self._txn_gate, None
            gate.__exit__(None, None, None)

    # -- snapshots -----------------------------------------------------------

    def begin_snapshot(self) -> None:
        """Pin the current data version for every read until
        :meth:`end_snapshot`.  Where fork() is unavailable this degrades
        to live reads (still consistent per statement via shared locks,
        but not repeatable across statements).

        Rejected inside an explicit transaction: the pin would be
        meaningless (in-txn reads run live under the transaction's own
        2PL scope, never against a pool) and pinning may fork — which
        deadlocks against the write stripes this very thread holds for
        the transaction, and would capture its uncommitted writes in
        the copy-on-write image besides.
        """
        with self._lock:
            self._check_open()
            if self._txn is not None:
                raise ServeError(
                    "SNAPSHOT BEGIN inside an explicit transaction is "
                    "not supported; COMMIT or ROLLBACK first")
            if self._pinned is not None:
                raise ServeError("snapshot already pinned")
            if self.server.snapshots is None:
                return
            self._pinned = self.server.snapshots.pin()

    def end_snapshot(self) -> None:
        with self._lock:
            self._check_open()
            if self._pinned is not None:
                self.server.snapshots.unpin(self._pinned)
                self._pinned = None

    @property
    def snapshot_version(self):
        """The pinned (schema_epoch, stats_epoch, dml_clock), or None."""
        pool = self._pinned
        return pool.version if pool is not None else None

    # -- statements ----------------------------------------------------------

    #: Control statements handled by the session itself, uniform with
    #: SQL so the wire loop needs one channel.
    _CONTROL = {
        "begin": "begin",
        "commit": "commit",
        "rollback": "rollback",
        "snapshot begin": "begin_snapshot",
        "snapshot end": "end_snapshot",
        "show statements": "show_statements",
        "stats reset": "stats_reset",
    }

    def show_statements(self) -> Result:
        """``SHOW STATEMENTS``: the per-fingerprint aggregate report."""
        columns, rows = self.server.statements.result_rows()
        return Result(columns, rows, rowcount=len(rows))

    def stats_reset(self) -> None:
        """``STATS RESET``: zero counters, histograms, and the
        per-statement aggregates (gauges keep their live values)."""
        self.server.reset_stats()

    def execute(self, sql: str, params: Sequence[Any] = (),
                trace=None, managed: bool = False) -> Result:
        """Run one statement (or control command) and return its result.

        Thread-safe: a session serializes its own statements; different
        sessions run concurrently up to the admission limits.

        ``trace`` is an already-open :class:`~repro.obs.spans.
        RequestTrace` whose lifecycle the caller owns (the wire loop
        passes one so its write span is part of the tree); ``managed``
        says the caller owns the sampling decision and slow-query
        logging even when its decision was "don't trace" — otherwise a
        None trace would make the session re-sample and double-log.
        When neither is given, the session asks the server's recorder
        itself and owns finish + slow-query logging.  Either way the
        statement lands in the per-fingerprint stats.
        """
        stripped = sql.strip().rstrip(";").strip()
        owns_trace = trace is None and not managed
        if owns_trace:
            trace = self.server.tracing.maybe_start()
        note = _RequestNote()
        started = perf_counter()
        error: Optional[BaseException] = None
        result: Optional[Result] = None
        try:
            result = self._statement(stripped, params, trace, note)
            if trace is not None:
                # A dynamic attribute: Result stays oblivious, callers
                # (wire encoding, EXPLAIN ANALYZE correlation) getattr.
                result.trace_id = trace.trace_id
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            latency_ms = (perf_counter() - started) * 1e3
            self.server.statements.record(
                stripped, latency_ms,
                rows=result.rowcount if result is not None else 0,
                cache_hit=note.cache_hit, source=note.source,
                degraded=note.degraded, error=error is not None)
            if owns_trace:
                if trace is not None:
                    self.server.tracing.finish(trace)
                self.server.maybe_slowlog(
                    statement=stripped, latency_ms=latency_ms,
                    trace=trace, route=note.route, source=note.source,
                    error=error)

    def _statement(self, sql: str, params, trace, note) -> Result:
        control = self._CONTROL.get(sql.lower())
        if control is not None:
            note.route = note.source = "control"
            if trace is not None:
                trace.root.set(route="control")
                # The span covers e.g. SNAPSHOT BEGIN's pin (which may
                # fork a pool) — real time a client waits on.
                with trace.span("control", command=sql.lower()):
                    out = getattr(self, control)()
            else:
                out = getattr(self, control)()
            return out if isinstance(out, Result) \
                else Result([], [], rowcount=0)
        with self._lock:
            self._check_open()
            if trace is not None:
                with trace.span("admission.wait") as span:
                    waited = self.server.admission.acquire()
                    span.set(queued=waited > 0.0)
            else:
                self.server.admission.acquire()
            try:
                return self._dispatch(sql, params, trace, note)
            finally:
                self.server.admission.release()

    def _dispatch(self, sql: str, params: Sequence[Any], trace=None,
                  note=None) -> Result:
        if note is None:
            note = _RequestNote()
        route = classify(sql)
        note.route = route.kind
        if trace is not None:
            trace.current().set(route=route.kind)
        if self._txn is not None:
            # Explicit transaction: everything runs live under the
            # engine transaction's own 2PL scope.
            note.source = "txn"
            if route.kind in ("write", "ddl"):
                self._enter_txn_gate()
                result = self.db.execute(sql, params, txn=self._txn,
                                         tracer=trace)
                self.server._c_writes.inc()
                return result
            self.server._c_live_reads.inc()
            with self.server.read_gate.shared():
                return self.db.execute(sql, params, txn=self._txn,
                                       options=self._serial_options(),
                                       tracer=trace)
        if route.kind == "write":
            note.source = "write"
            return self._write(sql, params, route, trace)
        if route.kind == "ddl":
            note.source = "ddl"
            return self._ddl(sql, params, trace)
        if route.kind == "read":
            return self._read(sql, params, trace, note)
        # meta: EXPLAIN and unparseable text, live in the server.
        note.source = "live"
        self.server._c_live_reads.inc()
        with self.server.read_gate.shared():
            return self.db.execute(sql, params, tracer=trace)

    # -- write path ----------------------------------------------------------

    def _write(self, sql: str, params, route, trace=None) -> Result:
        gate = self.server.write_gate
        indexes = gate.stripe_indexes(route)
        gate_span = None
        if trace is not None:
            # Opened before, closed right after stripe entry: the span
            # is the wait, not the write.
            gate_span = trace.begin("gate.wait", stripes=len(indexes))
        with gate.held(indexes):
            if gate_span is not None:
                trace.end(gate_span)
            result = self.db.execute(sql, params, tracer=trace)
        self._last_write_clock = self.db.catalog.dml_clock
        self.server._c_writes.inc()
        return result

    def _ddl(self, sql: str, params, trace=None) -> Result:
        gate_span = None
        if trace is not None:
            gate_span = trace.begin("gate.wait", stripes="all")
        with self.server.write_gate.quiesced():
            if gate_span is not None:
                trace.end(gate_span)
            result = self.db.execute(sql, params, tracer=trace)
        self._last_write_clock = self.db.catalog.dml_clock
        self.server._c_writes.inc()
        return result

    # -- read path -----------------------------------------------------------

    def _read(self, sql: str, params, trace=None, note=None) -> Result:
        pool = self._pinned
        pinned = pool is not None
        reason = None
        if pool is None and self.server.snapshots is not None:
            candidate = self.server.snapshots.current_pool()
            # Read-your-writes: only serve from a pool that already
            # contains this session's own last committed write.
            if (candidate is not None
                    and candidate.version[2] >= self._last_write_clock):
                pool = candidate
            elif candidate is None:
                reason = "no fresh snapshot pool"
            else:
                reason = ("read-your-writes: pool lags this session's "
                          "last committed write")
        elif pool is None:
            reason = (self.server.snapshot_fallback_reason
                      or "snapshots disabled")
        if trace is not None:
            with trace.span("snapshot.pick") as span:
                span.set(source="snapshot" if pool is not None
                         else "live", pinned=pinned)
                if pool is not None:
                    span.set(version=list(pool.version))
                if reason:
                    span.set(reason=reason)
        if pool is not None:
            result = self._pool_read(pool, sql, params, trace, note)
            if result is not None:
                if note is not None:
                    note.source = "snapshot"
                return result
        if note is not None:
            note.source = "live"
        return self._live_read(sql, params, trace)

    def _serial_options(self):
        """The database's compile options at ``parallelism="off"``, for
        every read a session runs.  Snapshot workers are processes
        already (a morsel pool per worker would stack process trees),
        and a read inside a transaction (a live read opens one) would
        degrade every exchange it planned."""
        options = self.db.settings.compile_options()
        if options.parallelism != "off":
            options = options.replace(parallelism="off")
        return options

    def _pool_read(self, pool, sql, params, trace=None,
                   note=None) -> Optional[Result]:
        options = self._serial_options()
        span = None
        if trace is not None:
            span = trace.begin("snapshot.execute", workers=pool.size)
        try:
            reply = pool.call(run_statement, (sql, tuple(params), options,
                                              trace is not None))
        except WorkerPoolError as exc:
            reason = "snapshot %s" % exc
            if note is not None:
                note.degraded = reason
            if span is not None:
                span.set(degraded=reason)
                trace.end(span)
            if self._pinned is pool:
                # The pinned image is gone; losing the pin is worse
                # than a live read is — surface it.
                raise ServeError(reason)
            return None
        if reply[0] == "ok":
            columns, rows, rowcount, cached, fragment = reply[1]
            if note is not None:
                note.cache_hit = cached
            if span is not None:
                span.set(cached=cached)
                if fragment is not None:
                    trace.attach_worker_fragments(span, [fragment])
                trace.end(span)
            self.server._c_snapshot_reads.inc()
            return Result(columns, rows, rowcount=rowcount)
        if span is not None:
            span.set(error=True)
            trace.end(span)
        _, class_name, message = reply
        raise rebuild_error(class_name, message)

    def _live_read(self, sql: str, params, trace=None) -> Result:
        """Read in the server process under a short shared-lock
        transaction: consistent against concurrent writers (their
        exclusive locks exclude us mid-statement) at the cost of
        possibly waiting for one.  Holds the read gate shared so a
        snapshot fork never captures this statement mid-flight."""
        self.server._c_live_reads.inc()
        with self.server.read_gate.shared():
            txn = self.db.begin()
            try:
                result = self.db.execute(sql, params, txn=txn,
                                         options=self._serial_options(),
                                         tracer=trace)
            except BaseException:
                self.db.rollback(txn)
                raise
            self.db.commit(txn)
            return result
