"""The serving core: settings, statement routing, the striped write
path, and the :class:`Server` that sessions hang off.

Run ``python -m repro.serve.server --port 5433`` to serve a database
over the line protocol (see :mod:`repro.serve.wire`); drive it with
:class:`repro.serve.client.WireClient` or a raw ``nc`` session.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.errors import LexerError
from repro.language.lexer import Lexer, TokenType, tokenize
from repro.serve.admission import AdmissionController
from repro.serve.snapshot import SnapshotManager


#: Write stripes: writers to the same table serialize on one stripe;
#: writers to different tables (usually) proceed in parallel; DDL and
#: multi-table writers take every stripe.
WRITE_STRIPES = 8

#: Distinct statement fingerprints SHOW STATEMENTS keeps (LRU).
STATEMENT_STATS_CAPACITY = 512


class ServeSettings:
    """Serving-layer knobs (engine knobs stay on ``db.settings``).

    A snapshot pool has no knob of its own: it is sized like the morsel
    pool, ``parallel.pool_size(max_inflight)`` — no more workers than
    statements can be admitted at once, nor than cores can run them.
    """

    def __init__(self):
        #: Statements executing at once before admission queues (and
        #: the snapshot pool's size, clamped to the cores).
        self.max_inflight = 8
        #: Statements allowed to wait for a slot before shedding.
        self.max_queue = 16
        #: How long a queued statement waits before it is shed.
        self.admission_timeout_s = 1.0
        #: Bounded staleness of unpinned snapshot reads: the refresher
        #: re-forks the pool at most this often when data changed.
        self.snapshot_refresh_s = 0.25
        #: Master switch; forced off where fork() is unavailable.
        self.snapshots_enabled = True
        #: Request-trace sampling: "off", "always", or a ratio in (0, 1)
        #: (e.g. 0.25 traces every 4th request, deterministically).
        self.trace_sample = "off"
        #: Statements slower than this (server-side ms) emit one JSON
        #: line to the slow-query log; None disables the log.
        self.slow_query_ms: Optional[float] = None
        #: File the slow-query log appends to (None: in-memory ring
        #: only).
        self.slow_query_log_path: Optional[str] = None


class Route:
    """How one statement travels through the server."""

    __slots__ = ("kind", "tables", "escalate")

    #: kind is one of:
    #: - "read"  — SELECT: snapshot pool when fresh enough, else live
    #: - "write" — INSERT/UPDATE/DELETE: striped, in-parent, autocommit
    #: - "ddl"   — CREATE/DROP: all stripes, in-parent
    #: - "meta"  — EXPLAIN, any other head, untokenizable text: live
    #:   in-parent
    def __init__(self, kind: str, tables: Tuple[str, ...] = (),
                 escalate: bool = False):
        self.kind = kind
        self.tables = tables
        #: Multi-table writers (INSERT ... SELECT, subqueried
        #: UPDATE/DELETE) take every stripe: their engine locks span
        #: tables, and two of them crossing stripes could deadlock.
        self.escalate = escalate


#: Where a write names its table: the token after INTO/UPDATE/FROM,
#: given as (that keyword's position, the keyword).
_TABLE_AFTER = {"insert": (1, "into"), "update": (0, "update"),
                "delete": (1, "from")}


@lru_cache(maxsize=4096)
def classify(sql: str) -> Route:
    """Route a statement from its tokens, mirroring ``Parser._statement``'s
    dispatch on the first token, so no text is parsed to learn its
    route.  A write names its table right after INTO/UPDATE/FROM and
    escalates when a SELECT keyword follows (INSERT ... SELECT, a
    subquery).  Malformed text still routes: its error is raised by the
    ordinary compile where it runs."""
    try:
        head = Lexer(sql).next_token()
        # Only a write, compiled in this process, lexes the whole text:
        # into the tokenize memo its compile reads.  A read runs in a
        # snapshot worker, which lexes it there.
        tokens = tokenize(sql) if head.is_keyword(*_TABLE_AFTER) else None
    except LexerError:
        return Route("meta")
    if head.is_keyword("select", "with") or head.is_punct("("):
        return Route("read")
    if tokens is not None:
        at, keyword = _TABLE_AFTER[head.text]
        if (tokens[at].is_keyword(keyword)
                and tokens[at + 1].type is TokenType.IDENT):
            return Route("write", (str(tokens[at + 1].value),),
                         escalate=any(token.is_keyword("select")
                                      for token in tokens[at + 2:]))
        return Route("meta")
    if head.is_keyword("create", "drop"):
        return Route("ddl")
    return Route("meta")


class WriteGate:
    """The striped write path.

    N plain locks; a writer takes the stripes of the tables it writes
    (sorted, so two writers can never hold-and-wait in opposite orders)
    and holds them for the statement.  Readers never touch stripes —
    they either read a forked snapshot or take engine S-locks — so
    writers serialize only against writers.
    """

    def __init__(self, stripes: int):
        self._locks = [threading.Lock() for _ in range(max(1, stripes))]

    def stripe_indexes(self, route: Route) -> List[int]:
        if route.escalate or not route.tables:
            return list(range(len(self._locks)))
        return sorted({hash(name.lower()) % len(self._locks)
                       for name in route.tables})

    @contextmanager
    def held(self, indexes: List[int]):
        acquired = []
        try:
            for index in indexes:
                self._locks[index].acquire()
                acquired.append(index)
            yield
        finally:
            for index in reversed(acquired):
                self._locks[index].release()

    @contextmanager
    def quiesced(self):
        """All stripes: no writer statement is mid-flight inside.  Used
        by DDL, explicit write transactions, and snapshot forks."""
        with self.held(list(range(len(self._locks)))):
            yield


class ReadGate:
    """Shared/exclusive gate between in-server live readers and
    snapshot forks.

    Live reads (and meta statements) run engine code in the server
    process; a fork taken while one is mid-statement would capture its
    half-done state in the copy-on-write image — a buffer-pool frame
    pinned by a reader that will never unpin it in the child, a clock
    ring caught between steps of an install.  So a fork drains them
    first: readers enter *shared* (counted, concurrent with each
    other), a fork enters *exclusive* — it blocks new readers, waits
    for in-flight ones to finish, forks, and lets readers resume.
    Readers only ever wait out a fork (milliseconds, bounded by process
    spawn), never each other.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._exclusive = False

    @contextmanager
    def shared(self):
        with self._cond:
            while self._exclusive:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def exclusive(self):
        with self._cond:
            while self._exclusive:
                self._cond.wait()
            self._exclusive = True
            while self._readers:
                self._cond.wait()
        try:
            yield
        finally:
            with self._cond:
                self._exclusive = False
                self._cond.notify_all()


class Server:
    """One database, served to many concurrent sessions.

    Owns the admission controller, the write gate, and the snapshot
    manager; :meth:`session` hands out :class:`~repro.serve.session.
    Session` handles (thread-safe, one per client).
    """

    def __init__(self, db, settings: Optional[ServeSettings] = None):
        from repro.executor.parallel import fork_available, pool_size

        self.db = db
        self.settings = settings if settings is not None \
            else ServeSettings()
        self.admission = AdmissionController(
            self.settings.max_inflight, self.settings.max_queue,
            self.settings.admission_timeout_s, metrics=db.metrics)
        self.write_gate = WriteGate(WRITE_STRIPES)
        self.read_gate = ReadGate()
        self._sessions_alive = 0
        self._sessions_lock = threading.Lock()
        self._g_sessions = db.metrics.gauge(
            "serve_sessions", "Sessions currently open")
        self._c_snapshot_reads = db.metrics.counter(
            "serve_snapshot_reads_total",
            "Reads served from a forked snapshot pool")
        self._c_live_reads = db.metrics.counter(
            "serve_live_reads_total",
            "Reads served live in the server process")
        self._c_writes = db.metrics.counter(
            "serve_writes_total", "Write statements executed")
        from repro.obs.slowlog import SlowQueryLog
        from repro.obs.spans import SpanRecorder
        from repro.obs.statstats import StatementStats

        #: Request-trace sampling decision + ring of completed traces.
        self.tracing = SpanRecorder(self.settings.trace_sample)
        #: Per-fingerprint aggregates behind SHOW STATEMENTS and
        #: GET /statements.
        self.statements = StatementStats(
            STATEMENT_STATS_CAPACITY)
        #: One JSON line per statement over the latency threshold.
        self.slowlog = SlowQueryLog(
            self.settings.slow_query_ms,
            path=self.settings.slow_query_log_path)
        self.snapshot_fallback_reason: Optional[str] = None
        self.snapshots: Optional[SnapshotManager] = None
        if self.settings.snapshots_enabled and fork_available():
            self.snapshots = SnapshotManager(
                db, pool_size(self.settings.max_inflight),
                self.settings.snapshot_refresh_s,
                self._fork_quiesce, metrics=db.metrics)
            self.snapshots.start()
        else:
            from repro.executor.parallel import disabled_reason

            self.snapshot_fallback_reason = (
                "snapshots disabled in settings"
                if not self.settings.snapshots_enabled
                else disabled_reason() or "fork unavailable")
        self._closed = False

    # -- sessions ------------------------------------------------------------

    def session(self):
        from repro.serve.session import Session

        if self._closed:
            from repro.errors import SessionClosed

            raise SessionClosed("server is closed")
        with self._sessions_lock:
            self._sessions_alive += 1
            self._g_sessions.set(self._sessions_alive)
        return Session(self)

    def _session_closed(self) -> None:
        with self._sessions_lock:
            self._sessions_alive -= 1
            self._g_sessions.set(self._sessions_alive)

    # -- quiescence ----------------------------------------------------------

    @contextmanager
    def _fork_quiesce(self):
        """No engine statement is mid-flight inside: all write stripes
        held (no writer, no open write transaction) and the read gate
        exclusive (no live reader).  Stripes come first — the same
        order an explicit transaction uses (stripes across statements,
        shared read gate per statement) — so the two can't deadlock."""
        with self.write_gate.quiesced():
            with self.read_gate.exclusive():
                yield

    # -- observability -------------------------------------------------------

    def metrics_exposition(self) -> str:
        """Prometheus text for ``GET /metrics`` (gauges refreshed)."""
        self.db._m_cache_entries.set(len(self.db.plan_cache))
        return self.db.metrics.exposition()

    def maybe_slowlog(self, statement: str, latency_ms: float,
                      trace=None, route=None, source=None,
                      error=None) -> Optional[str]:
        """Feed one finished statement to the slow-query log, with its
        text normalized (literal-free) first.  One compare when the log
        is disabled."""
        if not self.slowlog.enabled:
            return None
        return self.slowlog.maybe_log(
            self.statements.display_text(statement), latency_ms,
            trace=trace, route=route, source=source, error=error)

    def reset_stats(self) -> None:
        """``STATS RESET``: zero the metrics registry and drop the
        per-statement aggregates, completed traces, and slow-log ring.
        Live-state gauges are republished right after the registry-wide
        zero so a scrape mid-reset stays truthful."""
        self.db.metrics_reset()
        self.statements.reset()
        self.tracing.clear()
        self.slowlog.clear()
        with self._sessions_lock:
            self._g_sessions.set(self._sessions_alive)
        self.admission.republish()
        if self.snapshots is not None:
            self.snapshots.republish()

    def refresh_snapshots(self) -> bool:
        """Synchronously re-fork the snapshot pool if data changed
        (deterministic alternative to the refresh timer for tests)."""
        if self.snapshots is None:
            return False
        return self.snapshots.refresh()

    def stats(self) -> dict:
        report = {"admission": self.admission.snapshot(),
                  "sessions": self._sessions_alive}
        if self.snapshots is not None:
            report["snapshots"] = self.snapshots.stats()
        else:
            report["snapshots"] = {
                "disabled": self.snapshot_fallback_reason}
        return report

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.snapshots is not None:
            self.snapshots.close()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: serve a fresh (or script-initialized) database over TCP."""
    import argparse

    from repro.core.database import Database
    from repro.serve.wire import TCPServer

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.server",
        description="Serve a repro database over the line protocol.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=5433)
    parser.add_argument("--init", metavar="FILE", default=None,
                        help="SQL script (one statement per line) to run "
                             "before serving")
    parser.add_argument("--max-inflight", type=int, default=None)
    parser.add_argument("--trace-sample", default=None,
                        metavar="off|always|RATIO",
                        help="request-trace sampling (default off)")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        metavar="MS",
                        help="log statements slower than MS as JSON "
                             "lines (default: disabled)")
    parser.add_argument("--slow-query-log", default=None, metavar="FILE",
                        help="append slow-query JSON lines to FILE")
    args = parser.parse_args(argv)

    db = Database()
    if args.init:
        with open(args.init) as handle:
            for line in handle:
                line = line.strip()
                if line and not line.startswith("--"):
                    db.execute(line)
    settings = ServeSettings()
    if args.max_inflight is not None:
        settings.max_inflight = args.max_inflight
    if args.trace_sample is not None:
        settings.trace_sample = args.trace_sample
    if args.slow_query_ms is not None:
        settings.slow_query_ms = args.slow_query_ms
    if args.slow_query_log is not None:
        settings.slow_query_log_path = args.slow_query_log
    server = Server(db, settings)
    tcp = TCPServer(server, host=args.host, port=args.port)
    tcp.start()
    print("serving on %s:%d (Ctrl-C to stop)" % (tcp.host, tcp.port))
    try:
        tcp.serve_until_interrupt()
    finally:
        tcp.stop()
        server.close()
        db.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
