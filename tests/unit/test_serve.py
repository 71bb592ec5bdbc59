"""The serving layer: sessions, routing, admission, snapshots.

Everything here is in-process (the wire loop has its own integration
tests); snapshot-pool tests skip where fork() is unavailable.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.core.database import Database, Result
from repro.errors import (
    SemanticError,
    ServeError,
    ServerOverloaded,
    SessionClosed,
)
from repro.executor import parallel
from repro.executor.workerpool import WorkerPoolError
from repro.serve import ServeSettings, Server
from repro.serve.server import ReadGate, classify
from repro.serve.wire import encode_result, escape_value, unescape_value


def make_server(rows: int = 50, **overrides):
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
    db.execute("CREATE TABLE u (id INTEGER, w INTEGER)")
    txn = db.begin()
    for i in range(rows):
        db.engine.insert(txn, "t", (i, i % 7))
    db.commit(txn)
    settings = ServeSettings()
    settings.snapshot_refresh_s = 60.0  # tests refresh explicitly
    for name, value in overrides.items():
        setattr(settings, name, value)
    return Server(db, settings)


def _eventually(predicate, timeout: float = 10.0) -> bool:
    """Poll ``predicate`` until it holds or ``timeout`` runs out."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.fixture
def server():
    srv = make_server()
    yield srv
    srv.close()
    srv.db.close()


fork_only = pytest.mark.skipif(not parallel.fork_available(),
                               reason="fork() unavailable")


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


class TestRouting:
    def test_kinds(self):
        assert classify("SELECT 1 FROM t").kind == "read"
        assert classify("INSERT INTO t VALUES (1, 2)").kind == "write"
        assert classify("UPDATE t SET v = 1").kind == "write"
        assert classify("DELETE FROM t WHERE id = 1").kind == "write"
        assert classify("CREATE TABLE x (a INTEGER)").kind == "ddl"
        assert classify("DROP TABLE x").kind == "ddl"
        assert classify("EXPLAIN SELECT 1 FROM t").kind == "meta"
        assert classify("this is not sql").kind == "meta"
        # A leading SELECT routes without a parse, malformed or not.
        assert classify("  select* from t").kind == "read"
        assert classify("SELECT FROM WHERE").kind == "read"
        assert classify("SELECT 'unterminated").kind == "read"
        assert classify("selection").kind == "meta"

    def test_write_targets_and_escalation(self):
        plain = classify("INSERT INTO t VALUES (1, 2)")
        assert plain.tables == ("t",)
        assert not plain.escalate
        multi = classify("INSERT INTO t SELECT id, w FROM u")
        assert multi.escalate

    def test_update_escalates_on_a_select_token_not_a_substring(
            self, server):
        """A string literal that spells SELECT is no subquery: the
        UPDATE takes its one table's stripe."""
        literal = classify("UPDATE t SET note = 'select' WHERE id = 1")
        assert literal.tables == ("t",)
        assert not literal.escalate
        assert len(server.write_gate.stripe_indexes(literal)) == 1
        subquery = classify(
            "DELETE FROM t WHERE id IN (SELECT id FROM u)")
        assert subquery.escalate
        assert len(server.write_gate.stripe_indexes(subquery)) > 1

    def test_malformed_writes_route_without_raising(self):
        assert classify("INSERT INTO t VALUES (1,").kind == "write"
        assert classify("INSERT t VALUES (1)").kind == "meta"
        assert classify("INSERT INTO").kind == "meta"
        assert classify("DELETE").kind == "meta"
        assert classify("UPDATE t SET v = '").kind == "meta"  # lexer

    def test_route_memo_is_stable(self):
        first = classify("SELECT id FROM t")
        assert classify("SELECT id FROM t") is first

    def test_classify_parses_nothing_so_an_insert_parses_once(
            self, server, monkeypatch):
        from repro.language.parser import Parser

        parsed = []
        parse = Parser.parse

        def counting(parser):
            parsed.append(parser)
            return parse(parser)

        monkeypatch.setattr(Parser, "parse", counting)
        assert classify("INSERT INTO t VALUES (4242, 1)").kind == "write"
        assert parsed == []
        with server.session() as session:
            session.execute("INSERT INTO t VALUES (4243, 1)")
        assert len(parsed) == 1


# ---------------------------------------------------------------------------
# Session basics
# ---------------------------------------------------------------------------


class TestSession:
    def test_execute_read_write_roundtrip(self, server):
        with server.session() as session:
            before = session.execute("SELECT count(*) FROM t").scalar()
            session.execute("INSERT INTO t VALUES (999, 0)")
            after = session.execute("SELECT count(*) FROM t").scalar()
            assert after == before + 1

    def test_read_your_writes_before_refresh(self, server):
        # The snapshot pool predates the write; the session must not be
        # served the stale image for its own data.
        with server.session() as session:
            session.execute("INSERT INTO t VALUES (1000, 1)")
            rows = session.execute(
                "SELECT id FROM t WHERE id = 1000").rows
            assert rows == [(1000,)]

    def test_control_statements_via_execute(self, server):
        with server.session() as session:
            session.execute("BEGIN")
            session.execute("INSERT INTO t VALUES (1001, 1)")
            session.execute("ROLLBACK")
            assert session.execute(
                "SELECT count(*) FROM t WHERE id = 1001").scalar() == 0

    def test_explicit_transaction_commit(self, server):
        with server.session() as session:
            session.begin()
            session.execute("INSERT INTO t VALUES (1002, 1)")
            # Uncommitted rows are visible inside the transaction...
            assert session.execute(
                "SELECT count(*) FROM t WHERE id = 1002").scalar() == 1
            session.commit()
            # The committing session reads its own write immediately ...
            assert session.execute(
                "SELECT count(*) FROM t WHERE id = 1002").scalar() == 1
        # ... other sessions see it once the snapshot pool catches up
        # (bounded staleness; the refresh is explicit in tests).
        server.refresh_snapshots()
        with server.session() as session:
            assert session.execute(
                "SELECT count(*) FROM t WHERE id = 1002").scalar() == 1

    def test_transaction_state_errors(self, server):
        with server.session() as session:
            with pytest.raises(ServeError):
                session.commit()
            session.begin()
            with pytest.raises(ServeError):
                session.begin()
            session.rollback()

    def test_closed_session_rejects_statements(self, server):
        session = server.session()
        session.close()
        with pytest.raises(SessionClosed):
            session.execute("SELECT 1 FROM t")

    def test_close_rolls_back_open_transaction(self, server):
        session = server.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (1003, 1)")
        session.close()
        with server.session() as other:
            assert other.execute(
                "SELECT count(*) FROM t WHERE id = 1003").scalar() == 0

    def test_engine_errors_propagate(self, server):
        with server.session() as session:
            with pytest.raises(SemanticError):
                session.execute("SELECT nope FROM t")

    def test_snapshot_begin_inside_write_txn_rejected(self, server):
        # Regression: this used to wedge the whole server where forks
        # are available — the transaction's thread holds every write
        # stripe, and pin() forked behind those same stripes while
        # holding the snapshot-manager lock.  Run it off-thread so a
        # regression fails the assert instead of hanging the suite.
        outcome = []

        def run():
            with server.session() as session:
                session.execute("BEGIN")
                session.execute("INSERT INTO t VALUES (3000, 1)")
                try:
                    session.execute("SNAPSHOT BEGIN")
                    outcome.append("pinned")
                except ServeError:
                    outcome.append("rejected")
                session.execute("ROLLBACK")

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), \
            "SNAPSHOT BEGIN deadlocked inside a write transaction"
        assert outcome == ["rejected"]


# ---------------------------------------------------------------------------
# Snapshot isolation
# ---------------------------------------------------------------------------


@fork_only
class TestSnapshots:
    def test_reader_opened_before_write_sees_old_rows(self, server):
        reader = server.session()
        writer = server.session()
        reader.execute("SNAPSHOT BEGIN")
        pinned = reader.snapshot_version
        assert pinned is not None
        writer.execute("INSERT INTO t VALUES (2000, 5)")
        server.refresh_snapshots()
        # The pinned reader still sees the pre-write image ...
        assert reader.execute(
            "SELECT count(*) FROM t WHERE id = 2000").scalar() == 0
        # ... and a fresh session sees the write.
        with server.session() as fresh:
            assert fresh.execute(
                "SELECT count(*) FROM t WHERE id = 2000").scalar() == 1
        reader.execute("SNAPSHOT END")
        assert reader.execute(
            "SELECT count(*) FROM t WHERE id = 2000").scalar() == 1
        reader.close()
        writer.close()

    def test_unpinned_reads_catch_up_after_refresh(self, server):
        with server.session() as session:
            base = session.execute("SELECT count(*) FROM t").scalar()
        with server.session() as writer:
            writer.execute("INSERT INTO t VALUES (2001, 5)")
        server.refresh_snapshots()
        with server.session() as session:
            assert session.execute(
                "SELECT count(*) FROM t").scalar() == base + 1
        snap = server.db.metrics.snapshot()
        assert snap["serve_snapshot_reads_total"] >= 1

    def test_ddl_hard_stales_the_pool(self, server):
        with server.session() as session:
            session.execute("CREATE TABLE fresh (a INTEGER)")
            session.execute("INSERT INTO fresh VALUES (1)")
            # The pool predates the table; the read must run live (a
            # stale-schema pool would raise "no such table").
            assert session.execute(
                "SELECT count(*) FROM fresh").scalar() == 1

    def test_double_pin_rejected(self, server):
        with server.session() as session:
            session.begin_snapshot()
            with pytest.raises(ServeError):
                session.begin_snapshot()
            session.end_snapshot()

    def test_pool_version_matches_catalog_triple(self, server):
        catalog = server.db.catalog
        with server.session() as session:
            session.begin_snapshot()
            assert session.snapshot_version == (
                catalog.schema_epoch, catalog.stats_epoch,
                catalog.dml_clock)
            session.end_snapshot()

    def test_fork_concurrent_with_live_reads(self, server):
        # Regression: forks used to quiesce only writers; a live
        # reader mid-statement at fork time could leak a pinned
        # buffer frame (or a half-stepped clock ring) into the child
        # image.  Forks now drain the read gate first.
        stop = threading.Event()
        errors = []

        def live_reader():
            try:
                with server.session() as session:
                    while not stop.is_set():
                        # meta routes run live in the server process
                        session.execute(
                            "EXPLAIN SELECT count(*) FROM t")
            except Exception as exc:  # pragma: no cover - regression
                errors.append(exc)

        threads = [threading.Thread(target=live_reader)
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(5):
                assert server.snapshots.refresh(force=True)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        assert errors == []
        # The freshest child image serves reads without a wedged pool.
        with server.session() as session:
            assert session.execute(
                "SELECT count(*) FROM t").scalar() == 50


    def test_pool_is_sized_to_admission_and_cores(self, server):
        pool = server.snapshots.current_pool()
        assert pool.size == parallel.pool_size(server.settings.max_inflight)
        assert not hasattr(ServeSettings(), "snapshot_workers")

    def test_readers_keep_the_old_pool_while_a_refresh_forks(
            self, server, monkeypatch):
        """The fork runs outside the manager lock: a reader picks the
        current pool, and reads on it, while a refresh is mid-fork."""
        from repro.serve import snapshot

        old = server.snapshots.current_pool()
        forking, release = threading.Event(), threading.Event()
        real_pool = snapshot.WorkerPool

        def blocked_pool(db, size):
            forking.set()
            release.wait(30)
            return real_pool(db, size)

        monkeypatch.setattr(snapshot, "WorkerPool", blocked_pool)
        outcome = {}
        refresher = threading.Thread(target=lambda: outcome.setdefault(
            "refreshed", server.snapshots.refresh(force=True)))
        refresher.start()
        try:
            assert forking.wait(10)
            before = server.db.metrics.snapshot()

            def read():
                outcome["picked"] = server.snapshots.current_pool()
                with server.session() as session:
                    outcome["count"] = session.execute(
                        "SELECT count(*) FROM t").scalar()

            reader = threading.Thread(target=read)
            reader.start()
            reader.join(5)
            assert not reader.is_alive(), "reader waited on the fork"
            assert outcome["picked"] is old
            assert outcome["count"] == 50
            after = server.db.metrics.snapshot()
            assert after["serve_snapshot_reads_total"] == \
                before["serve_snapshot_reads_total"] + 1
        finally:
            release.set()
            refresher.join(30)
        assert outcome["refreshed"] is True
        assert server.snapshots.current_pool() is not old
        assert old.closed

    def test_retired_pools_terminate_unless_pinned(self, server):
        with server.session() as holder:
            holder.execute("SNAPSHOT BEGIN")
            pinned = server.snapshots.current_pool()
            assert server.snapshots.refresh(force=True)
            unpinned = server.snapshots.current_pool()
            assert server.snapshots.refresh(force=True)
            assert unpinned.closed
            assert not pinned.closed and pinned.healthy
            assert server.snapshots.stats()["retired"] == 1
            assert holder.execute("SELECT count(*) FROM t").scalar() == 50
            holder.execute("SNAPSHOT END")
            assert server.snapshots.stats()["retired"] == 0
            # The pool's reaper thread, not the session, stops it.
            assert _eventually(lambda: pinned.closed)

    def test_sessions_never_stop_the_pools_they_retire(
            self, server, monkeypatch):
        """SNAPSHOT BEGIN on a stale pool and SNAPSHOT END on a retired
        pin both retire a pool; a reaper thread stops it, not the
        session's thread."""
        from repro.executor.workerpool import WorkerPool

        stoppers = []
        real_shutdown = WorkerPool._shutdown

        def recording_shutdown(pool):
            stoppers.append((pool, threading.current_thread().name))
            real_shutdown(pool)

        monkeypatch.setattr(WorkerPool, "_shutdown", recording_shutdown)
        stale = server.snapshots.current_pool()
        with server.session() as holder:
            holder.execute("INSERT INTO t VALUES (900, 0)")
            holder.execute("SNAPSHOT BEGIN")  # forks: `stale` retires
            pinned = server.snapshots.current_pool()
            assert pinned is not stale
            assert server.snapshots.refresh(force=True)
            holder.execute("SNAPSHOT END")  # `pinned` retires
        assert _eventually(lambda: stale.closed and pinned.closed)
        names = {pool: name for pool, name in stoppers}
        assert names[stale] == names[pinned] == "pool-reaper"


    def test_concurrent_refresh_pin_and_read_leak_no_pool(
            self, server, monkeypatch):
        """Refreshers, pinners, a writer and readers race on the
        manager with a short switch interval: every pool ever forked is
        either the current one or terminated, and none is lost."""
        from repro.serve import snapshot

        created = []
        real_pool = snapshot.WorkerPool

        def recording_pool(db, size):
            pool = real_pool(db, size)
            created.append(pool)
            return pool

        monkeypatch.setattr(snapshot, "WorkerPool", recording_pool)
        errors = []

        def guarded(body):
            def run():
                try:
                    body()
                except Exception as exc:  # surfaced by the assert below
                    errors.append(exc)
            return threading.Thread(target=run)

        def refresher():
            for _ in range(4):
                server.snapshots.refresh(force=True)

        def pinner():
            with server.session() as session:
                for _ in range(4):
                    session.execute("SNAPSHOT BEGIN")
                    assert session.execute(
                        "SELECT count(*) FROM t WHERE id < 50"
                    ).scalar() == 50
                    session.execute("SNAPSHOT END")

        def writer():
            with server.session() as session:
                for i in range(4):
                    session.execute("INSERT INTO t VALUES (%d, 0)"
                                    % (3000 + i))

        def reader():
            with server.session() as session:
                for _ in range(20):
                    assert session.execute(
                        "SELECT count(*) FROM t WHERE id < 50"
                    ).scalar() == 50

        threads = [guarded(body) for body in
                   (refresher, refresher, pinner, pinner, writer,
                    reader, reader)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        current = server.snapshots.current_pool()
        assert current in created
        # Pools the sessions retired are stopped by their reapers.
        assert _eventually(lambda: all(
            pool.closed for pool in created if pool is not current))
        assert server.snapshots.stats()["retired"] == 0
        snap = server.db.metrics.snapshot()
        assert snap["serve_snapshot_forks_total"] == 1 + len(created)
        assert snap["serve_snapshot_pools"] == 1


@fork_only
class TestWarmPlans:
    """The server learns the reads its snapshot workers keep compiling:
    a text a worker missed twice is prepared in the server's plan cache
    by the refresher's warm step, so the next pool and every later one
    inherit it.  Each ``refresh(force=True)`` is one pool generation and
    each ``warm()`` one warm step between ticks."""

    SQL = "SELECT v FROM t WHERE id = ?"

    @staticmethod
    def _hits(server, sql):
        stat = server.statements.get(sql)
        return (stat.cache_hits, stat.cache_misses)

    @staticmethod
    def _counter(server, name="serve_snapshot_warmed_total"):
        return server.db.metrics.snapshot()[name]

    def _learn(self, server, session, sql=SQL):
        """Read ``sql`` in two pool generations, warm, fork a third."""
        assert session.execute(sql, [3]).scalar() == 3
        assert server.snapshots.refresh(force=True)
        assert session.execute(sql, [3]).scalar() == 3
        server.snapshots.warm()
        assert server.snapshots.refresh(force=True)

    def _entry(self, server, sql=SQL):
        db = server.db
        options = db.settings.compile_options().replace(parallelism="off")
        fingerprint = db._fingerprint(sql, options)
        return db.plan_cache.peek(db.catalog,
                                  (fingerprint.key, options.key))

    def test_a_text_read_in_two_generations_hits_in_the_third(
            self, server):
        with server.session() as session:
            self._learn(server, session)
            assert self._hits(server, self.SQL) == (0, 2)
            assert session.execute(self.SQL, [3]).scalar() == 3
        assert self._hits(server, self.SQL) == (1, 2)
        assert self._counter(server) == 1
        assert self._entry(server) is not None
        # Warm plans are inherited by every later fork, not just one.
        assert server.snapshots.refresh(force=True)
        with server.session() as session:
            assert session.execute(self.SQL, [4]).scalar() == 4
        assert self._hits(server, self.SQL) == (2, 2)

    def test_a_text_seen_once_is_never_compiled_in_the_server(
            self, server, monkeypatch):
        compiled = []
        real_prepare = server.db.prepare
        monkeypatch.setattr(server.db, "prepare", lambda *args: (
            compiled.append(args), real_prepare(*args))[1])
        with server.session() as session:
            assert session.execute(self.SQL, [3]).scalar() == 3
            for _ in range(3):
                server.snapshots.warm()
                assert server.snapshots.refresh(force=True)
        assert compiled == []
        assert self._counter(server) == 0
        assert self._entry(server) is None

    def test_texts_the_cache_cannot_serve_are_not_noted(self, server):
        server.db.settings.plan_cache = False
        with server.session() as session:
            for _ in range(2):
                assert session.execute(self.SQL, [3]).scalar() == 3
                assert server.snapshots.refresh(force=True)
        # Neither a hit nor a miss: the workers bypass the cache.
        assert self._hits(server, self.SQL) == (0, 0)
        assert not server.snapshots._misses

    def test_the_miss_memo_is_bounded_by_the_plan_cache(self, server):
        capacity = server.db.plan_cache.capacity
        server.db.plan_cache.capacity = 4
        manager = server.snapshots
        options = server.db.settings.compile_options()
        def miss(i):
            manager.note_miss("SELECT v FROM t WHERE id = %d" % i, options)
            assert len(manager._misses) <= 4
            assert set(manager._to_warm) <= set(manager._misses)

        def texts(keys):
            return sorted(int(sql.rsplit(" ", 1)[1]) for sql, _ in keys)

        try:
            for i in range(10):
                miss(i)
            assert texts(manager._misses) == [6, 7, 8, 9]
            # 9 is remembered, so it queues; 0 was forgotten, so it is
            # a first miss again, and pushes out the oldest key (6).
            miss(9)
            miss(0)
            assert texts(manager._to_warm) == [9]
            assert texts(manager._misses) == [0, 7, 8, 9]
            # A queued key that falls out of the memo leaves the queue.
            for i in range(10, 14):
                miss(i)
            assert texts(manager._to_warm) == []
        finally:
            server.db.plan_cache.capacity = capacity

    def test_warm_stops_when_the_next_tick_is_due(self, server):
        manager = server.snapshots
        options = server.db.settings.compile_options()
        for _ in range(2):
            manager.note_miss(self.SQL, options)
        manager.warm(until=time.monotonic())  # the tick is due already
        assert self._counter(server) == 0
        assert len(manager._to_warm) == 1
        manager.warm()
        assert self._counter(server) == 1
        assert not manager._to_warm

    def test_pin_does_not_warm(self, server):
        with server.session() as reader, server.session() as writer:
            reader.execute(self.SQL, [3])
            assert server.snapshots.refresh(force=True)
            reader.execute(self.SQL, [3])
            writer.execute("INSERT INTO t VALUES (900, 0)")
            writer.execute("SNAPSHOT BEGIN")  # forks: the pool lagged
            writer.execute("SNAPSHOT END")
        assert self._counter(server) == 0
        assert len(server.snapshots._to_warm) == 1

    def test_a_warmed_plan_follows_index_ddl(self):
        server = make_server(rows=2000)  # big enough for an ISCAN
        try:
            server.db.analyze()
            self._follow_index_ddl(server)
        finally:
            server.close()
            server.db.close()

    def _follow_index_ddl(self, server):
        manager = server.snapshots
        with server.session() as session:
            self._learn(server, session)
            session.execute("CREATE INDEX tid ON t (id)")
            # The pool's schema is stale now; the re-fork inherits a
            # plan the DDL invalidated, so its worker recompiles.
            assert manager.refresh()
            assert session.execute(self.SQL, [5]).scalar() == 5
            manager.warm()
            assert manager.refresh(force=True)
            assert self._counter(server) == 2
            assert "ISCAN" in self._entry(server).compiled.plan.explain()
            assert session.execute(self.SQL, [5]).scalar() == 5
            session.execute("DROP INDEX tid")
            # A stale ISCAN plan would raise now ("no index tid").
            assert manager.refresh()
            assert session.execute(self.SQL, [6]).scalar() == 6
            assert self._entry(server) is None
            manager.warm()
            assert manager.refresh(force=True)
            assert "ISCAN" not in \
                self._entry(server).compiled.plan.explain()
            assert session.execute(self.SQL, [6]).scalar() == 6

    def test_a_failing_warm_compile_leaves_the_refresher_alive(
            self, monkeypatch):
        srv = make_server(snapshot_refresh_s=0.02)
        manager = srv.snapshots
        try:
            def broken(sql, options=None):
                raise RuntimeError("warm compile failed")

            monkeypatch.setattr(srv.db, "prepare", broken)
            with srv.session() as reader, srv.session() as writer:
                for i in range(2):
                    reader.execute(self.SQL, [3])
                    version = manager.current_pool().version
                    writer.execute("INSERT INTO t VALUES (%d, 0)"
                                   % (900 + i))
                    assert _eventually(lambda: (
                        manager.current_pool() is not None
                        and manager.current_pool().version != version))
                assert _eventually(lambda: self._counter(
                    srv, "serve_snapshot_warm_failures_total") == 1)
                assert self._counter(srv) == 0
                version = manager.current_pool().version
                writer.execute("INSERT INTO t VALUES (999, 0)")
                assert _eventually(lambda: (
                    manager.current_pool() is not None
                    and manager.current_pool().version != version))
                assert manager._refresher.is_alive()
                assert reader.execute(
                    "SELECT count(*) FROM t").scalar() == 53
        finally:
            srv.close()
            srv.db.close()


class TestSnapshotDegradation:
    def test_disabled_snapshots_serve_live(self):
        srv = make_server(snapshots_enabled=False)
        try:
            assert srv.snapshots is None
            assert srv.snapshot_fallback_reason is not None
            with srv.session() as session:
                session.begin_snapshot()  # degrades, does not raise
                assert session.snapshot_version is None
                assert session.execute(
                    "SELECT count(*) FROM t").scalar() == 50
                session.end_snapshot()
            assert srv.db.metrics.snapshot()[
                "serve_live_reads_total"] >= 1
        finally:
            srv.close()
            srv.db.close()


# ---------------------------------------------------------------------------
# The read gate (live readers vs snapshot forks)
# ---------------------------------------------------------------------------


class TestReadGate:
    def test_exclusive_drains_in_flight_readers(self):
        gate = ReadGate()
        reader_in = threading.Event()
        release_reader = threading.Event()
        fork_done = threading.Event()

        def reader():
            with gate.shared():
                reader_in.set()
                release_reader.wait(10.0)

        def forker():
            with gate.exclusive():
                pass
            fork_done.set()

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        assert reader_in.wait(10.0)
        fork_thread = threading.Thread(target=forker)
        fork_thread.start()
        # The fork must wait out the in-flight reader ...
        assert not fork_done.wait(0.1)
        release_reader.set()
        # ... and proceed once it drains.
        assert fork_done.wait(10.0)
        reader_thread.join(timeout=10.0)
        fork_thread.join(timeout=10.0)

    def test_readers_wait_out_an_exclusive_holder(self):
        gate = ReadGate()
        in_exclusive = threading.Event()
        release_exclusive = threading.Event()
        reader_done = threading.Event()

        def forker():
            with gate.exclusive():
                in_exclusive.set()
                release_exclusive.wait(10.0)

        def reader():
            with gate.shared():
                reader_done.set()

        fork_thread = threading.Thread(target=forker)
        fork_thread.start()
        assert in_exclusive.wait(10.0)
        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        assert not reader_done.wait(0.1)
        release_exclusive.set()
        assert reader_done.wait(10.0)
        fork_thread.join(timeout=10.0)
        reader_thread.join(timeout=10.0)

    def test_readers_run_concurrently(self):
        gate = ReadGate()
        first_in = threading.Event()
        second_in = threading.Event()

        def reader(mine, other):
            with gate.shared():
                mine.set()
                assert other.wait(10.0)  # both inside at once

        threads = [
            threading.Thread(target=reader, args=(first_in, second_in)),
            threading.Thread(target=reader, args=(second_in, first_in)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert first_in.is_set() and second_in.is_set()


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_overload_sheds_with_counted_rejection(self):
        srv = make_server(max_inflight=1, max_queue=0,
                          admission_timeout_s=0.1,
                          snapshots_enabled=False)
        try:
            srv.admission.acquire()  # occupy the only slot
            with srv.session() as session:
                with pytest.raises(ServerOverloaded):
                    session.execute("SELECT count(*) FROM t")
            srv.admission.release()
            snap = srv.db.metrics.snapshot()
            assert snap["serve_shed_total"] == 1
            assert snap["serve_queue_depth"] == 0
        finally:
            srv.close()
            srv.db.close()

    def test_queued_statement_admitted_when_slot_frees(self):
        srv = make_server(max_inflight=1, max_queue=4,
                          admission_timeout_s=5.0,
                          snapshots_enabled=False)
        try:
            srv.admission.acquire()
            results = []

            def reader():
                with srv.session() as session:
                    results.append(session.execute(
                        "SELECT count(*) FROM t").scalar())

            thread = threading.Thread(target=reader)
            thread.start()
            # Let it queue, then free the slot.
            import time

            time.sleep(0.05)
            srv.admission.release()
            thread.join(timeout=5.0)
            assert results == [50]
            assert srv.db.metrics.snapshot()["serve_shed_total"] == 0
        finally:
            srv.close()
            srv.db.close()

    def test_freed_slot_not_stranded_by_timed_out_waiters(
            self, monkeypatch):
        # Regression: release() notified exactly one waiter; when the
        # wakeup landed on a waiter whose deadline had already passed,
        # it shed without passing the slot on and the freed slot sat
        # idle until another waiter's own timeout fired.  The fake
        # clock expires three queued waiters in place; after the slot
        # frees, every waiter must resolve (admitted or shed) well
        # inside the live waiter's 30s budget — no stranded slot, no
        # waiter sleeping out its full timeout.
        from repro.serve import admission as admission_module

        clock = {"now": 0.0}
        monkeypatch.setattr(admission_module, "monotonic",
                            lambda: clock["now"])
        ctrl = admission_module.AdmissionController(
            max_inflight=1, max_queue=8, timeout_s=30.0)
        ctrl.acquire()  # occupy the only slot
        admitted = []
        shed = []

        def waiter():
            try:
                ctrl.acquire()
                admitted.append(1)
                ctrl.release()  # hand the slot down the queue
            except ServerOverloaded:
                shed.append(1)

        def spin_until_waiting(count):
            deadline = time.monotonic() + 10.0
            while ctrl.snapshot()["waiting"] < count:
                assert time.monotonic() < deadline
                time.sleep(0.005)

        threads = [threading.Thread(target=waiter) for _ in range(3)]
        for thread in threads:
            thread.start()
        spin_until_waiting(3)
        clock["now"] = 100.0  # all three are now past their deadline
        live = threading.Thread(target=waiter)
        live.start()
        spin_until_waiting(4)
        threads.append(live)
        ctrl.release()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads), \
            "freed slot stranded behind timed-out waiters"
        assert len(admitted) + len(shed) == 4
        assert len(admitted) >= 1
        assert ctrl.snapshot() == {"inflight": 0, "waiting": 0,
                                   "max_inflight": 1, "max_queue": 8}

    def test_gauges_return_to_zero(self, server):
        with server.session() as session:
            session.execute("SELECT count(*) FROM t")
        snap = server.db.metrics.snapshot()
        assert snap["serve_inflight"] == 0
        assert snap["serve_queue_depth"] == 0
        assert snap["serve_admitted_total"] >= 1


# ---------------------------------------------------------------------------
# Plan-cache interaction under DDL
# ---------------------------------------------------------------------------


class TestPlanInvalidation:
    def test_ddl_invalidates_cached_plans_on_next_statement(self, server):
        with server.session() as session:
            sql = "SELECT id, v FROM t WHERE id = 3"
            first = session.execute(sql)
            assert len(first.columns) == 2
            # Results are fully materialized: a result iterated after
            # later DDL still serves its original rows (invalidation is
            # per *next statement*, never mid-iteration).
            session.execute("DROP TABLE u")
            assert list(first) == first.rows
            # The epoch bump recompiles on the next execution; the
            # statement still runs (its own table is untouched).
            second = session.execute(sql)
            assert second.rows == first.rows

    def test_dropped_table_read_fails_cleanly(self, server):
        with server.session() as session:
            session.execute("SELECT id FROM u WHERE id = 0")
            session.execute("DROP TABLE u")
            with pytest.raises(SemanticError):
                session.execute("SELECT id FROM u WHERE id = 0")


# ---------------------------------------------------------------------------
# Wire value escaping
# ---------------------------------------------------------------------------


class TestWireEscaping:
    @pytest.mark.parametrize("value", [
        None, "", "plain", "tab\tin", "line\nbreak", "back\\slash",
        "\r\n mix \t\\", "trailing\\", 42, 3.5,
    ])
    def test_roundtrip(self, value):
        encoded = escape_value(value)
        assert "\n" not in encoded and "\t" not in encoded
        decoded = unescape_value(encoded)
        if value is None:
            assert decoded is None
        else:
            assert decoded == str(value)

    def test_column_names_escape_like_values(self):
        # Regression: column names used to travel raw, so an alias
        # containing a tab or newline corrupted the line framing and
        # desynchronized the client parser.
        result = Result(["a\tb", "line\nbreak"], [("x\ty", None)],
                        rowcount=1)
        lines = encode_result(result).split("\n")
        assert lines[0] == "OK 1"
        assert lines[1].startswith("*")
        decoded = [unescape_value(field)
                   for field in lines[1][1:].split("\t")]
        assert decoded == ["a\tb", "line\nbreak"]
        assert lines[2].split("\t") == ["x\\ty", "\\N"]
        assert lines[3] == "."
        assert lines[4] == ""  # trailing newline terminates the frame


# ---------------------------------------------------------------------------
# Request tracing, statement stats, and the slow-query log
# ---------------------------------------------------------------------------


class TestStatementObservability:
    def test_stats_aggregate_by_fingerprint(self, server):
        with server.session() as session:
            session.execute("SELECT count(*) FROM t WHERE v = 1")
            session.execute("SELECT count(*) FROM t WHERE v = 5")
        entry = server.statements.get("SELECT count(*) FROM t WHERE v = 2")
        assert entry is not None
        assert entry.calls == 2
        assert "?" in entry.statement

    def test_show_statements_over_the_session(self, server):
        with server.session() as session:
            session.execute("SELECT id FROM t WHERE v = 3")
            result = session.execute("SHOW STATEMENTS")
        assert "fingerprint" in result.columns
        assert "p95_ms" in result.columns
        statements = [row[1] for row in result.rows]
        assert any("select id from t" in text for text in statements)

    def test_stats_reset_clears_everything(self, server):
        with server.session() as session:
            session.execute("SELECT id FROM t WHERE v = 4")
            before = server.db.metrics.snapshot()["serve_admitted_total"]
            assert before >= 1
            session.execute("STATS RESET")
            after = server.db.metrics.snapshot()
        assert after["serve_admitted_total"] == 0
        # Only STATS RESET itself (recorded post-reset) remains.
        assert len(server.statements) == 1
        # Live-state gauges were republished, not left at zero.
        assert after["serve_sessions"] == 1

    def test_errors_counted(self, server):
        with server.session() as session:
            with pytest.raises(SemanticError):
                session.execute("SELECT nope FROM t")
        entry = server.statements.get("SELECT nope FROM t")
        assert entry.errors == 1

    def test_untraced_by_default(self, server):
        assert not server.tracing.enabled
        with server.session() as session:
            result = session.execute("SELECT count(*) FROM t")
        assert getattr(result, "trace_id", None) is None
        assert server.tracing.completed() == []

    def test_slow_query_log_via_session(self):
        srv = make_server(snapshots_enabled=False, slow_query_ms=0.0,
                          trace_sample="always")
        try:
            with srv.session() as session:
                session.execute("SELECT count(*) FROM t WHERE v = 9")
            records = srv.slowlog.records()
            assert len(records) >= 1
            record = records[-1]
            assert "9" not in record["statement"]  # literal-free
            assert record["trace_id"]
            assert record["spans"]["children"]
        finally:
            srv.close()
            srv.db.close()


class TestTracedSession:
    def _server(self, **overrides):
        overrides.setdefault("trace_sample", "always")
        return make_server(**overrides)

    def test_live_read_span_tree(self):
        srv = self._server(snapshots_enabled=False)
        try:
            with srv.session() as session:
                result = session.execute("SELECT count(*) FROM t")
            trace = srv.tracing.find(result.trace_id)
            assert trace is not None
            root = trace.root
            assert root.attrs["route"] == "read"
            names = [span.name for span in root.children]
            assert names[:2] == ["admission.wait", "snapshot.pick"]
            pick = root.find("snapshot.pick")
            assert pick.attrs["source"] == "live"
            assert pick.attrs["reason"]
            assert root.find("execute") is not None
            assert root.find("plancache.lookup") is not None
            # Spans nest within the root's bounds.
            for span in root.children:
                assert span.start_ns >= root.start_ns
                assert span.end_ns <= root.end_ns
        finally:
            srv.close()
            srv.db.close()

    def test_live_and_transaction_reads_compile_serial(self):
        """A live read runs inside a short engine transaction, and an
        in-transaction read inside the session's explicit one, where
        every exchange would degrade; so session reads compile at
        parallelism="off" and plan none."""
        srv = self._server(rows=4000, snapshots_enabled=False)
        try:
            db = srv.db
            db.analyze()
            sql = "SELECT id FROM t WHERE v < 3"
            expected = db.execute(sql).rows
            db.settings.parallelism = "on"
            with srv.session() as session:
                live = session.execute(sql)
                session.begin()
                in_txn = session.execute(sql)
                session.rollback()
            assert live.rows == in_txn.rows == expected
            assert db.metrics.snapshot()["parallel_fallbacks_total"] == 0
            for result in (live, in_txn):
                trace = srv.tracing.find(result.trace_id)
                assert "parallel_degraded" not in trace.to_json()
        finally:
            srv.close()
            srv.db.close()

    def test_write_gate_span(self):
        srv = self._server(snapshots_enabled=False)
        try:
            with srv.session() as session:
                result = session.execute("INSERT INTO t VALUES (997, 1)")
            trace = srv.tracing.find(result.trace_id)
            gate = trace.root.find("gate.wait")
            assert gate is not None
            assert gate.attrs["stripes"] == 1
            assert trace.root.attrs["route"] == "write"
        finally:
            srv.close()
            srv.db.close()

    def test_compile_phases_are_spans(self):
        srv = self._server(snapshots_enabled=False)
        try:
            with srv.session() as session:
                result = session.execute(
                    "SELECT sum(v) FROM t WHERE id < 40")
            trace = srv.tracing.find(result.trace_id)
            compile_span = trace.root.find("compile")
            assert compile_span is not None
            phases = [span.name for span in compile_span.children]
            assert phases[0] == "parse"
            assert "optimize" in phases
            # The sampled request's compile carries its decisions.
            assert compile_span.find("optimize").find_all(
                "optimizer.winner")
        finally:
            srv.close()
            srv.db.close()

    def test_cached_plan_skips_compile_span(self):
        # Identical text both times: the default compile options key the
        # cache on the literal-bearing fingerprint (auto-parameterization
        # is opt-in), so only a repeat of the same text can hit.
        srv = self._server(snapshots_enabled=False)
        try:
            with srv.session() as session:
                session.execute("SELECT max(v) FROM t WHERE id = 7")
                result = session.execute(
                    "SELECT max(v) FROM t WHERE id = 7")
            trace = srv.tracing.find(result.trace_id)
            lookup = trace.root.find("plancache.lookup")
            assert lookup.attrs["hit"] is True
            assert trace.root.find("compile") is None
        finally:
            srv.close()
            srv.db.close()

    @fork_only
    def test_snapshot_read_has_worker_fragment(self):
        srv = self._server()
        try:
            with srv.session() as session:
                result = session.execute("SELECT count(*) FROM t")
            trace = srv.tracing.find(result.trace_id)
            execute = trace.root.find("snapshot.execute")
            assert execute is not None
            worker = execute.find("worker")
            assert worker is not None
            assert worker.attrs["pid"] != 0
            inner = worker.find("snapshot.worker")
            assert inner is not None
            assert inner.find("execute") is not None
            # System-wide monotonic clock: the fragment's bounds sit
            # inside the parent span that awaited it.
            assert worker.start_ns >= execute.start_ns
            assert worker.end_ns <= execute.end_ns
        finally:
            srv.close()
            srv.db.close()

    @fork_only
    def test_pool_loss_degrades_to_live_with_reason(self, monkeypatch):
        srv = self._server()
        try:
            pool = srv.snapshots.current_pool()
            assert pool is not None

            def dying(function, payload):
                raise WorkerPoolError("worker died: test")

            monkeypatch.setattr(pool, "call", dying)
            with srv.session() as session:
                result = session.execute("SELECT count(*) FROM t")
            assert result.scalar() == 50  # live fallback, no hang
            trace = srv.tracing.find(result.trace_id)
            execute = trace.root.find("snapshot.execute")
            assert "died" in execute.attrs["degraded"]
            assert execute.find("worker") is None  # parent-only
            # The live fallback still produced a full execute span.
            assert trace.root.find("execute") is not None
            entry = srv.statements.get("SELECT count(*) FROM t")
            assert any("died" in reason
                       for reason in entry.degradations)
        finally:
            srv.close()
            srv.db.close()

    @fork_only
    def test_dead_worker_processes_degrade_not_hang(self):
        self._dead_workers_degrade(self._server())

    @fork_only
    def test_pool_with_a_dead_worker_heals_on_refresh(self):
        self._dead_worker_heals(self._server())

    @fork_only
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity control")
    def test_dead_worker_paths_on_a_one_core_mask(self):
        """A one-core mask sizes the snapshot pool to one worker; losing
        it degrades and heals exactly like losing one of many."""
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            for check in (self._dead_workers_degrade,
                          self._dead_worker_heals):
                srv = self._server()
                assert srv.snapshots.current_pool().size == 1
                check(srv)
        finally:
            os.sched_setaffinity(0, mask)

    @staticmethod
    def _dead_workers_degrade(srv):
        try:
            pool = srv.snapshots.current_pool()
            for worker in pool._workers:
                worker.process.kill()
                worker.process.join(timeout=5.0)
            with srv.session() as session:
                result = session.execute("SELECT count(*) FROM t")
            assert result.scalar() == 50
            trace = srv.tracing.find(result.trace_id)
            degraded = trace.root.find("snapshot.execute").attrs.get(
                "degraded")
            assert degraded and "died" in degraded
        finally:
            srv.close()
            srv.db.close()

    @staticmethod
    def _dead_worker_heals(srv):
        """One rule for every pool user: an unhealthy pool is replaced
        like a stale one.  No write ever moves the version here."""
        try:
            pool = srv.snapshots.current_pool()
            victim = pool._workers[0].process
            victim.kill()
            victim.join(timeout=5.0)
            assert srv.refresh_snapshots() is True
            assert srv.snapshots.current_pool() is not pool
            before = srv.db.metrics.snapshot()
            with srv.session() as session:
                for _ in range(20):
                    assert session.execute(
                        "SELECT count(*) FROM t").scalar() == 50
            after = srv.db.metrics.snapshot()
            assert after["serve_snapshot_reads_total"] == \
                before["serve_snapshot_reads_total"] + 20
            assert after["serve_live_reads_total"] == \
                before["serve_live_reads_total"]
            assert after["serve_snapshot_forks_total"] == 2
        finally:
            srv.close()
            srv.db.close()

    def test_wire_owned_trace_is_not_double_logged(self):
        srv = self._server(snapshots_enabled=False, slow_query_ms=0.0)
        try:
            trace = srv.tracing.maybe_start()
            with srv.session() as session:
                session.execute("SELECT count(*) FROM t", trace=trace,
                                managed=True)
            # The session must not finish or slow-log a managed trace.
            assert srv.tracing.find(trace.trace_id) is None
            assert srv.slowlog.records() == []
            # ...but the statement stats were still recorded.
            assert srv.statements.get("SELECT count(*) FROM t") is not None
        finally:
            srv.close()
            srv.db.close()


@fork_only
class TestParallelWorkerFragments:
    """Cross-process span merging for the morsel-parallel runtime."""

    def _parallel_db(self):
        db = Database(pool_capacity=256)
        db.execute("CREATE TABLE big (id INTEGER, v INTEGER)")
        txn = db.begin()
        for i in range(4000):
            db.engine.insert(txn, "big", (i, i % 13))
        db.commit(txn)
        db.analyze()
        return db

    def _traced_run(self, db):
        from repro.obs.spans import SpanRecorder

        recorder = SpanRecorder("always")
        trace = recorder.maybe_start()
        options = db.settings.compile_options().replace(
            parallelism="on", dop=4)
        result = db.execute("SELECT count(*) FROM big WHERE v > 2",
                            options=options, tracer=trace)
        recorder.finish(trace)
        return result, trace

    def test_fragments_land_under_execute_span(self):
        db = self._parallel_db()
        try:
            result, trace = self._traced_run(db)
            assert result.scalar() == 4000 - (4000 // 13 + 1) * 3
            execute = trace.root.find("execute")
            assert execute is not None
            workers = [span for span in execute.children
                       if span.name == "worker"]
            assert workers, "no worker fragment under the execute span"
            morsels = sum(len(group.children) for group in workers)
            assert morsels >= 2  # the table fans out to many morsels
            for group in workers:
                for task in group.children:
                    assert task.name == "worker.morsel"
                    assert task.attrs["pid"] == group.attrs["pid"]
                    assert task.start_ns >= execute.start_ns
                    assert task.end_ns <= execute.end_ns
        finally:
            db.close()

    def test_pool_failure_degrades_with_reason(self, monkeypatch):
        db = self._parallel_db()
        try:
            runtime = db.parallel_runtime()

            def broken(dop):
                raise OSError("no forks today")

            monkeypatch.setattr(runtime, "_ensure_pool", broken)
            result, trace = self._traced_run(db)
            assert result.scalar() == 4000 - (4000 // 13 + 1) * 3
            execute = trace.root.find("execute")
            assert "parallel_degraded" in execute.attrs
            assert "no forks today" in execute.attrs["parallel_degraded"]
            assert execute.find("worker") is None  # parent-only trace
        finally:
            db.close()
