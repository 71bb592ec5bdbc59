"""Intra-query parallel execution: the Parallelism property, Exchange
LOLEPOPs, and the morsel-driven worker pool.

Everything is driven through SQL: the Parallelism STAR splices Gather /
MergeGather over eligible scan pyramids at compile time, and the
``ParallelRuntime`` fans them out over heap page-range morsels at run
time.  The load-bearing property in every test is *byte-identity*: a
dop=4 execution must return exactly the rows, in exactly the order, of
the serial dop=1 plan — including when it silently degrades.
"""

from __future__ import annotations

import threading

import pytest

from repro import CompileOptions, Database
from repro.errors import DivisionByZeroError
from repro.executor import parallel
from repro.executor.workerpool import data_version


@pytest.fixture(scope="module")
def par_db() -> Database:
    db = Database(pool_capacity=512)
    db.execute("CREATE TABLE t (id INTEGER, v INTEGER, g INTEGER)")
    db.execute("CREATE TABLE tiny (a INTEGER)")
    txn = db.begin()
    for i in range(20000):
        db.engine.insert(txn, "t", (i, i % 97, i % 7))
    for i in range(10):
        db.engine.insert(txn, "tiny", (i,))
    db.commit(txn)
    db.analyze()
    yield db
    db.close()


def _options(db, **overrides) -> CompileOptions:
    return db.settings.compile_options().replace(**overrides)


def _serial_vs_parallel(db, sql, **overrides):
    serial = db.execute(sql, options=_options(db))
    par = db.execute(sql, options=_options(db, parallelism="on", dop=4,
                                           **overrides))
    return serial, par


QUERIES = [
    # scan + filter + projection (plain Gather, concatenated morsels)
    "SELECT id, v + g FROM t WHERE v < 30",
    # scalar aggregate (one partial row per morsel, merged)
    "SELECT count(*), sum(v), min(id), max(id) FROM t WHERE g <> 3",
    # GROUP BY with mergeable aggregates (partial-agg merge below Gather)
    "SELECT g, count(*), sum(v), min(v), max(v) FROM t GROUP BY g",
    # ORDER BY + LIMIT (MergeGather: local top-K inside the workers)
    "SELECT id, v FROM t WHERE v > 90 ORDER BY v, id LIMIT 13",
    # ORDER BY without LIMIT (MergeGather without the top-K cut)
    "SELECT id FROM t WHERE v = 11 ORDER BY id",
]


class TestByteIdentity:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_dop4_equals_serial(self, par_db, sql):
        serial, par = _serial_vs_parallel(par_db, sql)
        assert par.rows == serial.rows
        assert par.stats.parallel_exchanges >= 1
        assert par.stats.morsels > 1
        assert par.stats.parallel_fallbacks == 0

    @pytest.mark.parametrize("sql", QUERIES)
    def test_dop4_batch_equals_serial(self, par_db, sql):
        serial, par = _serial_vs_parallel(par_db, sql,
                                          execution_mode="auto")
        assert par.rows == serial.rows
        assert par.stats.parallel_exchanges >= 1

    def test_group_order_is_serial_first_seen(self, par_db):
        sql = "SELECT g, count(*) FROM t GROUP BY g"
        serial, par = _serial_vs_parallel(par_db, sql)
        assert [row[0] for row in par.rows] == \
            [row[0] for row in serial.rows]

    def test_determinism_20_runs(self, par_db):
        """Satellite: ordered and unordered aggregate queries, 20 runs
        each at dop=4, every run byte-identical to the first."""
        for sql in ("SELECT g, count(*), sum(v) FROM t GROUP BY g",
                    "SELECT g, sum(v) FROM t GROUP BY g "
                    "ORDER BY g DESC"):
            runs = [par_db.execute(sql,
                                   options=_options(par_db,
                                                    parallelism="on",
                                                    dop=4)).rows
                    for _ in range(20)]
            assert all(rows == runs[0] for rows in runs)


class TestPlanShape:
    def test_explain_shows_exchange_and_dop(self, par_db):
        text = par_db.explain(
            "SELECT id FROM t WHERE v < 5",
            options=_options(par_db, parallelism="on", dop=4))
        assert "GATHER(dop=4 over t)" in text
        assert "dop=4" in text.split("SCAN", 1)[1]

    def test_explain_merge_gather_top_k(self, par_db):
        text = par_db.explain(
            "SELECT id, v FROM t ORDER BY v LIMIT 5",
            options=_options(par_db, parallelism="on", dop=4))
        assert "MERGEGATHER(dop=4 over t) top-5" in text

    def test_explain_partial_agg_merge(self, par_db):
        text = par_db.explain(
            "SELECT g, sum(v) FROM t GROUP BY g",
            options=_options(par_db, parallelism="on", dop=4))
        assert "merge-partial-aggs" in text

    def test_exchange_marks_batch_boundary(self, par_db):
        # The exchange consumes its fused child's rows: the fused→tuple
        # boundary is marked on it.
        text = par_db.explain(
            "SELECT id FROM t WHERE v < 5",
            options=_options(par_db, parallelism="on", dop=4,
                             execution_mode="auto"))
        assert "fallback=compiled-below" in text

    def test_auto_mode_skips_tiny_tables(self, par_db, monkeypatch):
        """``auto`` prices the rows read at the backend that reads them.
        20k rows on the tuple interpreter pay for two workers; 10 rows
        never do; fused, the 20k rows are read faster than two tasks
        can be dispatched and collected (see :class:`TestAutoGate`)."""
        monkeypatch.setattr(parallel, "available_cores", lambda: 2)
        options = _options(par_db, parallelism="auto", dop=2,
                           execution_mode="tuple")
        tiny = par_db.explain("SELECT count(*) FROM tiny",
                              options=options)
        big = par_db.explain("SELECT count(*) FROM t", options=options)
        assert "GATHER" not in tiny
        assert "GATHER" in big
        fused = par_db.explain(
            "SELECT count(*) FROM t",
            options=_options(par_db, parallelism="auto", dop=2))
        assert "GATHER" not in fused

    def test_avg_and_distinct_aggregates_stay_serial(self, par_db):
        # AVG partials don't merge order-safely; DISTINCT needs global
        # dedup.  Neither may be pushed below a Gather.
        options = _options(par_db, parallelism="on", dop=4)
        for sql in ("SELECT g, avg(v) FROM t GROUP BY g",
                    "SELECT g, count(DISTINCT v) FROM t GROUP BY g"):
            assert "merge-partial-aggs" not in par_db.explain(
                sql, options=options)

    def test_parallel_options_get_their_own_cache_key(self, par_db):
        serial = _options(par_db)
        par = _options(par_db, parallelism="on", dop=4)
        assert serial.key != par.key
        assert "parallel" in par.describe()


class TestAutoGate:
    """What ``parallelism="auto"`` gathers at dop 2 on two cores, with
    the committed cost constants.  Every decision is backed by serial
    against gathered timings on the 2-core fitting host (medians of
    alternating pairs; DESIGN.md "Intra-query parallel execution")."""

    SCAN_AGG = ("SELECT count(*), sum(x), max(b) FROM events "
                "WHERE b < 70 AND a % 3 <> 0")
    JOIN = ("SELECT e.a, e.x, g.label FROM events e, groups g "
            "WHERE e.g = g.k AND g.k < 900")
    GROUP = ("SELECT g, COUNT(*), SUM(x) FROM events "
             "WHERE a % 3 <> 0 GROUP BY g")

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cores", lambda: 2)

    @pytest.fixture(scope="class")
    def sharded_db(self) -> Database:
        """The benchmark suite's ``analytic_parallel`` tables: 30k
        ``events`` rows hash-sharded 4 ways and 1k ``groups``."""
        db = Database()
        db.execute("CREATE TABLE events (a INTEGER, b INTEGER, g INTEGER,"
                   " x DOUBLE, tag VARCHAR(24))"
                   " PARTITION BY HASH(g) PARTITIONS 4")
        db.execute("CREATE TABLE groups (k INTEGER PRIMARY KEY,"
                   " label VARCHAR(12))")
        txn = db.begin()
        for j in range(30000):
            db.engine.insert(txn, "events", (
                j, j % 100, j % 1000, (j % 997) * 0.5,
                "tag-%019d" % (j % 50)))
        for k in range(1000):
            db.engine.insert(txn, "groups", (k, "grp_%d" % k))
        db.commit(txn)
        db.analyze()
        yield db
        db.close()

    def _gathers(self, db, sql, **overrides) -> bool:
        return "GATHER" in db.explain(sql, options=_options(
            db, parallelism="auto", dop=2, **overrides))

    def test_fused_analytic_statements_stay_serial(self, sharded_db):
        # Serial against gathered (fused, dop 2): the scan aggregate
        # 9.8 against 16.9 ms, the join 18.9 against 27.2 ms, the
        # float-SUM group-by 13.0 against 17.7 ms.  The aggregates' float
        # SUM cannot merge, so ~14-20k rows cross the exchange; the
        # join ships its 27k result rows.
        for sql in (self.SCAN_AGG, self.JOIN, self.GROUP):
            assert not self._gathers(sharded_db, sql), sql

    def test_the_same_statements_gather_on_the_tuple_interpreter(
            self, sharded_db):
        # 17x the per-row work: serial 166 / 187 / 178 ms against
        # gathered 119 / 134 / 129 ms.
        for sql in (self.SCAN_AGG, self.JOIN, self.GROUP):
            assert self._gathers(sharded_db, sql, execution_mode="tuple"), \
                sql

    def test_tuple_scan_of_200k_rows_gathers(self):
        # bench_parallel's E18 shape: a mergeable scan aggregate sends
        # one row per task; on the tuple interpreter (~4 us a row read)
        # two workers save far more than two round trips cost.
        db = Database(pool_capacity=4096)
        try:
            db.execute("CREATE TABLE wide (a INTEGER)")
            txn = db.begin()
            for i in range(200000):
                db.engine.insert(txn, "wide", (i,))
            db.commit(txn)
            db.analyze()
            sql = "SELECT count(*), min(a), max(a) FROM wide WHERE a % 3 <> 0"
            assert self._gathers(db, sql, execution_mode="tuple")
        finally:
            db.close()

    @pytest.mark.parametrize("probe_rows", [2000, 9000])
    def test_broadcast_join_builds_once_per_task(self, probe_rows):
        """One task per worker: a broadcast join reads its probe table
        once and its build table once per task, whatever the probe
        table's page count."""
        db = Database()
        try:
            db.execute("CREATE TABLE probe (id INTEGER, k INTEGER)")
            db.execute("CREATE TABLE build (k INTEGER, name VARCHAR(8))")
            txn = db.begin()
            for i in range(probe_rows):
                db.engine.insert(txn, "probe", (i, i % 50))
            for k in range(50):
                db.engine.insert(txn, "build", (k, "b%d" % k))
            db.commit(txn)
            db.analyze()
            sql = ("SELECT p.id, b.name FROM probe p, build b "
                   "WHERE p.k = b.k")
            serial = db.execute(sql, options=_options(db))
            par = db.execute(sql, options=_options(
                db, parallelism="on", dop=2))
            assert par.rows == serial.rows
            assert par.stats.parallel_fallbacks == 0, \
                par.stats.parallel_reasons
            assert par.stats.morsels == 2
            assert par.stats.rows_scanned == probe_rows + 50 * 2
            assert db.catalog.statistics("probe").page_count > 2
        finally:
            db.close()


class TestDegradation:
    def test_no_fork_runs_serial_with_reason(self, par_db):
        parallel._FORCED_START_METHODS = ["spawn"]
        try:
            serial = par_db.execute("SELECT g, sum(v) FROM t GROUP BY g",
                                    options=_options(par_db))
            degraded = par_db.execute(
                "SELECT g, sum(v) FROM t GROUP BY g",
                options=_options(par_db, parallelism="on", dop=4))
        finally:
            parallel._FORCED_START_METHODS = None
        assert degraded.rows == serial.rows
        assert degraded.stats.parallel_fallbacks == 1
        assert any("fork" in reason
                   for reason in degraded.stats.parallel_reasons)

    def test_explicit_transaction_falls_back_inline(self, par_db):
        # Distinct statement text: the forced-spawn test above cached an
        # exchange-free plan for its own query under the same options.
        sql = "SELECT g, min(v), max(v) FROM t GROUP BY g"
        txn = par_db.begin()
        try:
            result = par_db.execute(
                sql, options=_options(par_db, parallelism="on", dop=4),
                txn=txn)
        finally:
            par_db.rollback(txn)
        serial = par_db.execute(sql, options=_options(par_db))
        assert result.rows == serial.rows
        assert result.stats.parallel_fallbacks == 1
        assert "explicit transaction open" in \
            result.stats.parallel_reasons

    def test_worker_error_matches_serial_error(self, par_db):
        sql = "SELECT sum(100 / (v - 50)) FROM t"
        with pytest.raises(DivisionByZeroError):
            par_db.execute(sql, options=_options(par_db))
        with pytest.raises(DivisionByZeroError):
            par_db.execute(sql, options=_options(par_db, parallelism="on",
                                                 dop=4))


class TestPoolLifecycle:
    def test_dml_invalidates_forked_snapshot(self):
        db = Database(pool_capacity=128)
        db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
        txn = db.begin()
        for i in range(4000):
            db.engine.insert(txn, "t", (i, i % 10))
        db.commit(txn)
        db.analyze()
        options = _options(db, parallelism="on", dop=2)
        try:
            before = db.execute("SELECT sum(v) FROM t", options=options)
            version = data_version(db)
            assert db.parallel_runtime()._pool.version == version
            db.execute("UPDATE t SET v = v + 1 WHERE id < 2000")
            assert data_version(db) != version
            after = db.execute("SELECT sum(v) FROM t", options=options)
            assert after.scalar() == before.scalar() + 2000
        finally:
            db.close()

    def test_reforked_workers_run_the_inherited_plan(self, monkeypatch):
        """The coordinator admits its plan to the plan cache before an
        exchange forks the pool, so a re-forked worker finds the plan
        there: no worker compiles."""
        from repro.core import database, pipeline

        db = Database(pool_capacity=128)
        db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
        txn = db.begin()
        for i in range(4000):
            db.engine.insert(txn, "t", (i, i % 10))
        db.commit(txn)
        db.analyze()
        options = _options(db, parallelism="on", dop=2)
        sql = "SELECT sum(v) FROM t WHERE v > 2"
        try:
            before = db.execute(sql, options=options)
            db.execute("INSERT INTO t VALUES (4000, 9)")
            pool = db.parallel_runtime()._pool

            def no_compile(*args, **kwargs):
                raise AssertionError("compiled a cached statement")

            monkeypatch.setattr(pipeline, "compile_statement", no_compile)
            monkeypatch.setattr(database, "compile_statement", no_compile)
            after = db.execute(sql, options=options)
            assert db.parallel_runtime()._pool is not pool  # re-forked
            assert after.stats.parallel_fallbacks == 0
            assert after.stats.morsels > 1
            assert after.scalar() == before.scalar() + 9
        finally:
            db.close()

    def test_pool_with_a_dead_worker_is_replaced(self, par_db):
        """The snapshot manager's rule, applied by the other pool owner:
        an unhealthy pool is re-forked like a stale one."""
        options = _options(par_db, parallelism="on", dop=2)
        sql = "SELECT count(*), sum(v) FROM t WHERE g <> 3"
        expected = par_db.execute(sql, options=options).rows
        runtime = par_db.parallel_runtime()
        pool = runtime._pool
        victim = pool._workers[0].process
        victim.kill()
        victim.join(timeout=5.0)
        result = par_db.execute(sql, options=options)
        assert result.rows == expected
        assert result.stats.parallel_fallbacks == 0
        assert runtime._pool is not pool and runtime._pool.healthy
        assert pool.closed  # nobody was inside it: stopped at the swap

    def test_close_is_idempotent(self):
        db = Database()
        db.close()
        db.close()

    def test_pool_forked_while_a_thread_holds_the_buffer_pool_lock(self):
        """A session thread can fork the pool while another thread is
        inside the buffer pool; the workers inherit that lock held by a
        thread that does not exist in them, and must re-initialize it
        or their first page read blocks forever."""
        db = Database(pool_capacity=128)
        db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
        txn = db.begin()
        for i in range(4000):
            db.engine.insert(txn, "t", (i, i % 10))
        db.commit(txn)
        db.analyze()
        held, release = threading.Event(), threading.Event()

        def hold_pool_lock():
            with db.engine.pool._lock:
                held.set()
                release.wait(30)

        holder = threading.Thread(target=hold_pool_lock, daemon=True)
        holder.start()
        outcome = {}

        def query():
            outcome["result"] = db.execute(
                "SELECT sum(v) FROM t",
                options=_options(db, parallelism="on", dop=2))

        runner = threading.Thread(target=query, daemon=True)
        try:
            assert held.wait(5)
            db.parallel_runtime()._ensure_pool(2)  # fork under the lock
            release.set()
            holder.join(5)
            runner.start()
            runner.join(30)
            assert not runner.is_alive(), "exchange hung on an inherited lock"
            result = outcome["result"]
            assert result.scalar() == sum(i % 10 for i in range(4000))
            assert result.stats.morsels > 1
            assert result.stats.parallel_fallbacks == 0
        finally:
            release.set()
            db.close()


class TestPoolClamp:
    def test_pool_size_clamps_to_affinity(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cores", lambda: 2)
        assert parallel.pool_size(64) == 2
        assert parallel.pool_size(2) == 2
        assert parallel.pool_size(1) == 1
        assert parallel.pool_size(0) == 1  # never below one worker

    def test_runtime_forks_clamped_pool(self, monkeypatch):
        # A dop far beyond the affinity mask must not fork that many
        # workers: the pool is sized to real capacity while the dop
        # still carves morsels.
        monkeypatch.setattr(parallel, "available_cores", lambda: 2)
        db = Database(pool_capacity=128)
        try:
            db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
            txn = db.begin()
            for i in range(4000):
                db.engine.insert(txn, "t", (i, i % 10))
            db.commit(txn)
            db.analyze()
            options = _options(db, parallelism="on", dop=16)
            result = db.execute("SELECT sum(v) FROM t", options=options)
            assert result.scalar() == sum(i % 10 for i in range(4000))
            runtime = db.parallel_runtime()
            assert runtime._pool.size == 2
            note = "requested dop=16 exceeds 2 available core(s)"
            assert any(note in reason
                       for reason in result.stats.parallel_reasons)
        finally:
            db.close()

    def test_explain_analyze_mentions_clamp(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cores", lambda: 2)
        db = Database(pool_capacity=128)
        try:
            db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
            txn = db.begin()
            for i in range(4000):
                db.engine.insert(txn, "t", (i, i % 10))
            db.commit(txn)
            db.analyze()
            options = _options(db, parallelism="on", dop=16)
            result = db.execute("EXPLAIN ANALYZE SELECT sum(v) FROM t",
                                options=options)
            text = "\n".join(str(row[0]) for row in result.rows)
            assert "dop=16 exceeds" in text
            assert "pool clamped to 2" in text
        finally:
            db.close()
