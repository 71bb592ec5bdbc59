"""Hash-sharded tables, the REPARTITION exchange, and partition-wise
parallel execution.

Three layers under test:

- storage: ``ShardedHeapStorage`` routes rows to heap segments by a
  stable hash of the partitioning column, DML (including cross-partition
  UPDATE moves and rollback) stays correct, and equality predicates on
  the partition column prune the other shards,
- wire: ``pack_rows``/``unpack_rows`` round-trip every supported value
  shape (the codec REPARTITION and SHIP move bytes with),
- runtime: partitioned hash joins through a PARTITIONGATHER are
  byte-identical to serial execution, co-location skips the shuffle,
  a GROUP BY with non-mergeable aggregates runs over a plain GATHER,
  and every degradation is recorded honestly — the old silent inline
  stub for REPARTITION is gone.
"""

from __future__ import annotations

import pytest

from repro import CompileOptions, Database
from repro.errors import ReproError
from repro.storage.heap import partition_of, stable_partition_hash
from repro.storage.record import pack_rows, unpack_rows


@pytest.fixture(scope="module")
def shard_db() -> Database:
    db = Database(pool_capacity=512)
    db.enable_operation("left_outer_join")
    db.execute("CREATE TABLE orders (id INTEGER, cust INTEGER, amt DOUBLE)"
               " PARTITION BY HASH(cust) PARTITIONS 3")
    db.execute("CREATE TABLE cust (cid INTEGER, name VARCHAR,"
               " region INTEGER)")
    db.execute("CREATE TABLE plain (id INTEGER, k INTEGER, v INTEGER)")
    txn = db.begin()
    for i in range(3000):
        db.engine.insert(txn, "orders", (i, (i * 7) % 200,
                                         float(i % 37) / 4.0))
    for c in range(200):
        db.engine.insert(txn, "cust", (c, "c%d" % c, c % 5))
    for i in range(3000):
        db.engine.insert(txn, "plain", (i, i % 151, i * 3))
    db.commit(txn)
    db.analyze()
    yield db
    db.close()


def _options(db, **overrides) -> CompileOptions:
    return CompileOptions.from_settings(db.settings).replace(**overrides)


def _serial_vs_partitioned(db, sql, **overrides):
    serial = db.execute(sql, options=_options(db))
    par = db.execute(sql, options=_options(db, parallelism="on", dop=3,
                                           **overrides))
    return serial, par


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------


class TestWireCodec:
    def test_roundtrip_all_value_shapes(self):
        rows = [
            (1, -1, 0, 2**40, -(2**40), 2**80, -(2**80)),
            (None, True, False, 0.5, -2.25, "", "héllo"),
            ("quote'", "a" * 500, 1.0, float(2**70), None, None, None),
        ]
        assert unpack_rows(pack_rows(rows)) == rows

    def test_roundtrip_preserves_types(self):
        (row,) = unpack_rows(pack_rows([(1, 1.0, True)]))
        assert [type(v) for v in row] == [int, float, bool]

    def test_empty_batches(self):
        assert unpack_rows(pack_rows([])) == []
        assert unpack_rows(pack_rows([()])) == [()]


# ---------------------------------------------------------------------------
# Stable partition hash
# ---------------------------------------------------------------------------


class TestPartitionHash:
    def test_python_equal_values_colocate(self):
        # 1 == 1.0 == True in SQL comparisons; a hash join's build and
        # probe sides must land such keys in the same partition.
        for n in (2, 3, 7):
            assert partition_of(1, n) == partition_of(1.0, n) \
                == partition_of(True, n)
            assert partition_of(0, n) == partition_of(0.0, n) \
                == partition_of(False, n)

    def test_null_routes_to_partition_zero(self):
        assert stable_partition_hash(None) == 0
        assert partition_of(None, 5) == 0

    def test_negative_values_route_in_range(self):
        for value in (-1, -10**12, -2.5, "x", 3.75):
            for n in (2, 3, 8):
                assert 0 <= partition_of(value, n) < n


# ---------------------------------------------------------------------------
# DDL / catalog
# ---------------------------------------------------------------------------


class TestShardedDDL:
    def test_create_and_describe(self, shard_db):
        table = shard_db.catalog.table("orders")
        assert table.partition_by == "cust"
        assert table.partitions == 3
        assert shard_db.engine.table_partitions("orders") == 3
        assert shard_db.engine.table_partitions("cust") == 0

    def test_rows_land_on_their_hash_partition(self, shard_db):
        engine = shard_db.engine
        for partition in range(3):
            for _rid, row in engine.scan(None, "orders",
                                         partition=partition):
                assert engine.partition_for("orders", row[1]) == partition

    def test_partition_scan_union_is_full_scan(self, shard_db):
        engine = shard_db.engine
        full = sorted(row for _r, row in engine.scan(None, "orders"))
        pieces = []
        for partition in range(3):
            pieces.extend(row for _r, row in
                          engine.scan(None, "orders", partition=partition))
        assert sorted(pieces) == full
        assert len(pieces) == 3000

    @pytest.mark.parametrize("restrict", [
        {}, {"page_range": (2, 7)}, {"partition": 1}])
    def test_scan_batches_match_scan(self, shard_db, restrict):
        storage = shard_db.engine.storage("orders")
        expected = list(storage.scan(**restrict))
        batched = []
        for make_rids, records in storage.scan_batches(64, **restrict):
            batched.extend(zip(make_rids(), records))
        assert batched == expected
        assert expected

    def test_partitions_requires_clause_pair(self, shard_db):
        with pytest.raises(ReproError):
            shard_db.execute("CREATE TABLE bad1 (a INTEGER)"
                             " PARTITION BY HASH(a)")
        with pytest.raises(ReproError):
            shard_db.execute("CREATE TABLE bad2 (a INTEGER)"
                             " PARTITION BY HASH(missing) PARTITIONS 4")


# ---------------------------------------------------------------------------
# DML on sharded tables
# ---------------------------------------------------------------------------


class TestShardedDML:
    def test_insert_rollback(self):
        db = Database()
        db.execute("CREATE TABLE s (a INTEGER, b VARCHAR)"
                   " PARTITION BY HASH(a) PARTITIONS 4")
        txn = db.begin()
        for i in range(50):
            db.engine.insert(txn, "s", (i, "r%d" % i))
        db.commit(txn)
        txn = db.begin()
        for i in range(50, 90):
            db.engine.insert(txn, "s", (i, "x%d" % i))
        db.execute("DELETE FROM s WHERE a < 10", txn=txn)
        db.rollback(txn)
        rows = db.execute("SELECT a, b FROM s").rows
        assert sorted(rows) == [(i, "r%d" % i) for i in range(50)]
        db.close()

    def test_update_moves_row_across_partitions(self):
        db = Database()
        db.execute("CREATE TABLE s (a INTEGER, b INTEGER)"
                   " PARTITION BY HASH(a) PARTITIONS 3")
        txn = db.begin()
        for i in range(30):
            db.engine.insert(txn, "s", (i, i))
        db.commit(txn)
        source = db.engine.partition_for("s", 5)
        target = next(v for v in range(100, 200)
                      if db.engine.partition_for("s", v) != source)
        db.execute("UPDATE s SET a = %d WHERE a = 5" % target)
        moved = [row for _r, row in
                 db.engine.scan(None, "s",
                                partition=db.engine.partition_for(
                                    "s", target))
                 if row[0] == target]
        assert moved == [(target, 5)]
        assert db.execute("SELECT count(*) FROM s").rows == [(30,)]
        db.close()

    def test_update_rollback_restores_partitions(self):
        db = Database()
        db.execute("CREATE TABLE s (a INTEGER, b INTEGER)"
                   " PARTITION BY HASH(a) PARTITIONS 3")
        txn = db.begin()
        for i in range(30):
            db.engine.insert(txn, "s", (i, i))
        db.commit(txn)
        before = sorted(db.execute("SELECT a, b FROM s").rows)
        txn = db.begin()
        db.execute("UPDATE s SET a = a + 100 WHERE a < 15", txn=txn)
        db.rollback(txn)
        assert sorted(db.execute("SELECT a, b FROM s").rows) == before
        db.close()


# ---------------------------------------------------------------------------
# Partition pruning
# ---------------------------------------------------------------------------


class TestPartitionPruning:
    @pytest.mark.parametrize("mode", ["tuple", "batch", "compiled"])
    def test_equality_predicate_prunes(self, shard_db, mode):
        result = shard_db.execute(
            "SELECT id FROM orders WHERE cust = 17",
            options=_options(shard_db, execution_mode=mode))
        # 2 of 3 partitions skipped, and the answer is still right.
        assert result.stats.partitions_pruned == 2
        reference = [(i,) for i in range(3000) if (i * 7) % 200 == 17]
        assert result.rows == reference

    @pytest.mark.parametrize("mode", ["tuple", "batch", "compiled"])
    def test_pruned_scan_preserves_serial_order(self, shard_db, mode):
        pruned = shard_db.execute(
            "SELECT id, amt FROM orders WHERE cust = 42",
            options=_options(shard_db, execution_mode=mode)).rows
        serial = _options(shard_db, execution_mode="tuple")
        full = [row for row in
                shard_db.execute("SELECT id, amt, cust FROM orders",
                                 options=serial).rows
                if row[2] == 42]
        assert pruned == [(r[0], r[1]) for r in full]

    def test_range_predicate_does_not_prune(self, shard_db):
        result = shard_db.execute("SELECT id FROM orders WHERE cust < 3")
        assert result.stats.partitions_pruned == 0

    def test_unpartitioned_table_never_prunes(self, shard_db):
        result = shard_db.execute("SELECT cid FROM cust WHERE cid = 7")
        assert result.stats.partitions_pruned == 0


# ---------------------------------------------------------------------------
# Plan shape
# ---------------------------------------------------------------------------


JOIN_SQL = "SELECT o.id, c.name FROM orders o, cust c WHERE o.cust = c.cid"
SELF_JOIN_SQL = ("SELECT p.id, q.v FROM plain p, plain q"
                 " WHERE p.k = q.k AND p.id < 40")
AVG_SQL = "SELECT cust, avg(amt) FROM orders GROUP BY cust"


class TestPlanShape:
    def test_partitioned_join_plan(self, shard_db):
        text = shard_db.explain(
            JOIN_SQL, options=_options(shard_db, parallelism="on", dop=3))
        assert "PARTITIONGATHER(dop=3 sources=1)" in text
        assert "REPARTITION(dop=3" in text
        assert "partitioned=hash:3" in text

    def test_scan_shows_partitioning_property(self, shard_db):
        text = shard_db.explain("SELECT id FROM orders",
                                options=_options(shard_db))
        assert "partitioned=hash:3" in text

    def test_non_mergeable_groupby_groups_over_gather(self, shard_db):
        # AVG does not merge across morsels: workers scan and project,
        # and the coordinator groups the rows a plain GATHER brings back.
        from repro.optimizer import plans as pl

        plan = shard_db.compile(
            AVG_SQL,
            options=_options(shard_db, parallelism="on", dop=3)).plan
        groupby = next(node for node in plan.walk()
                       if isinstance(node, pl.GroupBy))
        gathers = [node for node in groupby.walk()
                   if isinstance(node, pl.Gather)]
        assert len(gathers) == 1 and gathers[0].merge_groups is None
        assert not any(isinstance(node, (pl.PartitionGather,
                                         pl.Repartition))
                       for node in plan.walk())

    def test_repartition_off_keeps_gather_family(self, shard_db):
        text = shard_db.explain(
            SELF_JOIN_SQL,
            options=_options(shard_db, parallelism="on", dop=3,
                             repartition=False))
        assert "PARTITIONGATHER" not in text
        assert "REPARTITION" not in text


# ---------------------------------------------------------------------------
# Byte identity of partitioned execution
# ---------------------------------------------------------------------------


PARTITIONED_QUERIES = [
    JOIN_SQL,
    SELF_JOIN_SQL,
    AVG_SQL,
    "SELECT k, avg(v), count(*) FROM plain GROUP BY k",
    "SELECT c.cid, o.id FROM cust c LEFT JOIN orders o ON c.cid = o.cust"
    " WHERE c.region = 2",
]


class TestByteIdentity:
    @pytest.mark.parametrize("sql", PARTITIONED_QUERIES)
    def test_dop3_equals_serial(self, shard_db, sql):
        serial, par = _serial_vs_partitioned(shard_db, sql)
        assert par.rows == serial.rows
        assert par.stats.parallel_fallbacks == 0
        assert par.stats.parallel_exchanges >= 1

    def test_repartition_moves_bytes(self, shard_db):
        _serial, par = _serial_vs_partitioned(shard_db, SELF_JOIN_SQL)
        assert par.stats.exchange_bytes > 0

    def test_colocated_join_moves_nothing(self, shard_db):
        sql = ("SELECT p.id, q.id FROM orders p, orders q"
               " WHERE p.cust = q.cust AND p.id < 40")
        serial, par = _serial_vs_partitioned(shard_db, sql)
        assert "PARTITIONGATHER(dop=3 colocated)" in shard_db.explain(
            sql, options=_options(shard_db, parallelism="on", dop=3))
        assert par.rows == serial.rows
        assert par.stats.parallel_fallbacks == 0
        assert par.stats.exchange_bytes == 0

    def test_gather_reports_worker_rows_scanned(self, shard_db):
        sql = "SELECT id, amt FROM orders WHERE amt > 3.0"
        serial, par = _serial_vs_partitioned(shard_db, sql)
        assert par.stats.morsels > 1
        assert par.rows == serial.rows
        assert par.stats.rows_scanned == serial.stats.rows_scanned == 3000

    def test_two_runtimes_interleaved(self, shard_db):
        """Regression: two Databases in one process used to share the
        shuffle-queue module global; a second runtime forking its own
        pool re-pointed it and the first runtime's coordinator drained
        queues its (reused) pool's children had never seen — a deadlock.
        A pool now belongs to one Database and the shuffle rides its
        task replies; the exchange-level interleaving stays pinned."""
        other = Database()
        other.execute("CREATE TABLE t (a INTEGER, b INTEGER)"
                      " PARTITION BY HASH(a) PARTITIONS 3")
        txn = other.begin()
        for i in range(300):
            other.engine.insert(txn, "t", (i, i % 7))
        other.commit(txn)
        other.analyze()
        try:
            sql = ("SELECT x.a, y.b FROM t x, t y"
                   " WHERE x.a = y.a AND x.b = 0")
            expected_self = shard_db.execute(SELF_JOIN_SQL).rows
            expected_other = other.execute(sql).rows
            for _ in range(3):
                par = shard_db.execute(
                    SELF_JOIN_SQL,
                    options=_options(shard_db, parallelism="on", dop=3))
                assert par.rows == expected_self
                assert par.stats.parallel_fallbacks == 0, \
                    par.stats.parallel_reasons
                par = other.execute(
                    sql, options=_options(other, parallelism="on", dop=3))
                assert par.rows == expected_other
                assert par.stats.parallel_fallbacks == 0, \
                    par.stats.parallel_reasons
        finally:
            other.close()

    def test_determinism_20_runs(self, shard_db):
        """Which worker runs which producer or partition is
        nondeterministic; the sequence-tag merge must hide that
        completely."""
        options = _options(shard_db, parallelism="on", dop=3)
        first = shard_db.execute(SELF_JOIN_SQL, options=options).rows
        for _ in range(19):
            assert shard_db.execute(SELF_JOIN_SQL,
                                    options=options).rows == first


class TestAutoGroupBy:
    """The ``analytic_parallel`` shape: a float SUM grouped on the shard
    key under ``parallelism="auto"``, large enough for the cost model to
    splice a GATHER under the coordinator's GROUPBY."""

    SQL = ("SELECT g, COUNT(*), SUM(x) FROM events WHERE a % 3 <> 0"
           " GROUP BY g")

    @pytest.fixture(scope="class")
    def events_db(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE events (a INTEGER, g INTEGER, x DOUBLE)"
                   " PARTITION BY HASH(g) PARTITIONS 4")
        txn = db.begin()
        for j in range(12000):
            # Sevenths are inexact, so any change in summation order
            # shows up in the result bytes.
            db.engine.insert(txn, "events",
                             (j, (j * 31) % 500, (j % 997) / 7.0))
        db.commit(txn)
        db.analyze()
        yield db
        db.close()

    def test_auto_equals_serial(self, events_db):
        serial = events_db.execute(self.SQL, options=_options(events_db))
        par = events_db.execute(
            self.SQL, options=_options(events_db, parallelism="auto",
                                       dop=2))
        assert par.stats.parallel_exchanges >= 1
        assert par.stats.parallel_fallbacks == 0, par.stats.parallel_reasons
        assert repr(par.rows) == repr(serial.rows)
        assert par.stats.rows_scanned == serial.stats.rows_scanned


# ---------------------------------------------------------------------------
# Degradation honesty
# ---------------------------------------------------------------------------


class TestDegradationHonesty:
    def test_bare_repartition_records_fallback(self, shard_db):
        """Regression: REPARTITION without a PARTITIONGATHER consumer
        used to execute its child inline *silently*; it must count a
        fallback with a reason now."""
        from repro.errors import ExecutionError
        from repro.executor.context import ExecutionContext
        from repro.executor.run import rows_iter
        from repro.optimizer import plans as pl

        options = _options(shard_db, parallelism="on", dop=3,
                           execution_mode="tuple")
        compiled = shard_db.compile(SELF_JOIN_SQL, options=options)
        repartition = next(node for node in compiled.plan.walk()
                           if isinstance(node, pl.Repartition))
        gather = next(node for node in compiled.plan.walk()
                      if isinstance(node, pl.PartitionGather))
        ctx = ExecutionContext(shard_db.engine, shard_db.functions)
        ctx.join_kinds = shard_db.join_kinds
        ctx.parallel = shard_db.parallel_runtime()
        # The reason is recorded *before* the inline degradation touches
        # the child (which is an env-op here, so the inline run raises —
        # incidental to what this regression guards).
        with pytest.raises(ExecutionError):
            rows_iter(repartition, ctx, {})
        assert ctx.stats.parallel_fallbacks == 1
        assert ctx.stats.parallel_reasons == \
            ["REPARTITION without a PARTITIONGATHER consumer"]
        # ... and a PARTITIONGATHER opened with outer bindings degrades
        # with its own reason instead of going silent.
        ctx2 = ExecutionContext(shard_db.engine, shard_db.functions)
        ctx2.join_kinds = shard_db.join_kinds
        ctx2.parallel = shard_db.parallel_runtime()
        list(rows_iter(gather, ctx2, {"outer": (1,)}))
        assert ctx2.stats.parallel_fallbacks == 1
        assert "outer bindings" in ctx2.stats.parallel_reasons[0]

    def test_fallback_mark_in_explain_analyze(self, shard_db):
        options = _options(shard_db, parallelism="on", dop=3)
        text = "\n".join(
            row[0] for row in shard_db.execute(
                "EXPLAIN ANALYZE " + SELF_JOIN_SQL, options=options).rows)
        # Real movement is visible: wire bytes plus per-task skew.
        assert "wire=" in text
        assert "skew(min=" in text
        assert "exchange_bytes=" in text
