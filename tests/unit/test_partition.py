"""Hash-sharded tables, partition pruning, and parallel joins as a
GATHER over a broadcast hash join.

Two layers under test:

- storage: ``ShardedHeapStorage`` routes rows to heap segments by a
  stable hash of the partitioning column, DML (including cross-partition
  UPDATE moves and rollback) stays correct, and equality predicates on
  the partition column prune the other shards,
- runtime: a hash join over sharded or plain tables gathers by
  morselling its probe scan while every worker builds the inner side in
  full, byte-identical to serial execution on every backend; the
  optimizer probes with the big side whatever the FROM order; a GROUP BY
  with non-mergeable aggregates runs over a plain GATHER.
"""

from __future__ import annotations

import pytest

from repro import CompileOptions, Database
from repro.errors import ReproError
from repro.storage.heap import partition_of, stable_partition_hash
from tests.stacks import MODES


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
        expected = [record for _rid, record in storage.scan(**restrict)]
        batched = []
        for count, spans in storage.scan_batches(64, **restrict):
            sliced = [image[o:o + n] for image, offsets, lengths in spans
                      for o, n in zip(offsets, lengths)]
            assert count == len(sliced)
            batched.extend(sliced)
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
    @pytest.mark.parametrize("mode", list(MODES))
    def test_equality_predicate_prunes(self, shard_db, mode):
        result = shard_db.execute(
            "SELECT id FROM orders WHERE cust = 17",
            options=_options(shard_db, **MODES[mode]))
        # 2 of 3 partitions skipped, and the answer is still right.
        assert result.stats.partitions_pruned == 2
        reference = [(i,) for i in range(3000) if (i * 7) % 200 == 17]
        assert result.rows == reference

    @pytest.mark.parametrize("mode", list(MODES))
    def test_pruned_scan_preserves_serial_order(self, shard_db, mode):
        pruned = shard_db.execute(
            "SELECT id, amt FROM orders WHERE cust = 42",
            options=_options(shard_db, **MODES[mode])).rows
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

    def test_gather_reports_worker_rows_scanned(self, shard_db):
        sql = "SELECT id, amt FROM orders WHERE amt > 3.0"
        serial, par = _serial_vs_partitioned(shard_db, sql)
        assert par.stats.morsels > 1
        assert par.rows == serial.rows
        assert par.stats.rows_scanned == serial.stats.rows_scanned == 3000

    def test_two_runtimes_interleaved(self, shard_db):
        """Regression: two Databases in one process used to share a
        module-global exchange queue; a second runtime forking its own
        pool re-pointed it and the first runtime's coordinator drained
        queues its (reused) pool's children had never seen — a deadlock.
        A pool now belongs to one Database and results ride its task
        replies; the exchange-level interleaving stays pinned."""
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
        """Which worker runs which morsel is nondeterministic; the
        morsel-order gather must hide that completely."""
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
# Broadcast hash join under a GATHER
# ---------------------------------------------------------------------------


#: The ``analytic_parallel`` join, in both FROM orders.
EVENTS_JOIN_SQL = [
    "SELECT e.a, e.x, g.label FROM events e, groups g"
    " WHERE e.g = g.k AND g.k < 180",
    "SELECT e.a, e.x, g.label FROM groups g, events e"
    " WHERE e.g = g.k AND g.k < 180",
]
LEFT_JOIN_SQL = ("SELECT c.cid, o.id FROM cust c LEFT JOIN orders o"
                 " ON c.cid = o.cust AND o.amt > 8.9 WHERE c.region = 2")


def _gathered_join(plan):
    """The plan's GATHER over a PROJECT over a HASHJOIN, and that join,
    or (None, None) when no join was gathered."""
    from repro.optimizer import plans as pl

    for node in plan.walk():
        if isinstance(node, pl.Gather):
            below = node.children[0].children
            if below and isinstance(below[0], pl.HashJoin):
                return node, below[0]
    return None, None


def _chain_scan(node):
    from repro.optimizer import plans as pl

    while isinstance(node, pl.Filter):
        node = node.children[0]
    return node if isinstance(node, pl.TableScan) else None


@pytest.fixture(scope="module")
def events_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE events (a INTEGER, b INTEGER, g INTEGER,"
               " x DOUBLE, tag VARCHAR(24))"
               " PARTITION BY HASH(g) PARTITIONS 4")
    db.execute("CREATE TABLE groups (k INTEGER PRIMARY KEY,"
               " label VARCHAR(12))")
    txn = db.begin()
    for j in range(6000):
        db.engine.insert(txn, "events", (j, j % 100, (j * 7) % 200,
                                         (j % 997) / 7.0, "tag-%d" % j))
    for k in range(200):
        db.engine.insert(txn, "groups", (k, "grp_%d" % k))
    db.commit(txn)
    db.analyze()
    yield db
    db.close()


class TestBroadcastJoin:
    def test_both_from_orders_plan_the_same_gather(self, events_db):
        """The build side is costed, so the optimizer probes with
        ``events`` whatever the FROM order, and the glue gathers it."""
        options = _options(events_db, parallelism="on", dop=2)
        plans = [events_db.compile(sql, options=options).plan
                 for sql in EVENTS_JOIN_SQL]
        for plan in plans:
            gather, join = _gathered_join(plan)
            assert join is not None, plan.explain()
            probe = _chain_scan(join.children[0])
            assert probe.table.name == "events"
            assert gather.morsel_scan is probe
            assert _chain_scan(join.children[1]).table.name == "groups"
        assert plans[0].explain() == plans[1].explain()

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("order", [0, 1])
    def test_equals_serial(self, events_db, mode, order):
        sql = EVENTS_JOIN_SQL[order]
        serial = events_db.execute(
            sql, options=_options(events_db, **MODES[mode]))
        par = events_db.execute(
            sql, options=_options(events_db, **MODES[mode],
                                  parallelism="on", dop=2))
        assert repr(par.rows) == repr(serial.rows)
        assert par.stats.parallel_exchanges == 1
        assert par.stats.morsels > 1
        assert par.stats.parallel_fallbacks == 0, par.stats.parallel_reasons

    @pytest.mark.parametrize("mode", list(MODES))
    def test_self_join_morsels_only_the_probe_scan(self, shard_db, mode):
        """Both sides scan ``plain``; the runtime restricts the scan the
        GATHER names by node identity, so the build side stays whole."""
        options = _options(shard_db, **MODES[mode])
        plan = shard_db.compile(
            SELF_JOIN_SQL,
            options=options.replace(parallelism="on", dop=3)).plan
        gather, join = _gathered_join(plan)
        assert join is not None, plan.explain()
        probe = _chain_scan(join.children[0])
        build = _chain_scan(join.children[1])
        assert probe.table is build.table and probe is not build
        assert gather.morsel_scan is probe
        serial = shard_db.execute(SELF_JOIN_SQL, options=options)
        par = shard_db.execute(
            SELF_JOIN_SQL, options=options.replace(parallelism="on", dop=3))
        assert par.rows == serial.rows
        assert par.stats.morsels > 1
        assert par.stats.parallel_fallbacks == 0, par.stats.parallel_reasons

    def test_left_outer_join_probes_with_the_preserved_side(self, shard_db):
        options = _options(shard_db, parallelism="on", dop=3)
        plan = shard_db.compile(LEFT_JOIN_SQL, options=options).plan
        gather, join = _gathered_join(plan)
        assert join is not None, plan.explain()
        assert join.kind == "left_outer"
        assert gather.morsel_scan is _chain_scan(join.children[0])
        assert gather.morsel_scan.table.name == "cust"
        serial = shard_db.execute(LEFT_JOIN_SQL,
                                  options=_options(shard_db))
        par = shard_db.execute(LEFT_JOIN_SQL, options=options)
        assert par.rows == serial.rows
        assert any(row[1] is None for row in serial.rows)
        assert par.stats.parallel_fallbacks == 0, par.stats.parallel_reasons

    def test_derived_build_side_stays_serial(self, shard_db):
        # The build side is a grouped derived table, not a Filter*/SCAN
        # chain: the join is not gathered (its GROUP BY input may be).
        from repro.optimizer import plans as pl

        sql = ("SELECT o.id, s.n FROM orders o,"
               " (SELECT k, count(*) AS n FROM plain GROUP BY k) s"
               " WHERE o.cust = s.k")
        options = _options(shard_db, parallelism="on", dop=3)
        plan = shard_db.compile(sql, options=options).plan
        join = next(node for node in plan.walk()
                    if isinstance(node, pl.HashJoin))
        assert _chain_scan(join.children[1]) is None
        assert not any(join in list(node.walk()) for node in plan.walk()
                       if isinstance(node, pl.Exchange))
        serial = shard_db.execute(sql, options=_options(shard_db))
        assert shard_db.execute(sql, options=options).rows == serial.rows

    def test_correlated_build_side_stays_serial(self, shard_db):
        # Inside a correlated subquery the build side's predicate reads
        # the outer row, which forked workers do not have: the glue
        # refuses the join pyramid; uncorrelated, it accepts it.
        from repro.optimizer import plans as pl
        from repro.optimizer.stars import _join_candidate

        sql = ("SELECT c.cid FROM cust c WHERE c.region = 1 AND EXISTS"
               " (SELECT 1 FROM orders o, plain p"
               "  WHERE o.id = p.id AND p.v = %s)")
        options = _options(shard_db, parallelism="on", dop=3,
                           forced_join_method="hash")
        for outer_ref, joinable in (("c.cid * 3", False), ("3", True)):
            plan = shard_db.compile(sql % outer_ref, options=options).plan
            project = next(node for node in plan.walk()
                           if isinstance(node, pl.Project)
                           and isinstance(node.children[0], pl.HashJoin))
            assert (_join_candidate(project) is not None) is joinable
            serial = shard_db.execute(sql % outer_ref,
                                      options=_options(shard_db))
            par = shard_db.execute(sql % outer_ref, options=options)
            assert par.rows == serial.rows

    def test_auto_keeps_a_join_of_equal_sides_serial(self):
        """``auto`` charges the build once per worker: probing a table
        with one of its own size saves nothing, so it stays serial,
        while the same probe against a small table gathers."""
        db = Database()
        for name, rows in (("big", 12000), ("twin", 12000),
                           ("small", 100)):
            db.execute("CREATE TABLE %s (id INTEGER, k INTEGER)" % name)
            txn = db.begin()
            for i in range(rows):
                db.engine.insert(txn, name, (i, i % 97))
            db.commit(txn)
        db.analyze()
        try:
            options = _options(db, parallelism="auto", dop=2)
            equal = db.compile("SELECT b.id, t.id FROM big b, twin t"
                               " WHERE b.id = t.id", options=options)
            small = db.compile("SELECT b.id, s.id FROM big b, small s"
                               " WHERE b.id = s.id", options=options)
            assert _gathered_join(equal.plan) == (None, None), \
                equal.plan.explain()
            assert _gathered_join(small.plan)[1] is not None, \
                small.plan.explain()
        finally:
            db.close()


# ---------------------------------------------------------------------------
# Degradation honesty and measured movement
# ---------------------------------------------------------------------------


class TestExchangeHonesty:
    def test_gathered_join_opened_with_bindings_records_fallback(
            self, shard_db):
        """A GATHER re-opened with outer bindings cannot hand them to
        forked workers: it runs inline and says why."""
        from repro.executor.context import ExecutionContext
        from repro.executor.run import rows_iter

        options = _options(shard_db, parallelism="on", dop=3)
        gather, _join = _gathered_join(
            shard_db.compile(SELF_JOIN_SQL, options=options).plan)
        ctx = ExecutionContext(shard_db.engine, shard_db.functions)
        ctx.join_kinds = shard_db.join_kinds
        ctx.parallel = shard_db.parallel_runtime()
        rows = list(rows_iter(gather, ctx, {"outer": (1,)}))
        assert rows == shard_db.execute(SELF_JOIN_SQL).rows
        assert ctx.stats.parallel_fallbacks == 1
        assert "outer bindings" in ctx.stats.parallel_reasons[0]

    def test_gathered_join_in_explain_analyze(self, shard_db):
        options = _options(shard_db, parallelism="on", dop=3)
        text = "\n".join(
            row[0] for row in shard_db.execute(
                "EXPLAIN ANALYZE " + SELF_JOIN_SQL, options=options).rows)
        # The probe morsels and their per-task skew are visible.
        assert "GATHER(dop=3 over plain)" in text
        assert "skew(min=" in text
        assert "parallel_fallbacks=0" in text
