"""Unit tests for backend selection and the fused backend's reach.

The batch engine these tests were written against is gone: every id
that named it now holds the fused-pipeline backend, selected by the
shipped ``auto`` wherever fusable, to the same answers.  Everything is driven
through SQL so the whole pipeline — ExecBackend STAR marking in the
refinement phase, region parsing, pipeline generation, and the
tuple↔fused adapters — is exercised exactly as a user would hit it.
"""

from __future__ import annotations

import pytest

from repro import CompileOptions, Database
from repro.errors import DivisionByZeroError
from repro.optimizer import plans as pl
from repro.storage.page import Page
from repro.storage.record import RecordSerializer, record_span
from repro.datatypes import BOOLEAN, DOUBLE, INTEGER, VARCHAR


@pytest.fixture(scope="module")
def batch_db() -> Database:
    db = Database(pool_capacity=256)
    db.enable_operation("left_outer_join")
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER, x DOUBLE, "
               "tag VARCHAR(8))")
    db.execute("CREATE TABLE s (k INTEGER, v INTEGER)")
    txn = db.begin()
    for i in range(300):
        db.engine.insert(txn, "t",
                         (i, i % 11, float(i % 13) * 0.5 if i % 17 else None,
                          "t%d" % (i % 5)))
    for k in range(40):
        db.engine.insert(txn, "s", (k, k * 2))
    db.commit(txn)
    db.analyze()
    return db


def _options(db, **overrides) -> CompileOptions:
    return CompileOptions.from_settings(db.settings).replace(**overrides)


def _both(db, sql, **overrides):
    tuple_result = db.execute(
        sql, options=_options(db, execution_mode="tuple"))
    fused_result = db.execute(
        sql, options=_options(db, execution_mode="auto", **overrides))
    return tuple_result, fused_result


def _same(left, right) -> bool:
    """Byte-identical rows: same values, types and order."""
    return repr(left.rows) == repr(right.rows)


QUERIES = [
    # scan + filter + arithmetic/varchar projection
    "SELECT a, b * 2 + 1, tag FROM t WHERE b > 3 AND a % 7 <> 0 "
    "ORDER BY a",
    # NULL-aware predicates and projection of a nullable column
    "SELECT a, x FROM t WHERE x IS NULL OR x > 2.0 ORDER BY a",
    # three-valued AND/OR
    "SELECT a FROM t WHERE (x > 1.0 OR b = 4) AND NOT (b = 5) ORDER BY a",
    # hash join with residual predicate
    "SELECT t.a, s.v FROM t, s WHERE t.b = s.k AND t.a + s.v > 20 "
    "ORDER BY t.a, s.v",
    # left outer join (NULL padding crosses the tuple boundary)
    "SELECT t.a, s.v FROM t LEFT OUTER JOIN s ON t.b = s.k "
    "WHERE t.a < 50 ORDER BY t.a",
    # group by + aggregates
    "SELECT b, COUNT(*), SUM(a), MIN(x) FROM t GROUP BY b ORDER BY b",
    # aggregate over empty input
    "SELECT COUNT(*), SUM(a) FROM t WHERE a < 0",
    # distinct
    "SELECT DISTINCT b FROM t ORDER BY b",
    # set ops: tuple SETOP over fused arms
    "SELECT b FROM t WHERE a < 30 INTERSECT SELECT k FROM s ORDER BY 1",
    "SELECT b FROM t EXCEPT ALL SELECT k FROM s ORDER BY 1",
    "SELECT b FROM t UNION SELECT k FROM s ORDER BY 1",
    # limit under a covering ORDER BY
    "SELECT a, b FROM t ORDER BY a DESC, b LIMIT 7",
    # CASE / LIKE / IS NULL in the head
    "SELECT a, CASE WHEN b > 5 THEN 'hi' ELSE tag END FROM t "
    "WHERE tag LIKE 't%' ORDER BY a",
]


@pytest.mark.parametrize("sql", QUERIES)
def test_batch_matches_tuple(batch_db, sql):
    tuple_result, fused_result = _both(batch_db, sql)
    assert _same(fused_result, tuple_result)
    assert fused_result.stats.codegen_pipelines > 0


@pytest.mark.parametrize("sql", QUERIES)
def test_batch_size_one_matches(batch_db, sql):
    # One-row morsels: every per-morsel edge, per row.
    tuple_result, fused_result = _both(batch_db, sql, batch_size=1)
    assert _same(fused_result, tuple_result)


def test_auto_mode_subquery_falls_back_per_subtree(batch_db):
    """On-demand subqueries stay on the tuple interpreter, the scan
    below them still runs fused, and the stats make the boundary
    visible."""
    sql = ("SELECT a, (SELECT v FROM s WHERE s.k = t.b) FROM t "
           "WHERE a < 200 ORDER BY a")
    tuple_result = batch_db.execute(
        sql, options=_options(batch_db, execution_mode="tuple"))
    auto_result = batch_db.execute(
        sql, options=_options(batch_db, execution_mode="auto"))
    assert _same(auto_result, tuple_result)
    assert auto_result.stats.codegen_pipelines > 0
    assert auto_result.stats.fallbacks > 0


def test_auto_mode_batches_big_scan_behind_selective_filter(batch_db):
    """A point predicate on a 300-row table still pays a 300-row scan:
    it fuses even though only one row survives."""
    sql = "SELECT a, tag FROM t WHERE a = 123"
    tuple_result = batch_db.execute(
        sql, options=_options(batch_db, execution_mode="tuple"))
    auto_result = batch_db.execute(
        sql, options=_options(batch_db, execution_mode="auto"))
    assert auto_result.rows == tuple_result.rows == [(123, "t3")]
    assert auto_result.stats.codegen_pipelines > 0


def test_auto_mode_small_table_fuses(batch_db):
    """Auto fuses by shape alone: a 5-row table runs fused, sort and
    all, with no adapter to the interpreter."""
    batch_db.execute("CREATE TABLE tiny (n INTEGER)")
    txn = batch_db.begin()
    for i in range(5):
        batch_db.engine.insert(txn, "tiny", (i,))
    batch_db.commit(txn)
    batch_db.analyze()
    sql = "SELECT n FROM tiny ORDER BY n DESC"
    result = batch_db.execute(
        sql, options=_options(batch_db, execution_mode="auto"))
    assert result.rows == [(i,) for i in reversed(range(5))]
    assert result.stats.codegen_pipelines == 1
    assert result.stats.fallbacks == 0
    plan = batch_db.compile(sql).plan
    assert all(node.exec_backend == "compiled" for node in plan.walk())


def test_explain_shows_backend_marks(batch_db):
    sql = "SELECT a FROM t WHERE b = 1"
    plain = batch_db.explain(
        sql, options=_options(batch_db, execution_mode="tuple"))
    marked = batch_db.explain(
        sql, options=_options(batch_db, execution_mode="auto"))
    assert "backend=" not in plain
    assert "backend=compiled" in marked
    assert "backend=batch" not in marked


def test_explain_statement_threads_options(batch_db):
    result = batch_db.execute(
        "EXPLAIN SELECT a FROM t WHERE b = 1",
        options=_options(batch_db, execution_mode="auto"))
    text = "\n".join(row[0] for row in result.rows)
    assert "backend=compiled" in text


def test_division_by_zero_is_typed_in_both_backends(batch_db):
    for mode in ("tuple", "auto"):
        with pytest.raises(DivisionByZeroError):
            batch_db.execute("SELECT a / (b - b) FROM t",
                             options=_options(batch_db,
                                              execution_mode=mode))


def test_batch_division_skips_filtered_rows(batch_db):
    # Every surviving row has b <> 0, so the fused backend must not
    # evaluate the division on the rows the filter rejected.
    sql = "SELECT a / b FROM t WHERE b <> 0 ORDER BY a"
    tuple_result, fused_result = _both(batch_db, sql)
    assert _same(fused_result, tuple_result)


def test_short_circuit_guard_in_batch(batch_db):
    # AND short-circuit: b <> 0 guards the division in the same conjunct.
    sql = "SELECT a FROM t WHERE b <> 0 AND a / b > 2 ORDER BY a"
    tuple_result, fused_result = _both(batch_db, sql)
    assert _same(fused_result, tuple_result)


def test_index_scan_runs_batch(batch_db):
    # The ISCAN is a tuple leaf: the fused PROJECT pulls its bindings.
    batch_db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, w INTEGER)")
    txn = batch_db.begin()
    for i in range(300):
        batch_db.engine.insert(txn, "u", (i, i * 3))
    batch_db.commit(txn)
    batch_db.analyze()
    sql = "SELECT id, w FROM u WHERE id = 42"
    tuple_result, fused_result = _both(batch_db, sql)
    assert fused_result.rows == tuple_result.rows == [(42, 126)]
    assert fused_result.stats.index_probes > 0
    assert fused_result.stats.codegen_pipelines > 0


def test_stats_count_batches_and_fallbacks(batch_db):
    # A fused root hands its rows to the caller (the contract, not a
    # fallback); a fused PROJECT over a tuple NLJOIN crosses once.
    result = batch_db.execute(
        "SELECT a FROM t ORDER BY a",
        options=_options(batch_db, execution_mode="auto", batch_size=50))
    assert result.stats.codegen_pipelines == 1
    assert result.stats.fallbacks == 0
    crossed = batch_db.execute(
        "SELECT t.a, s.k FROM t, s WHERE t.a < 3 AND s.k < 3",
        options=_options(batch_db, execution_mode="auto", batch_size=50))
    assert crossed.stats.fallbacks > 0
    assert "fallbacks=" in repr(result.stats)
    assert "codegen_pipelines=" in repr(result.stats)


def test_rule_count_still_bounded():
    from repro.optimizer.stars import default_star_array

    total = sum(len(star.alternatives)
                for star in default_star_array().values())
    assert total < 20


def test_decode_columns_matches_deserialize():
    serializer = RecordSerializer([INTEGER, DOUBLE, BOOLEAN, VARCHAR])
    rows = [
        (1, 0.5, True, "abc"),
        (None, 2.5, False, "x"),
        (3, None, None, None),
        (-7, -1.25, True, ""),
    ]
    # Two spans: the records joined end to end, then again behind a
    # 5-byte pad so no record sits at the image's start.
    records = [serializer.serialize(row) for row in rows]
    image, offsets, lengths = record_span(records)
    spans = [(image, offsets, lengths),
             (b"\xff" * 5 + image, [o + 5 for o in offsets], lengths)]
    # Static-offset stock columns: one struct unpack per record.
    fixed = serializer.combined_decoder((0, 1, 2))
    assert fixed(spans) == [row[:3] for row in rows] * 2
    # A trailing VARCHAR; these spans hold NULLs → whole-record fallback.
    assert serializer.combined_decoder((1, 3))(spans) == \
        [(row[1], row[3]) for row in rows] * 2
    # VARCHAR first → no static offsets downstream → whole-row fallback.
    var_first = RecordSerializer([VARCHAR, INTEGER])
    rows2 = [("ab", 1), (None, None), ("", 9)]
    span2 = record_span([var_first.serialize(row) for row in rows2])
    assert var_first.combined_decoder((0, 1))([span2]) == rows2
    assert var_first.combined_decoder((1,))([span2]) == [(1,), (None,), (9,)]


def test_varchar_decoder_reads_a_full_page():
    """A trailing VARCHAR is read after its struct-unpacked length prefix
    on a NULL-free page; a NULL one has no prefix, so its page is
    deserialized.  The first record inserted ends at the page image's
    end: a blind prefix read of its NULL label would overrun the image."""
    serializer = RecordSerializer([INTEGER, VARCHAR])
    decode = serializer.combined_decoder((0, 1))
    for first_label in (None, "first"):
        page = Page(0)
        rows = [(0, first_label)]
        page.insert(serializer.serialize(rows[0]))
        k = 1
        while True:
            row = (k, "label-%d" % k)
            record = serializer.serialize(row)
            if not page.can_insert(len(record)):
                break
            page.insert(record)
            rows.append(row)
            k += 1
        _slots, offsets, lengths = page.directory()
        image = bytes(page.data)
        assert offsets[0] + lengths[0] == len(image)
        assert decode([(image, offsets, lengths)]) == rows
        assert serializer.combined_decoder((1,))(
            [(image, offsets, lengths)]) == [(row[1],) for row in rows]


def test_oracle_evaluates_table_functions(batch_db):
    from repro.testkit.oracle import ReferenceOracle

    oracle = ReferenceOracle(batch_db)
    for sql in ("SELECT g.n FROM series(1, 5) g",
                "SELECT count(*) FROM sample(s, 10) smp"):
        engine_rows = batch_db.execute(sql).rows
        oracle_rows = oracle.execute(sql).rows
        assert sorted(engine_rows) == sorted(oracle_rows)


# ---------------------------------------------------------------------------
# NL and merge joins: tuple operators between fused producers
# ---------------------------------------------------------------------------

JOIN_QUERIES = [
    # theta join: no equi-key, planner picks NLJOIN over a TEMP inner
    "SELECT t.a, s.v FROM t, s WHERE t.a + s.k = 41 ORDER BY t.a, s.v",
    # pure cross product, trimmed by a post-filter
    "SELECT t.a, s.k FROM t, s WHERE t.a < 3 AND s.k < 3 "
    "ORDER BY t.a, s.k",
    # NL with a residual on top of the join predicate
    "SELECT t.a, s.v FROM t, s WHERE t.a + s.k = 50 AND t.b > 2 "
    "ORDER BY t.a, s.v",
]


@pytest.mark.parametrize("sql", JOIN_QUERIES)
def test_batch_nl_join_matches_tuple(batch_db, sql):
    tuple_result, fused_result = _both(batch_db, sql)
    assert _same(fused_result, tuple_result)
    assert fused_result.stats.codegen_pipelines > 0


@pytest.mark.parametrize("method", ["merge", "nl"])
def test_forced_join_methods_match_tuple(batch_db, method):
    sql = ("SELECT t.a, s.v FROM t, s WHERE t.b = s.k AND t.a + s.v > 20 "
           "ORDER BY t.a, s.v")
    tuple_result = batch_db.execute(
        sql, options=_options(batch_db, forced_join_method=method,
                              execution_mode="tuple"))
    fused_result = batch_db.execute(
        sql, options=_options(batch_db, forced_join_method=method,
                              execution_mode="auto"))
    assert _same(fused_result, tuple_result)
    assert fused_result.stats.codegen_pipelines > 0
    text = batch_db.explain(
        sql, options=_options(batch_db, forced_join_method=method,
                              execution_mode="auto"))
    op = "MERGEJOIN" if method == "merge" else "NLJOIN"
    assert op in text
    # The join runs on the interpreter, pulled by the fused head.
    assert "fallback=tuple" in text.split(op, 1)[1].splitlines()[0]


def test_batch_merge_join_left_outer(batch_db):
    sql = ("SELECT t.a, s.v FROM t LEFT OUTER JOIN s ON t.b = s.k "
           "WHERE t.a < 60 ORDER BY t.a, s.v")
    tuple_result = batch_db.execute(
        sql, options=_options(batch_db, forced_join_method="merge",
                              execution_mode="tuple"))
    fused_result = batch_db.execute(
        sql, options=_options(batch_db, forced_join_method="merge",
                              execution_mode="auto"))
    assert _same(fused_result, tuple_result)
    assert fused_result.stats.codegen_pipelines > 0


def test_lateral_inner_keeps_nl_join_tuple(batch_db):
    # A correlated (lateral-style) inner is re-driven per outer binding;
    # its correlated nodes stay on the interpreter.
    sql = ("SELECT t.a, (SELECT MIN(s.v) FROM s WHERE s.k > t.b) FROM t "
           "WHERE t.a < 20 ORDER BY t.a")
    tuple_result, fused_result = _both(batch_db, sql)
    assert _same(fused_result, tuple_result)


# ---------------------------------------------------------------------------
# Auto-mode selection on OLTP- and analytic-shaped data
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oltp_db() -> Database:
    db = Database(pool_capacity=256)
    db.execute("CREATE TABLE accounts (id INTEGER PRIMARY KEY, "
               "branch INTEGER, balance DOUBLE)")
    db.execute("CREATE TABLE branches (bid INTEGER PRIMARY KEY, "
               "city VARCHAR(10))")
    db.execute("CREATE TABLE events (a INTEGER, b INTEGER, x DOUBLE)")
    txn = db.begin()
    for i in range(2000):
        db.engine.insert(txn, "accounts", (i, i % 50, float(i)))
    for i in range(50):
        db.engine.insert(txn, "branches", (i, "c%d" % i))
    for i in range(30000):
        db.engine.insert(txn, "events", (i, i % 100, float(i % 997)))
    db.commit(txn)
    db.analyze()
    return db


def test_auto_leaves_bare_join_inner_on_tuple(oltp_db):
    """The inner SCAN of a tuple-backend join has nothing to evaluate;
    fused, every probe re-open would cross a fused→tuple adapter for no
    work saved."""
    sql = ("SELECT a.balance, b.city FROM accounts a, branches b "
           "WHERE a.id = ? AND a.branch = b.bid")
    auto = _options(oltp_db, execution_mode="auto")
    text = oltp_db.explain(sql, options=auto)
    lines = {line.split("(")[0].strip(): line
             for line in text.splitlines() if "cost=" in line}
    assert "backend=compiled" in lines["PROJECT"]
    assert "fallback=tuple" in lines["NLJOIN[regular]"]
    assert "backend=" not in lines["SCAN"]
    result = oltp_db.execute(sql, (7,), options=auto)
    assert result.rows == [(7.0, "c7")]
    tuple_result = oltp_db.execute(
        sql, (7,), options=_options(oltp_db, execution_mode="tuple"))
    assert _same(result, tuple_result)


def test_auto_still_accelerates_big_scan_filter_project(oltp_db):
    sql = "SELECT a, b * 2 + 1, x FROM events WHERE b < 70 AND a % 3 <> 0"
    text = oltp_db.explain(
        sql, options=_options(oltp_db, execution_mode="auto"))
    plan_lines = [line for line in text.splitlines()
                  if "PROJECT(" in line or "SCAN(events" in line]
    assert plan_lines and all("backend=" in line for line in plan_lines)


def test_batch_mode_is_rejected():
    with pytest.raises(ValueError):
        CompileOptions(execution_mode="batch")


def test_1_and_31_row_scans_fuse_under_the_default():
    """No row count keeps a fusable scan on the interpreter: a 1-row
    and a 31-row scan both run as one fused pipeline by default."""
    db = Database()
    db.execute("CREATE TABLE one (n INTEGER, m INTEGER)")
    db.execute("CREATE TABLE small (n INTEGER, m INTEGER)")
    txn = db.begin()
    db.engine.insert(txn, "one", (0, 1))
    for i in range(31):
        db.engine.insert(txn, "small", (i, i % 4))
    db.commit(txn)
    db.analyze()
    for table, count in (("one", 1), ("small", 8)):
        sql = "SELECT n FROM %s WHERE m = 1" % table
        result = db.execute(sql)
        assert result.stats.codegen_pipelines == 1
        assert len(result.rows) == count
        tuple_result = db.execute(
            sql, options=CompileOptions(execution_mode="tuple"))
        assert _same(result, tuple_result)


def _regions(plan):
    return [node for node in plan.walk()
            if getattr(node, "codegen_program", None) is not None]


def _analytic_db(events: int, partitioned: bool) -> Database:
    """The benchmark suite's analytic tables: ``events`` rows of events
    (optionally hash-partitioned on ``g``) and 1 000 groups."""
    db = Database()
    db.execute("CREATE TABLE events (a INTEGER, b INTEGER, g INTEGER, "
               "x DOUBLE, tag VARCHAR(24))"
               + (" PARTITION BY HASH(g) PARTITIONS 4" if partitioned
                  else ""))
    db.execute("CREATE TABLE groups (k INTEGER PRIMARY KEY, "
               "label VARCHAR(12))")
    txn = db.begin()
    for j in range(events):
        db.engine.insert(txn, "events", (j, j % 100, j % 1000,
                                         (j % 997) * 0.5, "tag-%d" % (j % 50)))
    for k in range(1000):
        db.engine.insert(txn, "groups", (k, "grp_%d" % k))
    db.commit(txn)
    db.analyze()
    return db


def test_analytic_join_fuses_end_to_end_under_auto():
    analytic_db = _analytic_db(30000, partitioned=False)
    sql = ("SELECT e.a, e.x, g.label FROM events e, groups g "
           "WHERE e.g = g.k AND g.k < 900")
    compiled = analytic_db.compile(
        sql, options=CompileOptions(execution_mode="auto"))
    assert all(node.exec_backend == "compiled"
               for node in compiled.plan.walk())
    (region,) = _regions(compiled.plan)
    assert region is compiled.plan and not region.codegen_program.leaves
    tuple_rows = analytic_db.execute(
        sql, options=CompileOptions(execution_mode="tuple")).rows
    assert repr(analytic_db.execute(sql).rows) == repr(tuple_rows)


def test_group_by_over_gather_fuses_with_gather_leaf():
    """A non-mergeable GROUP BY (float SUM) runs in the coordinator over
    a plain GATHER: the grouped region fuses and pulls the GATHER's rows
    as its leaf."""
    analytic_db = _analytic_db(8000, partitioned=True)
    sql = ("SELECT g, COUNT(*), SUM(x) FROM events WHERE a % 3 <> 0 "
           "GROUP BY g")
    options = CompileOptions(execution_mode="auto", parallelism="on",
                             dop=2)
    plan = analytic_db.compile(sql, options=options).plan
    gather = next(node for node in plan.walk()
                  if isinstance(node, pl.Gather))
    assert plan.exec_backend == "compiled"
    assert gather in plan.codegen_program.leaves
    assert plan.codegen_program.final_kind == "groupby"
    serial = analytic_db.execute(
        sql, options=CompileOptions(execution_mode="tuple"))
    try:
        par = analytic_db.execute(sql, options=options)
    finally:
        analytic_db.close()  # the GATHER forked a worker pool
    assert sorted(par.rows) == sorted(serial.rows)
    assert par.stats.parallel_exchanges == 1


def test_iscan_aggregate_is_byte_identical_to_tuple():
    """The OLTP branch aggregate: a fused grouped region whose source is
    the ISCAN's ~150 fetched rows (of 30 000)."""
    db = Database()
    db.execute("CREATE TABLE accounts (id INTEGER PRIMARY KEY, "
               "branch INTEGER, balance DOUBLE, owner VARCHAR(24), "
               "note VARCHAR(40))")
    txn = db.begin()
    for i in range(30000):
        db.engine.insert(txn, "accounts",
                         (i, i % 200, i * 1.25 if i % 9 else None,
                          "owner-%d" % i, "n" * 32))
    db.commit(txn)
    db.execute("CREATE INDEX ibranch ON accounts (branch)")
    db.analyze()
    sql = "SELECT count(*), sum(balance) FROM accounts WHERE branch = ?"
    auto = CompileOptions(execution_mode="auto")
    plan = db.compile(sql, options=auto).plan
    iscan = next(node for node in plan.walk()
                 if isinstance(node, pl.IndexScan))
    assert plan.exec_backend == iscan.exec_backend == "compiled"
    assert plan.codegen_program.leaves == []
    for branch in (0, 7, 199, 200):
        fused = db.execute(sql, (branch,), options=auto)
        tuple_result = db.execute(
            sql, (branch,), options=CompileOptions(execution_mode="tuple"))
        assert repr(fused.rows) == repr(tuple_result.rows)


def test_left_outer_hash_join_fuses_and_pads_like_tuple(batch_db):
    sql = ("SELECT t.a, s.v, s.k FROM t LEFT OUTER JOIN s "
           "ON t.b = s.k AND s.k > 4 WHERE t.a < 120")
    for batch_size in (1024, 1):
        options = _options(batch_db, batch_size=batch_size,
                           forced_join_method="hash")
        plan = batch_db.compile(sql, options=options).plan
        join = next(node for node in plan.walk()
                    if isinstance(node, pl.HashJoin))
        assert join.kind == "left_outer"
        assert join.exec_backend == "compiled"
        fused = batch_db.execute(sql, options=options)
        tuple_result = batch_db.execute(sql, options=_options(
            batch_db, execution_mode="tuple", forced_join_method="hash"))
        assert _same(fused, tuple_result)
        padded = [row for row in fused.rows if row[1] is None]
        assert padded and all(row[2] is None for row in padded)
