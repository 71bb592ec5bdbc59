"""Unit tests for the pipeline-fusion codegen backend.

Everything is driven through SQL: the ExecBackend STAR, region
validation, pipeline splitting at breakers, source generation, the
cross-statement code-object cache, and the runtime drivers are exercised
exactly as a user would hit them with ``execution_mode="auto"``.
"""

from __future__ import annotations

import pytest

from repro import CompileOptions, Database
from repro.errors import SubqueryError
from repro.functions.registry import AggregateFunction
from repro.executor.exprgen import codegen_cache_stats
from repro.obs.spans import RequestTrace


@pytest.fixture(scope="module")
def cg_db() -> Database:
    db = Database(pool_capacity=256)
    db.enable_operation("left_outer_join")
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER, x DOUBLE, "
               "tag VARCHAR(8))")
    db.execute("CREATE TABLE s (k INTEGER, v INTEGER)")
    db.execute("CREATE TABLE r (k INTEGER, w INTEGER)")
    txn = db.begin()
    for i in range(300):
        db.engine.insert(txn, "t",
                         (i, i % 11, float(i % 13) * 0.5 if i % 17 else None,
                          "t%d" % (i % 5)))
    for k in range(40):
        db.engine.insert(txn, "s", (k, k * 2))
    for k in range(25):
        db.engine.insert(txn, "r", (k, k * 3))
    db.commit(txn)
    db.analyze()
    return db


def _options(db, **overrides) -> CompileOptions:
    base = CompileOptions.from_settings(db.settings)
    return base.replace(plan_cache=False, **overrides)


def _compiled(db, sql, **overrides):
    return db.compile(sql, options=_options(
        db, execution_mode="auto", **overrides))


def _programs(plan):
    found = []
    for node in plan.walk():
        program = getattr(node, "codegen_program", None)
        if program is not None:
            found.append(program)
    return found


def _check_rows(db, sql, **overrides):
    """Compiled rows must be byte-identical to the tuple interpreter."""
    ref = db.execute(sql, options=_options(db, execution_mode="tuple"))
    got = db.execute(sql, options=_options(
        db, execution_mode="auto", **overrides))
    assert got.rows == ref.rows
    return got


class TestPipelineSplitting:
    def test_scan_filter_project_is_one_pipeline(self, cg_db):
        compiled = _compiled(
            cg_db, "SELECT a, b * 2 + 1 FROM t WHERE b > 3")
        programs = _programs(compiled.plan)
        assert len(programs) == 1
        assert programs[0].n_pipelines == 1
        result = _check_rows(cg_db, "SELECT a, b * 2 + 1 FROM t WHERE b > 3")
        assert result.stats.codegen_pipelines == 1

    def test_hash_join_splits_at_build_side(self, cg_db):
        sql = ("SELECT t.a, s.v FROM t, s "
               "WHERE t.b = s.k AND t.a + s.v > 20")
        compiled = _compiled(cg_db, sql)
        programs = _programs(compiled.plan)
        assert len(programs) == 1
        # One pipeline fills the hash table, one probes and projects.
        assert programs[0].n_pipelines == 2
        result = _check_rows(cg_db, sql)
        assert result.stats.codegen_pipelines == 2

    def test_two_joins_make_three_pipelines(self, cg_db):
        sql = ("SELECT t.a, s.v, r.w FROM t, s, r "
               "WHERE t.b = s.k AND t.b = r.k")
        compiled = _compiled(cg_db, sql)
        programs = _programs(compiled.plan)
        assert len(programs) == 1
        assert programs[0].n_pipelines == 3
        _check_rows(cg_db, sql)

    def test_group_by_breaks_into_its_own_sink(self, cg_db):
        sql = "SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b"
        compiled = _compiled(cg_db, sql)
        programs = _programs(compiled.plan)
        assert len(programs) == 1
        assert programs[0].final_kind == "groupby"
        assert programs[0].n_pipelines == 1
        _check_rows(cg_db, sql)

    def test_join_feeding_group_by(self, cg_db):
        sql = ("SELECT s.v, COUNT(*) FROM t, s WHERE t.b = s.k "
               "GROUP BY s.v")
        compiled = _compiled(cg_db, sql)
        programs = _programs(compiled.plan)
        assert len(programs) == 1
        assert programs[0].n_pipelines == 2
        _check_rows(cg_db, sql)

    def test_order_limit_distinct_stay_driver_level(self, cg_db):
        sql = "SELECT DISTINCT b FROM t WHERE a > 5 ORDER BY b LIMIT 4"
        compiled = _compiled(cg_db, sql)
        programs = _programs(compiled.plan)
        assert len(programs) == 1
        # The shufflers ride on top of the fused chain as post-operators,
        # not as extra pipelines.
        assert programs[0].n_pipelines == 1
        assert len(programs[0].postops) >= 2
        _check_rows(cg_db, sql)


class TestFallbacks:
    def test_outer_join_region_fuses(self, cg_db):
        # The probe step pads unmatched outer rows itself: the left outer
        # join is part of the fused region, not a fallback.
        sql = ("SELECT t.a, s.v FROM t LEFT OUTER JOIN s "
               "ON t.b = s.k AND s.k > 4 WHERE t.a < 50")
        compiled = _compiled(cg_db, sql, forced_join_method="hash")
        joins = [node for node in compiled.plan.walk()
                 if node.op_name == "HASHJOIN"]
        assert joins and joins[0].kind == "left_outer"
        assert joins[0].exec_backend == "compiled"
        assert compiled.plan.codegen_fallbacks == []
        result = _check_rows(cg_db, sql, forced_join_method="hash")
        assert any(row[1] is None for row in result.rows)

    def test_scalar_subquery_project_reports_reason(self, cg_db):
        sql = "SELECT a, (SELECT MAX(v) FROM s) FROM t WHERE a < 10"
        compiled = _compiled(cg_db, sql)
        reasons = [reason for _op, reason in compiled.plan.codegen_fallbacks]
        assert "subquery expressions" in reasons
        _check_rows(cg_db, sql)

    def test_set_op_is_an_unsupported_operator(self, cg_db):
        sql = "SELECT b FROM t UNION SELECT k FROM s"
        compiled = _compiled(cg_db, sql)
        reasons = [reason for _op, reason in compiled.plan.codegen_fallbacks]
        assert any(reason.startswith("unsupported operator")
                   for reason in reasons)
        _check_rows(cg_db, sql)

    def test_demoted_region_runs_no_pipelines(self, cg_db):
        # A DBC's ExecBackend STAR marks every node compiled, SETOP
        # included.  The SETOP region does not parse, so it demotes
        # straight to tuple with its reason kept, runs no pipeline of its
        # own, and its arms become regions of their own.
        from repro.optimizer.stars import STAR, Alternative

        db = Database()
        db.execute("CREATE TABLE t (b INTEGER)")
        db.execute("CREATE TABLE s (k INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (2)")
        db.execute("INSERT INTO s VALUES (2), (3)")

        def mark(gen, args):
            args["plan"].exec_backend = "compiled"
            return [args["plan"]]

        db.register_star(STAR("ExecBackend", [Alternative("All", mark)]),
                         replace=True)
        sql = "SELECT b FROM t UNION SELECT k FROM s"
        compiled = _compiled(db, sql)
        setop = next(node for node in compiled.plan.walk()
                     if node.op_name == "SETOP")
        assert setop.exec_backend == "tuple"
        assert getattr(setop, "codegen_program", None) is None
        assert any("not a pipeline sink" in reason
                   for _op, reason in compiled.plan.codegen_fallbacks)
        result = _check_rows(db, sql)
        assert result.stats.codegen_pipelines == 2


class TestCodeObjectCache:
    def test_identical_statements_share_code_objects(self, cg_db):
        sql = "SELECT a, b FROM t WHERE b > 7"
        before = codegen_cache_stats()
        _check_rows(cg_db, sql)
        mid = codegen_cache_stats()
        _check_rows(cg_db, sql)
        after = codegen_cache_stats()
        # Second compile of the same shape re-uses every code object.
        assert after["hits"] > mid["hits"]
        assert after["entries"] == mid["entries"]
        assert mid["entries"] >= before["entries"]

    def test_sharing_is_structural_across_databases(self, cg_db):
        other = Database()
        other.execute("CREATE TABLE t (a INTEGER, b INTEGER, x DOUBLE, "
                      "tag VARCHAR(8))")
        other.execute("INSERT INTO t VALUES (1, 9, 0.5, 'z')")
        sql = "SELECT a, b FROM t WHERE b > 8"
        _check_rows(cg_db, sql)
        before = codegen_cache_stats()
        got = other.execute(sql, options=_options(
            other, execution_mode="auto"))
        after = codegen_cache_stats()
        assert got.rows == [(1, 9)]
        assert after["hits"] > before["hits"]
        assert after["entries"] == before["entries"]


class TestExplainAndTrace:
    def test_explain_marks_fused_regions(self, cg_db):
        text = cg_db.explain(
            "SELECT t.a, s.v FROM t, s WHERE t.b = s.k",
            options=_options(cg_db, execution_mode="auto"))
        assert "backend=compiled" in text
        assert "fused=2" in text

    def test_trace_emits_one_event_per_pipeline(self, cg_db):
        trace = RequestTrace("t-codegen")
        cg_db.compile("SELECT t.a, s.v FROM t, s WHERE t.b = s.k",
                      options=_options(cg_db, execution_mode="auto"),
                      trace=trace)
        events = trace.root.find("codegen").find_all("codegen.pipeline")
        assert len(events) == 2
        roles = sorted(event.attrs["role"] for event in events)
        assert roles == ["build", "sink"]

    def test_codegen_phase_is_timed(self, cg_db):
        compiled = _compiled(cg_db, "SELECT a FROM t WHERE b = 1")
        assert compiled.timings.codegen >= 0
        assert "codegen" in compiled.timings.as_dict()


class TestBatchScalarSubqueries:
    """Uncorrelated scalar subqueries under the fused default: the
    PROJECT stays on the interpreter (evaluate-on-demand), over a fused
    scan."""

    SQL = "SELECT a, b + (SELECT MAX(v) FROM s) FROM t WHERE a < 20"

    def test_batch_matches_tuple(self, cg_db):
        ref = cg_db.execute(self.SQL, options=_options(
            cg_db, execution_mode="tuple"))
        got = cg_db.execute(self.SQL, options=_options(
            cg_db, execution_mode="auto"))
        assert got.rows == ref.rows
        assert got.stats.subquery_evaluations >= 1

    def test_empty_subquery_yields_null(self, cg_db):
        sql = "SELECT a, (SELECT MAX(v) FROM s WHERE v > 999) FROM t " \
              "WHERE a < 3"
        got = cg_db.execute(sql, options=_options(
            cg_db, execution_mode="auto"))
        assert got.rows == [(0, None), (1, None), (2, None)]

    def test_multi_row_subquery_raises_in_both_backends(self, cg_db):
        sql = "SELECT a, (SELECT v FROM s) FROM t"
        for mode in ("tuple", "auto"):
            with pytest.raises(SubqueryError):
                cg_db.execute(sql, options=_options(
                    cg_db, execution_mode=mode))

    def test_subquery_not_run_when_outer_is_empty(self, cg_db):
        sql = "SELECT a, (SELECT v FROM s) FROM t WHERE a < -1"
        for mode in ("tuple", "auto"):
            got = cg_db.execute(sql, options=_options(
                cg_db, execution_mode=mode))
            assert got.rows == []
            assert got.stats.subquery_evaluations == 0

    def test_correlated_subquery_stays_on_tuple_interpreter(self, cg_db):
        sql = ("SELECT t.a, (SELECT MAX(v) FROM s WHERE s.k = t.b) "
               "FROM t WHERE t.a < 15")
        ref = cg_db.execute(sql, options=_options(
            cg_db, execution_mode="tuple"))
        got = cg_db.execute(sql, options=_options(
            cg_db, execution_mode="auto"))
        assert got.rows == ref.rows


# ---------------------------------------------------------------------------
# Inlined aggregates and bare hash keys
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def agg_db() -> Database:
    """NULLs in every column, join keys of both numeric types."""
    db = Database(pool_capacity=256)
    db.enable_operation("left_outer_join")
    db.execute("CREATE TABLE g (k INTEGER, k2 INTEGER, v INTEGER, "
               "x DOUBLE, s VARCHAR(8))")
    db.execute("CREATE TABLE h (k INTEGER, k2 INTEGER, w INTEGER)")
    db.execute("CREATE TABLE d (k DOUBLE, y INTEGER)")
    txn = db.begin()
    for i in range(240):
        db.engine.insert(txn, "g", (
            i % 9 if i % 7 else None, i % 4 if i % 11 else None,
            i % 13 if i % 5 else None, (i % 17) * 0.5 if i % 3 else None,
            "s%d" % (i % 6) if i % 8 else None))
    for i in range(60):
        db.engine.insert(txn, "h", (i % 12 if i % 5 else None,
                                    i % 4 if i % 7 else None, i))
    for i in range(40):
        db.engine.insert(txn, "d", (float(i % 10) if i % 6 else None, i))
    db.commit(txn)
    db.analyze()
    return db


def _same(db, sql, **overrides):
    """Compiled rows byte-identical to the tuple interpreter's: equal
    values of equal types (``1``, ``1.0`` and ``True`` compare equal)."""
    ref = db.execute(sql, options=_options(db, execution_mode="tuple"))
    got = db.execute(sql, options=_options(
        db, execution_mode="auto", **overrides))
    assert repr(got.rows) == repr(ref.rows)
    return got


def _sink_source(db, sql, **overrides) -> str:
    programs = _programs(_compiled(db, sql, **overrides).plan)
    assert len(programs) == 1
    return programs[0].pipelines[-1].source


_AGGREGATES = ["count(*)", "count(v)", "sum(v)", "sum(x)", "avg(v)",
               "avg(x)", "min(x)", "max(x)", "min(s)", "max(s)",
               "count(DISTINCT v)", "sum(DISTINCT x)", "avg(DISTINCT v)",
               "min(DISTINCT s)", "max(DISTINCT v)"]


class TestInlineAggregates:
    @pytest.mark.parametrize("agg", _AGGREGATES)
    @pytest.mark.parametrize("where", ["", "WHERE v > 3", "WHERE v > 99"])
    def test_stock_aggregate_grouped_and_ungrouped(self, agg_db, agg,
                                                   where):
        # Grouped on a column with NULL keys, on two columns, and
        # ungrouped; the last filter leaves no input at all.
        _same(agg_db, "SELECT k, %s FROM g %s GROUP BY k" % (agg, where))
        _same(agg_db, "SELECT k, k2, %s FROM g %s GROUP BY k, k2"
              % (agg, where))
        _same(agg_db, "SELECT %s FROM g %s" % (agg, where))

    def test_stock_aggregates_step_inline(self, agg_db):
        sql = "SELECT k, count(*), sum(v), avg(x), min(s), max(v) " \
              "FROM g GROUP BY k"
        source = _sink_source(agg_db, sql)
        assert ".step(" not in source and "factory" not in source
        _same(agg_db, sql)
        # Ungrouped: the state lives in locals, no group table at all.
        source = _sink_source(agg_db, "SELECT count(*), sum(x) FROM g")
        assert "_groups" not in source and ".step(" not in source

    def test_single_column_keys_are_bare(self, agg_db):
        grouped = _sink_source(agg_db,
                               "SELECT k, count(*) FROM g GROUP BY k")
        assert "_gget(_x0)" in grouped
        joined = _programs(_compiled(
            agg_db, "SELECT g.v, h.w FROM g, h WHERE g.k = h.k",
            forced_join_method="hash").plan)[0]
        build, probe = joined.pipelines
        assert "_kt = _bk0\n" in build.source
        assert "_ht0(_k0_0, ())" in probe.source

    def test_integer_and_double_sums_keep_their_types(self, agg_db):
        result = _same(agg_db, "SELECT sum(v), sum(x), sum(k + 0.5) FROM g")
        total_v, total_x, _mixed = result.rows[0]
        assert type(total_v) is int and type(total_x) is float

    def test_avg_totals_in_floating_point(self):
        # AVG's total starts at 0.0: past 2**53 the float sum rounds
        # where an integer sum would not.
        db = Database()
        db.execute("CREATE TABLE big (k INTEGER, v INTEGER)")
        db.execute("INSERT INTO big VALUES (1, %d), (1, 1), (1, 1)"
                   % 2 ** 53)
        result = _same(db, "SELECT avg(v) FROM big")
        assert result.rows == [(2 ** 53 / 3,)]
        _same(db, "SELECT k, avg(v) FROM big GROUP BY k")

    def test_keys_one_and_one_point_zero_and_true_are_one_group(self,
                                                                agg_db):
        for first, second, third in (("1", "1.0", "k = k"),
                                     ("1.0", "k = k", "1"),
                                     ("k = k", "1", "1.0")):
            case = ("CASE WHEN v < 4 THEN %s WHEN v < 8 THEN %s "
                    "ELSE %s END" % (first, second, third))
            derived = ("(SELECT %s AS c, v, k2 FROM g WHERE v IS NOT NULL "
                       "AND k IS NOT NULL) q" % case)
            result = _same(agg_db, "SELECT c, count(*), sum(v) FROM %s "
                           "GROUP BY c" % derived)
            assert len(result.rows) == 1
            # MIN/MAX compare strictly: the first of equal values stays.
            _same(agg_db, "SELECT min(c), max(c) FROM %s" % derived)
            _same(agg_db, "SELECT k2, min(c), max(c) FROM %s GROUP BY k2"
                  % derived)
            result = _same(agg_db, "SELECT count(DISTINCT c), "
                           "max(DISTINCT c) FROM %s" % derived)
            assert result.rows[0][0] == 1

    def test_having_over_the_grouped_wrap(self, agg_db):
        _same(agg_db, "SELECT k, sum(v) + 1, count(*) FROM g GROUP BY k "
                      "HAVING count(*) > 20 AND max(x) >= 7.5")
        _same(agg_db, "SELECT count(*) FROM g WHERE v > 99 "
                      "HAVING count(*) = 0")

    def test_group_by_without_aggregates(self, agg_db):
        _same(agg_db, "SELECT k FROM g GROUP BY k")
        _same(agg_db, "SELECT k, k2 FROM g GROUP BY k, k2")

    @pytest.mark.parametrize("batch_size", [1024, 1])
    def test_joins_with_null_keys(self, agg_db, batch_size):
        for sql in (
                "SELECT g.v, h.w FROM g, h WHERE g.k = h.k",
                "SELECT g.v, h.w FROM g, h WHERE g.k = h.k AND g.k2 = h.k2",
                "SELECT g.v, h.w FROM g LEFT OUTER JOIN h ON g.k = h.k",
                "SELECT g.v, h.w FROM g LEFT OUTER JOIN h "
                "ON g.k = h.k AND g.k2 = h.k2",
                "SELECT h.k, count(*), sum(g.x) FROM g, h "
                "WHERE g.k = h.k GROUP BY h.k"):
            _same(agg_db, sql, forced_join_method="hash",
                  batch_size=batch_size)

    def test_integer_key_joins_double_key(self, agg_db):
        # 1 == 1.0: the bare keys of both types meet in one hash bucket.
        result = _same(agg_db, "SELECT g.v, d.y FROM g, d WHERE g.k = d.k",
                       forced_join_method="hash")
        assert result.rows
        _same(agg_db, "SELECT d.y, g.v FROM d, g WHERE d.k = g.k",
              forced_join_method="hash")

    @pytest.mark.parametrize("sql", [
        "SELECT k, count(*), sum(v), min(x), max(s) FROM g GROUP BY k",
        "SELECT k, avg(x), count(DISTINCT v) FROM g GROUP BY k",
        "SELECT count(*), sum(x), max(v) FROM g WHERE v > 2",
        "SELECT avg(v), count(DISTINCT k) FROM g"])
    def test_parallel_mergeable_and_not(self, agg_db, sql):
        _same(agg_db, sql, parallelism="on", dop=2)

    def test_registered_aggregate_steps_through_its_accumulator(self):
        from repro.datatypes import INTEGER
        from repro.functions.builtins import _Sum

        class Product:
            def __init__(self):
                self.value = 1

            def step(self, value):
                self.value *= value

            def final(self):
                return self.value

        class Doubled(_Sum):
            def step(self, value):
                super().step(2 * value)

        db = Database()
        db.execute("CREATE TABLE p (k INTEGER, v INTEGER)")
        db.execute("INSERT INTO p VALUES (1, 2), (1, 3), (2, NULL), "
                   "(2, 5), (NULL, 7)")
        db.register_aggregate_function("product", Product, INTEGER)
        sql = "SELECT k, product(v), sum(v), count(*) FROM p GROUP BY k"
        source = _sink_source(db, sql)
        assert "_afs[0].factory()" in source and "_afs[1]" not in source
        assert "_a[0].step(" in source and "_a[0].final()" in source
        result = _same(db, sql)
        assert result.rows == [(1, 6, 5, 2), (2, 5, 5, 2), (None, 7, 7, 1)]
        _same(db, "SELECT product(v), sum(v) FROM p")
        _same(db, "SELECT product(v) FROM p WHERE v > 99")
        # A subclass of a stock accumulator re-registered under its name.
        db.functions.register_aggregate(
            AggregateFunction("sum", Doubled, INTEGER), replace=True)
        db.catalog.bump_schema_epoch()
        assert ".step(" in _sink_source(db, sql)
        result = _same(db, sql)
        assert [row[2] for row in result.rows] == [10, 10, 14]

    def test_explain_analyze_counts_of_a_fused_group_by(self, agg_db):
        for sql in ("SELECT k, count(*) FROM g WHERE v > 3 GROUP BY k",
                    "SELECT k, sum(x) FROM g GROUP BY k "
                    "HAVING count(*) > 20",
                    "SELECT count(*), max(v) FROM g WHERE v > 99"):
            counts = []
            for mode in ("tuple", "auto"):
                trace = RequestTrace("t-counts", operators=True)
                agg_db.execute(sql, options=_options(
                    agg_db, execution_mode=mode), tracer=trace)
                counts.append(sorted(
                    (span.attrs["node"], span.attrs["op"],
                     span.attrs["rows"])
                    for span in trace.root.find("execute").children))
            assert counts[0] == counts[1], sql
