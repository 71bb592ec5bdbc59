"""Plan-cache unit suite: fingerprinting, the LRU, epoch invalidation,
prepared statements and re-execution safety.

The invalidation tests drive everything through ``Database.cache_stats()``
and the ``timings.pipeline`` marker so they prove the property the cache
promises: a DDL or statistics change drops *exactly* the entries whose
dependency set it touches, and nothing else.
"""

from __future__ import annotations

import pytest

from repro import CompileOptions, Database
from repro.catalog.catalog import STATS_DML_FLOOR
from repro.core.plancache import PlanCache, fingerprint_statement
from repro.datatypes import INTEGER
from repro.errors import CatalogError, ExecutionError, SemanticError
from repro.executor.context import ExecutionContext
from repro.executor.run import execute_plan

POINT = "SELECT v FROM t WHERE id = ?"
POINT_U = "SELECT w FROM u WHERE id = ?"


def make_db() -> Database:
    db = Database(pool_capacity=64)
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))")
    db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, w VARCHAR(10))")
    for i in range(8):
        db.execute("INSERT INTO t VALUES (?, ?)", [i, "t%d" % i])
        db.execute("INSERT INTO u VALUES (?, ?)", [i, "u%d" % i])
    return db


class TestFingerprint:
    def test_whitespace_case_and_comments_share_a_key(self):
        variants = [
            "SELECT v FROM t WHERE id = ?",
            "select v from t where id = ?",
            "SELECT v\n  FROM t\n  WHERE id = ?",
            "-- point lookup\nSELECT v FROM t WHERE id = ? ;",
            "SELECT /* hint-free */ v FROM t WHERE id = ?",
        ]
        keys = {fingerprint_statement(sql).key for sql in variants}
        assert len(keys) == 1

    def test_marker_styles_share_a_key(self):
        positional = fingerprint_statement(POINT)
        named = fingerprint_statement("SELECT v FROM t WHERE id = :pk")
        assert positional.key == named.key
        assert named.recipe.user_params == 1

    def test_operator_spelling_is_canonical(self):
        a = fingerprint_statement("SELECT v FROM t WHERE id != 3")
        b = fingerprint_statement("SELECT v FROM t WHERE id <> 3")
        assert a.key == b.key

    def test_different_statements_differ(self):
        assert fingerprint_statement(POINT).key != \
            fingerprint_statement(POINT_U).key
        # without constant parameterization literals are part of the key
        assert fingerprint_statement("SELECT v FROM t WHERE id = 7").key \
            != fingerprint_statement("SELECT v FROM t WHERE id = 9").key

    def test_number_hash_keeps_types_apart(self):
        # 1.0 and 1.00 are one DOUBLE; 1 is an INTEGER and must differ.
        assert fingerprint_statement("SELECT v FROM t WHERE id = 1.0").key \
            == fingerprint_statement("SELECT v FROM t WHERE id = 1.00").key
        assert fingerprint_statement("SELECT v FROM t WHERE id = 1").key \
            != fingerprint_statement("SELECT v FROM t WHERE id = 1.0").key

    def test_ddl_and_explain_are_uncacheable(self):
        assert not fingerprint_statement(
            "CREATE TABLE x (i INTEGER)").cacheable
        assert not fingerprint_statement("DROP TABLE t").cacheable
        assert not fingerprint_statement("EXPLAIN SELECT 1").cacheable
        assert fingerprint_statement("SELECT 1").cacheable

    def test_constant_parameterization_shares_plans(self):
        a = fingerprint_statement("SELECT v FROM t WHERE id = 7",
                                  parameterize_constants=True)
        b = fingerprint_statement("SELECT v FROM t WHERE id = 9",
                                  parameterize_constants=True)
        assert a.key == b.key
        assert a.recipe.steps == (("const", 7),)
        assert a.recipe.user_params == 0
        # the literal's type class stays in the key: whether a statement
        # type-checks can depend on it
        c = fingerprint_statement("SELECT v FROM t WHERE id = 'x'",
                                  parameterize_constants=True)
        assert c.key != a.key
        d = fingerprint_statement("SELECT v FROM t WHERE id = 7.5",
                                  parameterize_constants=True)
        assert d.key != a.key

    def test_type_errors_survive_parameterization(self):
        # a VARCHAR-vs-INTEGER comparison is a compile-time error; lifting
        # the 3 into an untyped parameter must not make it disappear
        # (found by the differential sweep, seed 138)
        db = make_db()
        options = CompileOptions(constant_parameterization=True)
        sql = ("SELECT SUM(id) FROM t GROUP BY v "
               "HAVING (MAX(v) < 3)")
        with pytest.raises(SemanticError):
            db.execute(sql, options=CompileOptions())
        with pytest.raises(SemanticError):
            db.execute(sql, options=options)
        # the same shape over an INTEGER column is fine and gets cached
        ok = "SELECT SUM(id) FROM t GROUP BY v HAVING (MAX(id) < 100)"
        assert db.execute(ok, options=options).rows
        assert db.execute(ok, options=options).timings.pipeline == "cached"

    def test_recipe_interleaves_user_params_and_constants(self):
        fp = fingerprint_statement(
            "SELECT v FROM t WHERE id = ? AND v = 'x' AND id < 9",
            parameterize_constants=True)
        assert fp.recipe.steps == (("user", 0), ("const", "x"),
                                   ("const", 9))
        assert fp.recipe.bind([7]) == [7, "x", 9]

    def test_literal_vs_literal_is_left_alone(self):
        fp = fingerprint_statement("SELECT v FROM t WHERE 1 = 1",
                                   parameterize_constants=True)
        assert fp.recipe.steps == ()
        assert fp.compile_text("SELECT v FROM t WHERE 1 = 1") == \
            "SELECT v FROM t WHERE 1 = 1"


class TestServingPath:
    def test_second_execution_is_a_cache_hit(self):
        db = make_db()
        first = db.execute(POINT, [3])
        again = db.execute("select v\nfrom t  where id = :pk", [3])
        assert first.timings.pipeline == "compiled"
        assert again.timings.pipeline == "cached"
        assert first.rows == again.rows == [("t3",)]
        stats = db.cache_stats()
        assert stats["hits"] >= 1
        entry = [e for e in stats["per_entry"]
                 if e["statement"] == POINT][0]
        assert entry["hits"] == 1
        assert entry["dependencies"] == ["t"]

    def test_option_variants_get_separate_entries(self):
        db = make_db()
        db.execute(POINT, [3])
        result = db.execute(POINT, [3],
                            options=CompileOptions(rewrite_enabled=False))
        assert result.timings.pipeline == "compiled"
        assert db.cache_stats()["entries"] >= 2

    def test_constant_parameterization_end_to_end(self):
        db = make_db()
        options = CompileOptions(constant_parameterization=True)
        a = db.execute("SELECT v FROM t WHERE id = 3", options=options)
        b = db.execute("SELECT v FROM t WHERE id = 5", options=options)
        assert a.rows == [("t3",)] and b.rows == [("t5",)]
        assert b.timings.pipeline == "cached"

    def test_lru_eviction(self):
        db = make_db()
        db.plan_cache = PlanCache(2)
        db.execute("SELECT v FROM t WHERE id = 1")
        db.execute("SELECT v FROM t WHERE id = 2")
        db.execute("SELECT v FROM t WHERE id = 3")
        assert len(db.plan_cache) == 2
        assert db.plan_cache.evictions == 1
        # the oldest entry was evicted: re-running it recompiles
        assert db.execute("SELECT v FROM t WHERE id = 1") \
            .timings.pipeline == "compiled"

    def test_cache_disabled_by_options(self):
        db = make_db()
        options = CompileOptions(plan_cache=False)
        before = db.cache_stats()
        db.execute(POINT, [1], options=options)
        db.execute(POINT, [1], options=options)
        after = db.cache_stats()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]
        assert after["entries"] == before["entries"]


class TestInvalidation:
    def _warm(self, db):
        db.execute(POINT, [3])
        db.execute(POINT_U, [3])
        assert db.execute(POINT, [3]).timings.pipeline == "cached"
        assert db.execute(POINT_U, [3]).timings.pipeline == "cached"

    def test_index_ddl_drops_exactly_dependent_entries(self):
        db = make_db()
        self._warm(db)
        db.execute("CREATE INDEX it ON t (id)")
        assert db.execute(POINT, [3]).timings.pipeline == "compiled"
        assert db.execute(POINT_U, [3]).timings.pipeline == "cached"
        assert db.cache_stats()["schema_invalidations"] == 1
        db.execute("DROP INDEX it")
        assert db.execute(POINT, [3]).timings.pipeline == "compiled"
        assert db.execute(POINT_U, [3]).timings.pipeline == "cached"
        assert db.cache_stats()["schema_invalidations"] == 2

    def test_unrelated_create_table_invalidates_nothing(self):
        db = make_db()
        self._warm(db)
        db.execute("CREATE TABLE fresh (id INTEGER)")
        assert db.execute(POINT, [3]).timings.pipeline == "cached"
        assert db.execute(POINT_U, [3]).timings.pipeline == "cached"
        assert db.cache_stats()["schema_invalidations"] == 0

    def test_function_registration_invalidates_everything(self):
        # Registry-wide events (a new function could change how any
        # statement resolves) raise the global schema floor.
        db = make_db()
        self._warm(db)
        db.register_scalar_function("twice", lambda x: x * 2, INTEGER,
                                    arity=1)
        assert db.execute(POINT, [3]).timings.pipeline == "compiled"
        assert db.execute(POINT_U, [3]).timings.pipeline == "compiled"
        assert db.cache_stats()["schema_invalidations"] == 2

    def test_recompute_invalidates_exactly_dependent_entries(self):
        db = make_db()
        self._warm(db)
        db.analyze("t")
        assert db.execute(POINT, [3]).timings.pipeline == "compiled"
        assert db.execute(POINT_U, [3]).timings.pipeline == "cached"
        stats = db.cache_stats()
        assert stats["stats_invalidations"] == 1
        assert stats["schema_invalidations"] == 0
        entry = [e for e in stats["per_entry"]
                 if e["statement"] == POINT][0]
        assert entry["recompiles"] == 1

    def test_large_dml_delta_invalidates_dependent_entries(self):
        db = make_db()
        self._warm(db)
        before = db.catalog.stats_epoch
        for i in range(STATS_DML_FLOOR):
            db.execute("INSERT INTO t VALUES (?, ?)", [100 + i, "x"])
        assert db.catalog.stats_epoch > before
        assert db.execute(POINT, [3]).timings.pipeline == "compiled"
        assert db.execute(POINT_U, [3]).timings.pipeline == "cached"
        # the point lookup on t recompiled (the INSERT entry on t may
        # have been stats-invalidated too); nothing on u was touched
        stats = db.cache_stats()
        assert stats["stats_invalidations"] >= 1
        entry = [e for e in stats["per_entry"]
                 if e["statement"] == POINT][0]
        assert entry["recompiles"] == 1
        entry_u = [e for e in stats["per_entry"]
                   if e["statement"] == POINT_U][0]
        assert entry_u["recompiles"] == 0

    def test_view_dependency_tracks_underlying_ddl(self):
        db = make_db()
        db.execute("CREATE VIEW big AS SELECT v FROM t WHERE id > 2")
        sql = "SELECT v FROM big"
        db.execute(sql)
        assert db.execute(sql).timings.pipeline == "cached"
        db.execute("CREATE INDEX it ON t (id)")
        assert db.execute(sql).timings.pipeline == "compiled"


class TestPrepared:
    def test_prepare_execute_many(self):
        db = make_db()
        ready = db.prepare(POINT)
        assert ready.parameter_count == 1
        assert [ready.execute([i]).scalar() for i in range(3)] == \
            ["t0", "t1", "t2"]
        # prepare compiled once; both executes after it were hits
        assert db.cache_stats()["hits"] >= 2

    def test_parameter_count_is_checked(self):
        db = make_db()
        ready = db.prepare(POINT)
        with pytest.raises(ExecutionError):
            ready.execute([])
        with pytest.raises(ExecutionError):
            ready.execute([1, 2])

    def test_prepare_rejects_ddl(self):
        db = make_db()
        with pytest.raises(SemanticError):
            db.prepare("CREATE TABLE nope (i INTEGER)")
        with pytest.raises(SemanticError):
            db.prepare("EXPLAIN SELECT 1")

    def test_prepared_survives_invalidation(self):
        db = make_db()
        ready = db.prepare(POINT)
        assert ready.execute([3]).scalar() == "t3"
        db.execute("CREATE INDEX it ON t (id)")
        # the plan underneath was dropped; execute recompiles quietly
        assert ready.execute([4]).scalar() == "t4"
        assert db.cache_stats()["schema_invalidations"] == 1

    def test_constant_parameterization_prepare(self):
        db = make_db()
        options = CompileOptions(constant_parameterization=True)
        ready = db.prepare("SELECT v FROM t WHERE id = 5",
                           options=options)
        assert ready.parameter_count == 0
        assert ready.execute([]).scalar() == "t5"


class TestCompileRacesDDL:
    """A DDL that lands while a statement compiles: the plan was built
    against the catalog before it, so it must not be served after it.
    Entries carry the epochs read as the compile began."""

    SQL = "SELECT b FROM r WHERE a = 7"

    @staticmethod
    def _racing_db(monkeypatch):
        from repro.core import pipeline

        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        txn = db.begin()
        for i in range(500):
            db.engine.insert(txn, "r", (i, i * 10))
        db.commit(txn)
        db.execute("CREATE INDEX ia ON r (a)")
        db.analyze()
        real_refine = pipeline.refine_plan
        dropped = []

        def refine_then_drop(plan, functions):
            # The plan probes ia; the index goes before the compile ends.
            if not dropped:
                dropped.append(True)
                db.execute("DROP INDEX ia")
            return real_refine(plan, functions)

        monkeypatch.setattr(pipeline, "refine_plan", refine_then_drop)
        return db

    def test_a_plan_compiled_across_ddl_is_not_served(self, monkeypatch):
        db = self._racing_db(monkeypatch)
        with pytest.raises(CatalogError, match="no index ia"):
            db.execute(self.SQL)  # that one run had the old plan
        assert db.execute(self.SQL).rows == [(70,)]
        assert db.execute(self.SQL).rows == [(70,)]
        assert db.execute(self.SQL).timings.pipeline == "cached"

    def test_a_prepare_across_ddl_recompiles_on_execute(self, monkeypatch):
        db = self._racing_db(monkeypatch)
        ready = db.prepare(self.SQL)
        assert ready.execute().rows == [(70,)]
        assert ready.execute().rows == [(70,)]


class TestReExecutionSafety:
    def test_each_execution_owns_its_timings(self):
        """A cached plan run again must not rewrite the timings of a
        result already returned (nor share them with a concurrent
        run)."""
        db = make_db()
        first = db.execute(POINT, [3])
        first_execute = first.timings.execute
        second = db.execute(POINT, [4])
        third = db.execute(POINT, [5])
        assert first.timings.pipeline == "compiled"
        assert first.timings.execute == first_execute
        assert second.timings.pipeline == third.timings.pipeline == \
            "cached"
        assert len({id(first.timings), id(second.timings),
                    id(third.timings)}) == 3
        # Compile phases are the plan's, shared by every run of it.
        assert second.timings.parse == first.timings.parse > 0
        entry = db.plan_cache.peek(
            db.catalog, (fingerprint_statement(POINT).key,
                         db.settings.compile_options().key))
        assert entry.compiled.timings.execute == 0.0

    def test_compiled_statement_is_reusable(self):
        db = make_db()
        compiled = db.compile("SELECT v FROM t WHERE id < 4 ORDER BY id")
        first = db.run_compiled(compiled).rows
        second = db.run_compiled(compiled).rows
        assert first == second == [("t0",), ("t1",), ("t2",), ("t3",)]

    def test_interleaved_iteration_of_one_plan(self):
        # Two executions of the same cached plan may overlap (a prepared
        # statement re-executed while an earlier cursor is still open):
        # all run-time state must live in the ExecutionContext.
        db = make_db()
        compiled = db.compile("SELECT v FROM t WHERE id < 4 ORDER BY id")

        def cursor():
            ctx = ExecutionContext(db.engine, db.functions, (), None)
            ctx.join_kinds = db.join_kinds
            return execute_plan(compiled.plan, ctx)

        a, b = cursor(), cursor()
        rows_a, rows_b = [], []
        for _ in range(4):
            rows_a.append(next(a))
            rows_b.append(next(b))
        reference = db.run_compiled(compiled).rows
        # execute_plan yields the raw pipeline rows (ORDER BY keys still
        # appended); trim to the statement's visible columns
        visible = compiled.qgm.visible_columns
        assert [tuple(r[:visible]) for r in rows_a] == reference
        assert [tuple(r[:visible]) for r in rows_b] == reference


class TestExplainStatus:
    def test_explain_reports_cache_state(self):
        db = make_db()
        before = db.explain(POINT)
        assert "plan: not cached" in before
        db.execute(POINT, [3])
        after = db.explain(POINT)
        assert "plan: cached, epoch=" in after
        assert "schema_epoch=" in after and "stats_epoch=" in after
        off = db.explain(POINT, options=CompileOptions(plan_cache=False))
        assert "plan: cache off" in off


class TestStatisticsRegression:
    def test_incremental_distinct_drives_point_selectivity(self):
        # Satellite fix: before, ``observe`` never bumped ``n_distinct``,
        # so an un-ANALYZEd table fell back to rows/10 distinct values and
        # a point predicate was costed at 10 matching rows instead of 1.
        db = Database(pool_capacity=64)
        db.execute("CREATE TABLE seq (id INTEGER, v VARCHAR(10))")
        for i in range(50):
            db.execute("INSERT INTO seq VALUES (?, ?)", [i, "x"])
        assert db.catalog.statistics("seq").n_distinct("id") == 50
        compiled = db.compile("SELECT v FROM seq WHERE id = 25")
        assert compiled.plan.props.card == pytest.approx(1.0)


class TestAdmissionPolicy:
    """Cost-aware admission: a one-off bulk write must not evict the hot
    parameterized statements the cache exists for."""

    def test_bulk_dml_is_rejected(self):
        db = make_db()
        db.execute("CREATE TABLE big (id INTEGER, v VARCHAR(10))")
        for i in range(600):
            db.execute("INSERT INTO big VALUES (?, ?)", [i, "x"])
        db.analyze()
        before = db.cache_stats()["admissions_rejected"]
        result = db.execute("UPDATE big SET v = 'y'")
        assert result.rowcount == 600
        assert db.cache_stats()["admissions_rejected"] == before + 1
        # The rejected statement re-executes correctly, still uncached.
        assert db.execute("UPDATE big SET v = 'z'").rowcount == 600
        assert db.cache_stats()["admissions_rejected"] == before + 2
        assert db.execute(
            "SELECT count(*) FROM big WHERE v = 'z'").scalar() == 600

    def test_point_dml_is_still_admitted(self):
        db = make_db()
        entries = db.cache_stats()["entries"]
        db.execute("UPDATE t SET v = ? WHERE id = ?", ["new", 3])
        assert db.cache_stats()["entries"] == entries + 1
        db.execute("UPDATE t SET v = ? WHERE id = ?", ["newer", 3])
        assert db.cache_stats()["hits"] >= 1
        assert db.cache_stats()["admissions_rejected"] == 0

    def test_queries_bypass_the_admission_gate(self):
        db = make_db()
        db.execute("CREATE TABLE wide (id INTEGER, v VARCHAR(10))")
        for i in range(600):
            db.execute("INSERT INTO wide VALUES (?, ?)", [i, "x"])
        db.analyze()
        before = db.cache_stats()
        assert db.execute("SELECT count(*) FROM wide").scalar() == 600
        after = db.cache_stats()
        assert after["entries"] == before["entries"] + 1
        assert after["admissions_rejected"] == before["admissions_rejected"]

    def test_explicit_prepare_skips_admission(self):
        # PREPARE is a declared intent to reuse; even a bulk statement
        # goes straight into the cache.
        db = make_db()
        db.execute("CREATE TABLE big (id INTEGER, v VARCHAR(10))")
        for i in range(600):
            db.execute("INSERT INTO big VALUES (?, ?)", [i, "x"])
        db.analyze()
        entries = db.cache_stats()["entries"]
        db.prepare("UPDATE big SET v = ?")
        assert db.cache_stats()["entries"] == entries + 1
        assert db.cache_stats()["admissions_rejected"] == 0
