"""Unit tests for the pipeline-fusion codegen backend.

Everything is driven through SQL: the ExecBackend STAR, region
validation, pipeline splitting at breakers, source generation, the
cross-statement code-object cache, and the runtime drivers are exercised
exactly as a user would hit them with ``execution_mode="compiled"``.
"""

from __future__ import annotations

import pytest

from repro import CompileOptions, Database
from repro.errors import SubqueryError
from repro.executor.codegen import codegen_cache_stats
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
        db, execution_mode="compiled", **overrides))


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
        db, execution_mode="compiled", **overrides))
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
            other, execution_mode="compiled"))
        after = codegen_cache_stats()
        assert got.rows == [(1, 9)]
        assert after["hits"] > before["hits"]
        assert after["entries"] == before["entries"]


class TestExplainAndTrace:
    def test_explain_marks_fused_regions(self, cg_db):
        text = cg_db.explain(
            "SELECT t.a, s.v FROM t, s WHERE t.b = s.k",
            options=_options(cg_db, execution_mode="compiled"))
        assert "backend=compiled" in text
        assert "fused=2" in text

    def test_trace_emits_one_event_per_pipeline(self, cg_db):
        trace = RequestTrace("t-codegen")
        cg_db.compile("SELECT t.a, s.v FROM t, s WHERE t.b = s.k",
                      options=_options(cg_db, execution_mode="compiled"),
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
    """Uncorrelated scalar subqueries under the compiled mode: the
    PROJECT stays on the interpreter (evaluate-on-demand), over a fused
    scan."""

    SQL = "SELECT a, b + (SELECT MAX(v) FROM s) FROM t WHERE a < 20"

    def test_batch_matches_tuple(self, cg_db):
        ref = cg_db.execute(self.SQL, options=_options(
            cg_db, execution_mode="tuple"))
        got = cg_db.execute(self.SQL, options=_options(
            cg_db, execution_mode="compiled"))
        assert got.rows == ref.rows
        assert got.stats.subquery_evaluations >= 1

    def test_empty_subquery_yields_null(self, cg_db):
        sql = "SELECT a, (SELECT MAX(v) FROM s WHERE v > 999) FROM t " \
              "WHERE a < 3"
        got = cg_db.execute(sql, options=_options(
            cg_db, execution_mode="compiled"))
        assert got.rows == [(0, None), (1, None), (2, None)]

    def test_multi_row_subquery_raises_in_both_backends(self, cg_db):
        sql = "SELECT a, (SELECT v FROM s) FROM t"
        for mode in ("tuple", "compiled"):
            with pytest.raises(SubqueryError):
                cg_db.execute(sql, options=_options(
                    cg_db, execution_mode=mode))

    def test_subquery_not_run_when_outer_is_empty(self, cg_db):
        sql = "SELECT a, (SELECT v FROM s) FROM t WHERE a < -1"
        for mode in ("tuple", "compiled"):
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
            cg_db, execution_mode="compiled"))
        assert got.rows == ref.rows
