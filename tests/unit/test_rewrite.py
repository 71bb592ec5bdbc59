"""Unit tests for the rewrite engine and the base rule set."""

import pytest

from repro import Database
from repro.language.parser import parse_statement
from repro.language.translator import translate
from repro.qgm import render_qgm, validate_qgm
from repro.qgm.model import DistinctMode, SelectBox, SetOpBox
from repro.rewrite.engine import RewriteEngine, Rule


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER, b VARCHAR(10), c DOUBLE)")
    database.execute("CREATE TABLE u (x INTEGER PRIMARY KEY, y VARCHAR(10))")
    database.execute("CREATE VIEW vt AS SELECT a, c FROM t WHERE a > 0")
    return database


def rewritten(db, sql):
    graph = translate(parse_statement(sql), db)
    report = db.rewrite_engine.run(graph)
    validate_qgm(graph)
    return graph, report


class TestEngine:
    def test_fixpoint_reached(self, db):
        _graph, report = rewritten(db, "SELECT a FROM vt")
        assert report.fired >= 1
        assert not report.budget_exhausted

    def test_budget_stops_consistently(self, db):
        db.rewrite_engine.budget = 1
        graph, report = rewritten(
            db, "SELECT v1.a FROM vt v1, vt v2 WHERE v1.a = v2.a")
        assert report.budget_exhausted
        validate_qgm(graph)  # consistent state despite early stop
        db.rewrite_engine.budget = 1000

    def test_zero_budget(self, db):
        db.rewrite_engine.budget = 0
        graph = translate(parse_statement("SELECT a FROM vt"), db)
        report = db.rewrite_engine.run(graph)
        assert report.fired == 0 and report.budget_exhausted
        db.rewrite_engine.budget = 1000

    def test_control_strategies_agree_on_fixpoint(self, db):
        sql = ("SELECT v1.a FROM vt v1 WHERE v1.a IN "
               "(SELECT x FROM u WHERE y = 'k')")
        results = {}
        for control in (RewriteEngine.SEQUENTIAL, RewriteEngine.PRIORITY,
                        RewriteEngine.STATISTICAL):
            db.rewrite_engine.control = control
            graph, _report = rewritten(db, sql)
            results[control] = render_qgm(graph)
        db.rewrite_engine.control = RewriteEngine.SEQUENTIAL
        # All strategies converge to a merged single-select graph.
        for text in results.values():
            assert text.count("select#") == 1

    def test_search_strategies(self, db):
        for search in (RewriteEngine.DEPTH_FIRST,
                       RewriteEngine.BREADTH_FIRST):
            db.rewrite_engine.search = search
            graph, report = rewritten(db, "SELECT a FROM vt")
            assert report.fired >= 1
        db.rewrite_engine.search = RewriteEngine.DEPTH_FIRST

    def test_rule_classes_gate_rules(self, db):
        db.rewrite_engine.enabled_classes = ["projection"]
        _graph, report = rewritten(db, "SELECT a FROM vt")
        assert report.count("merge_select") == 0
        db.rewrite_engine.enabled_classes = None

    def test_disable_rule(self, db):
        db.rewrite_engine.disable_rule("merge_select")
        _graph, report = rewritten(db, "SELECT a FROM vt")
        assert report.count("merge_select") == 0
        db.rewrite_engine.enable_rule("merge_select")
        _graph, report = rewritten(db, "SELECT a FROM vt")
        assert report.count("merge_select") == 1

    def test_rule_switches_retire_cached_plans(self, db):
        # A plan cached while a rule was on must not be served once it
        # is off, nor the other way round.
        sql = "SELECT a FROM vt WHERE a > 0"
        db.execute(sql)
        db.rewrite_engine.disable_rule("merge_select")
        try:
            compiled, cached = db._cached_compile(
                sql, db._fingerprint(sql, db.settings.compile_options()),
                db.settings.compile_options())
            assert not cached
            assert compiled.rewrite_report.count("merge_select") == 0
        finally:
            db.rewrite_engine.enable_rule("merge_select")
        compiled, cached = db._cached_compile(
            sql, db._fingerprint(sql, db.settings.compile_options()),
            db.settings.compile_options())
        assert not cached
        assert compiled.rewrite_report.count("merge_select") == 1

    def test_custom_rule_and_class(self, db):
        seen = []

        def condition(context, box):
            if isinstance(box, SelectBox) and "tagged" not in box.annotations:
                return True
            return None

        def action(context, box, match):
            box.annotations["tagged"] = True
            seen.append(box.uid)

        db.register_rewrite_rule(Rule("tagger", condition, action),
                                 rule_class="user")
        _graph, report = rewritten(db, "SELECT a FROM t")
        assert report.count("tagger") >= 1
        assert seen
        db.rewrite_engine.remove_rule("tagger")


class TestViewMerging:
    def test_view_merged_into_consumer(self, db):
        graph, report = rewritten(db, "SELECT a FROM vt WHERE c > 1.0")
        selects = [b for b in graph.reachable_boxes()
                   if isinstance(b, SelectBox)]
        assert len(selects) == 1
        assert report.count("merge_select") == 1
        # both the view's predicate and the consumer's are on the one box
        assert len(selects[0].predicates) == 2

    def test_nested_views_fully_merged(self, db):
        db.execute("CREATE VIEW vv AS SELECT a FROM vt WHERE c < 100.0")
        graph, report = rewritten(db, "SELECT a FROM vv WHERE a < 50")
        selects = [b for b in graph.reachable_boxes()
                   if isinstance(b, SelectBox)]
        assert len(selects) == 1
        assert len(selects[0].predicates) == 3
        assert report.count("merge_select") == 2

    def test_shared_view_not_merged(self, db):
        """A multiply-referenced table expression must not be duplicated."""
        graph, _report = rewritten(
            db, "WITH s AS (SELECT a FROM t WHERE c > 0) "
                "SELECT s1.a FROM s s1, s s2 WHERE s1.a = s2.a")
        # the shared box survives with two consumers
        shared = [b for b in graph.reachable_boxes()
                  if len(graph.consumers(b)) == 2]
        assert shared

    def test_distinct_view_into_plain_consumer_not_merged(self, db):
        db.execute("CREATE VIEW dv AS SELECT DISTINCT a FROM t")
        graph, _report = rewritten(db, "SELECT a FROM dv")
        selects = [b for b in graph.reachable_boxes()
                   if isinstance(b, SelectBox)]
        assert len(selects) == 2  # ENFORCE inner / PRESERVE outer: no merge

    def test_distinct_view_into_distinct_consumer_merged(self, db):
        db.execute("CREATE VIEW dv2 AS SELECT DISTINCT a FROM t")
        graph, _report = rewritten(db, "SELECT DISTINCT a FROM dv2")
        selects = [b for b in graph.reachable_boxes()
                   if isinstance(b, SelectBox)]
        assert len(selects) == 1
        assert selects[0].head.distinct is DistinctMode.ENFORCE


class TestSubqueryToJoin:
    def test_unique_key_conversion(self, db):
        graph, report = rewritten(
            db, "SELECT a FROM t WHERE a IN (SELECT x FROM u)")
        assert report.count("subquery_to_join") == 1
        # after conversion + merge: one box, two setformers
        assert len(graph.root.setformers()) == 2
        assert graph.root.subquery_quantifiers() == []

    def test_non_unique_forces_distinct(self, db):
        graph, report = rewritten(
            db, "SELECT x FROM u WHERE x IN (SELECT a FROM t)")
        assert report.count("subquery_to_join") == 1
        # t.a is not unique: the subquery side must enforce distinctness,
        # blocking the merge (outer preserves duplicates).
        inner = [b for b in graph.reachable_boxes()
                 if b is not graph.root and isinstance(b, SelectBox)]
        assert len(inner) == 1
        assert inner[0].head.distinct is DistinctMode.ENFORCE

    def test_correlated_inequality_not_converted(self, db):
        _graph, report = rewritten(
            db, "SELECT a FROM t WHERE EXISTS "
                "(SELECT 1 FROM u WHERE u.x > t.a)")
        assert report.count("subquery_to_join") == 0


class TestPredicateMigration:
    def test_pushdown_into_view(self, db):
        db.rewrite_engine.disable_rule("merge_select")
        graph, report = rewritten(db, "SELECT a FROM vt WHERE a < 10")
        db.rewrite_engine.enable_rule("merge_select")
        assert report.count("push_into_select") == 1
        inner = [b for b in graph.reachable_boxes()
                 if isinstance(b, SelectBox) and b is not graph.root][0]
        assert len(inner.predicates) == 2  # original + pushed
        assert len(graph.root.predicates) == 0

    def test_pushdown_into_union_branches(self, db):
        graph, report = rewritten(
            db, "SELECT * FROM (SELECT a FROM t UNION ALL SELECT x FROM u) "
                "s (v) WHERE s.v > 3")
        assert report.count("push_into_setop") == 1
        union = [b for b in graph.reachable_boxes()
                 if isinstance(b, SetOpBox)][0]
        for quantifier in union.quantifiers:
            assert len(quantifier.input.predicates) == 1

    def test_pushdown_through_groupby_keys_only(self, db):
        graph, report = rewritten(
            db, "SELECT * FROM (SELECT b, count(*) n FROM t GROUP BY b) "
                "g WHERE g.b = 'k'")
        assert report.count("push_into_groupby") == 1
        # ... and then through the GROUP BY into the lower select
        assert report.count("push_into_select") >= 1

    def test_aggregate_filter_not_pushed(self, db):
        _graph, report = rewritten(
            db, "SELECT * FROM (SELECT b, count(*) n FROM t GROUP BY b) "
                "g WHERE g.n > 1")
        assert report.count("push_into_groupby") == 0

    def test_transitivity(self, db):
        graph, report = rewritten(
            db, "SELECT t.a FROM t, u WHERE t.a = u.x AND t.a = 5")
        assert report.count("predicate_transitivity") == 1
        texts = [repr(p.expr) for p in graph.root.predicates]
        assert any("u" in text and "5" in text for text in texts) or any(
            "x" in text and "5" in text for text in texts)


class TestProjectionPushdown:
    def test_unused_columns_dropped(self, db):
        db.rewrite_engine.disable_rule("merge_select")
        graph, report = rewritten(db, "SELECT a FROM vt")
        db.rewrite_engine.enable_rule("merge_select")
        assert report.count("projection_pushdown") >= 1
        inner = [b for b in graph.reachable_boxes()
                 if isinstance(b, SelectBox) and b is not graph.root][0]
        assert inner.output_names() == ["a"]

    def test_root_head_never_trimmed(self, db):
        graph, _report = rewritten(db, "SELECT a, b, c FROM t")
        assert graph.root.output_names() == ["a", "b", "c"]


class TestRedundantJoin:
    def test_self_join_on_pk_eliminated(self, db):
        graph, report = rewritten(
            db, "SELECT u1.y FROM u u1, u u2 "
                "WHERE u1.x = u2.x AND u2.y = 'k'")
        assert report.count("redundant_join_elimination") == 1
        assert len(graph.root.setformers()) == 1
        # u2's predicate survives, retargeted to u1
        assert len(graph.root.predicates) == 1

    def test_non_unique_join_kept(self, db):
        _graph, report = rewritten(
            db, "SELECT t1.a FROM t t1, t t2 WHERE t1.a = t2.a")
        assert report.count("redundant_join_elimination") == 0


class TestMagic:
    def test_seed_restriction_pushed_to_base(self, db):
        db.execute("CREATE TABLE edges (src INTEGER, dst INTEGER)")
        sql = ("WITH RECURSIVE reach(s, d) AS ("
               "SELECT src, dst FROM edges UNION ALL "
               "SELECT r.s, e.dst FROM reach r, edges e WHERE e.src = r.d) "
               "SELECT d FROM reach WHERE s = 1")
        graph, report = rewritten(db, sql)
        assert report.count("magic_seed_restriction") == 1
        union = [b for b in graph.reachable_boxes()
                 if isinstance(b, SetOpBox) and b.is_recursive][0]
        base_branches = [q.input for q in union.quantifiers
                         if not any(iq.input is union
                                    for iq in q.input.quantifiers)]
        assert all(len(b.predicates) >= 1 for b in base_branches)

    def test_not_applied_when_column_rewritten(self, db):
        db.execute("CREATE TABLE e2 (src INTEGER, dst INTEGER)")
        # the recursive branch *changes* column s: restriction is unsound
        sql = ("WITH RECURSIVE w(s, d) AS ("
               "SELECT src, dst FROM e2 UNION ALL "
               "SELECT w.s + 1, e.dst FROM w, e2 e WHERE e.src = w.d) "
               "SELECT d FROM w WHERE s = 1")
        _graph, report = rewritten(db, sql)
        assert report.count("magic_seed_restriction") == 0


class TestRuleIndexing:
    """§5 future work implemented: rule indexing by box kind."""

    def test_index_reduces_condition_checks(self, db):
        sql = "SELECT a FROM vt WHERE a IN (SELECT x FROM u)"
        db.rewrite_engine.use_rule_index = True
        _graph, indexed = rewritten(db, sql)
        db.rewrite_engine.use_rule_index = False
        _graph, unindexed = rewritten(db, sql)
        db.rewrite_engine.use_rule_index = True
        assert indexed.fired == unindexed.fired
        assert indexed.conditions_checked < unindexed.conditions_checked

    def test_unannotated_rule_checked_everywhere(self, db):
        from repro.rewrite.engine import Rule

        seen_kinds = set()

        def condition(context, box):
            seen_kinds.add(box.kind)
            return None

        db.register_rewrite_rule(Rule("spy", condition, lambda c, b, m: None))
        rewritten(db, "SELECT a FROM t UNION SELECT x FROM u")
        db.rewrite_engine.remove_rule("spy")
        assert "setop" in seen_kinds and "base_table" in seen_kinds

    def test_annotated_rule_skips_other_kinds(self, db):
        from repro.rewrite.engine import Rule

        seen_kinds = set()

        def condition(context, box):
            seen_kinds.add(box.kind)
            return None

        db.register_rewrite_rule(Rule("spy2", condition,
                                      lambda c, b, m: None,
                                      box_kinds=("setop",)))
        rewritten(db, "SELECT a FROM t UNION SELECT x FROM u")
        db.rewrite_engine.remove_rule("spy2")
        assert seen_kinds == {"setop"}
