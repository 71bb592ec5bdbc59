"""Unit tests for the optimizer: cost model, STARs, properties, glue,
join enumeration, and plan shapes."""

import pytest

from repro import CompileOptions, Database
from repro.datatypes import BOOLEAN, INTEGER
from repro.language.parser import parse_statement
from repro.language.translator import translate
from repro.optimizer.boxopt import Optimizer
from repro.optimizer.cost import CPU_WEIGHT, CostModel
from repro.optimizer.enumerator import JoinEnumerator, prune_plans
from repro.optimizer.plans import (
    HashJoin,
    IndexScan,
    MergeJoin,
    NLJoin,
    Sort,
    SubqueryJoin,
    TableScan,
    Temp,
)
from repro.optimizer.properties import PlanProperties, order_key
from repro.optimizer.stars import Alternative, STAR, default_star_array
from repro.qgm import expressions as qe


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE big (k INTEGER PRIMARY KEY, "
                     "g INTEGER, v DOUBLE)")
    database.execute("CREATE TABLE small (k INTEGER PRIMARY KEY, "
                     "name VARCHAR(10))")
    for i in range(400):
        database.execute("INSERT INTO big VALUES (%d, %d, %f)"
                         % (i, i % 20, i * 1.0))
    for i in range(20):
        database.execute("INSERT INTO small VALUES (%d, 'n%d')" % (i, i))
    database.analyze()
    return database


def plan_for(db, sql, **settings_kwargs):
    graph = translate(parse_statement(sql), db)
    db.rewrite_engine.run(graph)
    settings = CompileOptions(**settings_kwargs)
    optimizer = Optimizer(db.catalog, engine=db.engine, settings=settings,
                          functions=db.functions)
    return optimizer.optimize(graph), optimizer


def ops_in(plan):
    return [type(node).__name__ for node in plan.walk()]


class TestCostModel:
    def test_equality_selectivity_uses_distinct(self, db):
        cm = CostModel(db.catalog)
        graph = translate(parse_statement("SELECT k FROM big WHERE g = 3"),
                          db)
        predicate = graph.root.predicates[0]
        assert cm.selectivity(predicate) == pytest.approx(1 / 20)

    def test_range_interpolation(self, db):
        cm = CostModel(db.catalog)
        graph = translate(parse_statement("SELECT k FROM big WHERE k < 100"),
                          db)
        predicate = graph.root.predicates[0]
        assert 0.15 < cm.selectivity(predicate) < 0.35  # ~25% of [0,399]

    def test_and_multiplies(self, db):
        cm = CostModel(db.catalog)
        graph = translate(parse_statement(
            "SELECT k FROM big WHERE g = 3 AND g = 4"), db)
        total = 1.0
        for predicate in graph.root.predicates:
            total *= cm.selectivity(predicate)
        assert total == pytest.approx(1 / 400)

    def test_like_and_default(self, db):
        cm = CostModel(db.catalog)
        graph = translate(parse_statement(
            "SELECT k FROM small WHERE name LIKE 'n%'"), db)
        assert cm.selectivity(graph.root.predicates[0]) == pytest.approx(0.1)

    def test_hash_build_row_costs_more_than_a_probe_row(self, db):
        # The join enumerator costs both orientations; this is what
        # makes it build on the small side whatever the FROM order.
        cm = CostModel(db.catalog)
        assert cm.hash_cost(10.0, 5000.0) < cm.hash_cost(5000.0, 10.0)
        # GROUP BY / DISTINCT tables (no probe side) price as before.
        for rows in (0.0, 1.0, 250.0, 1e6):
            assert cm.hash_cost(rows, 0.0) == pytest.approx(
                rows * CPU_WEIGHT * 1.2)


class TestStarEngine:
    def test_rule_count_under_20(self):
        """The paper: R* strategies and more 'in under 20 rules'."""
        stars = default_star_array()
        total = sum(len(star.alternatives) for star in stars.values())
        assert total < 20
        assert total >= 8

    def test_rank_pruning(self, db):
        plan_cheap, optimizer = plan_for(
            db, "SELECT b.v FROM big b, small s WHERE b.k = s.k",
            rank_cutoff=1.0)  # prunes merge (rank 2.0) and hash (1.5)
        names = ops_in(plan_cheap)
        assert "MergeJoin" not in names and "HashJoin" not in names
        assert optimizer.generator.stats.alternatives_pruned > 0

    def test_add_remove_alternative(self, db):
        graph = translate(parse_statement(
            "SELECT b.v FROM big b, small s WHERE b.k = s.k"), db)
        optimizer = Optimizer(db.catalog, engine=db.engine,
                              functions=db.functions)
        optimizer.generator.remove_alternative("MergeJoinAlt", "Merge")
        plan = optimizer.optimize(graph)
        assert "MergeJoin" not in ops_in(plan)

    def test_custom_star(self, db):
        optimizer = Optimizer(db.catalog, engine=db.engine,
                              functions=db.functions)
        star = STAR("MyRule", [Alternative(
            "only", lambda gen, args: [args["plan"]])])
        optimizer.generator.add_star(star)
        sentinel = object()
        assert optimizer.generator.evaluate("MyRule", plan=sentinel) == [sentinel]

    def test_generator_stats(self, db):
        _plan, optimizer = plan_for(
            db, "SELECT b.v FROM big b, small s WHERE b.k = s.k")
        stats = optimizer.generator.stats
        assert stats.star_evaluations > 0
        assert stats.plans_generated > 0


class TestAccessSelection:
    def test_index_chosen_for_selective_equality(self, db):
        plan, _opt = plan_for(db, "SELECT v FROM big WHERE k = 7")
        assert "IndexScan" in ops_in(plan)

    def test_scan_chosen_without_index(self, db):
        plan, _opt = plan_for(db, "SELECT v FROM big WHERE g = 7")
        names = ops_in(plan)
        assert "TableScan" in names and "IndexScan" not in names

    def test_range_uses_btree(self, db):
        plan, _opt = plan_for(db, "SELECT v FROM big WHERE k < 5")
        assert "IndexScan" in ops_in(plan)

    def test_unselective_range_prefers_scan(self, db):
        plan, _opt = plan_for(db, "SELECT v FROM big WHERE k >= 0")
        iscans = [n for n in plan.walk() if isinstance(n, IndexScan)]
        scans = [n for n in plan.walk() if isinstance(n, TableScan)]
        assert scans and not iscans

    def test_predicates_pushed_into_scan(self, db):
        plan, _opt = plan_for(db, "SELECT v FROM big WHERE g = 3 AND v > 10")
        scan = next(n for n in plan.walk() if isinstance(n, TableScan))
        assert len(scan.preds) == 2


class TestGlue:
    def test_merge_join_gets_sorts(self, db):
        graph = translate(parse_statement(
            "SELECT b.v FROM big b, small s WHERE b.g = s.k"), db)
        optimizer = Optimizer(db.catalog, engine=db.engine,
                              functions=db.functions)
        optimizer.generator.remove_alternative("NLJoinAlt", "NL")
        optimizer.generator.remove_alternative("HashJoinAlt", "Hash")
        plan = optimizer.optimize(graph)
        merge = next(n for n in plan.walk() if isinstance(n, MergeJoin))
        # no index provides order on b.g / s.k join keys both sides:
        # at least one side needs glue SORT
        sorts = [n for n in plan.walk() if isinstance(n, Sort)]
        assert sorts, plan.explain()

    def test_sorted_input_skips_glue(self, db):
        """RequireOrder keeps an already-ordered plan unchanged and only
        adds SORT to unordered ones (glue STAR semantics)."""
        graph = translate(parse_statement("SELECT v FROM big"), db)
        optimizer = Optimizer(db.catalog, engine=db.engine,
                              functions=db.functions)
        cm = optimizer.cm
        quantifier = graph.root.setformers()[0]
        scan = TableScan(cm, db.catalog.table("big"), quantifier, [])
        key = qe.ColRef(quantifier, "k", INTEGER)
        pre_sorted = Sort(cm, scan, [(key, True)])
        kept = optimizer.generator.cheapest("RequireOrder", plan=pre_sorted,
                                            keys=[(key, True)])
        assert kept is pre_sorted  # AlreadyOrdered alternative won
        glued = optimizer.generator.cheapest("RequireOrder", plan=scan,
                                             keys=[(key, True)])
        assert isinstance(glued, Sort) and glued.children[0] is scan

    def test_unclustered_index_scan_loses_to_scan_sort(self, db):
        """Full-table order via an unclustered index costs one fetch per
        row; the optimizer correctly prefers SCAN + SORT (System R's
        classic result)."""
        graph = translate(parse_statement(
            "SELECT b.v FROM big b, small s WHERE b.k = s.k"), db)
        optimizer = Optimizer(db.catalog, engine=db.engine,
                              functions=db.functions)
        optimizer.generator.remove_alternative("NLJoinAlt", "NL")
        optimizer.generator.remove_alternative("HashJoinAlt", "Hash")
        plan = optimizer.optimize(graph)
        assert any(isinstance(n, MergeJoin) for n in plan.walk())
        assert any(isinstance(n, Sort) for n in plan.walk())

    def test_order_satisfaction_logic(self):
        props = PlanProperties(order=(("a", True), ("b", True)))
        assert props.satisfies_order((("a", True),))
        assert props.satisfies_order((("a", True), ("b", True)))
        assert not props.satisfies_order((("b", True),))
        assert not props.satisfies_order((("a", False),))


class TestEnumerator:
    def count_for(self, db, tables, allow_bushy, allow_cartesian,
                  chain=True):
        names = []
        for index in range(tables):
            name = "e%d_%d" % (tables, index)
            db.execute("CREATE TABLE %s (a INTEGER, b INTEGER)" % name)
            db.execute("INSERT INTO %s VALUES (1, 1)" % name)
            names.append(name)
        db.analyze()
        joins = " AND ".join(
            "%s.b = %s.a" % (names[i], names[i + 1])
            for i in range(tables - 1)) if chain and tables > 1 else None
        sql = "SELECT %s.a FROM %s" % (names[0], ", ".join(names))
        if joins:
            sql += " WHERE " + joins
        graph = translate(parse_statement(sql), db)
        settings = CompileOptions(allow_bushy=allow_bushy,
                                  allow_cartesian=allow_cartesian)
        optimizer = Optimizer(db.catalog, engine=db.engine,
                              settings=settings, functions=db.functions)
        optimizer.optimize(graph)
        for name in names:
            db.execute("DROP TABLE %s" % name)
        return optimizer.enumerator_stats[-1]

    def test_bushy_explores_more(self, db):
        left_deep = self.count_for(db, 4, allow_bushy=False,
                                   allow_cartesian=False)
        bushy = self.count_for(db, 4, allow_bushy=True,
                               allow_cartesian=False)
        assert bushy.pairs_considered > left_deep.pairs_considered

    def test_cartesian_pruning(self, db):
        pruned = self.count_for(db, 3, allow_bushy=False,
                                allow_cartesian=False)
        assert pruned.cartesian_skipped > 0

    def test_disconnected_falls_back_to_cartesian(self, db):
        db.execute("CREATE TABLE iso1 (a INTEGER)")
        db.execute("CREATE TABLE iso2 (a INTEGER)")
        db.execute("INSERT INTO iso1 VALUES (1)")
        db.execute("INSERT INTO iso2 VALUES (2)")
        plan, _opt = plan_for(db, "SELECT iso1.a FROM iso1, iso2")
        assert plan.props.cost > 0  # a plan exists despite no join predicate

    def test_prune_keeps_cheapest_per_class(self, db):
        cm = CostModel(db.catalog)
        graph = translate(parse_statement("SELECT k FROM big"), db)
        quantifier = graph.root.setformers()[0]
        cheap = TableScan(cm, db.catalog.table("big"), quantifier, [])
        expensive = TableScan(cm, db.catalog.table("big"), quantifier, [])
        expensive.props = expensive.props.evolve(cost=cheap.props.cost * 10)
        kept = prune_plans([expensive, cheap])
        assert kept == [cheap]

    def test_multiway_pred_applied_once(self, db):
        db.execute("CREATE TABLE m1 (a INTEGER)")
        db.execute("CREATE TABLE m2 (a INTEGER)")
        db.execute("CREATE TABLE m3 (a INTEGER)")
        for name in ("m1", "m2", "m3"):
            db.execute("INSERT INTO %s VALUES (1)" % name)
        db.analyze()
        # a predicate referencing three iterators
        plan, _opt = plan_for(
            db, "SELECT m1.a FROM m1, m2, m3 "
                "WHERE m1.a + m2.a = m3.a AND m1.a = m2.a",
            allow_cartesian=True)
        rows_pred_count = sum(
            len(getattr(node, "preds", [])) + len(getattr(node, "residual", []))
            for node in plan.walk())
        assert rows_pred_count >= 2


class TestSubqueryPlans:
    def test_conjunct_becomes_subquery_join(self, db):
        db.settings.rewrite_enabled = False
        graph = translate(parse_statement(
            "SELECT v FROM big WHERE g IN (SELECT k FROM small "
            "WHERE name = 'n3')"), db)
        optimizer = Optimizer(db.catalog, engine=db.engine,
                              functions=db.functions)
        plan = optimizer.optimize(graph)
        db.settings.rewrite_enabled = True
        assert any(isinstance(n, SubqueryJoin) and n.kind == "exists"
                   for n in plan.walk())

    def test_disjunctive_uses_or_operator(self, db):
        graph = translate(parse_statement(
            "SELECT v FROM big WHERE g = 19 OR v = "
            "(SELECT max(v) FROM big)"), db)
        optimizer = Optimizer(db.catalog, engine=db.engine,
                              functions=db.functions)
        plan = optimizer.optimize(graph)
        assert "QuantifiedFilter" in ops_in(plan)

    def test_temp_variant_generated_for_nl(self, db):
        plan, optimizer = plan_for(
            db, "SELECT b.v FROM big b, small s WHERE b.k = s.k")
        # at minimum the NL-with-TEMP alternative was generated (even if a
        # different method won)
        assert optimizer.generator.stats.plans_generated > 2


class TestChooseAndDml:
    def test_update_plan(self, db):
        graph = translate(parse_statement(
            "UPDATE big SET v = v + 1 WHERE k = 3"), db)
        optimizer = Optimizer(db.catalog, engine=db.engine,
                              functions=db.functions)
        plan = optimizer.optimize(graph)
        assert type(plan).__name__ == "UpdatePlan"
        assert "IndexScan" in ops_in(plan)

    def test_insert_select_plan(self, db):
        graph = translate(parse_statement(
            "INSERT INTO small SELECT k, 'x' FROM big WHERE k > 395"), db)
        optimizer = Optimizer(db.catalog, engine=db.engine,
                              functions=db.functions)
        plan = optimizer.optimize(graph)
        assert type(plan).__name__ == "InsertPlan"

    def test_explain_renders(self, db):
        plan, _opt = plan_for(db, "SELECT v FROM big WHERE k = 7")
        text = plan.explain()
        assert "ISCAN" in text and "cost=" in text
