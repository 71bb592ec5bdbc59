"""Dedicated engine-mechanics tests: control-strategy ordering, budget
exhaustion, rule indexing via ``box_kinds``, forced-fire restriction, and
the cost-driven search strategy."""

import pytest

from repro import CompileOptions, Database
from repro.language.parser import parse_statement
from repro.language.translator import translate
from repro.obs.spans import RequestTrace
from repro.qgm import validate_qgm
from repro.rewrite.engine import RewriteEngine, Rule


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    database.execute("INSERT INTO t VALUES (1, 2), (3, 4), (1, 5)")
    database.execute("CREATE VIEW vt AS SELECT a, b FROM t WHERE a > 0")
    database.analyze()
    return database


def graph_for(db, sql):
    return translate(parse_statement(sql), db)


def one_shot_rule(name, log, priority=0, probability=1.0, box_kinds=None):
    """A rule that fires exactly once per graph and records its name."""

    def condition(context, box):
        if box is context.qgm.root and name not in box.annotations:
            return True
        return None

    def action(context, box, match):
        box.annotations[name] = True
        log.append(name)

    return Rule(name, condition, action, priority=priority,
                probability=probability, box_kinds=box_kinds)


class TestControlOrdering:
    def _engine(self, db, log):
        engine = RewriteEngine(db)
        engine.add_rule(one_shot_rule("low", log, priority=1),
                        rule_class="test")
        engine.add_rule(one_shot_rule("high", log, priority=99),
                        rule_class="test")
        return engine

    def test_sequential_uses_registration_order(self, db):
        log = []
        engine = self._engine(db, log)
        engine.control = RewriteEngine.SEQUENTIAL
        engine.run(graph_for(db, "SELECT a FROM t"))
        assert log == ["low", "high"]

    def test_priority_gives_high_priority_first_chance(self, db):
        log = []
        engine = self._engine(db, log)
        engine.control = RewriteEngine.PRIORITY
        engine.run(graph_for(db, "SELECT a FROM t"))
        assert log == ["high", "low"]

    def test_statistical_order_follows_probability(self, db):
        # With an overwhelming weight skew the sampled order is the
        # heavy rule first for (essentially) every seed.
        log = []
        engine = RewriteEngine(db)
        engine.add_rule(one_shot_rule("rare", log, probability=1e-6),
                        rule_class="test")
        engine.add_rule(one_shot_rule("common", log, probability=1.0),
                        rule_class="test")
        engine.control = RewriteEngine.STATISTICAL
        engine.run(graph_for(db, "SELECT a FROM t"))
        assert log == ["common", "rare"]

    def test_statistical_is_deterministic_per_seed(self, db):
        orders = []
        for _ in range(2):
            log = []
            engine = self._engine(db, log)
            engine.control = RewriteEngine.STATISTICAL
            engine.seed = 123
            engine.run(graph_for(db, "SELECT a FROM t"))
            orders.append(tuple(log))
        assert orders[0] == orders[1]


class TestBudget:
    def test_budget_exhaustion_stops_at_consistent_state(self, db):
        engine = RewriteEngine(db, budget=3)

        def condition(context, box):
            return box is context.qgm.root or None

        def action(context, box, match):
            box.annotations["spins"] = box.annotations.get("spins", 0) + 1

        engine.add_rule(Rule("spinner", condition, action),
                        rule_class="test")
        graph = graph_for(db, "SELECT a FROM t WHERE b > 0")
        report = engine.run(graph)
        assert report.fired == 3
        assert report.budget_exhausted
        validate_qgm(graph)  # the early stop left a consistent QGM

    def test_budget_event_traced(self, db):
        engine = RewriteEngine(db, budget=0)
        engine.add_rule(one_shot_rule("once", []), rule_class="test")
        trace = RequestTrace("t-budget")
        report = engine.run(graph_for(db, "SELECT a FROM t"), trace=trace)
        assert report.fired == 0 and report.budget_exhausted
        assert trace.root.find_all("rewrite.budget")


class TestRuleIndex:
    def _probe(self, db, box_kinds):
        calls = []

        def condition(context, box):
            calls.append(box.kind)
            return None

        engine = RewriteEngine(db)
        engine.add_rule(Rule("probe", condition, lambda c, b, m: None,
                             box_kinds=box_kinds), rule_class="test")
        return engine, calls

    def test_rule_skipped_for_non_matching_kinds(self, db):
        engine, calls = self._probe(db, box_kinds=("groupby",))
        engine.run(graph_for(db, "SELECT a FROM t"))
        assert calls == []  # no groupby box: condition never evaluated

    def test_index_disabled_evaluates_everywhere(self, db):
        engine, calls = self._probe(db, box_kinds=("groupby",))
        engine.use_rule_index = False
        engine.run(graph_for(db, "SELECT a FROM t"))
        assert "select" in calls

    def test_matching_kind_is_evaluated(self, db):
        engine, calls = self._probe(db, box_kinds=("select",))
        engine.run(graph_for(db, "SELECT a FROM t"))
        assert "select" in calls


class TestOnlyRules:
    def test_only_rules_restricts_firing(self, db):
        graph = graph_for(db, "SELECT a FROM vt WHERE b = 2")
        report = db.rewrite_engine.run(
            graph, only_rules=("projection_pushdown",))
        assert report.fired == report.count("projection_pushdown")

    def test_only_overrides_disable_switches(self, db):
        db.rewrite_engine.disable_rule("merge_select")
        try:
            rules = db.rewrite_engine.rules(only=("merge_select",))
            assert [r.name for r in rules] == ["merge_select"]
        finally:
            db.rewrite_engine.enable_rule("merge_select")

    def test_all_rules_ignores_class_gating(self, db):
        db.rewrite_engine.enabled_classes = ["projection"]
        try:
            names = {r.name for r in db.rewrite_engine.all_rules()}
            assert "merge_select" in names
        finally:
            db.rewrite_engine.enabled_classes = None


class TestSearchStrategy:
    SQL = "SELECT a, b FROM vt WHERE a = 1 ORDER BY b"

    def test_search_results_match_sequential(self, db):
        base = CompileOptions(plan_cache=False)
        search = base.replace(rewrite_strategy="search")
        assert db.execute(self.SQL, options=base).rows == \
            db.execute(self.SQL, options=search).rows

    def test_search_respects_budget(self, db):
        db.rewrite_engine.budget = 0
        try:
            graph = graph_for(db, self.SQL)
            report = db.rewrite_engine.run(graph, strategy="search")
            assert report.strategy == "search"
            assert report.fired == 0
            assert report.explored == 0
            assert report.budget_exhausted
        finally:
            db.rewrite_engine.budget = 1000

    def test_search_explores_and_traces(self, db):
        trace = RequestTrace("t-search")
        compiled = db.compile(
            self.SQL,
            options=CompileOptions(rewrite_strategy="search",
                                   plan_cache=False),
            trace=trace)
        report = compiled.rewrite_report
        assert report.strategy == "search"
        assert report.base_cost is not None
        assert report.best_cost is not None
        events = trace.root.find("rewrite").find_all("rewrite.search")
        phases = [e.attrs["phase"] for e in events]
        assert "baseline" in phases and "done" in phases
        # The adopted firing sequence is visible step by step.
        fires = [e for e in events if e.attrs["phase"] == "fire"]
        assert len(fires) == report.fired
        explored = [e for e in events if e.attrs["phase"] == "explore"]
        assert len(explored) == report.explored
        # Exploration firings are charged against the engine budget.
        assert report.fired + report.explored <= db.rewrite_engine.budget

    def test_search_with_only_rules(self, db):
        graph = graph_for(db, "SELECT a FROM vt WHERE b = 2")
        report = db.rewrite_engine.run(graph, strategy="search",
                                       only_rules=("merge_select",))
        assert all(name == "merge_select" for name, _ in report.firings)
        validate_qgm(graph)

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            CompileOptions(rewrite_strategy="annealing")
