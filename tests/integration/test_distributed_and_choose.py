"""Simulated distribution (sites + SHIP) and the CHOOSE operation."""

import pytest

from repro import Database
from repro.datatypes import DOUBLE, INTEGER
from repro.optimizer.plans import Ship


@pytest.fixture
def multi_site_db(db):
    db.catalog.add_site("east", ship_cost_per_row=0.02)
    db.catalog.add_site("west", ship_cost_per_row=0.10)
    db.execute("CREATE TABLE home (k INTEGER, v DOUBLE)")
    db.execute("CREATE TABLE east_t (k INTEGER, e DOUBLE) AT SITE east")
    db.execute("CREATE TABLE west_t (k INTEGER, w DOUBLE) AT SITE west")
    txn = db.begin()
    for i in range(60):
        db.engine.insert(txn, "home", (i % 20, float(i)))
        db.engine.insert(txn, "east_t", (i % 20, float(i) * 2))
        db.engine.insert(txn, "west_t", (i % 20, float(i) * 3))
    db.commit(txn)
    db.analyze()
    return db


class TestSites:
    def test_cross_site_join_ships(self, multi_site_db):
        compiled = multi_site_db.compile(
            "SELECT h.v, e.e FROM home h, east_t e WHERE h.k = e.k")
        ships = [n for n in compiled.plan.walk() if isinstance(n, Ship)]
        assert ships
        rows = multi_site_db.run_compiled(compiled).rows
        assert len(rows) == 60 * 3  # 20 keys x 3 x 3 per key

    def test_three_site_join_correct(self, multi_site_db):
        result = multi_site_db.execute(
            "SELECT count(*) FROM home h, east_t e, west_t w "
            "WHERE h.k = e.k AND e.k = w.k")
        assert result.scalar() == 20 * 27

    def test_site_changes_plan_not_results(self, multi_site_db):
        """Raising a site's ship cost changes the plan's SHIP placement
        but never the answer."""
        sql = ("SELECT count(*) FROM east_t e, west_t w WHERE e.k = w.k")
        before = multi_site_db.execute(sql).scalar()
        multi_site_db.catalog.add_site("west", ship_cost_per_row=5.0)
        after = multi_site_db.execute(sql).scalar()
        assert before == after

    def test_single_site_query_never_ships(self, multi_site_db):
        compiled = multi_site_db.compile(
            "SELECT v FROM home WHERE k = 3")
        assert not [n for n in compiled.plan.walk() if isinstance(n, Ship)]

    def test_row_position_ship_runs_in_place(self, multi_site_db):
        """The optimizer only places SHIP on binding-stream inputs, so a
        SHIP pulled as a row stream is built by hand.  Under
        parallelism="on" it runs its child in place exactly as under
        "off": same rows, no exchange, no fallback, no worker task, and
        no ``exchange(`` detail on its EXPLAIN ANALYZE line."""
        from repro import CompileOptions
        from repro.obs import RequestTrace
        from repro.obs.render import render_analyze
        from repro.optimizer.cost import CostModel

        db = multi_site_db
        sql = "SELECT k, e FROM east_t WHERE k < 5"
        rows = {}
        for parallelism in ("off", "on"):
            compiled = db.compile(sql, options=CompileOptions(
                parallelism=parallelism, execution_mode="tuple"))
            compiled.plan = Ship(CostModel(db.catalog), compiled.plan,
                                 "local")
            tree = RequestTrace("ship", operators=True)
            result = db.run_compiled(compiled, tracer=tree)
            rows[parallelism] = result.rows
            assert result.stats.parallel_exchanges == 0
            assert result.stats.parallel_fallbacks == 0
            assert not tree.root.find_all("worker.morsel")
            text = render_analyze(compiled.plan,
                                  tree.root.find_all("execute")[-1],
                                  result.timings, result.stats)
            ship_line = text.splitlines()[1]
            assert ship_line.startswith("SHIP(to local)")
            assert "actual rows=15" in ship_line
            assert "exchange(" not in ship_line
        assert rows["on"] == rows["off"] == [
            (i % 20, float(i) * 2) for i in range(60) if i % 20 < 5]


#: Cross-site query shapes, each planned with SHIPs wherever the
#: optimizer reconciles the ``site`` property.
CROSS_SITE_SHAPES = {
    "join": "SELECT e.k, e.e, w.w FROM east_t e, west_t w WHERE e.k = w.k",
    "three_site_join":
        "SELECT count(*), sum(h.v + e.e + w.w) FROM home h, east_t e, "
        "west_t w WHERE h.k = e.k AND e.k = w.k",
    "local_remote": "SELECT h.v, e.e FROM home h, east_t e WHERE h.k = e.k",
    "group_by": "SELECT h.k, count(*), min(e.e) FROM home h, east_t e "
                "WHERE h.k = e.k GROUP BY h.k",
    "order_by": "SELECT h.v, e.e FROM home h, east_t e WHERE h.k = e.k "
                "ORDER BY e.e DESC, h.v LIMIT 40",
    "union": "SELECT k FROM home WHERE v < 300 "
             "UNION SELECT k FROM west_t WHERE w < 600",
    "in_subquery": "SELECT v FROM home "
                   "WHERE k IN (SELECT k FROM east_t WHERE e < 500)",
    "scalar_subquery": "SELECT k, v FROM home "
                       "WHERE v * 3 > (SELECT avg(w) FROM west_t)",
}


@pytest.fixture(scope="module")
def wide_sites_db():
    """Three sites, 1 200 rows each: enough pages for a GATHER to fan
    out under parallelism="on"."""
    db = Database()
    db.catalog.add_site("east", ship_cost_per_row=0.02)
    db.catalog.add_site("west", ship_cost_per_row=0.10)
    db.execute("CREATE TABLE home (k INTEGER, v DOUBLE)")
    db.execute("CREATE TABLE east_t (k INTEGER, e DOUBLE) AT SITE east")
    db.execute("CREATE TABLE west_t (k INTEGER, w DOUBLE) AT SITE west")
    txn = db.begin()
    for i in range(1200):
        db.engine.insert(txn, "home", (i % 400, float(i)))
        db.engine.insert(txn, "east_t", (i % 400, float(i) * 2))
        db.engine.insert(txn, "west_t", (i % 400, float(i) * 3))
    db.commit(txn)
    db.analyze()
    yield db
    db.close()


@pytest.mark.parametrize("mode", ["tuple", "auto"])
@pytest.mark.parametrize("shape", sorted(CROSS_SITE_SHAPES))
def test_cross_site_shapes_identical_under_parallelism(wide_sites_db,
                                                       shape, mode):
    """Every cross-site shape returns the same rows, in the same order,
    with parallelism on as off, and nothing degrades."""
    from repro import CompileOptions

    sql = CROSS_SITE_SHAPES[shape]
    serial = wide_sites_db.execute(sql, options=CompileOptions(
        parallelism="off", execution_mode=mode))
    parallel_run = wide_sites_db.execute(sql, options=CompileOptions(
        parallelism="on", execution_mode=mode))
    assert serial.rows
    assert parallel_run.rows == serial.rows
    assert parallel_run.stats.parallel_fallbacks == 0


class TestChoose:
    def build_choose_graph(self, db):
        """Hand-build a CHOOSE box linking two equivalent alternatives
        (section 5: alternatives generated in rewrite, costed in
        optimization)."""
        from repro.datatypes import INTEGER as INT
        from repro.language.parser import parse_statement
        from repro.language.translator import translate
        from repro.qgm import expressions as qe
        from repro.qgm.model import ChooseBox, Head, HeadColumn

        graph = translate(parse_statement("SELECT k FROM home WHERE k < 5"),
                          db)
        cheap_box = graph.root
        expensive = translate(parse_statement(
            "SELECT k FROM home WHERE k < 5"), db)
        # graft the second alternative's boxes into the first graph
        for box in expensive.boxes:
            if box not in graph.boxes:
                graph.add_box(box)
        choose = ChooseBox()
        graph.add_box(choose)
        choose.head = Head([HeadColumn("k", None, INT)])
        q1 = graph.new_quantifier("F", cheap_box)
        q2 = graph.new_quantifier("F", expensive.root)
        choose.add_quantifier(q1)
        choose.add_quantifier(q2)
        graph.root = choose
        return graph, cheap_box, expensive.root

    def test_choose_picks_cheapest(self, multi_site_db):
        from repro.executor.context import ExecutionContext
        from repro.executor.run import execute_plan
        from repro.optimizer.boxopt import Optimizer

        graph, _cheap, _costly = self.build_choose_graph(multi_site_db)
        optimizer = Optimizer(multi_site_db.catalog,
                              engine=multi_site_db.engine,
                              functions=multi_site_db.functions)
        plan = optimizer.optimize(graph)
        ctx = ExecutionContext(multi_site_db.engine,
                               multi_site_db.functions)
        rows = sorted(execute_plan(plan, ctx))
        assert len(rows) == 15  # keys 0..4 x 3 rows each

    def test_choose_validation(self, multi_site_db):
        from repro.qgm.validate import validate_qgm

        graph, *_ = self.build_choose_graph(multi_site_db)
        validate_qgm(graph)
