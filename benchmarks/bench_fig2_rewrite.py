"""F2 — Figure 2: the QGM rewrite of the quotations query.

Asserts the graph shapes of Figure 2(a) and 2(b) at benchmark scale and
measures the execution-side effect of the rewrite: estimated plan cost,
wall-clock, and subquery evaluations with and without the
subquery-to-join + merge rules.
"""

from benchmarks.conftest import print_table
from repro.qgm.model import SelectBox

QUERY = """
    SELECT partno, price, order_qty FROM quotations Q1
    WHERE Q1.partno IN
      (SELECT partno FROM inventory Q3
       WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')
"""


def test_f2_graph_shapes(parts_db, benchmark):
    compiled = benchmark(parts_db.compile, QUERY)
    # Figure 2(b): one SELECT box, two setformers, three predicates.
    selects = [b for b in compiled.qgm.reachable_boxes()
               if isinstance(b, SelectBox)]
    assert len(selects) == 1
    assert len(selects[0].setformers()) == 2
    assert len(selects[0].predicates) == 3
    print_table(
        "F2: rewrite rule firings on the Figure 2 query",
        ["rule", "firings"],
        sorted({name: compiled.rewrite_report.count(name)
                for name, _ in compiled.rewrite_report.firings}.items()))


def test_f2_execution_effect(parts_db, benchmark):
    with_rw = parts_db.compile(QUERY)
    parts_db.settings.rewrite_enabled = False
    without_rw = parts_db.compile(QUERY)
    parts_db.settings.rewrite_enabled = True

    def run_rewritten():
        return parts_db.run_compiled(with_rw)

    fast = benchmark(run_rewritten)
    slow = parts_db.run_compiled(without_rw)
    assert sorted(fast.rows) == sorted(slow.rows)

    print_table(
        "F2: Figure 2(a) vs 2(b) at execution time",
        ["variant", "plan cost", "subquery evals", "exec (s)"],
        [("2(a) unrewritten", "%.1f" % without_rw.plan.props.cost,
          slow.stats.subquery_evaluations,
          "%.6f" % slow.timings.execute),
         ("2(b) rewritten", "%.1f" % with_rw.plan.props.cost,
          fast.stats.subquery_evaluations,
          "%.6f" % fast.timings.execute)])
    # Shape: the rewritten form has no subquery machinery left at all.
    assert fast.stats.subquery_evaluations == 0
    assert with_rw.plan.props.cost <= without_rw.plan.props.cost
