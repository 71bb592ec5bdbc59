"""E2 — §5 view and operation merging.

"Operation merging rules merge QGM boxes ... to allow more scope for
optimization."  A query joining two views can only pick a good join order
after the views merge into its SELECT box; unmerged, each view plans in
isolation.  We compare plan cost, box count and execution time.
"""

import pytest

from benchmarks.conftest import print_table
from repro.qgm.model import SelectBox


@pytest.fixture(scope="module")
def merged_views_db(parts_db):
    parts_db.execute("CREATE VIEW cpu_inventory AS "
                     "SELECT partno, onhand_qty FROM inventory "
                     "WHERE type = 'CPU'")
    parts_db.execute("CREATE VIEW bulk_quotes AS "
                     "SELECT partno, price FROM quotations "
                     "WHERE order_qty > 6")
    return parts_db

SQL = ("SELECT q.partno, q.price FROM bulk_quotes q, cpu_inventory i "
       "WHERE q.partno = i.partno AND i.onhand_qty < 10")


def test_e2_view_merging(merged_views_db, benchmark):
    db = merged_views_db
    merged = db.compile(SQL)
    db.settings.rewrite_enabled = False
    unmerged = db.compile(SQL)
    db.settings.rewrite_enabled = True

    fast = benchmark(db.run_compiled, merged)
    slow = db.run_compiled(unmerged)
    assert sorted(fast.rows) == sorted(slow.rows)

    def select_boxes(compiled):
        return len([b for b in compiled.qgm.reachable_boxes()
                    if isinstance(b, SelectBox)])

    print_table(
        "E2: merging two views into the consuming SELECT",
        ["variant", "select boxes", "merge firings", "plan cost",
         "exec (s)"],
        [("merged", select_boxes(merged),
          merged.rewrite_report.count("merge_select"),
          "%.1f" % merged.plan.props.cost,
          "%.6f" % fast.timings.execute),
         ("unmerged", select_boxes(unmerged), 0,
          "%.1f" % unmerged.plan.props.cost,
          "%.6f" % slow.timings.execute)])
    assert select_boxes(merged) == 1
    assert select_boxes(unmerged) == 3
    assert merged.plan.props.cost <= unmerged.plan.props.cost
