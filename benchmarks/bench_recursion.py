"""E12 — §2 recursion and path algebra: semi-naive vs naive fixpoints.

Hydrogen "can be used as an integrated language for logic programming and
database access".  Measured: transitive closure and a path-cost
aggregation, with semi-naive (delta-driven) vs naive (recompute-all)
iteration — the delta-tuple counts show the classic quadratic gap.
"""

import pytest

from benchmarks.conftest import bulk_insert, print_table
from repro import Database

TC_SQL = ("WITH RECURSIVE tc (s, d) AS ("
          "SELECT src, dst FROM g UNION ALL "
          "SELECT t.s, e.dst FROM tc t, g e WHERE e.src = t.d) "
          "SELECT count(*) FROM tc")

PATH_SQL = ("WITH RECURSIVE sp (n, cost) AS ("
            "SELECT dst, w FROM g WHERE src = 0 UNION ALL "
            "SELECT e.dst, p.cost + e.w FROM sp p, g e "
            "WHERE e.src = p.n) "
            "SELECT n, min(cost) FROM sp GROUP BY n")


@pytest.fixture(scope="module")
def dag_db() -> Database:
    db = Database(pool_capacity=256)
    db.execute("CREATE TABLE g (src INTEGER, dst INTEGER, w DOUBLE)")
    # a layered DAG: 12 layers x 6 nodes, edges to the next layer
    rows = []
    for layer in range(11):
        for a in range(6):
            for b in range(0, 6, 2):
                rows.append((layer * 6 + a, (layer + 1) * 6 + (a + b) % 6,
                             1.0 + (a + b) % 3))
    bulk_insert(db, "g", rows)
    db.analyze()
    return db


def test_e12_semi_naive(dag_db, benchmark):
    result = benchmark(dag_db.execute, TC_SQL)
    assert result.scalar() > 100


def test_e12_naive(dag_db, benchmark):
    dag_db.settings.naive_recursion = True
    try:
        result = benchmark(dag_db.execute, TC_SQL)
        assert result.scalar() > 100
    finally:
        dag_db.settings.naive_recursion = False


def test_e12_work_table(dag_db, benchmark):
    semi = benchmark(dag_db.execute, TC_SQL)
    dag_db.settings.naive_recursion = True
    naive = dag_db.execute(TC_SQL)
    dag_db.settings.naive_recursion = False
    assert semi.scalar() == naive.scalar()
    print_table(
        "E12: transitive closure on a layered DAG (%d tuples)"
        % semi.scalar(),
        ["mode", "iterations", "rows scanned"],
        [("semi-naive", semi.stats.recursion_iterations,
          semi.stats.rows_scanned),
         ("naive", naive.stats.recursion_iterations,
          naive.stats.rows_scanned)])
    assert naive.stats.rows_scanned > 2 * semi.stats.rows_scanned


def test_e12_path_algebra(dag_db, benchmark):
    result = benchmark(dag_db.execute, PATH_SQL)
    print_table(
        "E12: cheapest path costs from node 0 (first 5 targets)",
        ["node", "min cost"],
        [(n, c) for n, c in sorted(result.rows)[:5]])
    assert len(result.rows) >= 6
