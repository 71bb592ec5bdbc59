"""E5 — §6 the join enumerator: search-space growth and pruning knobs.

"The enumeration ... produc[es] a potentially larger set of plans than did
the R* and System R optimizers.  Two other parameters allow the join
enumerator to prune join sequences having composite inners ('bushy trees')
or no join predicate (Cartesian products)."

Measured: iterator sets enumerated, plan-pair evaluations and plans
generated for chain queries of 2..6 tables, for left-deep vs bushy and
with/without Cartesian products.
"""

import pytest

from benchmarks.conftest import bulk_insert, print_table
from repro import CompileOptions, Database
from repro.language.parser import parse_statement
from repro.language.translator import translate
from repro.optimizer.boxopt import Optimizer


@pytest.fixture(scope="module")
def chain_db() -> Database:
    db = Database(pool_capacity=256)
    for index in range(6):
        db.execute("CREATE TABLE c%d (a INTEGER, b INTEGER)" % index)
        bulk_insert(db, "c%d" % index,
                    [(i, (i * (index + 3)) % 40) for i in range(100)])
    db.analyze()
    return db


def chain_sql(tables: int) -> str:
    joins = " AND ".join("c%d.b = c%d.a" % (i, i + 1)
                         for i in range(tables - 1))
    sql = "SELECT c0.a FROM %s" % ", ".join("c%d" % i for i in range(tables))
    if joins:
        sql += " WHERE " + joins
    return sql


def enumerate_stats(db, tables, allow_bushy, allow_cartesian):
    graph = translate(parse_statement(chain_sql(tables)), db)
    db.rewrite_engine.run(graph)
    optimizer = Optimizer(
        db.catalog, engine=db.engine, functions=db.functions,
        settings=CompileOptions(allow_bushy=allow_bushy,
                                allow_cartesian=allow_cartesian))
    plan = optimizer.optimize(graph)
    return optimizer.enumerator_stats[-1], plan


def test_e5_growth_table(chain_db, benchmark):
    rows = []
    for tables in range(2, 7):
        left_deep, _ = enumerate_stats(chain_db, tables, False, False)
        bushy, _ = enumerate_stats(chain_db, tables, True, False)
        cartesian, _ = enumerate_stats(chain_db, tables, True, True)
        rows.append((tables,
                     left_deep.pairs_considered, left_deep.plans_generated,
                     bushy.pairs_considered, bushy.plans_generated,
                     cartesian.pairs_considered,
                     cartesian.plans_generated))
    benchmark(enumerate_stats, chain_db, 5, False, False)
    print_table(
        "E5: join enumeration growth on an N-table chain "
        "(pairs considered / plans generated)",
        ["tables", "ld pairs", "ld plans", "bushy pairs", "bushy plans",
         "cart pairs", "cart plans"], rows)
    # Shapes: monotone growth; bushy >= left-deep; cartesian >= bushy.
    for i in range(1, len(rows)):
        assert rows[i][1] >= rows[i - 1][1]
    for row in rows:
        assert row[3] >= row[1]
        assert row[5] >= row[3]


def test_e5_optimize_time_left_deep(chain_db, benchmark):
    benchmark(enumerate_stats, chain_db, 6, False, False)


def test_e5_optimize_time_bushy(chain_db, benchmark):
    benchmark(enumerate_stats, chain_db, 6, True, False)


def test_e5_plan_quality_not_worse_with_bushy(chain_db, benchmark):
    _stats, left_deep = enumerate_stats(chain_db, 6, False, False)
    _stats, bushy = enumerate_stats(chain_db, 6, True, False)
    benchmark(enumerate_stats, chain_db, 4, True, False)
    print_table(
        "E5: plan quality (estimated cost) at 6 tables",
        ["strategy", "plan cost"],
        [("left-deep", "%.1f" % left_deep.props.cost),
         ("bushy", "%.1f" % bushy.props.cost)])
    assert bushy.props.cost <= left_deep.props.cost + 1e-6
