"""E10 — §7 join kinds x join methods.

"Each join operator takes as one of its parameters a function name,
representing the join kind.  In this way a single operator can handle many
different join kinds."

For each subquery kind (exists, not-exists, all, scalar) we run the
kind-parameterized subquery join and check correctness; for the regular
and left-outer kinds we run all three methods (NL/merge/hash) and verify
they agree — the kind/method factoring the paper claims.
"""

import pytest

from benchmarks.conftest import print_table
from repro.executor.context import ExecutionContext
from repro.executor.run import execute_plan
from repro.language.parser import parse_statement
from repro.language.translator import translate
from repro.optimizer.boxopt import Optimizer

KIND_QUERIES = {
    "exists": ("SELECT partno FROM quotations q WHERE EXISTS "
               "(SELECT 1 FROM inventory i WHERE i.partno = q.partno "
               "AND i.type = 'CPU')"),
    "not_exists": ("SELECT partno FROM quotations q WHERE NOT EXISTS "
                   "(SELECT 1 FROM inventory i WHERE i.partno = q.partno)"),
    "all": ("SELECT partno FROM inventory WHERE onhand_qty >= ALL "
            "(SELECT onhand_qty FROM inventory)"),
    "scalar": ("SELECT partno FROM quotations q WHERE price > "
               "(SELECT avg(price) FROM quotations)"),
}


def plan_without_rewrite(db, sql):
    db.settings.rewrite_enabled = False
    compiled = db.compile(sql)
    db.settings.rewrite_enabled = True
    return compiled


@pytest.mark.parametrize("kind", sorted(KIND_QUERIES))
def test_e10_kind(parts_db, benchmark, kind):
    compiled = plan_without_rewrite(parts_db, KIND_QUERIES[kind])
    kinds_in_plan = [n.kind for n in compiled.plan.walk()
                     if hasattr(n, "kind")]
    assert kind in kinds_in_plan, (kind, kinds_in_plan)
    result = benchmark(parts_db.run_compiled, compiled)
    assert result.rows is not None


def test_e10_kind_summary(parts_db, benchmark):
    rows = []
    for kind, sql in sorted(KIND_QUERIES.items()):
        compiled = plan_without_rewrite(parts_db, sql)
        result = parts_db.run_compiled(compiled)
        rows.append((kind, len(result.rows),
                     "%.6f" % result.timings.execute))
    benchmark(parts_db.execute, KIND_QUERIES["exists"])
    print_table("E10: one subquery-join operator, four kinds",
                ["kind", "rows", "exec (s)"], rows)


def test_e10_methods_agree_per_kind(parts_db, benchmark):
    """Regular and left-outer kinds across NL / merge / hash methods."""
    parts_db.enable_operation("left_outer_join")
    queries = {
        "regular": ("SELECT q.price FROM quotations q, inventory i "
                    "WHERE q.partno = i.partno"),
        "left_outer": ("SELECT q.partno, i.onhand_qty FROM quotations q "
                       "LEFT OUTER JOIN inventory i "
                       "ON q.partno = i.partno"),
    }
    table = []
    for kind, sql in queries.items():
        per_method = {}
        for method in ("NL", "Merge", "Hash"):
            graph = translate(parse_statement(sql), parts_db)
            optimizer = Optimizer(parts_db.catalog, engine=parts_db.engine,
                                  functions=parts_db.functions)
            for star, name in (("NLJoinAlt", "NL"), ("MergeJoinAlt", "Merge"),
                               ("HashJoinAlt", "Hash")):
                if name != method:
                    optimizer.generator.remove_alternative(star, name)
            plan = optimizer.optimize(graph)
            ctx = ExecutionContext(parts_db.engine, parts_db.functions)
            ctx.join_kinds = parts_db.join_kinds
            per_method[method] = sorted(
                execute_plan(plan, ctx),
                key=lambda r: tuple((v is None, v) for v in r))
        assert per_method["NL"] == per_method["Merge"] == per_method["Hash"]
        table.append((kind, len(per_method["NL"]), "agree"))
    benchmark(parts_db.execute, queries["regular"])
    print_table("E10: kind x method factoring (results across methods)",
                ["kind", "rows", "NL=Merge=Hash"], table)
