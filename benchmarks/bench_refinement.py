"""E15 (extension) — plan refinement: every expression runs as a closure.

Section 7: the algebraic interface "can also serve as the input
specification to a component that compiles QEPs into iterative programs
[FREY86]".  Our refinement phase compiles every expression a plan node
evaluates into Python closures; this benchmark times an expression-heavy
scan and checks that refinement covered the whole statement.  The
interpreted leg it used to be compared with is gone with the interpreter
(the recorded ablation — 4.3x — stays in EXPERIMENTS.md E15).
"""

from benchmarks.conftest import print_table
from repro.executor.compiled import plan_expressions

SQL = ("SELECT partno, price * 1.08, upper(supplier) FROM quotations "
       "WHERE price BETWEEN 20 AND 120 AND order_qty % 3 = 0 "
       "AND supplier LIKE 'supplier1%'")


def test_e15_compiled(parts_db, benchmark):
    compiled = parts_db.compile(SQL)
    expressions = {id(expr) for node in compiled.plan.walk()
                   for expr, _boolean in plan_expressions(node)}
    assert len(expressions) >= 5
    # Refinement is total: one closure per expression of the statement.
    assert compiled.refiner.compiled_count == len(expressions)
    result = benchmark(parts_db.run_compiled, compiled)
    assert result.rows
    print_table(
        "E15: plan refinement (expression compilation)",
        ["variant", "exprs compiled", "exec (s)"],
        [("compiled", compiled.refiner.compiled_count,
          "%.6f" % compiled.timings.execute)])
