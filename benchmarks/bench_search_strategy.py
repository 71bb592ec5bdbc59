"""E13 — §6 optimizer search strategies and rank pruning.

"Each alternative for a STAR will have a rank associated with it, so that
alternatives exceeding a given rank can be pruned ... Merely by changing
the priorities, this general mechanism can implement breadth-first,
depth-first, or many other strategies."

Measured: plans generated / alternatives pruned / final plan cost under a
rank-cutoff sweep, and rank-ordered vs sequential alternative evaluation.
"""

from benchmarks.conftest import print_table
from repro import CompileOptions
from repro.language.parser import parse_statement
from repro.language.translator import translate
from repro.optimizer.boxopt import Optimizer

SQL = ("SELECT f.measure FROM fact f, dim1 a, dim2 b, dim3 c "
       "WHERE f.d1 = a.k AND f.d2 = b.k AND f.d3 = c.k "
       "AND a.label LIKE 'dim1%'")


def optimize_with(db, rank_cutoff, sort_by_rank=True):
    graph = translate(parse_statement(SQL), db)
    db.rewrite_engine.run(graph)
    settings = CompileOptions(rank_cutoff=rank_cutoff,
                              sort_by_rank=sort_by_rank)
    optimizer = Optimizer(db.catalog, engine=db.engine,
                          functions=db.functions, settings=settings)
    plan = optimizer.optimize(graph)
    return plan, optimizer.generator.stats


def test_e13_rank_cutoff_sweep(star_db, benchmark):
    rows = []
    for cutoff in (1.0, 1.5, 2.0, 100.0):
        plan, stats = optimize_with(star_db, cutoff)
        rows.append((cutoff, stats.plans_generated,
                     stats.alternatives_pruned, "%.1f" % plan.props.cost))
    benchmark(optimize_with, star_db, 100.0)
    # Note: a cutoff below every access rule's rank (e.g. 0.5) correctly
    # yields "no access plan" — the pruning knob is a real knife.
    print_table(
        "E13: rank-cutoff sweep on a 4-table star query",
        ["rank cutoff", "plans generated", "alts pruned", "plan cost"],
        rows)
    plans = [r[1] for r in rows]
    costs = [float(r[3]) for r in rows]
    assert plans == sorted(plans)          # more rank = more search
    assert costs[-1] <= costs[0] + 1e-6    # ...and never a worse plan


def test_e13_full_search(star_db, benchmark):
    plan, _stats = benchmark(optimize_with, star_db, 100.0)
    assert plan is not None


def test_e13_pruned_search(star_db, benchmark):
    plan, _stats = benchmark(optimize_with, star_db, 1.0)
    assert plan is not None


def test_e13_results_identical_under_pruning(star_db, benchmark):
    full_plan, _ = optimize_with(star_db, 100.0)
    pruned_plan, _ = optimize_with(star_db, 1.0)
    from repro.executor.context import ExecutionContext
    from repro.executor.run import execute_plan

    def run(plan):
        ctx = ExecutionContext(star_db.engine, star_db.functions)
        return sorted(execute_plan(plan, ctx))

    full_rows = benchmark(run, full_plan)
    assert full_rows == run(pruned_plan)
    print_table(
        "E13: pruning changes plans, never answers",
        ["variant", "plan cost", "rows"],
        [("full search", "%.1f" % full_plan.props.cost, len(full_rows)),
         ("rank <= 1.0", "%.1f" % pruned_plan.props.cost, len(full_rows))])
