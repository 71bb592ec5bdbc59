"""F1 — Figure 1: the phases of query processing.

Regenerates the paper's Figure 1 as a measured per-phase timing table for
the Figure 2 query, and measures the rewrite-bypass trade-off the figure
annotates: skipping rewrite compiles faster but yields a costlier plan
(and here, a measurably slower execution).
"""

from benchmarks.conftest import print_table

QUERY = """
    SELECT partno, price, order_qty FROM quotations Q1
    WHERE Q1.partno IN
      (SELECT partno FROM inventory Q3
       WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')
"""


def test_f1_phase_breakdown(parts_db, benchmark):
    """Per-phase wall-clock for compile + execute of the Figure 2 query."""

    def compile_and_run():
        return parts_db.execute(QUERY)

    result = benchmark(compile_and_run)
    timings = result.timings.as_dict()
    pipeline = timings.pop("pipeline")  # a label, not a phase
    total = sum(timings.values())
    print_table(
        "F1: phases of query processing (Figure 1), one run (%s)"
        % pipeline,
        ["phase", "seconds", "share"],
        [(phase, "%.6f" % seconds,
          "%4.1f%%" % (100.0 * seconds / total))
         for phase, seconds in timings.items()])
    assert set(timings) == {"parse", "rewrite", "optimize", "refine",
                            "codegen", "execute"}


def test_f1_rewrite_bypass_tradeoff(parts_db, benchmark):
    """Figure 1's bypass arrow: compile time vs run cost with rewrite
    on/off."""
    with_rw = parts_db.compile(QUERY)
    parts_db.settings.rewrite_enabled = False
    without_rw = parts_db.compile(QUERY)
    parts_db.settings.rewrite_enabled = True

    def run_unrewritten():
        return parts_db.run_compiled(without_rw)

    slow = benchmark(run_unrewritten)
    fast = parts_db.run_compiled(with_rw)
    assert sorted(slow.rows) == sorted(fast.rows)

    print_table(
        "F1: rewrite bypass trade-off",
        ["variant", "compile (s)", "plan cost", "exec (s)"],
        [("rewrite on", "%.6f" % with_rw.timings.compile_total(),
          "%.1f" % with_rw.plan.props.cost,
          "%.6f" % fast.timings.execute),
         ("rewrite bypassed", "%.6f" % without_rw.timings.compile_total(),
          "%.1f" % without_rw.plan.props.cost,
          "%.6f" % slow.timings.execute)])
    # Shape: the bypassed plan is never cheaper.
    assert without_rw.plan.props.cost >= with_rw.plan.props.cost
