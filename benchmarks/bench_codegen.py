"""E22 — pipeline-fusion codegen vs the batch backend and the tuple
interpreter.

Section 7 refines QEPs into "iterative programs" [FREY86]; the codegen
backend completes that idea by emitting one specialized Python function
per pipeline — fused scan→filter→project→probe chains with pre-resolved
column offsets and inlined predicates, ``compile()``d once and driven by
morsels.  Three microbenchmarks at 100k rows measure the win over the
column-at-a-time batch backend on the hot paths fusion targets:

- scan → filter → project (no per-operator dispatch, no intermediates),
- hash join (build + probe fused into two tight loops),
- group by (fused accumulation into the hash of accumulators).

Results go to ``benchmarks/latest_results.txt`` (via ``print_table``)
and ``BENCH_codegen.json`` at the repo root.  The "fused never slower
than batch" assertions live here — outside tier-1 — so slow CI machines
never block functional work; the dedicated perf-smoke CI job runs this
module.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import bulk_insert, cores as affinity_cores, \
    print_table
from repro import CompileOptions, Database

ROWS = 100_000
DIM_ROWS = 1_000
REPEATS = 3

_JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_codegen.json")

SCAN_SQL = ("SELECT a, b * 2 + 1, x FROM events "
            "WHERE b < 70 AND a % 3 <> 0")
JOIN_SQL = ("SELECT e.a, e.x, g.label FROM events e, groups g "
            "WHERE e.g = g.k AND g.k < 900")
GROUP_SQL = ("SELECT b, COUNT(*), SUM(x) FROM events "
             "WHERE a % 3 <> 0 GROUP BY b")


@pytest.fixture(scope="module")
def cg_db() -> Database:
    """100k-row fact table, same shape as E17 so the two experiments
    stay comparable."""
    db = Database(pool_capacity=4096)
    db.execute("CREATE TABLE events (a INTEGER, b INTEGER, g INTEGER, "
               "x DOUBLE, tag VARCHAR(8))")
    db.execute("CREATE TABLE groups (k INTEGER, label VARCHAR(12))")
    bulk_insert(db, "events",
                [(i, i % 100, i % DIM_ROWS, float(i % 997) * 0.5,
                  "t%d" % (i % 50)) for i in range(ROWS)])
    bulk_insert(db, "groups",
                [(k, "grp_%d" % k) for k in range(DIM_ROWS)])
    db.analyze()
    return db


def _time(db: Database, sql: str, options: CompileOptions):
    """Min-of-N wall time for the execution phase only (shared compile)."""
    compiled = db.compile(sql, options=options)
    best = None
    rows = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = db.run_compiled(compiled)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        rows = result.rows
    return best, rows, result.stats


def _measure(db: Database, sql: str, force_join=None):
    base = CompileOptions.from_settings(db.settings).replace(
        execution_mode="tuple")
    if force_join is not None:
        base = base.replace(forced_join_method=force_join)
    tuple_s, tuple_rows, _ = _time(db, sql, base)
    batch_s, batch_rows, _ = _time(
        db, sql, base.replace(execution_mode="batch"))
    fused_s, fused_rows, stats = _time(
        db, sql, base.replace(execution_mode="compiled"))
    # Fused pipelines must be byte-identical to the tuple interpreter.
    assert fused_rows == tuple_rows
    assert sorted(map(repr, batch_rows)) == sorted(map(repr, tuple_rows))
    assert stats.codegen_pipelines > 0
    return {
        "tuple_s": round(tuple_s, 6),
        "batch_s": round(batch_s, 6),
        "compiled_s": round(fused_s, 6),
        "speedup_vs_tuple": round(tuple_s / fused_s, 2),
        "speedup_vs_batch": round(batch_s / fused_s, 2),
        "pipelines": stats.codegen_pipelines,
        "rows_out": len(tuple_rows),
    }


def test_e22_codegen(cg_db, benchmark):
    scan = _measure(cg_db, SCAN_SQL)
    join = _measure(cg_db, JOIN_SQL, force_join="hash")
    group = _measure(cg_db, GROUP_SQL)
    # Record the headline (fused scan-filter-project) with the benchmark
    # fixture too, so --benchmark-only runs keep this module selected and
    # latest_results.txt always includes the E22 table.
    fused_options = CompileOptions.from_settings(cg_db.settings).replace(
        execution_mode="compiled")
    benchmark(cg_db.run_compiled,
              cg_db.compile(SCAN_SQL, options=fused_options))
    report = {
        "rows": ROWS,
        "cores": affinity_cores(),
        "scan_filter_project": scan,
        "hash_join": join,
        "group_by": group,
    }
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print_table(
        "E22: pipeline-fusion codegen vs batch backend (%d rows)" % ROWS,
        ["workload", "tuple (s)", "batch (s)", "fused (s)", "vs batch",
         "rows out"],
        [(name, "%.4f" % m["tuple_s"], "%.4f" % m["batch_s"],
          "%.4f" % m["compiled_s"], "%.2fx" % m["speedup_vs_batch"],
          m["rows_out"])
         for name, m in [("scan-filter-project", scan),
                         ("hash join", join), ("group by", group)]])
    # The batch backend now runs the same generated expression source,
    # so the gate is an ordering, not a ratio: a fused pipeline (no
    # per-operator dispatch, no intermediate batches) must never be
    # slower than the batch engine on the shapes fusion targets.
    # Backend-vs-backend timings are single-process and hold on any
    # core count, so they stay asserted unconditionally.
    for name, m in (("scan-filter-project", scan), ("hash join", join),
                    ("group by", group)):
        print("  %s: batch %.4fs, fused %.4fs"
              % (name, m["batch_s"], m["compiled_s"]))
        assert m["compiled_s"] <= m["batch_s"], (name, m)
