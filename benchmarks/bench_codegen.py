"""E22 — pipeline-fusion codegen vs the tuple interpreter.

Section 7 refines QEPs into "iterative programs" [FREY86]; the codegen
backend is that idea: one specialized Python function per pipeline —
fused scan→filter→project→probe chains with pre-resolved column offsets
and inlined predicates, ``compile()``d once and driven by morsels.
Three microbenchmarks at 100k rows measure the win over the tuple
interpreter on the hot paths fusion targets:

- scan → filter → project (no per-operator dispatch, no intermediates),
- hash join (build + probe fused into two tight loops),
- group by (fused accumulation into the hash of accumulators).

This is the repo's one fast-backend perf smoke: it carries the gates of
E17 (the retired batch engine's smoke) — >=3x on scan-filter-project and
>=2x on the hash join — and holds the group-by leg to >=2x as well.
Results go to ``benchmarks/latest_results.txt`` (via ``print_table``)
and ``BENCH_codegen.json`` at the repo root.  The assertions live here —
outside tier-1 — so slow CI machines never block functional work; the
dedicated perf-smoke CI job runs this module.
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
    base = db.settings.compile_options().replace(
        execution_mode="tuple")
    if force_join is not None:
        base = base.replace(forced_join_method=force_join)
    tuple_s, tuple_rows, _ = _time(db, sql, base)
    fused_s, fused_rows, stats = _time(
        db, sql, base.replace(execution_mode="auto"))
    # Fused pipelines must be byte-identical to the tuple interpreter.
    assert repr(fused_rows) == repr(tuple_rows)
    assert stats.codegen_pipelines > 0
    return {
        "tuple_s": round(tuple_s, 6),
        "compiled_s": round(fused_s, 6),
        "speedup_vs_tuple": round(tuple_s / fused_s, 2),
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
    fused_options = cg_db.settings.compile_options()
    benchmark(cg_db.run_compiled,
              cg_db.compile(SCAN_SQL, options=fused_options))
    report = {
        "rows": ROWS,
        "cores": affinity_cores(),
        "batch_size": CompileOptions().batch_size,
        "scan_filter_project": scan,
        "hash_join": join,
        "group_by": group,
    }
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print_table(
        "E22: pipeline-fusion codegen vs tuple interpreter (%d rows)"
        % ROWS,
        ["workload", "tuple (s)", "fused (s)", "speedup", "rows out"],
        [(name, "%.4f" % m["tuple_s"], "%.4f" % m["compiled_s"],
          "%.2fx" % m["speedup_vs_tuple"], m["rows_out"])
         for name, m in [("scan-filter-project", scan),
                         ("hash join", join), ("group by", group)]])
    # Backend-vs-backend speedups are single-process and hold on any
    # core count, so they stay asserted unconditionally.
    assert scan["speedup_vs_tuple"] >= 3.0, scan
    assert join["speedup_vs_tuple"] >= 2.0, join
    assert group["speedup_vs_tuple"] >= 2.0, group
