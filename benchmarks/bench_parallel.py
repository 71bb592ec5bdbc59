"""E19 (extension) — intra-query parallel execution vs serial dop=1.

The Parallelism glue STAR splices Gather/MergeGather LOLEPOPs over
eligible scan pyramids and the morsel-driven runtime fans them out over
forked workers.  Two microbenchmarks at 200k rows measure the win on the
workloads the feature targets:

- scan → filter → scalar aggregate (one partial row per morsel),
- GROUP BY with mergeable aggregates (partial-agg merge below Gather).

Results go to ``benchmarks/latest_results.txt`` (via ``print_table``)
and ``BENCH_parallel.json`` at the repo root.  The speedup assertion is
relative to what the host can give: the ceiling at dop=d on >=d cores
is d, so the gate is 0.7 x d at the largest measured dop the affinity
mask covers (a flat ">= 2x" is the ceiling itself on a 2-core runner).
On a single-core host forked workers just time-slice one CPU, so the
run only checks byte-identity; ``cores`` is recorded for the reader.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import bulk_insert, cores as affinity_cores, \
    print_table
from repro import CompileOptions, Database

ROWS = 200_000
REPEATS = 3
DOPS = [1, 2, 4]

_JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_parallel.json")

AGG_SQL = ("SELECT count(*), sum(b), min(a), max(a) FROM events "
           "WHERE b < 70 AND a % 3 <> 0")
GROUP_SQL = "SELECT g, count(*), sum(b) FROM events GROUP BY g"


@pytest.fixture(scope="module")
def par_db() -> Database:
    db = Database(pool_capacity=4096)
    db.execute("CREATE TABLE events (a INTEGER, b INTEGER, g INTEGER)")
    bulk_insert(db, "events",
                [(i, i % 100, i % 31) for i in range(ROWS)])
    db.analyze()
    yield db
    db.close()


def _time(db: Database, sql: str, options: CompileOptions):
    compiled = db.compile(sql, options=options)
    best = None
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = db.run_compiled(compiled)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _tuple_options(db: Database) -> CompileOptions:
    # The 0.7 x dop gate was set on the tuple interpreter, whose
    # per-row work is what the morsels divide.
    return CompileOptions.from_settings(db.settings).replace(
        execution_mode="tuple")


def _measure(db: Database, sql: str):
    base = _tuple_options(db)
    serial_s, serial = _time(db, sql, base)
    timings = {1: serial_s}
    for dop in DOPS[1:]:
        par_s, par = _time(
            db, sql, base.replace(parallelism="on", dop=dop))
        assert par.rows == serial.rows  # byte-identity, always
        assert par.stats.parallel_fallbacks == 0, par.stats.parallel_reasons
        timings[dop] = par_s
    return {
        "timings_s": {str(d): round(s, 6) for d, s in timings.items()},
        "speedup_dop2": round(timings[1] / timings[2], 2),
        "speedup_dop4": round(timings[1] / timings[4], 2),
        "rows_out": len(serial.rows),
    }


def test_e18_parallel(par_db, benchmark):
    cores = affinity_cores()
    agg = _measure(par_db, AGG_SQL)
    group = _measure(par_db, GROUP_SQL)
    par4 = _tuple_options(par_db).replace(parallelism="on", dop=4)
    benchmark(par_db.run_compiled, par_db.compile(AGG_SQL, options=par4))
    gate_dop = max(dop for dop in DOPS if dop <= max(1, cores))
    report = {
        "rows": ROWS,
        "cores": cores,
        "dops": DOPS,
        "gate": {"dop": gate_dop, "min_speedup": round(0.7 * gate_dop, 2)},
        "scan_filter_agg": agg,
        "group_by": group,
    }
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print_table(
        "E19: parallel execution vs serial (%d rows, %d core(s))"
        % (ROWS, cores),
        ["workload", "dop=1 (s)", "dop=2 (s)", "dop=4 (s)", "speedup",
         "rows out"],
        [(name, "%.4f" % m["timings_s"]["1"], "%.4f" % m["timings_s"]["2"],
          "%.4f" % m["timings_s"]["4"], "%.2fx" % m["speedup_dop4"],
          m["rows_out"])
         for name, m in (("scan-filter-agg", agg), ("group-by", group))])
    # Only where the hardware can actually run workers concurrently.
    if gate_dop >= 2:
        assert agg["speedup_dop%d" % gate_dop] >= 0.7 * gate_dop, agg
