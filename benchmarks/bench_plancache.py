"""E18 (extension) — compile-once-execute-many via the plan cache.

The paper stores compilation results "for future use"; this benchmark
measures what that buys a serving workload: 10k executions drawn
round-robin from a small pool of parameterized point and join queries,
once with the plan cache (the default) and once compiling every
statement from scratch (``plan_cache=False``).

Results go to ``benchmarks/latest_results.txt`` (via ``print_table``)
and ``BENCH_plancache.json`` at the repo root; the perf-smoke CI job
runs this module and enforces the >=5x end-to-end acceptance bar.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import bulk_insert, cores as affinity_cores, \
    print_table
from repro import CompileOptions, Database

PARTS = 2_000
SUPPLIERS = 20
EXECUTIONS = 10_000

_JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_plancache.json")

#: The serving pool: parameterized point lookups and index-driven joins
#: (cheap to execute, so repeated compilation is the dominant cost —
#: exactly the workload a prepared-statement path exists for).
POOL = [
    ("point", "SELECT name, price FROM parts WHERE partno = ?",
     lambda i: [i % PARTS]),
    ("point-supply", "SELECT qty FROM supply WHERE partno = ?",
     lambda i: [i % 500]),
    ("join-2way",
     "SELECT p.name, s.supplier FROM parts p, supply s "
     "WHERE p.partno = s.partno AND p.partno = ?",
     lambda i: [i % 500]),
    ("join-3way",
     "SELECT p.name, s.qty, v.city FROM parts p, supply s, vendors v "
     "WHERE p.partno = s.partno AND s.supplier = v.vname "
     "AND p.partno = ?",
     lambda i: [i % 500]),
]


@pytest.fixture(scope="module")
def serving_db() -> Database:
    db = Database(pool_capacity=512)
    db.execute("CREATE TABLE parts (partno INTEGER PRIMARY KEY, "
               "name VARCHAR(20), price DOUBLE)")
    db.execute("CREATE TABLE supply (partno INTEGER, "
               "supplier VARCHAR(20), qty INTEGER)")
    db.execute("CREATE TABLE vendors (vname VARCHAR(20) PRIMARY KEY, "
               "city VARCHAR(20))")
    bulk_insert(db, "parts",
                [(i, "p%d" % i, float(i % 97)) for i in range(PARTS)])
    bulk_insert(db, "supply",
                [(i % 500, "s%d" % (i % SUPPLIERS), i % 13)
                 for i in range(PARTS)])
    bulk_insert(db, "vendors",
                [("s%d" % k, "city%d" % (k % 7))
                 for k in range(SUPPLIERS)])
    db.execute("CREATE INDEX isup ON supply (partno)")
    db.analyze()
    return db


def _run(db: Database, executions: int, options: CompileOptions) -> float:
    started = time.perf_counter()
    for i in range(executions):
        name, sql, params = POOL[i % len(POOL)]
        db.execute(sql, params(i), options=options)
    return time.perf_counter() - started


def test_e18_plan_cache(serving_db, benchmark):
    db = serving_db
    cached_opts = db.settings.compile_options()
    compile_opts = cached_opts.replace(plan_cache=False)

    # correctness guard: both paths answer identically over the pool
    for _name, sql, params in POOL:
        assert db.execute(sql, params(7), options=cached_opts).rows == \
            db.execute(sql, params(7), options=compile_opts).rows

    hits_before = db.cache_stats()["hits"]
    cached_s = _run(db, EXECUTIONS, cached_opts)
    hits = db.cache_stats()["hits"] - hits_before
    compile_s = _run(db, EXECUTIONS, compile_opts)
    speedup = compile_s / cached_s

    # keep the module selected under --benchmark-only runs
    benchmark(db.execute, POOL[0][1], [7], options=cached_opts)

    report = {
        "executions": EXECUTIONS,
        "cores": affinity_cores(),
        "pool": [name for name, _sql, _params in POOL],
        "compile_every_time_s": round(compile_s, 4),
        "plan_cache_s": round(cached_s, 4),
        "speedup": round(speedup, 2),
        "cache_hits": hits,
        "cache_stats": {
            k: v for k, v in db.cache_stats().items() if k != "per_entry"
        },
    }
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print_table(
        "E18: plan cache vs compile-every-time (%d executions, %d-query "
        "pool)" % (EXECUTIONS, len(POOL)),
        ["mode", "total (s)", "per stmt (ms)", "speedup"],
        [("compile every time", "%.3f" % compile_s,
          "%.3f" % (compile_s / EXECUTIONS * 1e3), "1.00x"),
         ("plan cache", "%.3f" % cached_s,
          "%.3f" % (cached_s / EXECUTIONS * 1e3), "%.2fx" % speedup)])
    # every execution after the warm-up round must be served from cache
    assert hits >= EXECUTIONS - len(POOL)
    # ISSUE acceptance: >=5x end-to-end on the serving workload.
    # Compile-avoidance is single-process and core-independent, so the
    # speedup stays asserted unconditionally.
    assert speedup >= 5.0, report
