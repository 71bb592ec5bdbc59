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

E23 — the parallel hash join.  A 200k-row ``orders`` table, sharded 4
ways on ``cust``, joined to 2 000 ``cust`` rows: the glue gathers a
broadcast hash join (probe morsels of ``orders``, every morsel task
building ``cust`` in full).  Serial against GATHER at dop 2, on the tuple
interpreter and on the shipped ``auto`` backend, medians of 5.  Always
asserted: byte-identity against the serial run with the same options,
zero fallbacks, and a GATHER at the plan root.  The speedup is recorded,
not asserted (``speedup_asserted: false``).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import bulk_insert, cores as affinity_cores, \
    print_table
from repro import CompileOptions, Database
from repro.optimizer import plans as pl

ROWS = 200_000
REPEATS = 3
DOPS = [1, 2, 4]

CUSTOMERS = 2_000
PARTITIONS = 4
JOIN_DOP = 2
JOIN_REPEATS = 5

_JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_parallel.json")

AGG_SQL = ("SELECT count(*), sum(b), min(a), max(a) FROM events "
           "WHERE b < 70 AND a % 3 <> 0")
GROUP_SQL = "SELECT g, count(*), sum(b) FROM events GROUP BY g"
JOIN_SQL = ("SELECT o.id, c.name FROM orders o, cust c "
            "WHERE o.cust = c.cid AND o.amt > 8.0")


@pytest.fixture(scope="module")
def par_db() -> Database:
    db = Database(pool_capacity=4096)
    db.execute("CREATE TABLE events (a INTEGER, b INTEGER, g INTEGER)")
    bulk_insert(db, "events",
                [(i, i % 100, i % 31) for i in range(ROWS)])
    db.analyze()
    yield db
    db.close()


@pytest.fixture(scope="module")
def join_db() -> Database:
    db = Database(pool_capacity=4096)
    db.execute("CREATE TABLE orders (id INTEGER, cust INTEGER, amt DOUBLE)"
               " PARTITION BY HASH(cust) PARTITIONS %d" % PARTITIONS)
    db.execute("CREATE TABLE cust (cid INTEGER, name VARCHAR(16))")
    bulk_insert(db, "orders",
                [(i, (i * 13) % CUSTOMERS, float(i % 41) / 4.0)
                 for i in range(ROWS)])
    bulk_insert(db, "cust",
                [(c, "cust%04d" % c) for c in range(CUSTOMERS)])
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


def _update_report(**sections) -> None:
    """Rewrite the given top-level sections of ``BENCH_parallel.json``,
    keeping the others, so either test can run alone."""
    try:
        with open(_JSON_PATH) as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        report = {}
    report.update(sections)
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def _tuple_options(db: Database) -> CompileOptions:
    # The 0.7 x dop gate was set on the tuple interpreter, whose
    # per-row work is what the morsels divide.
    return db.settings.compile_options().replace(
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
    _update_report(
        rows=ROWS,
        cores=cores,
        dops=DOPS,
        gate={"dop": gate_dop, "min_speedup": round(0.7 * gate_dop, 2)},
        scan_filter_agg=agg,
        group_by=group,
    )
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


def _median_time(db: Database, sql: str, options: CompileOptions):
    compiled = db.compile(sql, options=options)
    times = []
    result = None
    for _ in range(JOIN_REPEATS):
        started = time.perf_counter()
        result = db.run_compiled(compiled)
        times.append(time.perf_counter() - started)
    return sorted(times)[len(times) // 2], result, compiled


def _measure_join(db: Database, mode: str):
    serial_options = db.settings.compile_options().replace(
        execution_mode=mode)
    serial_s, serial, _c = _median_time(db, JOIN_SQL, serial_options)
    gather_s, gathered, compiled = _median_time(
        db, JOIN_SQL, serial_options.replace(parallelism="on",
                                             dop=JOIN_DOP))
    assert isinstance(compiled.plan, pl.Gather), compiled.plan.explain()
    assert repr(gathered.rows) == repr(serial.rows)  # byte-identity
    assert gathered.stats.parallel_fallbacks == 0, \
        gathered.stats.parallel_reasons
    return {
        "serial_s": round(serial_s, 6),
        "gather_s": round(gather_s, 6),
        "speedup": round(serial_s / gather_s, 2),
        "rows_out": len(serial.rows),
    }


def test_e23_parallel_join(join_db):
    legs = {mode: _measure_join(join_db, mode) for mode in ("tuple", "auto")}
    _update_report(hash_join={
        "rows": ROWS,
        "build_rows": CUSTOMERS,
        "partitions": PARTITIONS,
        "dop": JOIN_DOP,
        "cores": affinity_cores(),
        "repeats": JOIN_REPEATS,
        "speedup_asserted": False,
        "tuple": legs["tuple"],
        "auto": legs["auto"],
    })
    print_table(
        "E23: broadcast hash join, serial vs GATHER at dop %d (%d x %d"
        " rows, %d core(s), medians of %d)"
        % (JOIN_DOP, ROWS, CUSTOMERS, affinity_cores(), JOIN_REPEATS),
        ["backend", "serial (s)", "gather (s)", "speedup", "rows out"],
        [(mode, "%.4f" % m["serial_s"], "%.4f" % m["gather_s"],
          "%.2fx" % m["speedup"], m["rows_out"])
         for mode, m in legs.items()])
