"""Fit the Parallelism gate's host constants (``optimizer/cost.py``).

``parallelism="auto"`` splices a GATHER only where the cost model says
the gathered plan beats the serial one.  That comparison rests on five
numbers about the host, which this script measures and prints as the
constants ``cost.py`` declares:

- ``TUPLE_ROW_NS`` / ``FUSED_ROW_NS`` — serial time per row read by a
  bare ``count(*)`` scan on the tuple interpreter and on fused code: the
  least work any pyramid does per row, so the gate never credits a
  gather with more saving than the scan gives.  The gate prices the
  work at the backend that runs it (``CPU_WEIGHT`` is the tuple row,
  ``FUSED_ROW_COST`` the fused one),
- ``TASK_NS`` — the fixed price of one worker task: a real one-row
  morsel task through a GATHER, minus the same statement run serially,
  per task (dispatch, the worker's plan lookup and context, the reply),
- ``EXCHANGE_ROW_NS`` — one row crossing the exchange: pickled in the
  worker, piped, unpickled and concatenated in the coordinator,
- ``SPEEDUP_2`` — what two workers give: a busy loop alone against two
  at once in the pool (``2 * alone / together``).  On a host shared with
  other tenants this swings with their load from probe to probe (0.8x
  to 2.3x on the 2-core fitting host), so the script takes ``PROBES`` of
  them and fits their harmonic mean, ``1 / mean(1 / probe)``: the
  speedup that predicts the *expected* gathered time, since gathered
  work takes ``work / speedup``.  Pool the probes of several runs
  spread over time before committing it.

Run it on the host the defaults are meant for, then copy the printed
constants into ``optimizer/cost.py``::

    PYTHONPATH=src python benchmarks/fit_parallel_costs.py

It takes about ten seconds and forks two workers.
"""

from __future__ import annotations

import statistics
import time

from repro import Database
from repro.executor.workerpool import WorkerPool
from repro.optimizer.cost import CPU_WEIGHT

ROWS = 40_000
REPEATS = 9
SHIPPED = 20_000
SPIN = 1_000_000
PROBES = 15

SCAN_SQL = "SELECT count(*) FROM t"
#: One row out of a two-page table: all but the task overhead is noise.
TASK_SQL = "SELECT count(*) FROM pair"

#: Rows a worker hands back in the exchange probe; set before the pool
#: forks, so the workers inherit them and build nothing.
_ROWS = [(i, i % 100, i * 0.5) for i in range(SHIPPED)]


def _ship(db, count):
    return _ROWS[:count]


def _gather(pool, count):
    parts = pool.map(_ship, [count, count])
    return [row for part in parts for row in part]


def _spin(db, count):
    total = 0
    for i in range(count):
        total += i
    return total


def _seconds(run) -> float:
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


def _speedup(db, pool) -> float:
    alone = _seconds(lambda: _spin(db, SPIN))
    together = _seconds(lambda: pool.map(_spin, [SPIN, SPIN]))
    return 2 * alone / together


def _median(run, repeats=REPEATS) -> float:
    run()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _database() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER, x DOUBLE)")
    db.execute("CREATE TABLE pair (a INTEGER, pad VARCHAR(200))")
    txn = db.begin()
    for i in range(ROWS):
        db.engine.insert(txn, "t", (i, i % 100, (i % 997) * 0.5))
    pad = "p" * 200
    for i in range(60):
        db.engine.insert(txn, "pair", (i, pad))
    db.commit(txn)
    db.analyze()
    return db


def _run_time(db, sql, **overrides) -> float:
    options = db.settings.compile_options().replace(**overrides)
    compiled = db.compile(sql, options=options)
    return _median(lambda: db.run_compiled(compiled))


def fit() -> dict:
    db = _database()
    try:
        pages = db.catalog.statistics("pair").page_count
        assert pages >= 2, "the task probe needs a two-page table"
        tuple_row = _run_time(db, SCAN_SQL, execution_mode="tuple") / ROWS
        fused_row = _run_time(db, SCAN_SQL) / ROWS
        serial = _run_time(db, TASK_SQL)
        gathered = _run_time(db, TASK_SQL, parallelism="on", dop=2)
        task = max(0.0, gathered - serial) / 2
        pool = WorkerPool(db, 2)
        try:
            empty = _median(lambda: _gather(pool, 0))
            full = _median(lambda: _gather(pool, SHIPPED))
            speedups = sorted(_speedup(db, pool) for _ in range(PROBES))
        finally:
            pool.terminate()
    finally:
        db.close()
    row = max(0.0, full - empty) / (2 * SHIPPED)
    unit = tuple_row / CPU_WEIGHT  # seconds per abstract cost unit
    return {
        "TUPLE_ROW_NS": tuple_row * 1e9,
        "FUSED_ROW_NS": fused_row * 1e9,
        "TASK_NS": task * 1e9,
        "EXCHANGE_ROW_NS": row * 1e9,
        "SPEEDUP_2": len(speedups) / sum(1.0 / probe for probe in speedups),
        "speedup_probes": speedups,
        "FUSED_ROW_COST": fused_row / unit,
        "TASK_COST": task / unit,
        "EXCHANGE_ROW_COST": row / unit,
    }


def main() -> None:
    fitted = fit()
    for name in ("TUPLE_ROW_NS", "FUSED_ROW_NS", "TASK_NS",
                 "EXCHANGE_ROW_NS"):
        print("%-18s %10.0f" % (name, fitted[name]))
    print("speedup probes     %s" % " ".join(
        "%.2f" % probe for probe in fitted["speedup_probes"]))
    print("# optimizer/cost.py")
    for name in ("FUSED_ROW_COST", "TASK_COST", "EXCHANGE_ROW_COST",
                 "SPEEDUP_2"):
        print("%s = %.4g" % (name, fitted[name]))


if __name__ == "__main__":
    main()
