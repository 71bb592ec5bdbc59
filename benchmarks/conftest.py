"""Shared workload builders for the benchmark suite.

Each benchmark regenerates one experiment from EXPERIMENTS.md (which maps
them back to the paper's figures and claims).  Benchmarks print their
result tables to stdout — run with ``pytest benchmarks/ --benchmark-only -s``
to see them; EXPERIMENTS.md records a reference run.
"""

from __future__ import annotations

import os

import pytest

from repro import Database
from repro.obs.spans import RequestTrace


def cores() -> int:
    """CPU cores this process may actually run on.

    Every ``BENCH_*.json`` records this so a reader can judge the
    speedup columns: parallel-execution speedups are only asserted when
    >=2 cores are available (forked workers on one core just time-slice
    it), while single-process speedups (backend, plan cache) hold on
    any host and stay asserted unconditionally.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def project_rows(db: Database, sql: str) -> int:
    """Rows the statement's PROJECT operators emitted, read from the
    ``op`` spans EXPLAIN ANALYZE fills.  (``stats.rows_emitted`` counts
    only what a fused region's root emits, so it cannot see rows that
    cross a view boundary inside one region.)"""
    trace = RequestTrace("bench-ops", operators=True)
    db.execute(sql, tracer=trace)
    return sum(span.attrs["rows"]
               for span in trace.root.find("execute").children
               if span.name == "op" and span.attrs["op"] == "PROJECT")


def bulk_insert(db: Database, table: str, rows) -> None:
    txn = db.begin()
    for row in rows:
        db.engine.insert(txn, table, row)
    db.commit(txn)


@pytest.fixture(scope="module")
def parts_db() -> Database:
    """The paper's quotations/inventory schema at benchmark scale."""
    db = Database(pool_capacity=512)
    db.execute("CREATE TABLE quotations (partno INTEGER, price DOUBLE, "
               "order_qty INTEGER, supplier VARCHAR(20))")
    db.execute("CREATE TABLE inventory (partno INTEGER PRIMARY KEY, "
               "onhand_qty INTEGER, type VARCHAR(10))")
    bulk_insert(db, "inventory",
                [(i, (i * 7) % 101, "CPU" if i % 4 == 0 else "MEM")
                 for i in range(500)])
    bulk_insert(db, "quotations",
                [(i % 800, 10.0 + (i % 97) * 1.5, i % 13,
                  "supplier%d" % (i % 20))
                 for i in range(3000)])
    db.analyze()
    return db


@pytest.fixture(scope="module")
def star_db() -> Database:
    """A small star schema for join benchmarks."""
    db = Database(pool_capacity=512)
    db.execute("CREATE TABLE fact (id INTEGER PRIMARY KEY, d1 INTEGER, "
               "d2 INTEGER, d3 INTEGER, measure DOUBLE)")
    for name in ("dim1", "dim2", "dim3"):
        db.execute("CREATE TABLE %s (k INTEGER PRIMARY KEY, "
                   "label VARCHAR(12))" % name)
        bulk_insert(db, name, [(i, "%s_%d" % (name, i)) for i in range(50)])
    bulk_insert(db, "fact",
                [(i, i % 50, (i * 3) % 50, (i * 7) % 50, float(i % 997))
                 for i in range(4000)])
    db.analyze()
    return db


import os

_RESULTS_PATH = os.path.join(os.path.dirname(__file__),
                             "latest_results.txt")
_results_initialized = False


def print_table(title: str, headers, rows) -> None:
    """Print one experiment's result table.

    The table goes to stdout (visible with ``pytest -s``) *and* is appended
    to ``benchmarks/latest_results.txt`` so a plain
    ``pytest benchmarks/ --benchmark-only`` run still leaves the result
    tables on disk.
    """
    global _results_initialized
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
              else len(str(h)) for i, h in enumerate(headers)]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines = ["", title, "  " + line, "  " + "-" * len(line)]
    for row in rows:
        lines.append("  " + "  ".join(str(v).ljust(w)
                                      for v, w in zip(row, widths)))
    text = "\n".join(lines)
    print(text)
    mode = "a" if _results_initialized else "w"
    with open(_RESULTS_PATH, mode) as handle:
        handle.write(text + "\n")
    _results_initialized = True
