"""Observability overhead — operator spans off must be free, on cheap.

EXPLAIN ANALYZE records one ``op`` span per executed LOLEPOP, but only
under a request trace with operator detail on (``RequestTrace(...,
operators=True)``); with it off the executor takes a single ``ctx.ops is
not None`` branch per dispatch and allocates nothing.  Two checks on the
E22 workloads (100k-row scan → filter → project, and the hash join),
both on fused pipelines:

- operator spans OFF runs within noise of itself (two off legs per
  repeat must agree within a generous 1.25x),
- operator spans ON stays under 2x the off time (a fused region is
  timed once as a whole; its analyze variant adds one counter increment
  per pipeline step, so the relative cost is small).

Tuple-mode overhead is reported for information only (a per-row
``perf_counter_ns`` pair is inherently heavier than a per-region one).

Every gate compares legs run back to back within one repeat, in
alternating order (ABC, then CBA), after one dropped warm-up repeat,
and takes the median of the per-repeat ratios: a fast or slow phase of
the host then moves both sides of a ratio, and one outlying repeat
cannot move the median.

Results go to ``benchmarks/latest_results.txt`` (via ``print_table``)
and ``BENCH_observability.json`` at the repo root; the perf-smoke CI job
runs this module alongside the other benchmark suites.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median

import pytest

from benchmarks.conftest import bulk_insert, cores as affinity_cores, \
    print_table
from repro import CompileOptions, Database
from repro.obs import RequestTrace

ROWS = 100_000
DIM_ROWS = 1_000
#: Measured repeats per workload (plus one warm-up); the per-repeat
#: ratios' median needs enough of them to outvote a phase of the host.
REPEATS = 9
#: The informational tuple-mode leg is ten times slower: fewer repeats.
TUPLE_REPEATS = 3

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


def _legs(run_leg, legs, repeats: int):
    """Per-repeat wall seconds of each leg, ``[[a, b, c], ...]``.  The
    legs interleave, in order on even repeats and reversed on odd ones,
    and the first repeat only warms up."""
    samples = []
    for repeat in range(repeats + 1):
        order = list(range(len(legs)))
        if repeat % 2:
            order.reverse()
        times = [0.0] * len(legs)
        for leg in order:
            started = time.perf_counter()
            run_leg(legs[leg])
            times[leg] = time.perf_counter() - started
        if repeat:
            samples.append(times)
    return samples


def _ratios(samples):
    """Median per-repeat ratios of legs ``(off, measured, off)``: the
    measured leg against the mean of its two off legs, and the second
    off leg against the first, reported as slower over faster."""
    off = median(c / a for a, _b, c in samples)
    return (median(b / ((a + c) / 2) for a, b, c in samples),
            max(off, 1 / off))


def _measure(db: Database, sql: str, mode: str, force_join=None,
             repeats: int = REPEATS):
    """Execution only (one shared compile), operator spans off, on, off."""
    options = CompileOptions.from_settings(db.settings).replace(
        execution_mode=mode)
    if force_join is not None:
        options = options.replace(forced_join_method=force_join)
    compiled = db.compile(sql, options=options)
    rows = {}

    def run(operators: bool) -> None:
        tracer = RequestTrace("bench", operators=True) if operators \
            else None
        rows[operators] = db.run_compiled(compiled, tracer=tracer).rows

    samples = _legs(run, (False, True, False), repeats)
    assert sorted(map(repr, rows[False])) == sorted(map(repr, rows[True]))
    overhead, noise = _ratios(samples)
    return {
        "analyze_off_s": round(median(min(a, c) for a, _b, c in samples),
                               6),
        "analyze_on_s": round(median(b for _a, b, _c in samples), 6),
        "overhead": round(overhead, 3),
        "off_noise_ratio": round(noise, 3),
        "rows_out": len(rows[False]),
    }


def test_observability_overhead(obs_bench_db, benchmark):
    db = obs_bench_db
    scan = _measure(db, SCAN_SQL, "auto")
    join = _measure(db, JOIN_SQL, "auto", force_join="hash")
    # Tuple-mode per-row spans: informational, no assertion.
    scan_tuple = _measure(db, SCAN_SQL, "tuple", repeats=TUPLE_REPEATS)
    # The off path constructs no span objects, so its two legs per
    # repeat must agree within noise.
    off_ratio = scan["off_noise_ratio"]
    base = CompileOptions.from_settings(db.settings)
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
        "E20: operator-span overhead (%d rows, fused)" % ROWS,
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
    # Spans off is the production path: repeated off runs within noise.
    assert off_ratio < 1.25, report
    # Spans on: <2x on the fused workloads (per-step row counters).
    assert scan["overhead"] < 2.0, scan
    assert join["overhead"] < 2.0, join


# ---------------------------------------------------------------------------
# Serving-layer tracing overhead (PR 10)
# ---------------------------------------------------------------------------

TRACE_ITERS = 200
#: Measured repeats (plus one warm-up) of the three ~55 ms serve legs:
#: the median of the per-repeat ratios needs more of them than the
#: fused-pipeline legs, which run about four times longer.
TRACE_REPEATS = 15
TRACE_SQL = "SELECT max(v) FROM obs_t WHERE id = 7"


def _serve_legs(server, iters: int):
    """Per-repeat wall seconds of ``iters`` statements through one
    session (admission fast path, routing memo, plan-cache hit, stats
    record) in each of three legs: tracing off, sampled 1-in-4, off
    again (see :func:`_legs`)."""
    with server.session() as session:
        session.execute(TRACE_SQL)  # warm the plan cache

        def run(sample) -> None:
            server.tracing.set_sample(sample)
            for _ in range(iters):
                session.execute(TRACE_SQL)

        return _legs(run, ("off", 0.25, "off"), TRACE_REPEATS)


def test_tracing_overhead():
    """Request tracing must be free when off and cheap when sampled.

    Three interleaved legs over the same server and cached statement:
    tracing off (run twice — the two runs must agree within the suite's
    noise bound, i.e. the ``tracer is None`` guards cost nothing
    measurable), and sampled at 1-in-4, which must stay under 1.2x of
    the off legs (three of four requests take only the sampling-counter
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
        samples = _serve_legs(server, TRACE_ITERS)
    finally:
        server.close()
        db.close()
    off_s = median(min(a, c) for a, _b, c in samples)
    sampled = median(b for _a, b, _c in samples)
    sampled_ratio, noise_ratio = _ratios(samples)
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
         ("off (recheck)", "%.4f" % median(max(a, c)
                                            for a, _b, c in samples),
          "%.2fx" % noise_ratio),
         ("sampled 1/4", "%.4f" % sampled, "%.2fx" % sampled_ratio)])
    # Off is the production path: repeated off runs within noise.
    assert noise_ratio < 1.25, report
    # Sampling a quarter of requests must stay under 1.2x.
    assert sampled_ratio < 1.2, report
