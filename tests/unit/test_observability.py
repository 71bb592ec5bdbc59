"""The observability subsystem: per-operator ``op`` spans (EXPLAIN
ANALYZE), compile-phase tracing, and the process-level metrics registry.

The load-bearing properties: operator detail off allocates no wrapper
objects (zero overhead when disabled), on never changes answers (also
enforced by the differential ``analyze`` config), parallel workers' op
spans graft under the Gather's span, and cached executions report *this
run's* actuals rather than the cold compile's.
"""

from __future__ import annotations

import json
import re

import pytest

from repro import CompileOptions, Database
from repro.errors import SemanticError
from repro.executor import parallel
from repro.executor.context import ExecutionStats
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    OpSpans,
    RequestTrace,
    Span,
)


@pytest.fixture(scope="module")
def obs_db() -> Database:
    db = Database(pool_capacity=512)
    db.execute("CREATE TABLE t (id INTEGER, v INTEGER, g INTEGER)")
    db.execute("CREATE TABLE names (g INTEGER, label VARCHAR(10))")
    txn = db.begin()
    for i in range(20000):
        db.engine.insert(txn, "t", (i, i % 97, i % 7))
    for i in range(7):
        db.engine.insert(txn, "names", (i, "g%d" % i))
    db.commit(txn)
    db.analyze()
    yield db
    db.close()


def _options(db, **overrides) -> CompileOptions:
    return db.settings.compile_options().replace(**overrides)


def _analyzed(db, sql, options=None):
    """Run ``sql`` under a trace with operator detail on; returns the
    result and the trace."""
    trace = RequestTrace("t-ops", operators=True)
    result = db.execute(sql, options=options, tracer=trace)
    return result, trace


def _ops(trace):
    """The coordinator's ``op`` span attrs, by walk index."""
    return {span.attrs["node"]: span.attrs
            for span in trace.root.find("execute").children
            if span.name == "op"}


def _op(trace, name):
    """The attrs of the first ``op`` span of operator ``name``."""
    return next(attrs for _index, attrs in sorted(_ops(trace).items())
                if attrs["op"] == name)


# ---------------------------------------------------------------------------
# Per-operator profiles
# ---------------------------------------------------------------------------


class TestPlanProfile:
    """A plan's runtime profile, recorded as ``op`` spans."""

    def test_tuple_path_counts_rows_and_time(self, obs_db):
        result, trace = _analyzed(
            obs_db, "SELECT id FROM t WHERE v < 3",
            _options(obs_db, execution_mode="tuple"))
        scan = _op(trace, "SCAN")
        assert scan["rows"] == len(result.rows)
        assert scan["time_ns"] > 0
        assert scan["loops"] == 1
        assert scan["est"] > 0 and scan["cost"] > 0

    def test_analyze_answers_match_plain(self, obs_db):
        sql = ("SELECT t.g, count(*), sum(t.v) FROM t, names "
               "WHERE t.g = names.g GROUP BY t.g")
        plain = obs_db.execute(sql, options=_options(obs_db))
        analyzed, _trace = _analyzed(obs_db, sql, _options(obs_db))
        assert analyzed.rows == plain.rows
        assert analyzed.columns == plain.columns

    def test_batch_path_counts_batches(self, obs_db):
        """The fused path: the SCAN inside the region is counted by the
        analyze variant's row counter — the rows passing its predicates,
        not the rows read."""
        sql = "SELECT id, v FROM t WHERE v < 50"
        options = _options(obs_db, execution_mode="auto")
        result, trace = _analyzed(obs_db, sql, options)
        plan = obs_db.compile(sql, options=options).plan
        index, node = next((index, node)
                           for index, node in enumerate(plan.walk())
                           if node.op_name == "SCAN")
        assert node.exec_backend == "compiled"
        scan = _ops(trace)[index]
        assert scan["rows"] == len(result.rows)
        assert scan["rows"] < 20000
        assert scan["loops"] == 1

    def test_fused_region_reports_actual_rows_per_node(self, obs_db):
        """Under the shipped auto, a grouped scan over 4 096 rows runs
        fused: every node of the region shows actual rows, none shows
        "(never executed)"."""
        sql = "SELECT g, count(*), sum(v) FROM t WHERE v < 50 GROUP BY g"
        text = obs_db.explain(sql, options=_options(obs_db), analyze=True)
        plan_lines = [line for line in text.splitlines()
                      if "cost=" in line]
        assert any("fused=" in line for line in plan_lines)
        assert plan_lines and all("actual rows=" in line
                                  for line in plan_lines), text
        _result, trace = _analyzed(obs_db, sql, _options(obs_db))
        expected = sum(1 for i in range(20000) if i % 97 < 50)
        assert _op(trace, "SCAN")["rows"] == expected
        assert _op(trace, "GROUPBY")["rows"] == 7

    def test_analyze_off_allocates_no_wrappers(self, obs_db, monkeypatch):
        """With operator detail off — untraced, or traced without it —
        no OpSpans (and hence no op span or wrapper generator) may ever
        be constructed."""
        def boom(*_args, **_kwargs):
            raise AssertionError("OpSpans constructed with operators off")

        import repro.core.database as database_module

        monkeypatch.setattr(database_module, "OpSpans", boom)
        options = _options(obs_db, execution_mode="auto")
        result = obs_db.execute("SELECT id FROM t WHERE v < 3",
                                options=options)
        assert len(result.rows) > 0
        trace = RequestTrace("t-plain")
        obs_db.execute("SELECT id FROM t WHERE v < 3", options=options,
                       tracer=trace)
        assert trace.root.find("execute") is not None
        assert trace.root.find("op") is None

    def test_loops_count_reevaluated_subplans(self, obs_db):
        # rewrite off keeps the correlated subquery as a subplan that is
        # re-evaluated per outer row (7 distinct correlation values).
        _result, trace = _analyzed(
            obs_db,
            "SELECT g FROM names "
            "WHERE g IN (SELECT g FROM t WHERE t.id = names.g)",
            _options(obs_db, rewrite_enabled=False))
        assert any(attrs["loops"] == 7 for attrs in _ops(trace).values()), \
            "a subplan re-opened per correlation value must show loops=7"


class TestParallelMerge:
    def test_worker_probes_merge_through_gather(self, obs_db):
        sql = "SELECT id, v + g FROM t WHERE v < 30"
        options = _options(obs_db, parallelism="on", dop=4,
                           execution_mode="tuple")
        result, trace = _analyzed(obs_db, sql, options)
        gather = next(span for span in trace.root.find_all("op")
                      if span.attrs["op"].startswith("GATHER"))
        groups = [span for span in gather.children if span.name == "worker"]
        tasks = [task for group in groups for task in group.children]
        assert len(tasks) >= 2
        assert groups and all(group.attrs["pid"] for group in groups)
        assert all(task.name == "worker.morsel" for task in tasks)
        # The scan ran only inside workers: one op span per task, keyed
        # by the coordinator's walk index.
        scans = [span.attrs for task in tasks for span in task.children
                 if span.attrs["op"] == "SCAN"]
        assert len(scans) == len(tasks)
        assert sum(scan["rows"] for scan in scans) > 0
        assert sum(scan["time_ns"] for scan in scans) > 0
        plan = obs_db.compile(sql, options=options).plan
        assert {scan["node"] for scan in scans} == {
            index for index, node in enumerate(plan.walk())
            if node.op_name == "SCAN"}
        assert all(attrs["op"] != "SCAN" for attrs in _ops(trace).values())
        # Worker-side execution stats merge into the coordinator's.
        assert result.stats.rows_scanned == 20000

    def test_parallel_analyze_rows_identical(self, obs_db):
        sql = "SELECT id, v FROM t WHERE v > 90 ORDER BY v, id LIMIT 13"
        serial = obs_db.execute(sql, options=_options(obs_db))
        par, _trace = _analyzed(
            obs_db, sql, _options(obs_db, parallelism="on", dop=4,
                                  execution_mode="auto"))
        assert par.rows == serial.rows

    def test_malformed_worker_fragment_degrades_rendering(
            self, monkeypatch):
        """A task whose span cannot be read costs its op detail, not the
        statement: EXPLAIN ANALYZE renders and counts the loss."""
        if not parallel.fork_available():
            pytest.skip(parallel.disabled_reason())
        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(parallel, "_fragment",
                            lambda task, **attrs: ("mangled",))
        db = Database(pool_capacity=256)
        try:
            db.execute("CREATE TABLE m (id INTEGER, v INTEGER)")
            txn = db.begin()
            for i in range(4000):
                db.engine.insert(txn, "m", (i, i % 10))
            db.commit(txn)
            db.analyze()
            text = db.explain("SELECT id FROM m WHERE v < 3",
                              options=_options(db, parallelism="on", dop=2),
                              analyze=True)
        finally:
            db.close()
        assert "fragment_errors=" in text
        assert "GATHER" in text and "actual rows=" in text


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE rendering
# ---------------------------------------------------------------------------


class TestExplainAnalyze:
    def test_parallel_batch_rendering(self, obs_db):
        """The acceptance-criteria query, on the fused path: parallel +
        compiled EXPLAIN ANALYZE shows actual rows, time, est-vs-actual,
        worker stats."""
        text = obs_db.explain(
            "SELECT id, v + g FROM t WHERE v < 30",
            options=_options(obs_db, parallelism="on", dop=4,
                             execution_mode="auto"),
            analyze=True)
        assert "EXPLAIN ANALYZE" in text
        assert "est=" in text and "actual rows=" in text
        assert "time=" in text and "%" in text
        assert "workers(rows=" in text
        assert "exchange(morsels=" in text
        assert "backend=compiled" in text
        assert "(never executed)" not in text
        assert "phases:" in text and "execute=" in text
        assert "worker pool:" in text

    def test_statement_form(self, obs_db):
        result = obs_db.execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM t WHERE g = 2")
        text = "\n".join(line for (line,) in result.rows)
        assert "EXPLAIN ANALYZE" in text
        assert "actual rows=" in text

    def test_plain_explain_unchanged(self, obs_db):
        text = obs_db.explain("SELECT id FROM t WHERE v < 3")
        assert "=== plan ===" in text
        assert "actual" not in text

    def test_analyze_of_ddl_rejected(self, obs_db):
        with pytest.raises(SemanticError):
            obs_db.explain("CREATE TABLE nope (a INTEGER)", analyze=True)

    @staticmethod
    def _exchange_span(tasks):
        """An exchange's op span with one task span grafted per
        ``(pid, milliseconds)``."""
        span = Span("op").set(rows=0, loops=1, time_ns=0)
        fragments = []
        for pid, ms in tasks:
            task = Span("worker.morsel", start_ns=0)
            task.end_ns = int(ms * 1e6)
            if pid is not None:
                task.set(pid=pid)
            fragments.append(task.export())
        RequestTrace("t").attach_worker_fragments(span, fragments)
        return span

    def test_per_worker_wall_view_format(self, obs_db):
        """Pin the wall(...) view: task spans grouped by worker pid,
        each worker's tasks summed, min/median/max over workers."""
        from repro.obs.render import _node_line

        node = obs_db.compile("SELECT id FROM t WHERE v < 3").plan
        # Four tasks over two workers: 101 ran 10ms+30ms, 102 ran
        # 20ms+40ms -> walls [40ms, 60ms].
        span = self._exchange_span([(101, 10), (102, 20), (101, 30),
                                    (102, 40)])
        line = _node_line(node, span, [], total_ns=0, depth=0)
        assert ("skew(min=10.0ms median=30.0ms max=40.0ms)"
                in line)
        assert ("wall(workers=2 min=40.0ms median=60.0ms max=60.0ms)"
                in line)
        # workers= counts the pids that ran tasks, not the node's dop.
        assert "exchange(morsels=4 workers=2 runs=1 " in line

    def test_wall_view_suppressed_without_worker_ids(self, obs_db):
        """Task spans without a pid: the wall view stays silent instead
        of inventing one worker per task."""
        from repro.obs.render import _node_line

        node = obs_db.compile("SELECT id FROM t WHERE v < 3").plan
        span = self._exchange_span([(None, 10), (None, 20)])
        line = _node_line(node, span, [], total_ns=0, depth=0)
        assert "skew(min=" in line
        assert "wall(" not in line

    def test_wall_view_rendered_in_live_parallel_run(self, obs_db):
        if not parallel.fork_available():
            pytest.skip(parallel.disabled_reason())
        text = obs_db.explain(
            "SELECT id, v + g FROM t WHERE v < 30",
            options=_options(obs_db, parallelism="on", dop=4),
            analyze=True)
        assert "skew(min=" in text
        walls = re.search(r" wall\(workers=(\d+) ", text)
        assert walls
        # The exchange reports the workers that ran, however the pool
        # was clamped below dop=4.
        assert re.search(r"exchange\(morsels=\d+ workers=%s "
                         % walls.group(1), text)

    def test_dop_exceeding_cores_is_reported(self, obs_db, monkeypatch):
        monkeypatch.setattr(parallel, "available_cores", lambda: 2)
        text = obs_db.explain(
            "SELECT id FROM t WHERE v < 3",
            options=_options(obs_db, parallelism="on", dop=64),
            analyze=True)
        assert "requested dop=64 exceeds" in text
        result = obs_db.execute(
            "SELECT id FROM t WHERE v < 3",
            options=_options(obs_db, parallelism="on", dop=64))
        assert any("dop=64 exceeds" in reason
                   for reason in result.stats.parallel_reasons)


# ---------------------------------------------------------------------------
# Cached-plan co-existence (PhaseTimings on the cached path)
# ---------------------------------------------------------------------------


class TestAnalyzeWithPlanCache:
    def test_cached_run_records_fresh_execute_timing(self):
        db = Database()
        db.execute("CREATE TABLE c (a INTEGER)")
        db.execute("INSERT INTO c VALUES (1)")
        sql = "SELECT a FROM c WHERE a > 0"
        first = db.execute(sql)
        assert first.timings.pipeline == "compiled"
        # Poison the timing; a cache-served run must overwrite it.
        first.timings.execute = -1.0
        second = db.execute(sql)
        assert second.timings.pipeline == "cached"
        assert second.timings.execute > 0
        db.close()

    def test_analyze_serves_cached_plan_and_reports_actuals(self):
        db = Database()
        db.execute("CREATE TABLE c (a INTEGER)")
        for i in range(5):
            db.execute("INSERT INTO c VALUES (%d)" % i)
        sql = "SELECT a FROM c WHERE a >= 0"
        db.execute(sql)  # compiled untraced, now cached
        hits_before = db.metrics_snapshot()["plan_cache_hits_total"]
        analyzed, trace = _analyzed(db, sql)
        assert analyzed.timings.pipeline == "cached"
        # Operator detail is a property of the trace, not of the plan:
        # this was a cache HIT on the plan compiled without it.
        assert db.metrics_snapshot()["plan_cache_hits_total"] \
            > hits_before
        assert _ops(trace)
        # Grow the table (small DML is not an invalidation event) and
        # re-analyze: actual rows must be this run's, not the first's.
        db.execute("INSERT INTO c VALUES (99)")
        again, trace = _analyzed(db, sql)
        assert again.timings.pipeline == "cached"
        assert _ops(trace)[0]["rows"] == 6
        db.close()

    def test_explain_analyze_of_cached_statement(self):
        db = Database()
        db.execute("CREATE TABLE c (a INTEGER)")
        for i in range(4):
            db.execute("INSERT INTO c VALUES (%d)" % i)
        sql = "SELECT a FROM c WHERE a >= 0"
        db.execute(sql)
        text = db.explain(sql, analyze=True)
        assert "(cached)" in text
        assert "actual rows=4" in text
        db.close()


# ---------------------------------------------------------------------------
# Compile-phase tracing
# ---------------------------------------------------------------------------


class TestTrace:
    def test_rewrite_and_optimizer_events(self, obs_db):
        trace = RequestTrace("t-events")
        obs_db.compile(
            "SELECT t.id FROM t, names WHERE t.g = names.g AND t.v IN "
            "(SELECT v FROM t WHERE id < 10)",
            trace=trace)
        for kind in ("rewrite.fire", "optimizer.winner", "optimizer.prune",
                     "star", "optimizer.plan"):
            assert trace.root.find_all(kind), kind
        fire = trace.root.find_all("rewrite.fire")[0]
        assert fire.attrs["rule"]
        assert fire.attrs["rule_class"]
        assert fire.attrs["budget_spent"] >= 1
        prune = trace.root.find_all("optimizer.prune")[0]
        assert prune.attrs["considered"] > prune.attrs["kept"]
        assert prune.attrs["losing_costs"]
        winner = trace.root.find_all("optimizer.winner")[0]
        assert winner.attrs["cost"] > 0

    def test_glue_event_under_parallelism(self, obs_db):
        trace = RequestTrace("t-glue")
        obs_db.compile("SELECT id FROM t WHERE v < 3",
                       options=_options(obs_db, parallelism="on", dop=4),
                       trace=trace)
        glue = trace.root.find_all("glue.parallel")
        assert glue and glue[0].attrs["spliced"] is not None

    def test_render_text_and_json(self, obs_db):
        trace = RequestTrace("t-render")
        obs_db.compile("SELECT id FROM t WHERE v < 3", trace=trace)
        assert "optimizer.plan" in trace.render_text()
        tree = json.loads(trace.to_json())
        assert tree["trace_id"] == "t-render"
        compile_span = tree["spans"]["children"][0]
        assert compile_span["name"] == "compile"
        events = [event for phase in compile_span["children"]
                  for event in phase.get("children", ())]
        assert events and all(event["ms"] == 0 for event in events)

    def test_untraced_compile_emits_nothing(self, obs_db, monkeypatch):
        from repro.core import pipeline

        optimizers = []

        class Recording(pipeline.Optimizer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(pipeline, "Optimizer", Recording)
        obs_db.compile("SELECT id FROM t WHERE v < 3")
        assert [optimizer.trace for optimizer in optimizers] == [None]

    def test_explain_trace_section(self, obs_db):
        text = obs_db.explain("SELECT id FROM t WHERE v < 3", trace=True)
        assert "=== trace (" in text
        assert "optimizer.winner" in text

    def test_compile_events_nest_under_their_phase(self, monkeypatch):
        """One tree per compile: every event sits under the phase that
        emitted it, the phases are real, contiguous spans in Figure-1
        order, and each one's duration is its PhaseTimings field."""
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER, v INTEGER, g INTEGER)")
        db.execute("CREATE TABLE names (g INTEGER, label VARCHAR(10))")
        for i in range(50):
            db.execute("INSERT INTO t VALUES (%d, %d, %d)"
                       % (i, i % 97, i % 7))
        for i in range(7):
            db.execute("INSERT INTO names VALUES (%d, 'g%d')" % (i, i))
        db.analyze()
        sql = ("SELECT t.id FROM t, names WHERE t.g = names.g AND t.v IN "
               "(SELECT v FROM t WHERE id < 11)")
        trace = RequestTrace("t-tree")
        compiled = db.compile(
            sql, options=CompileOptions(execution_mode="tuple"), trace=trace)

        counts = {"star": 64, "optimizer.prune": 3, "rewrite.fire": 2,
                  "optimizer.winner": 2, "optimizer.plan": 1}
        for kind, count in counts.items():
            assert len(trace.root.find_all(kind)) == count, kind
        assert trace.events == sum(counts.values())
        assert trace.root.find("phase") is None

        compile_span = trace.root.find("compile")
        phases = compile_span.children
        expected = ["parse", "rewrite", "optimize", "refine"]
        if compiled.options.execution_mode != "tuple":
            expected.append("codegen")
        assert [phase.name for phase in phases] == expected
        rewrite, optimize = phases[1], phases[2]
        assert len(rewrite.find_all("rewrite.fire")) == 2
        for kind in ("star", "optimizer.prune", "optimizer.winner",
                     "optimizer.plan"):
            assert len(optimize.find_all(kind)) == counts[kind], kind
        cursor = compile_span.start_ns
        for phase in phases:
            assert phase.start_ns >= cursor
            cursor = phase.end_ns
            assert phase.duration_ns / 1e9 == getattr(compiled.timings,
                                                      phase.name)
        assert cursor <= compile_span.end_ns

        allocated = []
        original = Span.__init__

        def counting(self, *args, **kwargs):
            allocated.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting)
        db.compile(sql, options=CompileOptions(plan_cache=False))
        assert allocated == []
        db.close()


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", "help text")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.dec(2)
        assert gauge.value == 5
        histogram = registry.histogram("lat", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"][1.0] == 2
        assert snap["buckets"][10.0] == 3  # cumulative
        assert histogram.overflow == 1

    def test_get_or_create_is_stable_and_type_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("n")
        assert registry.counter("n") is first
        with pytest.raises(ValueError):
            registry.gauge("n")

    def test_reset_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("n", "kept help").inc(3)
        registry.reset()
        assert registry.counter("n").value == 0
        assert registry.get("n").help == "kept help"

    def test_exposition_format(self):
        registry = MetricsRegistry(prefix="repro_")
        registry.counter("queries", "Queries run").inc(2)
        registry.histogram("ms", buckets=(1.0, 5.0)).observe(3.0)
        text = registry.exposition()
        assert "# HELP repro_queries Queries run" in text
        assert "# TYPE repro_queries counter" in text
        assert "repro_queries 2" in text
        assert 'repro_ms_bucket{le="1"} 0' in text
        assert 'repro_ms_bucket{le="5"} 1' in text
        assert 'repro_ms_bucket{le="+Inf"} 1' in text
        assert "repro_ms_sum 3" in text
        assert "repro_ms_count 1" in text


class TestDatabaseMetrics:
    def test_execute_paths_feed_the_registry(self):
        db = Database()
        db.execute("CREATE TABLE m (a INTEGER)")
        db.execute("INSERT INTO m VALUES (1)")
        db.execute("SELECT a FROM m")
        db.execute("SELECT a FROM m")  # cache hit
        snap = db.metrics_snapshot()
        assert snap["statements_total"] >= 3
        assert snap["rows_returned_total"] >= 2
        assert snap["plan_cache_hits_total"] >= 1
        assert snap["plan_cache_misses_total"] >= 1
        assert snap["plan_cache_entries"] >= 1
        # DDL never compiles and the repeated SELECT is a cache hit, so
        # only the INSERT and the first SELECT go through the compiler.
        assert snap["compile_ms"]["count"] >= 2
        assert snap["execute_ms"]["count"] >= 3
        assert snap["worker_cores"] == parallel.available_cores()
        db.metrics_reset()
        assert db.metrics_snapshot()["statements_total"] == 0
        db.close()

    def test_parallel_fallback_counter(self, monkeypatch):
        monkeypatch.setattr(parallel, "_FORCED_START_METHODS", ["spawn"])
        db = Database()
        db.execute("CREATE TABLE m (a INTEGER)")
        db.execute("INSERT INTO m VALUES (1)")
        db.execute("SELECT a FROM m",
                   options=CompileOptions(parallelism="on", dop=4))
        assert db.metrics_snapshot()["parallel_fallbacks_total"] >= 1
        db.close()


# ---------------------------------------------------------------------------
# ExecutionStats repr (regenerated from vars, never stale)
# ---------------------------------------------------------------------------


def test_execution_stats_repr_includes_every_counter():
    stats = ExecutionStats()
    stats.morsels = 3
    stats.parallel_exchanges = 2
    stats.parallel_fallbacks = 1
    text = repr(stats)
    for name in vars(stats):
        assert name in text
    assert "morsels=3" in text
    assert "parallel_exchanges=2" in text


def test_worker_op_spans_graft_under_the_exchange(obs_db):
    """A worker task's op spans cross the fork boundary inside its
    fragment, keyed by walk index; grafted under the coordinator's
    span they render as that node's worker detail."""
    from repro.obs.render import render_analyze

    compiled = obs_db.compile("SELECT id FROM t WHERE v < 3")
    nodes = list(compiled.plan.walk())
    task = Span("worker.morsel").set(pid=7)
    OpSpans(task, compiled.plan).credit(nodes[1], 42)
    trace = RequestTrace("t-graft", operators=True)
    execute = trace.begin("execute")
    ops = OpSpans(execute, compiled.plan)
    trace.attach_worker_fragments(ops.span(nodes[0]),
                                  [task.finish().export()])
    trace.end(execute)
    grafted = trace.root.find("worker.morsel").find("op")
    assert grafted.attrs["node"] == 1
    assert grafted.attrs["rows"] == 42
    text = render_analyze(compiled.plan, execute)
    assert "workers(rows=42 time=0.000ms tasks=1)" in text.splitlines()[2]
