"""Unit tests for request tracing (spans), per-statement aggregates,
and the slow-query log."""

import json

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.spans import (
    RequestTrace,
    Span,
    SpanRecorder,
    import_fragment,
)
from repro.obs.statstats import StatementStats


class TestSpan:
    def test_nesting_and_durations(self):
        trace = RequestTrace("t-1")
        with trace.span("outer") as outer:
            with trace.span("inner") as inner:
                pass
        trace.finish()
        assert trace.root.children == [outer]
        assert outer.children == [inner]
        assert outer.end_ns >= inner.end_ns >= inner.start_ns
        assert trace.root.duration_ns >= outer.duration_ns

    def test_attrs_and_find(self):
        trace = RequestTrace("t-2")
        with trace.span("a"):
            with trace.span("b") as b:
                b.set(rows=7)
        assert trace.root.find("b").attrs["rows"] == 7
        assert trace.root.find("missing") is None

    def test_end_closes_orphans(self):
        trace = RequestTrace("t-3")
        outer = trace.begin("outer")
        trace.begin("leaked")  # never ended by its (buggy) owner
        trace.end(outer)
        assert trace.current() is trace.root
        leaked = trace.root.find("leaked")
        assert leaked.attrs.get("abandoned") is True
        assert leaked.end_ns is not None

    def test_export_import_roundtrip(self):
        span = Span("root")
        child = span.child("child")
        child.set(pid=42).finish()
        span.finish().set(kind="test")
        rebuilt = import_fragment(span.export())
        assert rebuilt.name == "root"
        assert rebuilt.attrs == {"kind": "test"}
        assert rebuilt.children[0].name == "child"
        assert rebuilt.children[0].attrs["pid"] == 42
        assert rebuilt.children[0].start_ns == child.start_ns

    def test_import_rejects_garbage(self):
        for garbage in (None, (), ("name", 1), ("n", "x", 2, {}, ()),
                        ("n", 1, 2, "notadict", ()), "just a string"):
            with pytest.raises(ValueError):
                import_fragment(garbage)

    def test_events_are_zero_length_children(self):
        trace = RequestTrace("t-ev")
        with trace.span("rewrite") as phase:
            trace.event("rewrite.fire", rule="r1")
            trace.event("rewrite.fire", rule="r2")
        trace.event("optimizer.plan", cost=1.5)
        assert trace.events == 3
        assert [s.attrs["rule"] for s in trace.root.find_all(
            "rewrite.fire")] == ["r1", "r2"]
        assert phase.children[0].duration_ns == 0
        assert trace.root.children[-1].name == "optimizer.plan"
        rebuilt = import_fragment(trace.root.export())
        assert rebuilt.find("optimizer.plan").attrs == {"cost": 1.5}

    def test_as_dict_and_render(self):
        trace = RequestTrace("t-4")
        with trace.span("step", detail="x"):
            pass
        trace.finish()
        tree = trace.to_dict()
        assert tree["trace_id"] == "t-4"
        assert tree["spans"]["children"][0]["name"] == "step"
        assert "step" in trace.render_text()
        json.loads(trace.to_json())  # serializable


class TestFragmentMerging:
    def _fragment(self, pid, name="worker.task"):
        span = Span(name)
        span.finish()
        span.set(pid=pid)
        return span.export()

    def test_grouped_by_pid(self):
        trace = RequestTrace("t-5")
        parent = trace.root
        n = trace.attach_worker_fragments(
            parent, [self._fragment(11), self._fragment(22),
                     self._fragment(11)])
        assert n == 2
        groups = [c for c in parent.children if c.name == "worker"]
        assert sorted(g.attrs["pid"] for g in groups) == [11, 22]
        sizes = {g.attrs["pid"]: len(g.children) for g in groups}
        assert sizes == {11: 2, 22: 1}

    def test_group_bounds_cover_children(self):
        trace = RequestTrace("t-6")
        a = Span("one", start_ns=100)
        a.end_ns = 200
        a.set(pid=1)
        b = Span("two", start_ns=150)
        b.end_ns = 400
        b.set(pid=1)
        trace.attach_worker_fragments(trace.root,
                                      [a.export(), b.export()])
        group = trace.root.children[0]
        assert group.start_ns == 100
        assert group.end_ns == 400

    def test_malformed_fragment_degrades_not_raises(self):
        trace = RequestTrace("t-7")
        parent = trace.root
        n = trace.attach_worker_fragments(
            parent, [self._fragment(9), ("mangled",), 12345])
        assert n == 1  # the good one still landed
        assert parent.attrs["fragment_errors"] == 2
        assert "parent-only" in parent.attrs["degraded"]

    def test_none_fragments_skipped_silently(self):
        trace = RequestTrace("t-8")
        n = trace.attach_worker_fragments(trace.root, [None, None])
        assert n == 0
        assert "fragment_errors" not in trace.root.attrs


class TestSpanRecorder:
    def test_off_allocates_nothing(self):
        recorder = SpanRecorder("off")
        assert not recorder.enabled
        assert recorder.maybe_start() is None

    def test_always(self):
        recorder = SpanRecorder("always")
        traces = [recorder.maybe_start() for _ in range(5)]
        assert all(t is not None for t in traces)
        ids = [t.trace_id for t in traces]
        assert len(set(ids)) == 5

    def test_ratio_is_deterministic(self):
        recorder = SpanRecorder(0.25)
        hits = [recorder.maybe_start() is not None for _ in range(12)]
        assert sum(hits) == 3
        assert hits[0] and hits[4] and hits[8]  # every 4th, no RNG

    def test_sample_strings(self):
        assert SpanRecorder("0.5").describe_sample() == "1/2"
        assert SpanRecorder("always").describe_sample() == "always"
        assert SpanRecorder(None).describe_sample() == "off"
        assert SpanRecorder(1.0).describe_sample() == "always"

    def test_completed_ring_and_find(self):
        recorder = SpanRecorder("always", keep=2)
        first = recorder.finish(recorder.maybe_start())
        second = recorder.finish(recorder.maybe_start())
        third = recorder.finish(recorder.maybe_start())
        assert recorder.find(first.trace_id) is None  # evicted
        assert recorder.find(second.trace_id) is second
        assert recorder.find(third.trace_id) is third
        recorder.clear()
        assert recorder.completed() == []


class TestHistogramQuantile:
    def test_empty_is_zero(self):
        assert Histogram("h", buckets=(1.0, 2.0)).quantile(0.95) == 0.0

    def test_upper_bound_estimate(self):
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 0.6, 0.7, 0.8, 0.9, 5.0, 6.0, 7.0, 8.0, 50.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(0.9) == 10.0
        assert histogram.quantile(0.99) == 100.0

    def test_overflow_clamps_to_last_bound(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(500.0)
        assert histogram.quantile(0.5) == 1.0


class TestStatementStats:
    def test_constants_fold_into_one_fingerprint(self):
        stats = StatementStats()
        stats.record("SELECT * FROM t WHERE id = 7", 1.0, rows=1)
        stats.record("SELECT * FROM t WHERE id = 99", 3.0, rows=1)
        report = stats.report()
        assert len(report) == 1
        entry = report[0]
        assert entry["calls"] == 2
        assert entry["total_ms"] == 4.0
        assert "7" not in entry["statement"]
        assert "99" not in entry["statement"]
        assert "?" in entry["statement"]

    def test_string_literals_also_hidden(self):
        stats = StatementStats()
        stats.record("SELECT * FROM t WHERE name = 'secret'", 1.0)
        assert "secret" not in stats.report()[0]["statement"]

    def test_sources_and_cache_hits(self):
        stats = StatementStats()
        stats.record("SELECT 1", 1.0, cache_hit=False, source="snapshot")
        stats.record("SELECT 1", 1.0, cache_hit=True, source="snapshot")
        stats.record("SELECT 1", 1.0, source="live")
        stats.record("INSERT INTO t VALUES (1)", 1.0, source="write")
        select = stats.get("SELECT 1")
        assert select.snapshot_reads == 2
        assert select.live_reads == 1
        assert select.cache_hits == 1
        assert select.cache_misses == 1
        insert = stats.get("INSERT INTO t VALUES (2)")
        assert insert.writes == 1

    def test_degradations_and_errors(self):
        stats = StatementStats()
        stats.record("SELECT 2", 1.0, degraded="pool retired")
        stats.record("SELECT 2", 1.0, degraded="pool retired")
        stats.record("SELECT 2", 1.0, error=True)
        entry = stats.get("SELECT 2")
        assert entry.degradations == {"pool retired": 2}
        assert entry.errors == 1

    def test_latency_aggregates(self):
        stats = StatementStats()
        for latency in (1.0, 2.0, 3.0, 100.0):
            stats.record("SELECT 3", latency)
        entry = stats.get("SELECT 3")
        assert entry.mean_ms == pytest.approx(26.5)
        assert entry.p95_ms >= 100.0

    def test_unscannable_text_keyed_by_hash(self):
        stats = StatementStats()
        stats.record("SELECT \x00 garbage ~~~ $", 1.0, error=True)
        assert len(stats) == 1

    def test_capacity_evicts_lru(self):
        stats = StatementStats(capacity=2)
        stats.record("SELECT a FROM t1", 1.0)
        stats.record("SELECT b FROM t2", 1.0)
        stats.record("SELECT c FROM t3", 1.0)
        assert len(stats) == 2
        assert stats.get("SELECT a FROM t1") is None

    def test_result_rows_shape(self):
        stats = StatementStats()
        stats.record("SELECT 5", 1.0, source="live")
        columns, rows = stats.result_rows()
        assert columns[0] == "fingerprint"
        assert "p95_ms" in columns
        assert len(rows) == 1
        assert len(rows[0]) == len(columns)

    def test_reset(self):
        stats = StatementStats()
        stats.record("SELECT 6", 1.0)
        stats.reset()
        assert len(stats) == 0


class TestSlowQueryLog:
    def test_disabled_by_default(self):
        log = SlowQueryLog()
        assert not log.enabled
        assert log.maybe_log("SELECT ?", 1e9) is None
        assert log.lines() == []

    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_ms=10.0)
        assert log.maybe_log("SELECT ?", 5.0) is None
        line = log.maybe_log("SELECT ?", 15.0, route="read",
                             source="live")
        record = json.loads(line)
        assert record["statement"] == "SELECT ?"
        assert record["latency_ms"] == 15.0
        assert record["route"] == "read"
        assert record["source"] == "live"

    def test_trace_embedded(self):
        log = SlowQueryLog(threshold_ms=0.0)
        trace = RequestTrace("t-slow")
        with trace.span("execute"):
            pass
        trace.finish()
        record = json.loads(log.maybe_log("SELECT ?", 1.0, trace=trace))
        assert record["trace_id"] == "t-slow"
        names = [c["name"] for c in record["spans"]["children"]]
        assert "execute" in names

    def test_error_class_recorded(self):
        log = SlowQueryLog(threshold_ms=0.0)
        record = json.loads(log.maybe_log(
            "SELECT ?", 1.0, error=ValueError("boom")))
        assert record["error"] == "ValueError"

    def test_file_sink(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(threshold_ms=0.0, path=str(path))
        log.maybe_log("SELECT ?", 1.0)
        log.maybe_log("SELECT ?", 2.0)
        on_disk = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["latency_ms"] for r in on_disk] == [1.0, 2.0]

    def test_ring_bounded(self):
        log = SlowQueryLog(threshold_ms=0.0, keep=3)
        for index in range(10):
            log.maybe_log("SELECT ?", float(index))
        assert len(log.lines()) == 3
        assert json.loads(log.lines()[-1])["latency_ms"] == 9.0


class TestQueueWaitHistogram:
    def test_fast_path_never_observes(self):
        from repro.serve.admission import AdmissionController

        metrics = MetricsRegistry()
        controller = AdmissionController(2, 2, 0.5, metrics=metrics)
        assert controller.acquire() == 0.0
        controller.release()
        assert metrics.snapshot()["serve_queue_wait_ms"]["count"] == 0

    def test_queued_path_observes(self):
        import threading

        from repro.serve.admission import AdmissionController

        metrics = MetricsRegistry()
        controller = AdmissionController(1, 4, 5.0, metrics=metrics)
        controller.acquire()  # occupy the only slot
        waited = {}

        def contender():
            waited["s"] = controller.acquire()
            controller.release()

        thread = threading.Thread(target=contender)
        thread.start()
        # Give the contender time to queue, then free the slot.
        import time

        time.sleep(0.05)
        controller.release()
        thread.join(timeout=5.0)
        assert waited["s"] > 0.0
        histogram = metrics.snapshot()["serve_queue_wait_ms"]
        assert histogram["count"] == 1
        assert histogram["sum"] >= 40.0  # ms

    def test_shed_observes_wait(self):
        from repro.errors import ServerOverloaded
        from repro.serve.admission import AdmissionController

        metrics = MetricsRegistry()
        controller = AdmissionController(1, 1, 0.05, metrics=metrics)
        controller.acquire()
        with pytest.raises(ServerOverloaded):
            controller.acquire()  # queues, times out, shed
        controller.release()
        histogram = metrics.snapshot()["serve_queue_wait_ms"]
        assert histogram["count"] == 1
        assert histogram["sum"] >= 40.0
