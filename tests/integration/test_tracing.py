"""End-to-end tracing acceptance over the wire.

A real server on an ephemeral port with sampling on, driven by real
sockets from many threads at once: every sampled request must come back
with a ``trace=`` id whose server-side span tree accounts for the
latency the client observed, ``SHOW STATEMENTS`` must agree with the
metrics registry scraped from the same port, and the slow-query log
must emit parseable, literal-free JSON lines.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core.database import Database
from repro.serve import ServeSettings, Server, TCPServer, WireClient
from repro.serve.client import fetch_metrics, fetch_statements


def _serving(**overrides):
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
    txn = db.begin()
    for i in range(200):
        db.engine.insert(txn, "t", (i, i % 11))
    db.commit(txn)
    settings = ServeSettings()
    settings.snapshot_refresh_s = 60.0
    settings.trace_sample = "always"
    for name, value in overrides.items():
        setattr(settings, name, value)
    server = Server(db, settings)
    tcp = TCPServer(server, port=0)
    tcp.start()
    return tcp


@pytest.fixture
def traced():
    tcp = _serving()
    yield tcp
    tcp.stop()
    tcp.server.close()
    tcp.server.db.close()


#: One distinct statement per client: a mixed read/write workload whose
#: fingerprints are distinguishable in SHOW STATEMENTS afterwards.
WORKLOAD = [
    "SELECT count(*) FROM t",
    "SELECT max(v) FROM t WHERE id < 50",
    "SELECT sum(v) FROM t",
    "SELECT min(id) FROM t WHERE v = 3",
    "INSERT INTO t VALUES (9001, 1)",
    "SELECT count(*) FROM t WHERE v > 5",
    "SELECT max(id) FROM t",
    "SELECT sum(id) FROM t WHERE v = 0",
]


#: The client half of :func:`_run_workload`, run in a process of its
#: own.  Client threads that share the server's interpreter wait on its
#: GIL between the server's reply and the client's clock, which would
#: charge server-side work to the client's latency.
_CLIENTS = r"""
import json, sys, threading, time
from repro.serve import WireClient

host, port, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
workload = json.loads(sys.stdin.read())
observed, errors = [], []
lock = threading.Lock()

def drive(statement):
    try:
        with WireClient(host, port) as client:
            # Warm the connection (session setup, plan compile,
            # snapshot fork) outside the timed window: the latency
            # check compares client clock against server spans, and
            # cold-start scheduling noise would swamp both.
            client.execute(statement)
            for _ in range(repeats):
                started = time.perf_counter()
                result = client.execute(statement)
                elapsed_ms = (time.perf_counter() - started) * 1e3
                with lock:
                    observed.append(
                        (result.trace_id, elapsed_ms, statement))
    except Exception as exc:
        with lock:
            errors.append(repr(exc))

threads = [threading.Thread(target=drive, args=(statement,))
           for statement in workload]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60.0)
print(json.dumps({"observed": observed, "errors": errors}))
"""


def _run_workload(address, repeats=3):
    """Eight concurrent connections, one statement text each, driven
    from a client process; returns [(trace_id, client_ms, statement)]
    and the client-side errors (as text)."""
    host, port = address
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _CLIENTS, host, str(port), str(repeats)],
        input=json.dumps(WORKLOAD), capture_output=True, text=True,
        timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    return [tuple(entry) for entry in report["observed"]], \
        report["errors"]


class TestTraceLatencyAccounting:
    def test_every_sampled_request_accounts_for_its_latency(self, traced):
        observed, errors = _run_workload(traced.address())
        assert errors == []
        assert len(observed) == len(WORKLOAD) * 3
        trace_ids = [trace_id for trace_id, _, _ in observed]
        assert all(trace_ids), "sampling on: every request is traced"
        assert len(set(trace_ids)) == len(trace_ids)
        server = traced.server
        for trace_id, client_ms, statement in observed:
            trace = server.tracing.find(trace_id)
            assert trace is not None, \
                "trace %s for %r fell out of the ring" % (trace_id,
                                                          statement)
            root = trace.root
            server_ms = root.duration_ms
            # The root opens after the server reads the line and closes
            # once the response is written, just before the flush, so
            # the client's window encloses it; the difference is the
            # flush plus loopback turnaround.  10% relative plus a small
            # absolute slack for sub-ms statements.
            assert server_ms <= client_ms + 5.0
            assert client_ms - server_ms <= max(0.10 * client_ms, 20.0)
            child_names = {span.name for span in root.children}
            assert "admission.wait" in child_names
            assert "wire.write" in child_names
            for span in root.children:
                assert span.start_ns >= root.start_ns
                assert span.end_ns <= root.end_ns

    def test_trace_is_in_the_ring_when_the_reply_arrives(self, traced):
        """The wire loop publishes a request's trace before it flushes
        the reply, so a reader that looks the id up the moment the reply
        lands always finds it — even while another connection keeps the
        server (and the GIL) busy."""
        stop = threading.Event()
        errors = []

        def load():
            try:
                with WireClient(*traced.address()) as client:
                    while not stop.is_set():
                        client.execute("SELECT sum(v) FROM t")
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        loader = threading.Thread(target=load)
        loader.start()
        missing = []
        try:
            with WireClient(*traced.address()) as client:
                for _ in range(200):
                    trace_id = client.execute(
                        "SELECT count(*) FROM t").trace_id
                    if traced.server.tracing.find(trace_id) is None:
                        missing.append(trace_id)
        finally:
            stop.set()
            loader.join(timeout=30.0)
        assert errors == []
        assert missing == []

    def test_ratio_sampling_traces_a_deterministic_subset(self):
        tcp = _serving(trace_sample=0.5)
        try:
            with WireClient(*tcp.address()) as client:
                ids = [client.execute("SELECT count(*) FROM t").trace_id
                       for _ in range(8)]
            sampled = [trace_id for trace_id in ids if trace_id]
            assert len(sampled) == 4  # every 2nd, counter-deterministic
            # Untraced requests still land in the statement stats.
            entry = tcp.server.statements.get("SELECT count(*) FROM t")
            assert entry is not None and entry.calls == 8
        finally:
            tcp.stop()
            tcp.server.close()
            tcp.server.db.close()


class TestOperatorSpansOverWire:
    def test_explain_analyze_lands_in_the_request_tree(self):
        """One tree from the socket to the operator: a sampled EXPLAIN
        ANALYZE records its op spans under the request's execute span,
        with the worker tasks' fragments under the exchange's op span,
        and names that tree in its text."""
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
        txn = db.begin()
        for i in range(4000):
            db.engine.insert(txn, "t", (i, i % 11))
        db.commit(txn)
        db.analyze()
        db.settings.parallelism = "on"
        db.settings.dop = 2
        settings = ServeSettings()
        settings.snapshots_enabled = False
        settings.trace_sample = "always"
        server = Server(db, settings)
        tcp = TCPServer(server, port=0)
        tcp.start()
        try:
            with WireClient(*tcp.address()) as client:
                result = client.execute(
                    "EXPLAIN ANALYZE SELECT id FROM t WHERE v < 3")
                plain = client.execute("SELECT id FROM t WHERE v < 3")
            trace = server.tracing.find(result.trace_id)
            plain_trace = server.tracing.find(plain.trace_id)
        finally:
            tcp.stop()
            server.close()
            db.close()
        text = "\n".join(row[0] for row in result.rows)
        assert "trace: %s" % result.trace_id in text
        root = trace.root
        names = [span.name for span in root.children]
        assert names.index("admission.wait") < names.index("execute") \
            < names.index("wire.write")
        execute = root.children[names.index("execute")]
        ops = [span for span in execute.children if span.name == "op"]
        assert ops and all(span.attrs["loops"] for span in ops)
        gather = next(span for span in ops
                      if span.attrs["op"].startswith("GATHER"))
        tasks = gather.find_all("worker.morsel")
        assert len(tasks) >= 2
        assert all(task.find("op") is not None for task in tasks)
        assert "exchange(morsels=%d " % len(tasks) in text
        assert not trace.operators
        # The same statement, not under EXPLAIN ANALYZE: its sampled
        # trace has an execute span but no op span.
        assert plain_trace.root.find("execute") is not None
        assert plain_trace.root.find("op") is None

    def test_sampled_request_gets_no_op_spans(self, traced):
        with WireClient(*traced.address()) as client:
            trace_id = client.execute(
                "SELECT count(*) FROM t WHERE v > 5").trace_id
        root = traced.server.tracing.find(trace_id).root
        assert root.find("admission.wait") is not None
        assert root.find("op") is None


class TestStatementsEndpoints:
    def _column(self, result, name):
        return result.columns.index(name)

    def test_show_statements_agrees_with_metrics(self, traced):
        observed, errors = _run_workload(traced.address())
        assert errors == []
        host, port = traced.address()
        with WireClient(host, port) as client:
            shown = client.execute("SHOW STATEMENTS")
        metrics_text = fetch_metrics(host, port)

        def metric(name):
            # The exposition prefixes every metric with the registry
            # namespace.
            for line in metrics_text.splitlines():
                if line.startswith("repro_" + name + " "):
                    return float(line.split()[1])
            raise AssertionError("metric %s not exposed" % name)

        calls_at = self._column(shown, "calls")
        snapshot_at = self._column(shown, "snapshot_reads")
        live_at = self._column(shown, "live_reads")
        writes_at = self._column(shown, "writes")
        snapshot_reads = sum(int(row[snapshot_at]) for row in shown.rows)
        live_reads = sum(int(row[live_at]) for row in shown.rows)
        writes = sum(int(row[writes_at]) for row in shown.rows)
        # Reads resolve to exactly one source; the registry counts the
        # same events from the other side of the session.
        assert snapshot_reads + live_reads == (
            metric("serve_snapshot_reads_total")
            + metric("serve_live_reads_total"))
        assert writes == metric("serve_writes_total")
        # Every workload statement is present with its full call count —
        # timed requests plus one warmup per client (SHOW STATEMENTS
        # itself is recorded too, but after this response was built).
        total_calls = sum(int(row[calls_at]) for row in shown.rows)
        assert total_calls == len(observed) + len(WORKLOAD)

    def test_http_statements_matches_wire_rows(self, traced):
        _observed, errors = _run_workload(traced.address(), repeats=1)
        assert errors == []
        host, port = traced.address()
        with WireClient(host, port) as client:
            shown = client.execute("SHOW STATEMENTS")
        report = fetch_statements(host, port)
        fp_at = self._column(shown, "fingerprint")
        wire_fps = {row[fp_at] for row in shown.rows}
        json_fps = {entry["fingerprint"] for entry in report}
        # The HTTP report was taken after SHOW STATEMENTS ran, so it
        # may contain the SHOW STATEMENTS entry on top of the wire set.
        assert wire_fps <= json_fps
        for entry in report:
            assert "?" in entry["statement"] or not any(
                char.isdigit() for char in entry["statement"])


class TestSlowQueryLogOverWire:
    def test_threshold_zero_logs_literal_free_json(self):
        tcp = _serving(slow_query_ms=0.0)
        try:
            with WireClient(*tcp.address()) as client:
                result = client.execute(
                    "SELECT count(*) FROM t WHERE v = 7")
            # The wire loop logs after flushing the response, so the
            # client can observe the result before the line lands.
            deadline = time.time() + 5.0
            lines = tcp.server.slowlog.lines()
            while not lines and time.time() < deadline:
                time.sleep(0.01)
                lines = tcp.server.slowlog.lines()
            assert lines
            record = json.loads(lines[-1])
            assert record["statement"] == \
                "select count ( * ) from t where v = ?"
            assert "7" not in record["statement"]
            assert record["trace_id"] == result.trace_id
            assert record["latency_ms"] > 0.0
            assert record["spans"]["name"] == "request"
        finally:
            tcp.stop()
            tcp.server.close()
            tcp.server.db.close()
