"""Many-client integration tests over the TCP line protocol.

A real server on an ephemeral port, driven by real sockets: the smoke
path CI runs to prove the serving stack end to end (sessions, admission,
wire encoding, and the /metrics scrape on the same port).
"""

from __future__ import annotations

import threading

import pytest

from repro.core.database import Database
from repro.errors import ReproError, SemanticError, ServerOverloaded
from repro.language.parser import parse_statement
from repro.serve import ServeSettings, Server, TCPServer, WireClient
from repro.serve.client import fetch_metrics


@pytest.fixture
def serving():
    db = Database()
    db.execute("CREATE TABLE kv (k INTEGER, v TEXT)")
    txn = db.begin()
    for i in range(20):
        db.engine.insert(txn, "kv", (i, "v%d" % i))
    db.commit(txn)
    settings = ServeSettings()
    settings.snapshot_refresh_s = 0.05
    server = Server(db, settings)
    tcp = TCPServer(server, port=0)
    tcp.start()
    yield tcp
    tcp.stop()
    server.close()
    db.close()


class TestWireLoop:
    def test_select_roundtrip(self, serving):
        with WireClient(*serving.address()) as client:
            result = client.execute("SELECT k, v FROM kv WHERE k = 3")
            assert result.columns == ["k", "v"]
            assert result.rows == [("3", "v3")]

    def test_write_then_read_same_connection(self, serving):
        with WireClient(*serving.address()) as client:
            client.execute("INSERT INTO kv VALUES (100, 'hundred')")
            result = client.execute(
                "SELECT v FROM kv WHERE k = 100")
            assert result.rows == [("hundred",)]

    def test_transaction_control_over_the_wire(self, serving):
        with WireClient(*serving.address()) as client:
            client.execute("BEGIN")
            client.execute("INSERT INTO kv VALUES (200, 'temp')")
            client.execute("ROLLBACK")
            assert client.execute(
                "SELECT count(*) FROM kv WHERE k = 200").rows == [("0",)]

    def test_errors_cross_the_wire_typed(self, serving):
        with WireClient(*serving.address()) as client:
            with pytest.raises(SemanticError):
                client.execute("SELECT nope FROM kv")
            # The connection survives the error.
            assert len(client.execute("SELECT k FROM kv")) == 20

    @pytest.mark.parametrize("sql", [
        "SELECT k FROM kv WHERE",          # parse error
        "SELECT k FROM kv WHERE k = @",    # lexer error
    ])
    def test_malformed_select_error_is_unchanged(self, serving, sql):
        """A SELECT routes to a snapshot worker without a parse; its
        syntax error comes back with the class and message the parser
        raises in process."""
        with pytest.raises(ReproError) as in_process:
            parse_statement(sql)
        with WireClient(*serving.address()) as client:
            with pytest.raises(ReproError) as over_wire:
                client.execute(sql)
            assert type(over_wire.value) is type(in_process.value)
            assert str(over_wire.value) == str(in_process.value)
            assert len(client.execute("SELECT k FROM kv")) == 20

    @pytest.mark.parametrize("sql", [
        "INSERT INTO kv VALUES (1,",        # routes as a write to kv
        "INSERT INTO kv VALUES (1, @)",     # lexer error: routes meta
        "INSERT kv VALUES (1, 'x')",        # no INTO: routes meta
    ])
    def test_malformed_insert_error_is_unchanged(self, serving, sql):
        """An INSERT routes from its tokens, not a parse; a malformed one
        still fails with the class and message the parser raises in
        process, and the table is untouched."""
        with pytest.raises(ReproError) as in_process:
            parse_statement(sql)
        with WireClient(*serving.address()) as client:
            with pytest.raises(ReproError) as over_wire:
                client.execute(sql)
            assert type(over_wire.value) is type(in_process.value)
            assert str(over_wire.value) == str(in_process.value)
            assert len(client.execute("SELECT k FROM kv")) == 20

    def test_null_and_special_characters_roundtrip(self, serving):
        with WireClient(*serving.address()) as client:
            client.execute(
                "INSERT INTO kv (k) VALUES (300)")
            rows = client.execute(
                "SELECT v FROM kv WHERE k = 300").rows
            assert rows == [(None,)]

    def test_many_clients_concurrently(self, serving):
        """16 clients × mixed statements, all on one server: every
        client finishes, total row count adds up."""
        clients = 16
        per_client = 10
        failures = []

        def drive(index):
            try:
                with WireClient(*serving.address()) as client:
                    for i in range(per_client):
                        client.execute(
                            "INSERT INTO kv VALUES (%d, 'c%d')"
                            % (1000 + index * per_client + i, index))
                        result = client.execute(
                            "SELECT count(*) FROM kv WHERE k >= 1000")
                        assert int(result.rows[0][0]) >= i + 1
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures[0]
        # Catch the snapshot pool up to the last commits before the
        # cross-session count (unpinned reads have bounded staleness).
        serving.server.refresh_snapshots()
        with WireClient(*serving.address()) as client:
            result = client.execute(
                "SELECT count(*) FROM kv WHERE k >= 1000")
            assert result.rows == [(str(clients * per_client),)]

    def test_snapshot_pin_over_the_wire(self, serving):
        if serving.server.snapshots is None:
            pytest.skip("fork() unavailable")
        with WireClient(*serving.address()) as pinned, \
                WireClient(*serving.address()) as writer:
            pinned.execute("SNAPSHOT BEGIN")
            pinned.execute("SELECT count(*) FROM kv")  # warm the pin
            writer.execute("INSERT INTO kv VALUES (400, 'after-pin')")
            serving.server.refresh_snapshots()
            assert pinned.execute(
                "SELECT count(*) FROM kv WHERE k = 400").rows == [("0",)]
            pinned.execute("SNAPSHOT END")
            assert pinned.execute(
                "SELECT count(*) FROM kv WHERE k = 400").rows == [("1",)]


class TestMetricsEndpoint:
    def test_metrics_scrape_on_serving_port(self, serving):
        with WireClient(*serving.address()) as client:
            client.execute("SELECT count(*) FROM kv")
        body = fetch_metrics(*serving.address())
        assert "# TYPE" in body
        assert "serve_sessions" in body
        assert "serve_admitted_total" in body

    def test_scrape_does_not_disturb_clients(self, serving):
        with WireClient(*serving.address()) as client:
            client.execute("SELECT count(*) FROM kv")
            fetch_metrics(*serving.address())
            assert len(client.execute("SELECT k FROM kv")) == 20


class TestOverloadOverTheWire:
    def test_overload_sheds_with_counted_rejection(self):
        """More clients than max_inflight + max_queue: the surplus is
        rejected fast with ServerOverloaded, not queued forever."""
        db = Database()
        db.execute("CREATE TABLE kv (k INTEGER)")
        settings = ServeSettings()
        settings.max_inflight = 1
        settings.max_queue = 0
        settings.admission_timeout_s = 0.2
        settings.snapshots_enabled = False
        server = Server(db, settings)
        tcp = TCPServer(server, port=0)
        tcp.start()
        try:
            server.admission.acquire()  # saturate the one slot
            with WireClient(*tcp.address()) as client:
                with pytest.raises(ServerOverloaded):
                    client.execute("SELECT count(*) FROM kv")
            server.admission.release()
            snap = db.metrics.snapshot()
            assert snap["serve_shed_total"] >= 1
            # After load drains, service resumes.
            with WireClient(*tcp.address()) as client:
                assert client.execute(
                    "SELECT count(*) FROM kv").rows == [("0",)]
        finally:
            tcp.stop()
            server.close()
            db.close()


class TestShutdown:
    def test_stop_wakes_the_accept_thread_at_once(self):
        """Closing a listening socket does not wake a thread blocked in
        accept() on Linux; stop() shuts the socket down first, so it
        returns without waiting out its join timeout."""
        import time

        db = Database()
        settings = ServeSettings()
        settings.snapshots_enabled = False
        server = Server(db, settings)
        tcp = TCPServer(server, port=0)
        tcp.start()
        try:
            time.sleep(0.1)  # let the accept thread block in accept()
            started = time.perf_counter()
            tcp.stop()
            assert time.perf_counter() - started < 0.5
            assert not tcp._accept_thread.is_alive()
        finally:
            server.close()
            db.close()
