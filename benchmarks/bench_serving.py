"""E24 — concurrent serving throughput and overload shedding.

N wire clients drive one server with a mixed workload (90% aggregate
reads, 10% single-row inserts).  Reads are served from the forked
snapshot pool, so they execute in child processes and scale across
cores even though the server itself is one Python process; writes
serialize through the striped write gate.

Results go to ``benchmarks/latest_results.txt`` (via ``print_table``)
and ``BENCH_serving.json`` at the repo root with throughput and
p50/p95/p99 statement latency per client count, plus the overload-shed
measurement.  The 8-client-over-1-client throughput assertion is
relative to what the host can give — 0.7 x min(8, cores), since reads
cannot scale past the cores there are — and is gated on the host having
>=2 cores *and* a live snapshot pool (without fork every read runs under
the GIL in the server process, where eight clients just time-slice one
interpreter).
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from benchmarks.conftest import bulk_insert, cores as affinity_cores, \
    print_table
from repro import Database
from repro.errors import ServerOverloaded
from repro.serve import ServeSettings, Server, TCPServer, WireClient

ROWS = 30_000
OPS_PER_CLIENT = 20
CLIENT_COUNTS = [1, 8]
WRITE_EVERY = 10  # one op in this many inserts, the rest read

_JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_serving.json")

READ_SQL = ("SELECT count(*), sum(v), max(v) FROM events "
            "WHERE v %% 7 <> 0 AND k %% 3 <> %d")


@pytest.fixture(scope="module")
def serving():
    db = Database(pool_capacity=4096)
    db.execute("CREATE TABLE events (k INTEGER, v INTEGER)")
    bulk_insert(db, "events", [(i, i % 1000) for i in range(ROWS)])
    db.analyze()
    settings = ServeSettings()
    settings.max_inflight = 16
    settings.max_queue = 32
    settings.snapshot_refresh_s = 0.1
    server = Server(db, settings)
    tcp = TCPServer(server, port=0)
    tcp.start()
    yield tcp
    tcp.stop()
    server.close()
    db.close()


def drive_clients(tcp, n_clients):
    """Run the mixed workload on n concurrent wire clients; returns
    (elapsed_s, latencies_s, failures)."""
    latencies = [[] for _ in range(n_clients)]
    failures = []
    barrier = threading.Barrier(n_clients + 1)

    def client(index):
        try:
            with WireClient(*tcp.address(), timeout=120) as conn:
                barrier.wait()
                for op in range(OPS_PER_CLIENT):
                    if op % WRITE_EVERY == WRITE_EVERY - 1:
                        sql = ("INSERT INTO events VALUES (%d, %d)"
                               % (ROWS + index * OPS_PER_CLIENT + op,
                                  op % 1000))
                    else:
                        sql = READ_SQL % (op % 3)
                    start = time.perf_counter()
                    conn.execute(sql)
                    latencies[index].append(
                        time.perf_counter() - start)
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(n_clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - start
    if failures:
        raise failures[0]
    flat = sorted(lat for per in latencies for lat in per)
    return elapsed, flat, failures


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(fraction * len(sorted_values)))
    return sorted_values[index]


def test_e24_serving_throughput(serving):
    cores = affinity_cores()
    snapshots_live = serving.server.snapshots is not None
    results = {}
    # One warm-up pass compiles the statements into the plan cache.
    drive_clients(serving, 1)
    for n_clients in CLIENT_COUNTS:
        elapsed, latencies, _failures = drive_clients(serving, n_clients)
        total_ops = n_clients * OPS_PER_CLIENT
        results[str(n_clients)] = {
            "clients": n_clients,
            "statements": total_ops,
            "elapsed_s": round(elapsed, 4),
            "throughput_stmt_s": round(total_ops / elapsed, 1),
            "p50_ms": round(percentile(latencies, 0.50) * 1e3, 2),
            "p95_ms": round(percentile(latencies, 0.95) * 1e3, 2),
            "p99_ms": round(percentile(latencies, 0.99) * 1e3, 2),
        }
    snap = serving.server.db.metrics.snapshot()
    report = {
        "experiment": "E24 concurrent serving",
        "rows": ROWS,
        "ops_per_client": OPS_PER_CLIENT,
        "write_fraction": 1.0 / WRITE_EVERY,
        "cores": cores,
        "snapshot_pool": snapshots_live,
        "clients": results,
        "snapshot_reads": snap.get("serve_snapshot_reads_total", 0),
        "live_reads": snap.get("serve_live_reads_total", 0),
        "writes": snap.get("serve_writes_total", 0),
    }
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print_table(
        "E24: serving throughput, mixed 90/10 workload "
        "(%d rows, %d core(s), snapshots=%s)"
        % (ROWS, cores, "on" if snapshots_live else "off"),
        ["clients", "stmt/s", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        [(m["clients"], m["throughput_stmt_s"], m["p50_ms"],
          m["p95_ms"], m["p99_ms"])
         for m in results.values()])
    # 8 concurrent clients scale with the cores the snapshot pool can
    # use — asserted only where there is more than one.
    speedup = (results["8"]["throughput_stmt_s"]
               / results["1"]["throughput_stmt_s"])
    needed = 0.7 * min(8, cores)
    print("  8-client/1-client throughput: %.2fx" % speedup)
    if cores >= 2 and snapshots_live:
        assert speedup >= needed, (
            "8-client throughput %.2fx of single-client (need >=%.1fx "
            "on %d cores)" % (speedup, needed, cores))


def test_e24_overload_sheds_fast():
    """Clients beyond max_inflight + max_queue are rejected quickly and
    countably instead of queueing without bound."""
    db = Database(pool_capacity=512)
    db.execute("CREATE TABLE events (k INTEGER, v INTEGER)")
    bulk_insert(db, "events", [(i, i % 100) for i in range(20_000)])
    settings = ServeSettings()
    settings.max_inflight = 2
    settings.max_queue = 2
    settings.admission_timeout_s = 0.2
    settings.snapshots_enabled = False  # live reads keep slots busy
    server = Server(db, settings)
    tcp = TCPServer(server, port=0)
    tcp.start()
    shed = []
    served = []
    try:
        def client(index):
            try:
                with WireClient(*tcp.address(), timeout=60) as conn:
                    for _ in range(5):
                        try:
                            conn.execute(
                                "SELECT count(*), sum(v) FROM events "
                                "WHERE v %% 3 <> %d" % (index % 3))
                            served.append(index)
                        except ServerOverloaded:
                            shed.append(index)
            except BaseException:  # noqa: BLE001 - client died entirely
                shed.append(index)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(12)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        elapsed = time.perf_counter() - start
        snap = db.metrics.snapshot()
        print_table(
            "E24b: overload shedding (12 clients, 2 slots + 2 queue)",
            ["served", "shed", "shed counter", "elapsed (s)"],
            [(len(served), len(shed), snap["serve_shed_total"],
              "%.2f" % elapsed)])
        total = len(served) + len(shed)
        assert total == 12 * 5, "a request was neither served nor shed"
        assert len(served) > 0
        assert snap["serve_shed_total"] == len(shed)
        # Shedding is fast rejection: the whole burst clears in far less
        # time than 60 statements queueing behind 2 slots would take.
        assert elapsed < 60.0
    finally:
        tcp.stop()
        server.close()
        db.close()
