"""serve_mixed — the wire server under a mixed closed-loop load.

Why it is here: the serving layer (wire, admission, gates, snapshot-pool
IPC, a re-fork on every ``dml_clock`` tick) is about half of a point
read and about 1% of a big scan.  This puts the point and
small-aggregate legs beside E24's 30k-row aggregate, with INSERTs
forcing snapshot re-forks beside the reads — the decomposition E24 never
had.

``Server`` + ``TCPServer`` run in the benchmark process with default
``ServeSettings`` over a 30k-row keyed table, and two ``WireClient``
threads drive them, closed loop, in two roles.

*The reader* (client 0) runs rounds of 55 reads: 40 point reads (literal
inlined; 80% from a 200-key hot set, 20% uniform over 30k keys, so the
hot set fits and the cold tail overflows the 512-entry plan cache),
6 never-seen point reads, 6 point joins to a 100-row dimension,
2 aggregates over a 500-key range and 1 aggregate over the whole table.
Its session never writes, so every read takes the snapshot path.

*The writer* (client 1) inserts one row every ``WRITE_PAUSE`` seconds
and reads it straight back — read-your-writes, which the server serves
live.  Ten writes a second tick ``dml_clock`` faster than the 0.25 s
refresher runs, so the snapshot pool re-forks at its full rate beside
the reader.

Two identical clients that both read and write — the shape E24 had —
put every read on a knife-edge: its own session's last write decides
whether it runs live under the server's GIL or in a snapshot worker, the
latency distribution is flat from 0.3 to 30 ms, and its median moves by
half between identical runs.  With the roles apart each class has one
path and one mode, and the latency of each path can be read off.

Inserted rows have keys past the base range and values that the
whole-table predicate rejects, so every reader answer is fixed by the
generated rows — whichever snapshot serves it; the writer's read-backs
are checked against what it just wrote, and the whole insert set is
read back after the window.
"""

from __future__ import annotations

import random
import socket
import threading
from time import perf_counter
from typing import Iterator, List

from benchmarks.suite.workloads.base import (
    Op, State, Workload, bulk_load, shuffled, skewed_key)

ROWS = 30_000
DIM_ROWS = 100
HOT_KEYS = 200
HOT_SHARE = 0.8
RANGE = 500
READER_ROUND = (["point"] * 40 + ["adhoc"] * 6 + ["join"] * 6
                + ["range"] * 2 + ["big"])
WRITES_PER_ROUND = 5
#: Seconds the writer waits before each INSERT (10 writes a second).
WRITE_PAUSE = 0.1
PAD = "p" * 32

POINT_SQL = "SELECT v FROM kv WHERE k = %d"
ADHOC_SQL = "SELECT v, %d FROM kv WHERE k = %d"
JOIN_SQL = ("SELECT t.v, m.name FROM kv t, dim m "
            "WHERE t.k = %d AND t.d = m.d")
RANGE_SQL = "SELECT count(*), sum(v) FROM kv WHERE k >= %d AND k < %d"
BIG_SQL = ("SELECT count(*), sum(v), max(v) FROM kv "
           "WHERE v %% 7 <> 0 AND k %% 3 <> %d")
INSERT_SQL = "INSERT INTO kv VALUES (%d, %d, %d, 'x')"


def _value(k: int) -> int:
    return (k * 7919) % 1000


class WireConn:
    """One TCP connection = one server-side session."""

    wire = True

    def __init__(self, address):
        from repro.serve import WireClient

        self.client = WireClient(*address, timeout=120)

    def execute(self, op: Op):
        return self.client.execute(op.sql)

    def close(self) -> None:
        self.client.close()


class _Data:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        base = [(k, _value(k), k % DIM_ROWS, PAD) for k in range(ROWS)]
        self.kv = shuffled(base, rng)
        self.dim = shuffled([(d, "dim%d" % d) for d in range(DIM_ROWS)], rng)
        self.hot = rng.sample(range(ROWS), HOT_KEYS)
        # Plain-Python answers: prefix sums for the range aggregate, and
        # the three whole-table aggregates.
        self.prefix = [0]
        for k in range(ROWS):
            self.prefix.append(self.prefix[-1] + _value(k))
        self.big = {}
        for rest in range(3):
            picked = [_value(k) for k in range(ROWS)
                      if _value(k) % 7 != 0 and k % 3 != rest]
            self.big[rest] = [(len(picked), sum(picked), max(picked))]


class ServeMixed(Workload):
    name = "serve_mixed"
    #: One reader, one writer: the roles need a thread each even where
    #: there is one core (there the sweep marks the workload unresolved).
    clients = 2

    def generate(self, seed: int) -> _Data:
        return _Data(seed)

    def op_counts(self) -> dict:
        return {"kv_rows": ROWS, "reader_round_ops": len(READER_ROUND),
                "writes_per_s": 1 / WRITE_PAUSE, "hot_keys": HOT_KEYS}

    def setup(self, data: _Data) -> State:
        from repro import Database
        from repro.serve import ServeSettings, Server, TCPServer

        db = Database()
        db.execute("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER, "
                   "d INTEGER, pad VARCHAR(40))")
        db.execute("CREATE TABLE dim (d INTEGER PRIMARY KEY, "
                   "name VARCHAR(16))")
        started = perf_counter()
        bulk_load(db, "kv", data.kv)
        bulk_load(db, "dim", data.dim)
        load_seconds = perf_counter() - started
        db.analyze()
        state = State(db, ROWS + DIM_ROWS, load_seconds, "pk_kv", ROWS)
        state.server = Server(db, ServeSettings())
        state.tcp = TCPServer(state.server, port=0)
        state.tcp.start()
        state.inserted = 0
        state.adhoc_serial = 0
        warm = random.Random(data.seed ^ 0x5EED)
        conn = self.connect(state, 0)
        try:
            # Whole rounds (every generated INSERT must happen), sent
            # back to back: think time is the driving loop's business.
            for op in (self._reader_round(data, state, warm)
                       + self._writer_round(state, warm)):
                conn.execute(op)
        finally:
            conn.close()
        return state

    def connect(self, state: State, client: int) -> WireConn:
        return WireConn(state.tcp.address())

    def teardown(self, state: State) -> None:
        # accept() does not notice its socket being closed under it, and
        # stop() then waits out a 2 s join; a last connection wakes it.
        stopper = threading.Thread(target=state.tcp.stop)
        stopper.start()
        while stopper.is_alive():
            try:
                socket.create_connection(state.tcp.address(),
                                         timeout=1).close()
            except OSError:
                pass
            stopper.join(0.02)
        state.server.close()
        state.db.close()

    def _reader_round(self, data: _Data, state: State,
                      rng: random.Random) -> List[Op]:
        def key() -> int:
            return skewed_key(rng, data.hot, HOT_SHARE, ROWS)

        kinds = list(READER_ROUND)
        rng.shuffle(kinds)
        ops = []
        for kind in kinds:
            if kind == "point":
                k = key()
                ops.append(Op("point", POINT_SQL % k,
                              expect=[(_value(k),)]))
            elif kind == "adhoc":
                k = key()
                state.adhoc_serial += 1
                tag = 100_000_000 + state.adhoc_serial
                ops.append(Op(None, ADHOC_SQL % (tag, k), fresh=True,
                              expect=[(_value(k), tag)]))
            elif kind == "join":
                k = key()
                ops.append(Op("join", JOIN_SQL % k, expect=[
                    (_value(k), "dim%d" % (k % DIM_ROWS))]))
            elif kind == "range":
                low = rng.randrange(ROWS - RANGE)
                ops.append(Op("agg", RANGE_SQL % (low, low + RANGE), expect=[
                    (RANGE, data.prefix[low + RANGE] - data.prefix[low])]))
            else:
                rest = rng.randrange(3)
                ops.append(Op("scan", BIG_SQL % rest,
                              expect=data.big[rest]))
        return ops

    def _writer_round(self, state: State, rng: random.Random) -> List[Op]:
        ops = []
        for _ in range(WRITES_PER_ROUND):
            k = ROWS + 1_000_000 + state.inserted
            state.inserted += 1
            # v is a multiple of 7: BIG_SQL never selects it.
            v = 7 * rng.randrange(100)
            ops.append(Op("write", INSERT_SQL % (k, v,
                                                 rng.randrange(DIM_ROWS)),
                          pause=WRITE_PAUSE))
            ops.append(Op(None, POINT_SQL % k, expect=[(v,)]))
        return ops

    def rounds(self, data: _Data, state: State, client: int,
               rng: random.Random) -> Iterator[List[Op]]:
        while True:
            if client == 0:
                yield self._reader_round(data, state, rng)
            else:
                yield self._writer_round(state, rng)

    def probe_point(self, data: _Data) -> Op:
        return Op("point", POINT_SQL % data.hot[0])

    def verify_extra(self, data: _Data, state: State):
        written = state.inserted
        found = state.db.execute(
            "SELECT count(*) FROM kv WHERE k >= %d" % ROWS).scalar()
        wrong = 0 if found == written else 1
        notes = ["%d inserted rows found, %d acknowledged"
                 % (found, written)] if wrong else []
        return 1, wrong, notes
