"""What every workload provides, and the pieces they share.

A workload turns a seed into inputs (``generate``), builds the system
under test from them (``setup`` — the timed set-up), hands each client a
connection (``connect``) and an endless stream of *rounds* (``rounds``),
and afterwards says what every checked statement should have returned
(``expected``).  A round is a fixed list of operations: throughput is
counted at round boundaries so the statement mix is the same in every
run, however far the time-boxed window got.

Every workload carries every statement class (``CLASSES``) in its own
regime, so every end-to-end metric is defined on every workload — the
driver's contract.  The README says which classes are native to a
workload and which are guests.
"""

from __future__ import annotations

import os
import random
from typing import Any, Iterator, List, Optional, Sequence, Tuple

#: Statement classes with an end-to-end latency metric of their own.
CLASSES = ("scan", "join", "agg", "point", "write")

Row = Tuple[Any, ...]


class Op:
    """One statement to run.

    ``kind`` is its class (or None: it only counts as a statement);
    ``fresh`` marks a text the system has never seen, whose latency is
    also an ``adhoc`` sample; ``expect`` is an opaque token the workload
    resolves to the expected rows after the window (None: unchecked
    here — writes are checked through the final table state);
    ``pause`` is think time in seconds before the statement is sent.
    """

    __slots__ = ("kind", "sql", "params", "fresh", "expect", "pause")

    def __init__(self, kind: Optional[str], sql: str,
                 params: Sequence[Any] = (), fresh: bool = False,
                 expect: Any = None, pause: float = 0.0):
        self.kind = kind
        self.sql = sql
        self.params = tuple(params)
        self.fresh = fresh
        self.expect = expect
        self.pause = pause


class LocalConn:
    """In-process client: statements go straight to Database.execute."""

    wire = False

    def __init__(self, db):
        self.db = db

    def execute(self, op: Op):
        return self.db.execute(op.sql, op.params)

    def close(self) -> None:
        pass


def canon(rows: Sequence[Row], text: bool = False) -> List[Row]:
    """Order-insensitive canonical form of a result.  ``text`` renders
    values the way the wire protocol returns them (strings, None)."""
    if text:
        rows = [tuple(None if value is None else str(value)
                      for value in row) for row in rows]
    return sorted((tuple(row) for row in rows), key=repr)


def bulk_load(db, table: str, rows: Sequence[Row]) -> None:
    """Load rows through the storage engine in one transaction — the
    fastest public path, and the one ``storage.load_rows_per_s`` times."""
    txn = db.begin()
    for row in rows:
        db.engine.insert(txn, table, row)
    db.commit(txn)


def shuffled(rows: List[Row], rng: random.Random) -> List[Row]:
    """The same rows in a seed-chosen physical order: every seed loads
    the same multiset, so statement cost and answers do not depend on
    the seed — only layout, keys and literals do."""
    out = list(rows)
    rng.shuffle(out)
    return out


class Workload:
    """Base class; see the module docstring for the protocol."""

    name = ""
    #: Generator threads (closed loop, one connection each).
    clients = 1

    def generate(self, seed: int):
        raise NotImplementedError

    def setup(self, data):
        raise NotImplementedError

    def connect(self, state, client: int):
        return LocalConn(state.db)

    def rounds(self, data, state, client: int,
               rng: random.Random) -> Iterator[List[Op]]:
        raise NotImplementedError

    def expected(self, data, state, op: Op) -> List[Row]:
        """Expected rows of a checked statement.  The default covers
        answers that no write in the workload can change: ``expect`` is
        the rows themselves or a zero-argument function computing them
        in plain Python from the generated inputs."""
        return op.expect() if callable(op.expect) else op.expect

    def verify_extra(self, data, state) -> Tuple[int, int, List[str]]:
        """Workload-specific checks beyond per-statement answers
        (final table contents after writes).  Returns
        ``(checked, wrong, notes)``."""
        return 0, 0, []

    def probe_point(self, data) -> Optional[Op]:
        """A warm point read for the traced pass's single-statement
        probes (None: the workload has no repeated statement)."""
        return None

    def teardown(self, state) -> None:
        state.db.close()

    def op_counts(self) -> dict:
        """Sizes recorded with the host facts."""
        return {}


class State:
    """What ``setup`` built: the database, and what the traced pass
    needs to reach into it from outside."""

    def __init__(self, db, load_rows: int, load_seconds: float,
                 pk_index: str, pk_keys: int):
        self.db = db
        #: For storage.load_rows_per_s.
        self.load_rows = load_rows
        self.load_seconds = load_seconds
        #: Name of a primary-key index and its key range, for
        #: access.index_probe_us.
        self.pk_index = pk_index
        self.pk_keys = pk_keys
        self.server = None
        self.tcp = None


def unique_literal(rng: random.Random, low: float, high: float,
                   seen: set) -> str:
    """A 6-decimal literal in [low, high) that this run has not used:
    the way a statement text is made a guaranteed plan-cache miss."""
    while True:
        text = "%.6f" % rng.uniform(low, high)
        if text not in seen:
            seen.add(text)
            return text


def skewed_key(rng: random.Random, hot: Sequence[int], hot_share: float,
               keys: int) -> int:
    """A key from the hot set with probability ``hot_share``, else
    uniform over all ``keys``."""
    if rng.random() < hot_share:
        return rng.choice(hot)
    return rng.randrange(keys)


def cores() -> int:
    """CPUs this process may run on (its affinity mask): the cap on
    client threads and ``dop``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1
