"""analytic_scan and analytic_parallel — big cached statements.

``analytic_scan``: a 30k-row ``events`` fact table (about 1.9x the
default 256-page buffer pool) and a 1k-row ``groups`` dimension, with the
E22 statements — scan-filter-project, join, group-by — round-robin under
the shipped defaults (tuple backend, no parallelism).  The executor does
all the work and compile none: where "make ``auto`` the default" or
collapsing the backends must show, and where a compile-layer change must
show nothing.

``analytic_parallel``: the same rows ``PARTITION BY HASH(g) PARTITIONS 4``
with ``parallelism="auto"`` and ``dop`` = the cores the process may run
on.  It uses the executor *differently* (``executor/parallel.py``,
exchanges, the fork pool), so a serial-executor gain that costs the
parallel path, or a worker-pool rewrite, shows here and not above.

Guests, so that every metric is defined: point reads of ``groups`` by
primary key, five never-seen aggregates over ``groups`` per round (cheap
to run, so their latency is the compile), and a burst of single-row
INSERTs every fourth round.  Inserted rows are chosen so that
no native statement's predicate selects them: every answer is fixed by
the generated rows alone, and a write's only effect on the reads is the
one under test — it ticks ``dml_clock``, which re-forks the parallel
worker pool.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Iterator, List

from benchmarks.suite.workloads.base import (
    Op, State, Workload, bulk_load, cores, shuffled, unique_literal)

EVENTS = 30_000
GROUPS = 1_000
PARTITIONS = 4
POINTS_PER_ROUND = 240
ADHOCS_PER_ROUND = 5
WRITE_EVERY = 4
WRITE_BURST = 32

SCAN_SQL = ("SELECT a, b * 2 + 1, x FROM events "
            "WHERE b < 70 AND a % 3 <> 0")
SCAN_AGG_SQL = ("SELECT count(*), sum(x), max(b) FROM events "
                "WHERE b < 70 AND a % 3 <> 0")
JOIN_SQL = ("SELECT e.a, e.x, g.label FROM events e, groups g "
            "WHERE e.g = g.k AND g.k < 900")
GROUP_B_SQL = ("SELECT b, COUNT(*), SUM(x) FROM events "
               "WHERE a % 3 <> 0 GROUP BY b")
GROUP_G_SQL = ("SELECT g, COUNT(*), SUM(x) FROM events "
               "WHERE a % 3 <> 0 GROUP BY g")
POINT_SQL = "SELECT label FROM groups WHERE k = ?"
WRITE_SQL = "INSERT INTO events VALUES (?, ?, ?, ?, ?)"
ADHOC_SQL = "SELECT count(*), max(k) FROM groups WHERE k < %s"


def _event(j: int):
    # x is a multiple of 0.5, so sums are exact in any order.
    return (j, j % 100, j % GROUPS, (j % 997) * 0.5, "tag-%019d" % (j % 50))


class _Data:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        base = [_event(j) for j in range(EVENTS)]
        self.events = shuffled(base, rng)
        self.groups = shuffled([(k, "grp_%d" % k) for k in range(GROUPS)],
                               rng)
        self.used_literals: set = set()
        # Expected answers, in plain Python over the generated rows.
        kept = [r for r in base if r[0] % 3 != 0]
        picked = [r for r in kept if r[1] < 70]
        self.expect_scan = [(a, b * 2 + 1, x) for a, b, _g, x, _t in picked]
        self.expect_scan_agg = [(len(picked), sum(r[3] for r in picked),
                                 max(r[1] for r in picked))]
        self.expect_join = [(a, x, "grp_%d" % g)
                            for a, _b, g, x, _t in base if g < 900]
        self.expect_group_b = _grouped(kept, 1)
        self.expect_group_g = _grouped(kept, 2)


def _grouped(rows, column: int):
    groups: dict = {}
    for row in rows:
        count, total = groups.get(row[column], (0, 0.0))
        groups[row[column]] = (count + 1, total + row[3])
    return [(key, count, total) for key, (count, total) in groups.items()]


class AnalyticScan(Workload):
    name = "analytic_scan"
    partitioned = False

    def generate(self, seed: int) -> _Data:
        return _Data(seed)

    def op_counts(self) -> dict:
        return {"events_rows": EVENTS, "groups_rows": GROUPS,
                "points_per_round": POINTS_PER_ROUND,
                "adhocs_per_round": ADHOCS_PER_ROUND,
                "write_burst": WRITE_BURST, "write_every": WRITE_EVERY}

    def natives(self, data: _Data) -> List[Op]:
        return [Op("scan", SCAN_SQL, expect=data.expect_scan),
                Op("join", JOIN_SQL, expect=data.expect_join),
                Op("agg", GROUP_B_SQL, expect=data.expect_group_b)]

    def configure(self, db) -> None:
        """Shipped defaults: nothing to set."""

    def setup(self, data: _Data) -> State:
        from repro import Database

        db = Database()
        self.configure(db)
        partition = (" PARTITION BY HASH(g) PARTITIONS %d" % PARTITIONS
                     if self.partitioned else "")
        db.execute("CREATE TABLE events (a INTEGER, b INTEGER, g INTEGER, "
                   "x DOUBLE, tag VARCHAR(24))" + partition)
        db.execute("CREATE TABLE groups (k INTEGER PRIMARY KEY, "
                   "label VARCHAR(12))")
        started = perf_counter()
        bulk_load(db, "events", data.events)
        bulk_load(db, "groups", data.groups)
        load_seconds = perf_counter() - started
        db.analyze()
        state = State(db, EVENTS + GROUPS, load_seconds, "pk_groups",
                      GROUPS)
        state.writes = 0
        # Warm-up: the write first (it ticks dml_clock), then every
        # cached statement, so plans are cached and — on the parallel
        # variant, which goes round twice — the worker pool is forked
        # and its workers have compiled.
        db.execute(WRITE_SQL, self._write_row(state))
        db.execute(POINT_SQL, (0,))
        for _ in range(2 if self.partitioned else 1):
            for op in self.natives(data):
                db.execute(op.sql)
        return state

    @staticmethod
    def _write_row(state: State):
        # a is a multiple of 3 and g >= 900: outside every native
        # predicate (a % 3 <> 0, g.k < 900).
        serial = state.writes
        state.writes += 1
        return (3 * (EVENTS + serial), serial % 100, 900 + serial % 100,
                (serial % 997) * 0.5, "written")

    def rounds(self, data: _Data, state: State, client: int,
               rng: random.Random) -> Iterator[List[Op]]:
        natives = self.natives(data)
        number = 0
        while True:
            ops: List[Op] = []
            turn = number % len(natives)
            share = POINTS_PER_ROUND // len(natives)
            # Natives rotate so the statement that follows a write burst
            # (and, in parallel, pays the pool re-fork) changes by round.
            for native in natives[turn:] + natives[:turn]:
                ops.append(native)
                for _ in range(share):
                    k = rng.randrange(GROUPS)
                    ops.append(Op("point", POINT_SQL, (k,),
                                  expect=[("grp_%d" % k,)]))
            for _ in range(ADHOCS_PER_ROUND):
                literal = unique_literal(rng, 1.0, GROUPS, data.used_literals)
                below = int(float(literal)) + 1
                ops.append(Op(None, ADHOC_SQL % literal, fresh=True,
                              expect=[(below, below - 1)]))
            number += 1
            if number % WRITE_EVERY == 0:
                for _ in range(WRITE_BURST):
                    ops.append(Op("write", WRITE_SQL,
                                  self._write_row(state)))
            yield ops

    def probe_point(self, data: _Data) -> Op:
        return Op("point", POINT_SQL, (0,))

    def verify_extra(self, data: _Data, state: State):
        count = state.db.execute(
            "SELECT count(*) FROM events WHERE a >= %d" % (3 * EVENTS)
        ).scalar()
        wrong = 0 if count == state.writes else 1
        notes = ["%d written rows found, %d written" % (count, state.writes)
                 ] if wrong else []
        return 1, wrong, notes


class AnalyticParallel(AnalyticScan):
    name = "analytic_parallel"
    partitioned = True

    def configure(self, db) -> None:
        db.settings.parallelism = "auto"
        db.settings.dop = cores()

    def natives(self, data: _Data) -> List[Op]:
        return [Op("scan", SCAN_AGG_SQL, expect=data.expect_scan_agg),
                Op("join", JOIN_SQL, expect=data.expect_join),
                Op("agg", GROUP_G_SQL, expect=data.expect_group_g)]
