"""oltp_point — parameterized point reads, index joins and single-row
writes on a keyed table larger than the buffer pool.

Why it is here: the plan cache, storage and the access methods do the
work (30 us to 2 ms statements), with writes beside the reads so that a
read-path gain that taxes the WAL, locks or index maintenance shows.

``accounts`` holds 30k rows (about 610 pages against the default
256-page pool) with a primary key and a secondary index on ``branch``;
``branches`` is a 200-row dimension.  One round is 100 operations through
``Database.execute`` with ``?`` parameters: 56 point reads, 14 joins of
one account to its branch, 11 INSERTs, 11 UPDATEs, and as guests 3
branch listings and 3 branch aggregates through the secondary index and
2 point reads whose text was never seen.  Keys are drawn 80% from a
200-key hot set and 20% uniformly.

Answers depend on earlier writes, so the generator keeps a plain-Python
model of the table and attaches to each read the rows the model says it
must return at that point of the (single-threaded) sequence.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Iterator, List

from benchmarks.suite.workloads.base import (
    Op, State, Workload, bulk_load, shuffled, skewed_key)

ACCOUNTS = 30_000
BRANCHES = 200
HOT_KEYS = 200
HOT_SHARE = 0.8
ROUND = (["point"] * 56 + ["join"] * 14 + ["insert"] * 11
         + ["update"] * 11 + ["scan"] * 3 + ["agg"] * 3 + ["adhoc"] * 2)

POINT_SQL = "SELECT balance, owner FROM accounts WHERE id = ?"
JOIN_SQL = ("SELECT a.balance, b.city FROM accounts a, branches b "
            "WHERE a.id = ? AND a.branch = b.bid")
INSERT_SQL = "INSERT INTO accounts VALUES (?, ?, ?, ?, ?)"
UPDATE_SQL = "UPDATE accounts SET balance = ? WHERE id = ?"
SCAN_SQL = "SELECT id, balance FROM accounts WHERE branch = ?"
AGG_SQL = "SELECT count(*), sum(balance) FROM accounts WHERE branch = ?"
ADHOC_SQL = "SELECT balance, %d FROM accounts WHERE id = %d"
NOTE = "n" * 32


class _Data:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        # Balances are multiples of 0.25: sums are exact in any order.
        base = [(j, j % BRANCHES, ((j * 37) % 4000) * 0.25,
                 "owner-%08d" % j, NOTE) for j in range(ACCOUNTS)]
        self.accounts = shuffled(base, rng)
        self.branches = shuffled([(b, "city%d" % b)
                                  for b in range(BRANCHES)], rng)
        self.hot = rng.sample(range(ACCOUNTS), HOT_KEYS)
        #: The model: id -> [branch, balance, owner], and branch -> ids.
        self.model = {j: [branch, balance, owner]
                      for j, branch, balance, owner, _n in base}
        self.by_branch = {b: [] for b in range(BRANCHES)}
        for j, branch, _bal, _owner, _n in base:
            self.by_branch[branch].append(j)
        self.next_id = ACCOUNTS
        self.serial = 0


class OltpPoint(Workload):
    name = "oltp_point"

    def generate(self, seed: int) -> _Data:
        return _Data(seed)

    def op_counts(self) -> dict:
        return {"accounts_rows": ACCOUNTS, "branches_rows": BRANCHES,
                "round_ops": len(ROUND), "hot_keys": HOT_KEYS}

    def setup(self, data: _Data) -> State:
        from repro import Database

        db = Database()
        db.execute("CREATE TABLE accounts (id INTEGER PRIMARY KEY, "
                   "branch INTEGER, balance DOUBLE, owner VARCHAR(24), "
                   "note VARCHAR(40))")
        db.execute("CREATE TABLE branches (bid INTEGER PRIMARY KEY, "
                   "city VARCHAR(16))")
        started = perf_counter()
        bulk_load(db, "accounts", data.accounts)
        bulk_load(db, "branches", data.branches)
        load_seconds = perf_counter() - started
        db.execute("CREATE INDEX ibranch ON accounts (branch)")
        db.analyze()
        # Warm-up leaves the table as the model has it: the inserted
        # row is updated, read and deleted again.
        db.execute(INSERT_SQL, (-1, 0, 0.0, "warm", NOTE))
        db.execute(UPDATE_SQL, (1.0, -1))
        db.execute("DELETE FROM accounts WHERE id = ?", (-1,))
        for sql in (POINT_SQL, JOIN_SQL):
            db.execute(sql, (0,))
        for sql in (SCAN_SQL, AGG_SQL):
            db.execute(sql, (0,))
        return State(db, ACCOUNTS + BRANCHES, load_seconds, "pk_accounts",
                     ACCOUNTS)

    def rounds(self, data: _Data, state: State, client: int,
               rng: random.Random) -> Iterator[List[Op]]:
        model, by_branch = data.model, data.by_branch

        def key() -> int:
            return skewed_key(rng, data.hot, HOT_SHARE, ACCOUNTS)

        while True:
            kinds = list(ROUND)
            rng.shuffle(kinds)
            ops = []
            # Expected rows are read off the model as each operation is
            # generated; operations run in exactly this order.
            for kind in kinds:
                if kind == "point":
                    k = key()
                    ops.append(Op("point", POINT_SQL, (k,), expect=[
                        (model[k][1], model[k][2])]))
                elif kind == "join":
                    k = key()
                    ops.append(Op("join", JOIN_SQL, (k,), expect=[
                        (model[k][1], "city%d" % model[k][0])]))
                elif kind == "insert":
                    k = data.next_id
                    data.next_id += 1
                    branch = rng.randrange(BRANCHES)
                    balance = rng.randrange(4000) * 0.25
                    owner = "new-%d" % k
                    model[k] = [branch, balance, owner]
                    by_branch[branch].append(k)
                    ops.append(Op("write", INSERT_SQL,
                                  (k, branch, balance, owner, NOTE)))
                elif kind == "update":
                    k = key()
                    balance = rng.randrange(4000) * 0.25
                    model[k][1] = balance
                    ops.append(Op("write", UPDATE_SQL, (balance, k)))
                elif kind == "scan":
                    b = rng.randrange(BRANCHES)
                    ops.append(Op("scan", SCAN_SQL, (b,), expect=[
                        (j, model[j][1]) for j in by_branch[b]]))
                elif kind == "agg":
                    b = rng.randrange(BRANCHES)
                    ops.append(Op("agg", AGG_SQL, (b,), expect=[
                        (len(by_branch[b]),
                         sum(model[j][1] for j in by_branch[b]))]))
                else:
                    k = key()
                    data.serial += 1
                    ops.append(Op(None, ADHOC_SQL % (data.serial, k),
                                  fresh=True,
                                  expect=[(model[k][1], data.serial)]))
            yield ops

    def probe_point(self, data: _Data) -> Op:
        return Op("point", POINT_SQL, (data.hot[0],))

    def verify_extra(self, data: _Data, state: State):
        row = state.db.execute(
            "SELECT count(*), sum(balance) FROM accounts").first()
        want = (len(data.model), sum(v[1] for v in data.model.values()))
        wrong = 0 if tuple(row) == want else 1
        notes = ["accounts is %r, the model says %r" % (row, want)
                 ] if wrong else []
        return 1, wrong, notes
