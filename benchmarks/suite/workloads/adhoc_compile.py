"""adhoc_compile — never-repeated statements on tiny tables.

Why it is here: parse, translate, rewrite, optimize and refine do nearly
all the work and the executor almost none — the paper's actual subject,
and the only workload where a rule-engine or STAR change shows.  Tables
hold 5 to 64 rows so that (a) execution is a few percent of a statement
and (b) the naive reference oracle, which enumerates cross products, can
check even the 6-way join.

One round is one pass over ``TEMPLATES``: the Figure-2 quotations /
inventory subquery, view merging, magic-set recursion, 2- to 6-way chain
joins, 3- and 5-way star joins, single-table scans and group-bys, point
reads and single-row writes.  Every text carries a literal drawn from
the seed that this run has not used before, so every statement is a
fingerprint miss and a full compile.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from benchmarks.suite.workloads.base import (
    Op, State, Workload, bulk_load, canon, shuffled, unique_literal)

CHAIN_TABLES = 6
CHAIN_ROWS = 6
DIMS = 4
DIM_ROWS = 5
FACT_ROWS = 40
INVENTORY_ROWS = 40
QUOTATION_ROWS = 64
LINK_CHAINS = 4
LINK_STEPS = 6
#: Instances of each template checked against the oracle per pass.
ORACLE_CHECKS = 3


def _chain(n: int, literal: str) -> str:
    joins = " AND ".join("c%d.b = c%d.a" % (i, i + 1) for i in range(n - 1))
    tables = ", ".join("c%d" % i for i in range(n))
    return ("SELECT c0.a, c%d.b FROM %s WHERE %s AND c0.a < %s"
            % (n - 1, tables, joins, literal))


def _star(dims: int, literal: str) -> str:
    names = ["dim%d" % (i + 1) for i in range(dims)]
    select = ", ".join("%s.label" % name for name in names)
    joins = " AND ".join("f.d%d = %s.k" % (i + 1, name)
                         for i, name in enumerate(names))
    return ("SELECT f.id, %s FROM fact f, %s WHERE %s AND f.measure < %s"
            % (select, ", ".join(names), joins, literal))


class _Draw:
    """Literal source for one pass: fresh doubles and serial integers."""

    def __init__(self, rng: random.Random, data):
        self.rng = rng
        self.data = data

    def real(self, low: float, high: float) -> str:
        return unique_literal(self.rng, low, high, self.data.used_literals)

    def serial(self) -> int:
        self.data.serial += 1
        return self.data.serial


# (name, class, builder).  A class of None counts toward adhoc_ms_p50 and
# stmt_per_s only.
TEMPLATES = [
    ("fig2", None, lambda d:
        "SELECT partno, price, order_qty FROM quotations Q1 "
        "WHERE Q1.partno IN (SELECT partno FROM inventory Q3 "
        "WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU') "
        "AND Q1.price > %s" % d.real(0, 50)),
    ("view_merge", None, lambda d:
        "SELECT q.partno, q.price FROM bulk_quotes q, cpu_inventory i "
        "WHERE q.partno = i.partno AND q.price < %s" % d.real(50, 150)),
    ("magic", None, lambda d:
        "WITH RECURSIVE reach (s, d) AS ("
        "SELECT src, dst FROM links UNION ALL "
        "SELECT r.s, l.dst FROM reach r, links l WHERE l.src = r.d) "
        "SELECT d FROM reach WHERE s = %d AND d < %d"
        % (d.rng.randrange(LINK_CHAINS) * 100, 10_000_000 + d.serial())),
    ("chain2", "join", lambda d: _chain(2, d.real(2, CHAIN_ROWS))),
    ("chain3", "join", lambda d: _chain(3, d.real(2, CHAIN_ROWS))),
    ("chain4", "join", lambda d: _chain(4, d.real(2, CHAIN_ROWS))),
    ("chain5", "join", lambda d: _chain(5, d.real(2, CHAIN_ROWS))),
    ("chain6", "join", lambda d: _chain(6, d.real(2, CHAIN_ROWS))),
    ("star3", "join", lambda d: _star(2, d.real(5, 40))),
    ("star5", "join", lambda d: _star(4, d.real(5, 40))),
    ("scan_quotes", "scan", lambda d:
        "SELECT partno, price * 2 + 1 FROM quotations "
        "WHERE price < %s AND order_qty <> 3" % d.real(20, 150)),
    ("scan_inventory", "scan", lambda d:
        "SELECT partno, onhand_qty FROM inventory "
        "WHERE type = 'MEM' AND onhand_qty > %s" % d.real(0, 60)),
    ("agg_supplier", "agg", lambda d:
        "SELECT supplier, count(*), sum(price) FROM quotations "
        "WHERE price > %s GROUP BY supplier" % d.real(0, 50)),
    ("agg_view", "agg", lambda d:
        "SELECT count(*), max(price) FROM bulk_quotes "
        "WHERE price < %s" % d.real(50, 150)),
    ("point_inventory", "point", lambda d:
        "SELECT onhand_qty, %d FROM inventory WHERE partno = %d"
        % (d.serial(), d.rng.randrange(INVENTORY_ROWS))),
    ("point_fact", "point", lambda d:
        "SELECT measure, %d FROM fact WHERE id = %d"
        % (d.serial(), d.rng.randrange(FACT_ROWS))),
    ("point_dim", "point", lambda d:
        "SELECT label, %d FROM dim1 WHERE k = %d"
        % (d.serial(), d.rng.randrange(DIM_ROWS))),
]


class _Data:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.inventory = shuffled(
            [(i, (i * 7) % 101, "CPU" if i % 4 == 0 else "MEM")
             for i in range(INVENTORY_ROWS)], rng)
        self.quotations = shuffled(
            [(i % 48, 10.0 + (i % 97) * 1.5, i % 13,
              "supplier%d" % (i % 20)) for i in range(QUOTATION_ROWS)], rng)
        self.links = shuffled(
            [(c * 100 + s, c * 100 + s + 1)
             for c in range(LINK_CHAINS) for s in range(LINK_STEPS)], rng)
        self.chains = [
            shuffled([(j, (j * (t + 3)) % CHAIN_ROWS)
                      for j in range(CHAIN_ROWS)], rng)
            for t in range(CHAIN_TABLES)]
        self.dims = [
            shuffled([(k, "dim%d_%d" % (d + 1, k))
                      for k in range(DIM_ROWS)], rng)
            for d in range(DIMS)]
        self.fact = shuffled(
            [(i, i % DIM_ROWS, (i * 3) % DIM_ROWS, (i * 7) % DIM_ROWS,
              (i * 11) % DIM_ROWS, float(i % 997))
             for i in range(FACT_ROWS)], rng)
        #: Literals and serials already spent (shared by warm-ups and
        #: passes, because the fingerprint memo outlives a Database).
        self.used_literals: set = set()
        self.serial = 0
        #: The ledger the write templates maintain: id -> qty.
        self.ledger: dict = {}
        self.ledger_ids: list = []
        self.oracle_checked: dict = {}


class AdhocCompile(Workload):
    name = "adhoc_compile"

    def generate(self, seed: int) -> _Data:
        return _Data(seed)

    def op_counts(self) -> dict:
        return {"round_ops": len(TEMPLATES) + 3 + 2,
                "largest_table_rows": QUOTATION_ROWS}

    def setup(self, data: _Data) -> State:
        from time import perf_counter

        from repro import Database

        db = Database()
        db.execute("CREATE TABLE quotations (partno INTEGER, price DOUBLE, "
                   "order_qty INTEGER, supplier VARCHAR(20))")
        db.execute("CREATE TABLE inventory (partno INTEGER PRIMARY KEY, "
                   "onhand_qty INTEGER, type VARCHAR(10))")
        db.execute("CREATE TABLE links (src INTEGER, dst INTEGER)")
        for t in range(CHAIN_TABLES):
            db.execute("CREATE TABLE c%d (a INTEGER, b INTEGER)" % t)
        for d in range(DIMS):
            db.execute("CREATE TABLE dim%d (k INTEGER PRIMARY KEY, "
                       "label VARCHAR(12))" % (d + 1))
        db.execute("CREATE TABLE fact (id INTEGER PRIMARY KEY, "
                   "d1 INTEGER, d2 INTEGER, d3 INTEGER, d4 INTEGER, "
                   "measure DOUBLE)")
        db.execute("CREATE TABLE ledger (id INTEGER PRIMARY KEY, "
                   "qty INTEGER, note VARCHAR(12))")
        started = perf_counter()
        bulk_load(db, "inventory", data.inventory)
        bulk_load(db, "quotations", data.quotations)
        bulk_load(db, "links", data.links)
        for t, rows in enumerate(data.chains):
            bulk_load(db, "c%d" % t, rows)
        for d, rows in enumerate(data.dims):
            bulk_load(db, "dim%d" % (d + 1), rows)
        bulk_load(db, "fact", data.fact)
        load_seconds = perf_counter() - started
        loaded = (len(data.inventory) + len(data.quotations)
                  + len(data.links) + CHAIN_TABLES * CHAIN_ROWS
                  + DIMS * DIM_ROWS + len(data.fact))
        db.execute("CREATE VIEW cpu_inventory AS SELECT partno, onhand_qty "
                   "FROM inventory WHERE type = 'CPU'")
        db.execute("CREATE VIEW bulk_quotes AS SELECT partno, price "
                   "FROM quotations WHERE order_qty > 5")
        db.analyze()
        # Warm-up: one statement per template, so lazy imports and
        # first-call paths are paid before the window.  The ledger is
        # new per Database, so warm-up writes are not in the model.
        draw = _Draw(random.Random(data.seed ^ 0x5EED), data)
        for _name, _kind, build in TEMPLATES:
            db.execute(build(draw))
        db.execute("INSERT INTO ledger VALUES (0, %d, 'warm')"
                   % draw.serial())
        db.execute("UPDATE ledger SET qty = %d WHERE id = 0" % draw.serial())
        data.ledger = {0: data.serial}
        data.ledger_ids = [0]
        data.oracle_checked = {}
        return State(db, loaded, load_seconds, "pk_inventory",
                     INVENTORY_ROWS)

    def rounds(self, data: _Data, state: State, client: int,
               rng: random.Random) -> Iterator[List[Op]]:
        draw = _Draw(rng, data)
        while True:
            ops = []
            for name, kind, build in TEMPLATES:
                # Point reads are cheap and feed a p95: two of each.
                for _ in range(2 if kind == "point" else 1):
                    checked = data.oracle_checked.get(name, 0)
                    expect = "oracle" if checked < ORACLE_CHECKS else None
                    data.oracle_checked[name] = checked + 1
                    ops.append(Op(kind, build(draw), fresh=True,
                                  expect=expect))
            # The UPDATE targets a row of an earlier round, so the
            # shuffle below cannot put it ahead of its own INSERT.
            target = rng.choice(data.ledger_ids)
            qty = draw.serial()
            data.ledger[target] = qty
            ops.append(Op("write", "UPDATE ledger SET qty = %d WHERE id = %d"
                          % (qty, target), fresh=True))
            new_id = draw.serial()
            qty = draw.serial()
            data.ledger[new_id] = qty
            data.ledger_ids.append(new_id)
            ops.append(Op("write", "INSERT INTO ledger VALUES (%d, %d, 'n')"
                          % (new_id, qty), fresh=True))
            rng.shuffle(ops)
            yield ops

    def expected(self, data: _Data, state: State, op: Op):
        """The reference oracle: a naive interpreter that shares no
        rewrite, optimizer or executor code with the engine."""
        from repro.testkit.oracle import ReferenceOracle

        return ReferenceOracle(state.db).execute(op.sql).rows

    def verify_extra(self, data: _Data, state: State):
        rows = state.db.execute("SELECT id, qty FROM ledger").rows
        wrong = 0 if canon(rows) == canon(data.ledger.items()) else 1
        notes = ["ledger differs from the model (%d rows vs %d)"
                 % (len(rows), len(data.ledger))] if wrong else []
        return 1, wrong, notes
