"""E14 — the Core substrate: buffer pool, storage managers, access paths.

Corona's demands on Core, measured:

- buffer-pool hit ratio vs pool size (the working-set curve),
- heap vs fixed-length storage manager density and scan speed (the
  paper's example extension: fixed-length records "extremely efficiently"),
- index-vs-scan crossover as predicate selectivity varies.
"""

import pytest

from benchmarks.conftest import bulk_insert, print_table
from repro import Database


@pytest.fixture(scope="module")
def density_db() -> Database:
    db = Database(pool_capacity=2048)
    db.execute("CREATE TABLE on_heap (k INTEGER, v DOUBLE, f INTEGER)")
    db.execute("CREATE TABLE on_fixed (k INTEGER, v DOUBLE, f INTEGER) "
               "USING fixed")
    rows = [(i, float(i), i % 97) for i in range(20000)]
    bulk_insert(db, "on_heap", rows)
    bulk_insert(db, "on_fixed", rows)
    db.execute("CREATE INDEX ik ON on_heap (k)")
    db.analyze()
    return db


def test_e14_storage_density(density_db, benchmark):
    heap_pages = density_db.engine.storage("on_heap").page_count
    fixed_pages = density_db.engine.storage("on_fixed").page_count
    result = benchmark(density_db.execute, "SELECT sum(v) FROM on_fixed")
    heap_time = density_db.execute("SELECT sum(v) FROM on_heap")
    print_table(
        "E14: heap vs fixed-length storage manager (20000 rows)",
        ["storage manager", "pages", "scan (s)"],
        [("heap", heap_pages, "%.6f" % heap_time.timings.execute),
         ("fixed", fixed_pages, "%.6f" % result.timings.execute)])
    assert fixed_pages < heap_pages


def test_e14_buffer_hit_ratio(density_db, benchmark):
    rows = []
    scan_sql = "SELECT count(*) FROM on_heap"
    for capacity in (8, 32, 128, 1024):
        density_db.engine.pool.resize(capacity)
        density_db.engine.pool.stats.reset()
        density_db.engine.disk.stats.reset()
        density_db.execute(scan_sql)
        density_db.execute(scan_sql)  # second pass measures re-use
        stats = density_db.engine.pool.stats
        rows.append((capacity, stats.hits, stats.misses,
                     "%.2f" % stats.hit_ratio))
    density_db.engine.pool.resize(2048)
    benchmark(density_db.execute, scan_sql)
    print_table(
        "E14: buffer-pool hit ratio vs capacity (two sequential scans)",
        ["frames", "hits", "misses", "hit ratio"], rows)
    ratios = [float(r[3]) for r in rows]
    assert ratios[-1] >= ratios[0]


def test_e14_index_scan_crossover(density_db, benchmark):
    """Selective predicates use the B+-tree; wide ranges fall back to the
    scan — the access-path selection crossover."""
    rows = []
    for bound, label in ((40, "0.2%"), (2000, "10%"), (16000, "80%")):
        compiled = density_db.compile(
            "SELECT sum(v) FROM on_heap WHERE k < %d" % bound)
        access = next(n.op_name for n in compiled.plan.walk()
                      if n.op_name in ("SCAN", "ISCAN"))
        result = density_db.run_compiled(compiled)
        rows.append((label, access, "%.1f" % compiled.plan.props.cost,
                     "%.6f" % result.timings.execute))
    benchmark(density_db.execute,
              "SELECT sum(v) FROM on_heap WHERE k < 40")
    print_table(
        "E14: access-path selection vs selectivity",
        ["selectivity", "access", "est. cost", "exec (s)"], rows)
    assert rows[0][1] == "ISCAN"
    assert rows[-1][1] == "SCAN"


def test_e14_recovery_throughput(benchmark):
    """WAL replay: records per second for a 5000-operation log."""
    from repro.catalog import Catalog, ColumnDef, TableDef
    from repro.datatypes import INTEGER, VARCHAR
    from repro.storage.engine import StorageEngine
    from repro.storage.recovery import recover

    def schema():
        catalog = Catalog()
        engine = StorageEngine(catalog, pool_capacity=256)
        engine.create_table(TableDef("t", [
            ColumnDef("a", INTEGER), ColumnDef("b", VARCHAR)]))
        return engine

    source = schema()
    txn = source.begin()
    rids = [source.insert(txn, "t", (i, "row%d" % i)) for i in range(4000)]
    for rid in rids[::8]:
        source.delete(txn, "t", rid)
    for rid in rids[1::8]:
        source.update(txn, "t", rid, (-1, "updated"))
    source.commit(txn)

    def replay():
        fresh = schema()
        return recover(source.log, fresh)

    report = benchmark(replay)
    print_table("E14: WAL replay", ["metric", "value"],
                [("log records", len(source.log)),
                 ("operations redone", report.redone)])
    assert report.redone == 5000
