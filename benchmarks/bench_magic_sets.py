"""E4 — §5 magic sets for recursive queries.

"Recently we have been adding rewrite rules for recursive queries,
including rules to do magic set transformations [BANC86]."

Workload: transitive closure over a forest of disjoint chains, restricted
to one seed.  Without the seed-restriction rule the fixpoint derives the
closure of *every* chain; with it, only the seed's chain.  Reported: delta
tuples scanned, rows derived, wall-clock.
"""

import pytest

from benchmarks.conftest import bulk_insert, print_table, project_rows
from repro import Database

CHAINS = 20
CHAIN_LENGTH = 30

SQL = ("WITH RECURSIVE reach (s, d) AS ("
       "SELECT src, dst FROM links UNION ALL "
       "SELECT r.s, l.dst FROM reach r, links l WHERE l.src = r.d) "
       "SELECT d FROM reach WHERE s = 0")


@pytest.fixture(scope="module")
def chains_db() -> Database:
    db = Database(pool_capacity=256)
    db.execute("CREATE TABLE links (src INTEGER, dst INTEGER)")
    rows = []
    for chain in range(CHAINS):
        base = chain * 1000
        for step in range(CHAIN_LENGTH):
            rows.append((base + step, base + step + 1))
    bulk_insert(db, "links", rows)
    db.analyze()
    return db


def test_e4_magic_on(chains_db, benchmark):
    result = benchmark(chains_db.execute, SQL)
    assert len(result.rows) == CHAIN_LENGTH
    compiled = chains_db.compile(SQL)
    assert compiled.rewrite_report.count("magic_seed_restriction") == 1


def test_e4_magic_off(chains_db, benchmark):
    chains_db.rewrite_engine.disable_rule("magic_seed_restriction")
    try:
        result = benchmark(chains_db.execute, SQL)
        assert len(result.rows) == CHAIN_LENGTH
    finally:
        chains_db.rewrite_engine.enable_rule("magic_seed_restriction")


def test_e4_work_comparison(chains_db, benchmark):
    on_stats = benchmark(chains_db.execute, SQL).stats
    on_emitted = project_rows(chains_db, SQL)
    chains_db.rewrite_engine.disable_rule("magic_seed_restriction")
    try:
        off_stats = chains_db.execute(SQL).stats
        off_emitted = project_rows(chains_db, SQL)
    finally:
        chains_db.rewrite_engine.enable_rule("magic_seed_restriction")
    print_table(
        "E4: magic seed restriction on %d chains x %d steps, seed = one "
        "chain (rows emitted by PROJECT operators)" % (CHAINS, CHAIN_LENGTH),
        ["variant", "rows scanned", "rows emitted", "iterations"],
        [("magic on", on_stats.rows_scanned, on_emitted,
          on_stats.recursion_iterations),
         ("magic off", off_stats.rows_scanned, off_emitted,
          off_stats.recursion_iterations)])
    # Shape: the restricted fixpoint derives ~1/CHAINS of the tuples.
    assert on_emitted * (CHAINS // 2) < off_emitted
