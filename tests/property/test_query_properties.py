"""Property-based equivalence tests over the whole query processor.

The central invariant of section 5: *query rewrite preserves semantics* —
for random data and a family of query shapes, results with the rewrite
phase on and off must agree.  A second invariant: optimizer knobs (bushy
trees, Cartesian products, rank pruning) never change results, only plans.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database

settings_profile = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture])


def build_db(a_rows, b_rows):
    db = Database()
    db.enable_operation("left_outer_join")
    db.execute("CREATE TABLE ta (k INTEGER, v INTEGER, s VARCHAR(5))")
    db.execute("CREATE TABLE tb (k INTEGER PRIMARY KEY, w INTEGER)")
    txn = db.begin()
    for k, v, s in a_rows:
        db.engine.insert(txn, "ta", (k, v, s))
    for k, w in b_rows:
        db.engine.insert(txn, "tb", (k, w))
    db.commit(txn)
    db.analyze()
    return db


a_rows_strategy = st.lists(
    st.tuples(st.integers(0, 8),
              st.one_of(st.none(), st.integers(-5, 5)),
              st.sampled_from(["x", "y", "z"])),
    max_size=25)
b_rows_strategy = st.lists(
    st.tuples(st.integers(0, 8), st.integers(-5, 5)),
    max_size=9, unique_by=lambda r: r[0])

QUERIES = [
    "SELECT k, v FROM ta WHERE v > 0",
    "SELECT a.k FROM ta a, tb b WHERE a.k = b.k AND b.w > 0",
    "SELECT k FROM ta WHERE k IN (SELECT k FROM tb WHERE w > 0)",
    "SELECT k FROM ta WHERE k NOT IN (SELECT k FROM tb)",
    "SELECT k FROM ta WHERE EXISTS (SELECT 1 FROM tb WHERE tb.k = ta.k)",
    "SELECT k FROM ta WHERE v > ALL (SELECT w FROM tb WHERE tb.k = ta.k)",
    "SELECT s, count(*), sum(v) FROM ta GROUP BY s",
    "SELECT DISTINCT s FROM ta WHERE v IS NOT NULL",
    "SELECT k FROM ta UNION SELECT k FROM tb",
    "SELECT k FROM ta EXCEPT SELECT k FROM tb",
    "SELECT k FROM ta INTERSECT SELECT k FROM tb",
    "SELECT a.s FROM ta a WHERE a.v = (SELECT max(w) FROM tb "
    "WHERE tb.k = a.k)",
    "SELECT k FROM ta WHERE s = 'x' OR v = (SELECT min(w) FROM tb)",
    "SELECT t.k FROM (SELECT k, v FROM ta WHERE v > -3) t WHERE t.k < 5",
    "SELECT a.k, b.w FROM ta a LEFT OUTER JOIN tb b ON a.k = b.k",
    "SELECT s, count(*) FROM ta GROUP BY s HAVING count(*) >= 2",
    "SELECT f.k FROM sample(ta, 5) f WHERE f.k > 2",
    "SELECT k FROM ta WHERE v IS NULL OR k IN (SELECT k FROM tb)",
]


@st.composite
def scenario(draw):
    return (draw(a_rows_strategy), draw(b_rows_strategy),
            draw(st.sampled_from(QUERIES)))


class TestRewriteEquivalence:
    @given(case=scenario())
    @settings_profile
    def test_rewrite_preserves_results(self, case):
        a_rows, b_rows, sql = case
        db = build_db(a_rows, b_rows)
        with_rewrite = sorted(db.execute(sql).rows)
        db.settings.rewrite_enabled = False
        without_rewrite = sorted(db.execute(sql).rows)
        assert with_rewrite == without_rewrite

    @given(case=scenario())
    @settings_profile
    def test_optimizer_knobs_preserve_results(self, case):
        a_rows, b_rows, sql = case
        db = build_db(a_rows, b_rows)
        baseline = sorted(db.execute(sql).rows)
        db.settings.allow_bushy = True
        db.settings.allow_cartesian = True
        assert sorted(db.execute(sql).rows) == baseline
        db.settings.rank_cutoff = 1.0
        assert sorted(db.execute(sql).rows) == baseline


class TestOrderByProperties:
    @given(rows=a_rows_strategy)
    @settings_profile
    def test_order_by_sorted_with_nulls_last(self, rows):
        db = build_db(rows, [])
        result = db.execute("SELECT v FROM ta ORDER BY v").rows
        values = [r[0] for r in result]
        non_null = [v for v in values if v is not None]
        assert non_null == sorted(non_null)
        if None in values:
            assert values.index(None) == len(non_null)

    @given(rows=a_rows_strategy, limit=st.integers(0, 10))
    @settings_profile
    def test_limit_is_prefix(self, rows, limit):
        db = build_db(rows, [])
        full = db.execute("SELECT k FROM ta ORDER BY k").rows
        limited = db.execute("SELECT k FROM ta ORDER BY k LIMIT %d"
                             % limit).rows
        assert limited == full[:limit]


class TestAggregationProperties:
    @given(rows=a_rows_strategy)
    @settings_profile
    def test_group_counts_sum_to_total(self, rows):
        db = build_db(rows, [])
        groups = db.execute("SELECT s, count(*) FROM ta GROUP BY s").rows
        total = db.execute("SELECT count(*) FROM ta").scalar()
        assert sum(count for _s, count in groups) == total

    @given(rows=a_rows_strategy)
    @settings_profile
    def test_distinct_union_semantics(self, rows):
        db = build_db(rows, [])
        distinct = sorted(db.execute("SELECT DISTINCT k FROM ta").rows)
        union_self = sorted(db.execute(
            "SELECT k FROM ta UNION SELECT k FROM ta").rows)
        assert distinct == union_self


def _nullable(values):
    return st.one_of(st.none(), values)


fused_rows_strategy = st.lists(
    st.tuples(_nullable(st.integers(0, 5)), _nullable(st.integers(-4, 4)),
              _nullable(st.sampled_from([0.5, -1.25, 2.0, 3.0])),
              _nullable(st.sampled_from(["x", "y", "z"]))),
    max_size=30)
fused_build_strategy = st.lists(
    st.tuples(_nullable(st.integers(0, 5)), _nullable(st.integers(-4, 4))),
    max_size=12)

FUSED_QUERIES = [
    "SELECT k, count(*), count(v), sum(v), avg(v), min(x), max(s) "
    "FROM fa GROUP BY k",
    "SELECT s, k, sum(x), avg(x), count(DISTINCT v), sum(DISTINCT v), "
    "min(DISTINCT x), max(v) FROM fa GROUP BY s, k",
    "SELECT count(*), count(x), sum(v), sum(x), avg(v), min(s), max(x), "
    "count(DISTINCT s), avg(DISTINCT x) FROM fa",
    "SELECT count(*), sum(v), avg(x), min(v) FROM fa WHERE k > 99",
    "SELECT v, count(*) FROM fa WHERE k > 99 GROUP BY v",
    "SELECT x, count(*), sum(v) FROM fa GROUP BY x",
    "SELECT s, sum(v) + 1 FROM fa GROUP BY s HAVING count(*) >= 2",
    "SELECT a.k, a.v, b.w FROM fa a, fb b WHERE a.v = b.w",
    "SELECT a.k, b.w FROM fa a, fb b WHERE a.k = b.k AND a.v = b.w",
    "SELECT a.k, b.w FROM fa a LEFT OUTER JOIN fb b ON a.v = b.w",
    "SELECT a.s, b.w FROM fa a LEFT OUTER JOIN fb b "
    "ON a.k = b.k AND a.v = b.w",
    "SELECT b.w, count(*), sum(a.x), max(a.s) FROM fa a, fb b "
    "WHERE a.k = b.k GROUP BY b.w",
]


class TestFusedAgreement:
    """Fused group-bys and hash joins — inlined aggregates, bare
    single-column keys — return the tuple interpreter's rows exactly:
    same order, same values, same types."""

    @given(a_rows=fused_rows_strategy, b_rows=fused_build_strategy,
           sql=st.sampled_from(FUSED_QUERIES))
    @settings_profile
    def test_fused_matches_tuple(self, a_rows, b_rows, sql):
        db = Database()
        db.enable_operation("left_outer_join")
        db.execute("CREATE TABLE fa (k INTEGER, v INTEGER, x DOUBLE, "
                   "s VARCHAR(5))")
        db.execute("CREATE TABLE fb (k INTEGER, w INTEGER)")
        txn = db.begin()
        for row in a_rows:
            db.engine.insert(txn, "fa", row)
        for row in b_rows:
            db.engine.insert(txn, "fb", row)
        db.commit(txn)
        db.analyze()
        try:
            base = db.settings.compile_options().replace(
                plan_cache=False, forced_join_method="hash")
            ref = repr(db.execute(sql, options=base.replace(
                execution_mode="tuple")).rows)
            for options in (base, base.replace(batch_size=1),
                            base.replace(parallelism="on", dop=2)):
                assert repr(db.execute(sql, options=options).rows) == ref
        finally:
            db.close()
