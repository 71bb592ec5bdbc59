"""Engine bugs surfaced by the differential oracle, pinned forever.

Each test is a shrunk counterexample found by ``python -m repro.testkit``
(see tests/differential/).  The seed that first exposed the bug is noted
so the original hunt can be replayed.
"""

from __future__ import annotations

import pytest

from repro import CompileOptions, Database


def _lateral_db() -> Database:
    db = Database()
    db.execute('CREATE TABLE t0 (c0 INTEGER PRIMARY KEY, c1 INTEGER)')
    db.execute('CREATE TABLE t1 (c0 INTEGER PRIMARY KEY, c1 INTEGER)')
    for i, v in enumerate([1, 2, 2, None]):
        db.execute('INSERT INTO t0 VALUES (%d, %s)'
                   % (i, 'NULL' if v is None else v))
    for i, v in enumerate([2, 1, 3, 2]):
        db.execute('INSERT INTO t1 VALUES (%d, %d)' % (i, v))
    db.analyze()
    return db


LATERAL_SQL = ('SELECT a.c1 AS x, b.c1 AS y FROM t0 a, t1 b '
               'WHERE b.c1 IN (SELECT c.c1 FROM t1 c WHERE c.c0 = a.c0)')
LATERAL_ROWS = sorted([(1, 2), (1, 2), (2, 1), (2, 3),
                       (None, 2), (None, 2)], key=repr)


def test_lateral_setformer_after_subquery_to_join():
    """Seed 12: rewrite rule 1 turns a correlated EXISTS/IN quantifier
    into an F setformer whose subtree references a sibling.  The join
    enumerator must keep every such setformer on the inner side of a
    nested-loops join below its dependencies — any other placement (or a
    merge/hash join, which materializes the inner early) evaluates the
    correlated predicate with the sibling unbound (KeyError pre-fix)."""
    db = _lateral_db()
    result = db.execute(LATERAL_SQL)
    assert sorted(result.rows, key=repr) == LATERAL_ROWS
    # The rewrite must actually have fired, or this pins nothing.
    assert 'ACCESS(select' in db.explain(LATERAL_SQL)


@pytest.mark.parametrize("options", [
    CompileOptions(rewrite_enabled=False),
    CompileOptions(join_enumeration="greedy"),
    CompileOptions(forced_join_method="hash"),
    CompileOptions(forced_join_method="merge"),
    CompileOptions(allow_bushy=True, allow_cartesian=True),
])
def test_lateral_setformer_config_matrix(options):
    """The lateral constraint holds under every optimizer configuration,
    including forced join methods (which must fall back to NL for the
    lateral edge) and the greedy enumerator."""
    db = _lateral_db()
    result = db.execute(LATERAL_SQL, options=options)
    assert sorted(result.rows, key=repr) == LATERAL_ROWS


def test_lateral_inner_never_temp_cached():
    """Seed 12 (second half): even with the join order right, the NL-join
    Temp variant cached the correlated inner once with the parent env —
    every outer row then saw the first row's subquery result.  A lateral
    inner must be re-evaluated per outer row."""
    db = _lateral_db()
    explain = db.explain(LATERAL_SQL)
    plan_text = explain.split('=== plan ===')[1]
    nl_section = plan_text[plan_text.index('NLJOIN'):]
    access = nl_section[:nl_section.index('SCAN(t1 as b)')]
    assert 'ACCESS(select' in access
    assert 'TEMP' not in access


def test_redundant_join_elimination_skips_nullable_outer_join():
    """Seed 59: [OTT82] redundant join elimination fired on a LEFT OUTER
    JOIN box, dropped the null-producing quantifier and left an outer-join
    box with a single PF iterator — the optimizer then refused the plan.
    With a nullable join key (unique index, no NOT NULL) the outer join
    does not degenerate to an inner join, so the rule must not fire."""
    db = Database()
    db.enable_operation('left_outer_join')
    db.execute('CREATE TABLE t0 (c0 INTEGER, c1 INTEGER)')
    db.execute('CREATE UNIQUE INDEX u0 ON t0 (c0)')
    db.execute('INSERT INTO t0 VALUES (1, 10)')
    db.execute('INSERT INTO t0 VALUES (NULL, 20)')
    db.analyze()
    sql = ('SELECT a.c1 AS x, b.c1 AS y FROM t0 a '
           'LEFT OUTER JOIN t0 b ON a.c0 = b.c0')
    result = db.execute(sql)
    # The NULL-keyed row must be padded, not matched to itself.
    assert sorted(result.rows, key=repr) == \
        sorted([(10, 10), (20, None)], key=repr)


def test_redundant_join_elimination_degenerate_outer_join():
    """When the key is NOT NULL every preserved row is guaranteed its
    match: the outer join degenerates to an inner join and elimination is
    legal — but only if the rule also clears the outer-join annotation
    and renormalizes the surviving quantifier."""
    db = Database()
    db.enable_operation('left_outer_join')
    db.execute('CREATE TABLE t0 '
               '(c0 INTEGER NOT NULL PRIMARY KEY, c1 INTEGER)')
    db.execute('INSERT INTO t0 VALUES (1, 10)')
    db.execute('INSERT INTO t0 VALUES (2, 20)')
    db.analyze()
    sql = ('SELECT a.c1 AS x, b.c1 AS y FROM t0 a '
           'LEFT OUTER JOIN t0 b ON a.c0 = b.c0')
    result = db.execute(sql)
    assert sorted(result.rows, key=repr) == \
        sorted([(10, 10), (20, 20)], key=repr)
    # Elimination really happened: only one scan of t0 in the plan.
    plan_text = db.explain(sql).split('=== plan ===')[1]
    assert plan_text.count('SCAN(t0') == 1


def test_outer_join_with_extra_on_condition_not_eliminated():
    """An extra ON condition can fail and pad where an inner join would
    filter; elimination must stay off even with a NOT NULL key."""
    db = Database()
    db.enable_operation('left_outer_join')
    db.execute('CREATE TABLE t0 '
               '(c0 INTEGER NOT NULL PRIMARY KEY, c1 INTEGER)')
    db.execute('INSERT INTO t0 VALUES (1, 10)')
    db.execute('INSERT INTO t0 VALUES (2, 20)')
    db.analyze()
    sql = ('SELECT a.c1 AS x, b.c1 AS y FROM t0 a '
           'LEFT OUTER JOIN t0 b ON a.c0 = b.c0 AND b.c1 > 15')
    result = db.execute(sql)
    assert sorted(result.rows, key=repr) == \
        sorted([(10, None), (20, 20)], key=repr)


def test_differential_seed_228_batch_outer_join_empty_inner():
    """Seed 228, config batch: a batch left outer join whose inner
    materializes to zero rows produced a padded batch with the present
    mask set but no inner value columns at all, so the parent PROJECT
    raised "batch has no column" instead of emitting NULL-padded rows.
    (Latent in the hash join; exposed when NL joins became
    batch-capable, since the optimizer prefers NL over empty inners.)
    The batch engine is gone; the statement now holds the fused
    backend, whose probe step pads outer rows itself, to the same
    answer."""
    db = Database()
    db.enable_operation('left_outer_join')
    db.execute('CREATE TABLE t0 (c0 INTEGER, c1 VARCHAR(8), '
               'c2 DOUBLE NOT NULL, c3 INTEGER NOT NULL)')
    db.execute('CREATE TABLE t1 (c0 INTEGER NOT NULL, c1 VARCHAR(8))')
    db.execute('CREATE INDEX ix_t1_0 ON t1 (c1)')
    db.execute('INSERT INTO t1 VALUES (0, NULL)')
    db.execute("INSERT INTO t1 VALUES (2, 'xy')")
    db.execute('CREATE VIEW v0 AS SELECT c0, c1, c2, c3 FROM t0 '
               'WHERE c3 <= 1')
    db.analyze()
    sql = ('SELECT a7.c2 AS c0 FROM t1 a6 '
           'LEFT OUTER JOIN v0 a7 ON a6.c0 = a7.c2')
    expected = [(None,), (None,)]
    # Every forced join method must NULL-pad identically when fused.
    for forced in (None, 'nl', 'hash', 'merge'):
        options = CompileOptions(execution_mode='auto',
                                 forced_join_method=forced)
        result = db.execute(sql, options=options)
        assert sorted(map(repr, result.rows)) == \
            sorted(map(repr, expected))


def test_differential_seed_349_rewrite_search_row_order():
    """Seed 349, config rewrite-search: the cost-driven search adopted a
    variant firing sequence that keeps the IN-subquery as a SUBQJOIN
    where the sequential fixpoint merges it into a join.  Both plans
    compute the same bag of rows, but without ORDER BY they emit them in
    different orders — so the differential config for rewrite-search
    compares bags, not byte-identical row order."""
    db = Database()
    db.execute('CREATE TABLE t1 (c0 INTEGER NOT NULL, c1 DOUBLE, '
               'c2 DOUBLE, c3 INTEGER)')
    db.execute('CREATE TABLE t2 (c0 INTEGER PRIMARY KEY, c1 INTEGER, '
               'c2 INTEGER NOT NULL, c3 DOUBLE NOT NULL)')
    db.execute('INSERT INTO t1 VALUES (1, NULL, 1.0, 1)')
    db.execute('INSERT INTO t1 VALUES (0, NULL, 0.5, 3)')
    db.execute('INSERT INTO t2 VALUES (2, NULL, 1, 0.5)')
    db.execute('INSERT INTO t2 VALUES (7, NULL, 2, 1.0)')
    db.analyze()
    sql = ('SELECT a0.c3 AS c0 FROM t1 a0 WHERE (a0.c0 <= 3) AND '
           '(a0.c2 IN (SELECT a1.c3 FROM t2 a1 WHERE (a1.c3 = a1.c3)))')
    expected = sorted([(3,), (1,)])
    sequential = db.execute(sql)
    search = db.execute(
        sql, options=CompileOptions(rewrite_strategy='search'))
    assert sorted(sequential.rows) == expected
    assert sorted(search.rows) == expected


def test_differential_seed_33_compiled_agg_temp_collision():
    """Seed 33, config compiled: the fused group-by emitted aggregate
    step temporaries named by aggregate index (_v0, _v1, ...) while the
    scan loop bound column values by column position under the same
    prefix — so MAX's argument clobbered the column feeding AVG and the
    accumulator stepped the wrong (string) value."""
    db = Database()
    db.execute('CREATE TABLE t1 (c0 INTEGER, c1 VARCHAR(8), '
               'c2 DOUBLE, c3 VARCHAR(8))')
    db.execute("INSERT INTO t1 VALUES (1, 'b', 0.5, 'b')")
    db.analyze()
    result = db.execute(
        'SELECT MAX(a9.c3) AS c0, AVG(DISTINCT a9.c0) AS c1 '
        'FROM t1 a9 GROUP BY a9.c1',
        options=CompileOptions(execution_mode='auto'))
    assert result.rows == [('b', 1.0)]


_NULL_LEFT_STATEMENTS = [
    'SELECT b FROM t WHERE a = 1 / b',
    'SELECT b FROM t WHERE a + 1 / b > 0',
    'SELECT b FROM t WHERE a = 1 / b '
    'OR b = (SELECT max(c) FROM u WHERE c > 5)',
]


@pytest.mark.parametrize("sql", _NULL_LEFT_STATEMENTS)
def test_null_left_operand_skips_the_right_one_everywhere(sql):
    """A comparison or arithmetic operator whose left operand is NULL is
    NULL without evaluating its right operand — in the oracle, in the
    closures (tuple) and in generated source (fused) alike — so
    over the row (NULL, 0) the division by ``b`` never runs.  Before the
    one-evaluator change the oracle and the tree-walking interpreter
    evaluated both operands and raised, and the default raised too as
    soon as an unrelated subquery was OR-ed into the predicate."""
    from repro.testkit.oracle import ReferenceOracle

    db = Database()
    db.execute('CREATE TABLE t (a INTEGER, b INTEGER)')
    db.execute('CREATE TABLE u (c INTEGER)')
    db.execute('INSERT INTO t VALUES (NULL, 0)')
    db.execute('INSERT INTO u VALUES (7)')
    db.analyze()
    assert ReferenceOracle(db).execute(sql).rows == []
    for mode in ('tuple', 'auto'):
        options = CompileOptions(execution_mode=mode)
        assert db.execute(sql, options=options).rows == [], mode


_QUANTIFIED_CASE_STATEMENTS = [
    ('SELECT a FROM t WHERE CASE WHEN b IN (SELECT c FROM u) '
     'THEN FALSE ELSE TRUE END', [(1,)]),
    ('SELECT a, CASE WHEN b IN (SELECT c FROM u) THEN 10 ELSE 20 END '
     'FROM t', [(1, 20), (2, 10), (3, 10)]),
]


@pytest.mark.parametrize("sql, rows", _QUANTIFIED_CASE_STATEMENTS)
def test_quantified_case_folds_at_its_condition(sql, rows):
    """A quantified subquery in a CASE's WHEN condition folds at that
    condition, which is a boolean position of its own.  Before the fix
    the whole CASE was folded again over the same quantifier's rows: the
    predicate kept every row (each row of ``u`` alone fails the IN for
    some ``b``, so ANY over the negated CASE was TRUE), and the head
    raised ``predicate produced non-boolean 20`` — in the oracle and
    every backend alike."""
    from repro.testkit.oracle import ReferenceOracle

    db = Database()
    db.execute('CREATE TABLE t (a INTEGER, b INTEGER)')
    db.execute('CREATE TABLE u (c INTEGER)')
    db.execute('INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)')
    db.execute('INSERT INTO u VALUES (2), (3)')
    db.analyze()
    assert sorted(ReferenceOracle(db).execute(sql).rows) == rows
    for mode in ('tuple', 'auto'):
        options = CompileOptions(execution_mode=mode)
        assert sorted(db.execute(sql, options=options).rows) == rows, mode
