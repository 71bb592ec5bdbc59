"""Recursive table expressions (logic programming, §2) and views/CTEs."""

import pytest


def q(db, sql, params=()):
    return sorted(db.execute(sql, params).rows)


@pytest.fixture
def graph_db(db):
    db.execute("CREATE TABLE edges (src INTEGER, dst INTEGER, w DOUBLE)")
    for src, dst, weight in [(1, 2, 1.0), (2, 3, 2.0), (3, 4, 1.0),
                             (2, 4, 5.0), (4, 5, 1.0), (10, 11, 1.0),
                             (11, 10, 1.0)]:
        db.execute("INSERT INTO edges VALUES (%d, %d, %f)"
                   % (src, dst, weight))
    db.analyze()
    return db


class TestRecursion:
    def test_transitive_closure(self, graph_db):
        rows = q(graph_db,
                 "WITH RECURSIVE reach(n) AS ("
                 "SELECT dst FROM edges WHERE src = 1 "
                 "UNION ALL SELECT e.dst FROM reach r, edges e "
                 "WHERE e.src = r.n) SELECT n FROM reach")
        assert rows == [(2,), (3,), (4,), (5,)]

    def test_cycle_terminates(self, graph_db):
        rows = q(graph_db,
                 "WITH RECURSIVE reach(n) AS ("
                 "SELECT dst FROM edges WHERE src = 10 "
                 "UNION ALL SELECT e.dst FROM reach r, edges e "
                 "WHERE e.src = r.n) SELECT n FROM reach")
        assert rows == [(10,), (11,)]

    def test_pair_closure(self, graph_db):
        rows = q(graph_db,
                 "WITH RECURSIVE tc(s, d) AS ("
                 "SELECT src, dst FROM edges UNION ALL "
                 "SELECT t.s, e.dst FROM tc t, edges e WHERE e.src = t.d) "
                 "SELECT s, d FROM tc WHERE s = 2")
        assert rows == [(2, 3), (2, 4), (2, 5)]

    def test_path_algebra_with_aggregation(self, graph_db):
        """Shortest-distance-style computation over path costs (§2:
        'one can also express path algebra computations')."""
        rows = q(graph_db,
                 "WITH RECURSIVE paths(n, cost) AS ("
                 "SELECT dst, w FROM edges WHERE src = 1 UNION ALL "
                 "SELECT e.dst, p.cost + e.w FROM paths p, edges e "
                 "WHERE e.src = p.n) "
                 "SELECT n, min(cost) FROM paths GROUP BY n")
        assert rows == [(2, 1.0), (3, 3.0), (4, 4.0), (5, 5.0)]

    def test_generator_recursion(self, db):
        rows = q(db, "WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL "
                     "SELECT i + 1 FROM n WHERE i < 100) "
                     "SELECT count(*), sum(i) FROM n")
        assert rows == [(100, 5050)]

    def test_recursion_with_function(self, db):
        rows = q(db, "WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL "
                     "SELECT i * 2 FROM n WHERE i < 100) "
                     "SELECT max(i) FROM n")
        assert rows == [(128,)]

    def test_semi_naive_vs_naive_same_result(self, graph_db):
        sql = ("WITH RECURSIVE tc(s, d) AS ("
               "SELECT src, dst FROM edges UNION ALL "
               "SELECT t.s, e.dst FROM tc t, edges e WHERE e.src = t.d) "
               "SELECT count(*) FROM tc")
        semi = q(graph_db, sql)
        graph_db.settings.naive_recursion = True
        naive = q(graph_db, sql)
        graph_db.settings.naive_recursion = False
        assert semi == naive

    def test_naive_runs_more_iterations(self, graph_db):
        sql = ("WITH RECURSIVE reach(n) AS ("
               "SELECT dst FROM edges WHERE src = 1 UNION ALL "
               "SELECT e.dst FROM reach r, edges e WHERE e.src = r.n) "
               "SELECT n FROM reach")
        semi_stats = graph_db.execute(sql).stats
        graph_db.settings.naive_recursion = True
        naive_stats = graph_db.execute(sql).stats
        graph_db.settings.naive_recursion = False
        assert naive_stats.recursion_iterations >= \
            semi_stats.recursion_iterations

    def test_magic_restriction_executes_correctly(self, graph_db):
        """Rewrite may specialize the fixpoint; results must not change."""
        sql = ("WITH RECURSIVE tc(s, d) AS ("
               "SELECT src, dst FROM edges UNION ALL "
               "SELECT t.s, e.dst FROM tc t, edges e WHERE e.src = t.d) "
               "SELECT d FROM tc WHERE s = 1")
        with_rewrite = q(graph_db, sql)
        graph_db.settings.rewrite_enabled = False
        without = q(graph_db, sql)
        graph_db.settings.rewrite_enabled = True
        assert with_rewrite == without == [(2,), (3,), (4,), (5,)]


class TestViews:
    def test_view_over_view(self, emp_db):
        emp_db.execute("CREATE VIEW well_paid AS "
                       "SELECT id, name, dept, salary FROM emp "
                       "WHERE salary >= 90")
        emp_db.execute("CREATE VIEW eng_well_paid AS "
                       "SELECT name FROM well_paid WHERE dept = 'eng'")
        assert q(emp_db, "SELECT * FROM eng_well_paid") == [
            ("alice",), ("bob",), ("carol",), ("grace",)]

    def test_view_with_aggregation_joined(self, emp_db):
        """Hydrogen's orthogonality pitch: in SQL'89 an aggregating view
        could not be joined; in Hydrogen it can."""
        emp_db.execute("CREATE VIEW dept_stats (dname, headcount, avg_sal) "
                       "AS SELECT dept, count(*), avg(salary) FROM emp "
                       "GROUP BY dept")
        rows = q(emp_db,
                 "SELECT e.name FROM emp e, dept_stats s "
                 "WHERE e.dept = s.dname AND e.salary > s.avg_sal")
        assert rows == [("alice",), ("eve",)]

    def test_view_in_subquery(self, emp_db):
        emp_db.execute("CREATE VIEW managers (mid) AS "
                       "SELECT DISTINCT mgr FROM emp WHERE mgr IS NOT NULL")
        rows = q(emp_db, "SELECT name FROM emp WHERE id IN "
                         "(SELECT mid FROM managers)")
        assert rows == [("alice",), ("bob",), ("dan",)]

    def test_view_with_set_operation(self, emp_db):
        emp_db.execute("CREATE VIEW all_names (n) AS "
                       "SELECT name FROM emp UNION SELECT dname FROM dept")
        assert len(q(emp_db, "SELECT n FROM all_names")) == 11

    def test_view_body_validated_at_creation(self, emp_db):
        from repro.errors import SemanticError

        with pytest.raises(SemanticError):
            emp_db.execute("CREATE VIEW broken AS SELECT nope FROM emp")

    def test_drop_view(self, emp_db):
        emp_db.execute("CREATE VIEW tmp AS SELECT 1 FROM emp")
        emp_db.execute("DROP VIEW tmp")
        from repro.errors import SemanticError

        with pytest.raises(SemanticError):
            emp_db.execute("SELECT * FROM tmp")


class TestTableExpressions:
    def test_cte_factoring(self, emp_db):
        rows = q(emp_db,
                 "WITH rich (dept_name) AS (SELECT dept FROM emp "
                 "WHERE salary > 90) "
                 "SELECT DISTINCT dept_name FROM rich")
        assert rows == [("eng",)]

    def test_cte_joined_to_itself(self, emp_db):
        rows = q(emp_db,
                 "WITH by_dept (d, c) AS (SELECT dept, count(*) FROM emp "
                 "GROUP BY dept) "
                 "SELECT a.d FROM by_dept a, by_dept b "
                 "WHERE a.c > b.c AND b.d = 'hr'")
        assert rows == [("eng",), ("sales",)]

    def test_cte_shadowing_table(self, emp_db):
        rows = q(emp_db,
                 "WITH emp (n) AS (SELECT 42) SELECT n FROM emp")
        assert rows == [(42,)]

    def test_correlated_table_expression(self, emp_db):
        rows = q(emp_db,
                 "SELECT d.dname FROM dept d WHERE EXISTS ("
                 "SELECT 1 FROM (SELECT dept, salary FROM emp) s "
                 "WHERE s.dept = d.dname AND s.salary > 100)")
        assert rows == [("eng",)]
