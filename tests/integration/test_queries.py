"""End-to-end query tests over the employees database."""

import pytest


def q(db, sql, params=()):
    return sorted(db.execute(sql, params).rows)


class TestProjectionsAndFilters:
    def test_select_star(self, emp_db):
        rows = q(emp_db, "SELECT * FROM emp")
        assert len(rows) == 8
        assert rows[0] == (1, "alice", "eng", 120.0, None)

    def test_column_subset_and_expressions(self, emp_db):
        rows = q(emp_db, "SELECT name, salary * 2 FROM emp WHERE id = 1")
        assert rows == [("alice", 240.0)]

    def test_comparison_filters(self, emp_db):
        assert len(q(emp_db, "SELECT 1 FROM emp WHERE salary > 90")) == 2
        assert len(q(emp_db, "SELECT 1 FROM emp WHERE salary >= 90")) == 4
        assert len(q(emp_db, "SELECT 1 FROM emp WHERE dept <> 'eng'")) == 4

    def test_null_comparisons_exclude(self, emp_db):
        assert q(emp_db, "SELECT name FROM emp WHERE mgr = mgr") == [
            ("bob",), ("carol",), ("eve",), ("grace",), ("heidi",)]

    def test_is_null(self, emp_db):
        assert len(q(emp_db, "SELECT 1 FROM emp WHERE mgr IS NULL")) == 3
        assert len(q(emp_db, "SELECT 1 FROM emp WHERE mgr IS NOT NULL")) == 5

    def test_between_and_like(self, emp_db):
        assert q(emp_db, "SELECT name FROM emp WHERE salary BETWEEN 90 AND 95"
                 ) == [("bob",), ("carol",), ("grace",)]
        assert q(emp_db, "SELECT name FROM emp WHERE name LIKE '%a%e'") == [
            ("alice",), ("grace",)]

    def test_in_value_list(self, emp_db):
        assert len(q(emp_db, "SELECT 1 FROM emp WHERE dept IN ('hr', 'sales')")) == 4

    def test_case_expression(self, emp_db):
        rows = q(emp_db, "SELECT name, CASE WHEN salary >= 95 THEN 'high' "
                         "WHEN salary >= 75 THEN 'mid' ELSE 'low' END "
                         "FROM emp WHERE dept = 'eng'")
        assert rows == [("alice", "high"), ("bob", "mid"),
                        ("carol", "high"), ("grace", "mid")]

    def test_distinct(self, emp_db):
        assert q(emp_db, "SELECT DISTINCT dept FROM emp") == [
            ("eng",), ("hr",), ("sales",)]

    def test_order_by_and_limit(self, emp_db):
        rows = emp_db.execute(
            "SELECT name FROM emp ORDER BY salary DESC, name LIMIT 3").rows
        assert rows == [("alice",), ("carol",), ("bob",)]

    def test_order_by_nulls_last(self, emp_db):
        rows = emp_db.execute("SELECT mgr FROM emp ORDER BY mgr").rows
        assert rows[-3:] == [(None,), (None,), (None,)]

    def test_params(self, emp_db):
        assert q(emp_db, "SELECT name FROM emp WHERE dept = ? AND salary > ?",
                 ("eng", 90)) == [("alice",), ("carol",)]

    def test_scalar_functions_in_query(self, emp_db):
        assert q(emp_db, "SELECT upper(name) FROM emp WHERE id = 1") == [
            ("ALICE",)]
        assert q(emp_db, "SELECT length(name) FROM emp WHERE id = 2") == [
            (3,)]


class TestJoins:
    def test_two_way(self, emp_db):
        rows = q(emp_db, "SELECT e.name, d.budget FROM emp e, dept d "
                         "WHERE e.dept = d.dname AND e.salary > 100")
        assert rows == [("alice", 1000.0)]

    def test_explicit_join_syntax(self, emp_db):
        rows = q(emp_db, "SELECT e.name FROM emp e JOIN dept d "
                         "ON e.dept = d.dname WHERE d.budget < 300")
        assert rows == [("frank",)]

    def test_self_join(self, emp_db):
        rows = q(emp_db, "SELECT e.name, m.name FROM emp e, emp m "
                         "WHERE e.mgr = m.id")
        assert ("bob", "alice") in rows and ("eve", "dan") in rows
        assert len(rows) == 5

    def test_three_way(self, emp_db):
        rows = q(emp_db,
                 "SELECT e.name FROM emp e, emp m, dept d "
                 "WHERE e.mgr = m.id AND m.dept = d.dname "
                 "AND d.site_city = 'almaden'")
        assert rows == [("bob",), ("carol",), ("grace",)]

    def test_join_with_expression_predicate(self, emp_db):
        rows = q(emp_db, "SELECT e.name FROM emp e, emp m "
                         "WHERE e.mgr = m.id AND e.salary > m.salary - 20")
        assert rows == [("eve",), ("grace",), ("heidi",)]

    def test_results_invariant_under_optimizer_settings(self, emp_db):
        sql = ("SELECT e.name, d.budget FROM emp e, dept d, emp m "
               "WHERE e.dept = d.dname AND e.mgr = m.id")
        baseline = q(emp_db, sql)
        emp_db.settings.allow_bushy = True
        assert q(emp_db, sql) == baseline
        emp_db.settings.allow_cartesian = True
        assert q(emp_db, sql) == baseline
        emp_db.settings.allow_bushy = False
        emp_db.settings.allow_cartesian = False


class TestAggregation:
    def test_group_by(self, emp_db):
        rows = q(emp_db, "SELECT dept, count(*), sum(salary), min(salary), "
                         "max(salary) FROM emp GROUP BY dept")
        assert ("eng", 4, 395.0, 90.0, 120.0) in rows
        assert ("hr", 1, 60.0, 60.0, 60.0) in rows

    def test_global_aggregates(self, emp_db):
        assert emp_db.execute("SELECT count(*), avg(salary) FROM emp"
                              ).rows == [(8, 85.0)]

    def test_count_ignores_nulls_count_star_does_not(self, emp_db):
        assert emp_db.execute("SELECT count(mgr), count(*) FROM emp"
                              ).rows == [(5, 8)]

    def test_count_distinct(self, emp_db):
        assert emp_db.execute("SELECT count(DISTINCT dept) FROM emp"
                              ).scalar() == 3

    def test_having(self, emp_db):
        rows = q(emp_db, "SELECT dept FROM emp GROUP BY dept "
                         "HAVING avg(salary) > 80")
        assert rows == [("eng",)]

    def test_group_by_expression(self, emp_db):
        rows = q(emp_db, "SELECT salary >= 90, count(*) FROM emp "
                         "GROUP BY salary >= 90")
        assert rows == [(False, 4), (True, 4)]

    def test_aggregate_of_expression(self, emp_db):
        assert emp_db.execute(
            "SELECT sum(salary / 2) FROM emp WHERE dept = 'hr'"
        ).scalar() == 30.0

    def test_empty_group_semantics(self, emp_db):
        assert emp_db.execute(
            "SELECT count(*), sum(salary) FROM emp WHERE dept = 'nope'"
        ).rows == [(0, None)]
        assert emp_db.execute(
            "SELECT dept, count(*) FROM emp WHERE dept = 'nope' GROUP BY dept"
        ).rows == []

    def test_having_without_groups(self, emp_db):
        assert emp_db.execute(
            "SELECT count(*) FROM emp HAVING count(*) > 100").rows == []


class TestSetOperations:
    def test_union_removes_duplicates(self, emp_db):
        rows = q(emp_db, "SELECT dept FROM emp UNION SELECT dept FROM emp")
        assert rows == [("eng",), ("hr",), ("sales",)]

    def test_union_all_keeps(self, emp_db):
        rows = emp_db.execute(
            "SELECT dept FROM emp WHERE id = 1 UNION ALL "
            "SELECT dept FROM emp WHERE id = 2").rows
        assert rows == [("eng",), ("eng",)]

    def test_intersect_and_except_all_bag_semantics(self, emp_db):
        rows = emp_db.execute(
            "SELECT dept FROM emp INTERSECT ALL "
            "SELECT dept FROM emp WHERE salary < 95").rows
        # eng appears min(4, 2)=2 times, sales min(3,3)=3, hr min(1,1)=1
        assert sorted(rows) == [("eng",), ("eng",), ("hr",), ("sales",),
                                ("sales",), ("sales",)]
        rows = emp_db.execute(
            "SELECT dept FROM emp EXCEPT ALL "
            "SELECT dept FROM emp WHERE salary < 95").rows
        assert sorted(rows) == [("eng",), ("eng",)]

    def test_mixed_chain(self, emp_db):
        rows = q(emp_db, "SELECT dept FROM emp UNION SELECT dname FROM dept "
                         "EXCEPT SELECT 'hr'")
        assert rows == [("eng",), ("sales",)]

    def test_union_in_from(self, emp_db):
        rows = q(emp_db,
                 "SELECT s.d FROM (SELECT dept FROM emp UNION "
                 "SELECT dname FROM dept) s (d) WHERE s.d LIKE 'e%'")
        assert rows == [("eng",)]
