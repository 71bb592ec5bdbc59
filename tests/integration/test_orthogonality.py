"""Hydrogen's orthogonality claims (section 2).

"The goal in Hydrogen is complete orthogonality: any operation on tables
produces a table, and can be used wherever a table would normally be
allowed."  These tests place each table-producing construct in each
table-consuming position.
"""

import pytest

from tests.stacks import stack_variants


def q(db, sql, params=()):
    return sorted(db.execute(sql, params).rows)


class TestTablesEverywhere:
    def test_set_operation_in_from(self, emp_db):
        rows = q(emp_db, "SELECT u.n FROM (SELECT name FROM emp WHERE "
                         "dept = 'hr' UNION SELECT dname FROM dept) u (n) "
                         "WHERE u.n LIKE '%r%'")
        assert rows == [("frank",), ("hr",)]

    def test_set_operation_in_subquery(self, emp_db):
        rows = q(emp_db, "SELECT name FROM emp WHERE dept IN "
                         "(SELECT dname FROM dept WHERE budget > 600 "
                         "UNION SELECT 'hr')")
        assert len(rows) == 5

    def test_set_operation_in_view(self, emp_db):
        emp_db.execute("CREATE VIEW all_labels (l) AS "
                       "SELECT dept FROM emp UNION SELECT name FROM emp")
        assert len(q(emp_db, "SELECT l FROM all_labels")) == 11

    def test_aggregating_view_in_join(self, emp_db):
        """The paper's named SQL'89 restriction, lifted."""
        emp_db.execute("CREATE VIEW head_counts (d, n) AS "
                       "SELECT dept, count(*) FROM emp GROUP BY dept")
        rows = q(emp_db, "SELECT e.name FROM emp e, head_counts h "
                         "WHERE e.dept = h.d AND h.n = 1")
        assert rows == [("frank",)]

    def test_aggregating_view_in_subquery(self, emp_db):
        emp_db.execute("CREATE VIEW avg_sal (d, s) AS "
                       "SELECT dept, avg(salary) FROM emp GROUP BY dept")
        rows = q(emp_db, "SELECT name FROM emp e WHERE salary > "
                         "(SELECT s FROM avg_sal WHERE d = e.dept)")
        assert rows == [("alice",), ("eve",)]

    def test_table_function_of_derived_table(self, emp_db):
        rows = q(emp_db, "SELECT count(*) FROM sample("
                         "(SELECT name FROM emp WHERE salary > 80), 2) s")
        assert rows == [(2,)]

    def test_table_function_in_subquery(self, emp_db):
        rows = q(emp_db, "SELECT name FROM emp WHERE name IN "
                         "(SELECT s.name FROM sample(emp, 3) s)")
        assert len(rows) == 3

    def test_recursive_cte_in_join(self, db):
        db.execute("CREATE TABLE seq_limits (top INTEGER)")
        db.execute("INSERT INTO seq_limits VALUES (3), (5)")
        rows = q(db, "WITH RECURSIVE n (i) AS (SELECT 1 UNION ALL "
                     "SELECT i + 1 FROM n WHERE i < 10) "
                     "SELECT l.top, count(*) FROM seq_limits l, n "
                     "WHERE n.i <= l.top GROUP BY l.top")
        assert rows == [(3, 3), (5, 5)]

    def test_derived_table_of_set_op_of_views(self, emp_db):
        emp_db.execute("CREATE VIEW eng_names (n) AS "
                       "SELECT name FROM emp WHERE dept = 'eng'")
        emp_db.execute("CREATE VIEW sales_names (n) AS "
                       "SELECT name FROM emp WHERE dept = 'sales'")
        rows = q(emp_db, "SELECT count(*) FROM "
                         "(SELECT n FROM eng_names UNION ALL "
                         "SELECT n FROM sales_names) u")
        assert rows == [(7,)]

    def test_subquery_on_both_comparison_sides(self, emp_db):
        rows = q(emp_db, "SELECT dname FROM dept WHERE "
                         "(SELECT count(*) FROM emp WHERE dept = dname) = "
                         "(SELECT min(budget) / 200 FROM dept)")
        # min(budget)/200 = 1.0; the department with exactly one employee
        assert rows == [("hr",)]


class TestExpressionOrthogonality:
    def test_case_over_aggregate(self, emp_db):
        rows = q(emp_db, "SELECT dept, CASE WHEN count(*) > 2 THEN 'big' "
                         "ELSE 'small' END FROM emp GROUP BY dept")
        assert rows == [("eng", "big"), ("hr", "small"), ("sales", "big")]

    def test_aggregate_of_case(self, emp_db):
        total = emp_db.execute(
            "SELECT sum(CASE WHEN dept = 'eng' THEN 1 ELSE 0 END) "
            "FROM emp").scalar()
        assert total == 4

    def test_function_of_subquery(self, emp_db):
        value = emp_db.execute(
            "SELECT abs((SELECT min(salary) FROM emp) - 100) "
            "FROM dept WHERE dname = 'hr'").scalar()
        assert value == 40.0

    def test_arithmetic_on_params_and_columns(self, emp_db):
        rows = q(emp_db, "SELECT name FROM emp WHERE salary * ? > ? + 100",
                 (2, 100))
        assert rows == [("alice",)]  # only 120 * 2 > 200


# The same cases on the fused codegen backend and under forced
# parallelism: the extensions must hold on every shipped stack.
globals().update(stack_variants(globals()))
