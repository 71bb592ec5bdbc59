"""DML, transactions at the SQL level, constraints and storage managers."""

import pytest

from repro import CompileOptions
from repro.errors import ConstraintError, DataTypeError
from tests.stacks import MODES


def q(db, sql, params=()):
    return sorted(db.execute(sql, params).rows)


class TestInsert:
    def test_values_multiple_rows(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR(10))")
        result = db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        assert result.rowcount == 3
        assert q(db, "SELECT * FROM t") == [(1, "x"), (2, "y"), (3, "z")]

    def test_column_list_defaults_null(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR(10), c DOUBLE)")
        db.execute("INSERT INTO t (c, a) VALUES (1.5, 7)")
        assert q(db, "SELECT * FROM t") == [(7, None, 1.5)]

    def test_insert_select(self, emp_db):
        emp_db.execute("CREATE TABLE archive (name VARCHAR(20), sal DOUBLE)")
        result = emp_db.execute("INSERT INTO archive SELECT name, salary "
                                "FROM emp WHERE dept = 'eng'")
        assert result.rowcount == 4
        assert len(q(emp_db, "SELECT * FROM archive")) == 4

    def test_not_null_violation(self, db):
        db.execute("CREATE TABLE t (a INTEGER NOT NULL)")
        with pytest.raises(DataTypeError):
            db.execute("INSERT INTO t VALUES (NULL)")
        assert q(db, "SELECT count(*) FROM t") == [(0,)]

    def test_primary_key_violation_rolls_back(self, db):
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (2), (1)")
        # the whole multi-row statement must roll back
        assert q(db, "SELECT * FROM t") == [(1,)]

    def test_check_constraint(self, db):
        db.execute("CREATE TABLE t (a INTEGER, CHECK (a > 0))")
        db.execute("INSERT INTO t VALUES (5)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (-5)")

    def test_check_compiled_once_for_a_thousand_rows(self, db, monkeypatch):
        from repro.executor import compiled
        from repro.executor.context import ExecutionContext

        db.execute("CREATE TABLE t (qty INTEGER, price DOUBLE, "
                   "CHECK (qty > 0 AND price < 1000))")
        compiles, contexts = [], []
        real_compile = compiled.ExprCompiler._compile_bool
        real_init = ExecutionContext.__init__
        monkeypatch.setattr(
            compiled.ExprCompiler, "_compile_bool",
            lambda self, expr: compiles.append(expr)
            or real_compile(self, expr))
        monkeypatch.setattr(
            ExecutionContext, "__init__",
            lambda self, *a, **kw: contexts.append(self)
            or real_init(self, *a, **kw))
        db.execute("INSERT INTO t VALUES " + ", ".join(
            "(%d, %d.5)" % (i + 1, i % 999) for i in range(1000)))
        assert q(db, "SELECT count(*) FROM t") == [(1000,)]
        # The constraint was compiled when it was attached: checking the
        # rows compiled nothing of it and built no context per row (one
        # per statement executed above, the INSERT and the SELECT).
        assert not any("qty" in repr(expr) for expr in compiles)
        assert len(contexts) == 2
        # unknown passes, false fails — on either conjunct
        db.execute("INSERT INTO t VALUES (NULL, 5.0), (5, NULL)")
        for bad in ("(0, 5.0)", "(5, 1000.0)", "(NULL, 2000.0)"):
            with pytest.raises(ConstraintError):
                db.execute("INSERT INTO t VALUES " + bad)
        assert q(db, "SELECT count(*) FROM t") == [(1002,)]

    def test_type_coercion_on_insert(self, db):
        db.execute("CREATE TABLE t (a DOUBLE)")
        db.execute("INSERT INTO t VALUES (3)")
        assert db.execute("SELECT a FROM t").scalar() == 3.0


class TestUpdateDelete:
    def test_update_expression(self, emp_db):
        result = emp_db.execute(
            "UPDATE emp SET salary = salary * 1.1 WHERE dept = 'hr'")
        assert result.rowcount == 1
        assert q(emp_db, "SELECT salary FROM emp WHERE dept = 'hr'") == [
            (66.0,)]

    def test_update_multiple_columns(self, emp_db):
        emp_db.execute("UPDATE emp SET dept = 'ops', salary = 50 "
                       "WHERE name = 'frank'")
        assert q(emp_db, "SELECT dept, salary FROM emp WHERE name = 'frank'"
                 ) == [("ops", 50.0)]

    def test_update_with_subquery_filter(self, emp_db):
        result = emp_db.execute(
            "UPDATE emp SET salary = 0 WHERE dept IN "
            "(SELECT dname FROM dept WHERE budget < 300)")
        assert result.rowcount == 1

    def test_update_with_scalar_subquery_assignment(self, emp_db):
        emp_db.execute("UPDATE emp SET salary = "
                       "(SELECT max(salary) FROM emp) WHERE name = 'frank'")
        assert q(emp_db, "SELECT salary FROM emp WHERE name = 'frank'") == [
            (120.0,)]

    @pytest.mark.parametrize("mode", list(MODES))
    def test_update_assigns_a_case_over_an_in_subquery(self, db, mode):
        # An assignment is a value: the IN folds at the CASE condition
        # and the CASE's 10/20 are never combined as truth values.
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        db.execute("CREATE TABLE u (c INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
        db.execute("INSERT INTO u VALUES (1)")
        db.execute(
            "UPDATE t SET a = CASE WHEN b IN (SELECT c FROM u) "
            "THEN 10 ELSE 20 END",
            options=CompileOptions(**MODES[mode]))
        assert sorted(q(db, "SELECT a, b FROM t")) == [
            (10, 1), (20, 2), (20, 3)]

    def test_head_over_a_quantified_case_is_not_silently_boolean(self, db):
        # A head that mentions a quantified subquery is a boolean
        # position (SELECT b IN (...)); a CASE whose WHEN condition holds
        # the subquery folds at that condition and yields its value.
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        db.execute("CREATE TABLE u (c INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 1), (2, 2)")
        db.execute("INSERT INTO u VALUES (1)")
        assert sorted(q(db, "SELECT a, b IN (SELECT c FROM u) FROM t")) == [
            (1, True), (2, False)]
        assert sorted(q(db, "SELECT a, CASE WHEN b IN (SELECT c FROM u) "
                            "THEN 10 ELSE 20 END FROM t")) == [
            (1, 10), (2, 20)]

    def test_update_maintains_index(self, emp_db):
        emp_db.execute("CREATE INDEX isal ON emp (salary)")
        emp_db.execute("UPDATE emp SET salary = 999 WHERE name = 'bob'")
        assert q(emp_db, "SELECT name FROM emp WHERE salary = 999") == [
            ("bob",)]
        access = emp_db.engine.access_method("isal")
        assert len(access.probe((999.0,))) == 1

    def test_delete_with_predicate(self, emp_db):
        result = emp_db.execute("DELETE FROM emp WHERE salary < 80")
        assert result.rowcount == 3
        assert q(emp_db, "SELECT count(*) FROM emp") == [(5,)]

    def test_delete_all(self, emp_db):
        emp_db.execute("DELETE FROM emp")
        assert q(emp_db, "SELECT count(*) FROM emp") == [(0,)]

    def test_delete_with_correlated_subquery(self, emp_db):
        emp_db.execute("DELETE FROM emp WHERE NOT EXISTS "
                       "(SELECT 1 FROM dept WHERE dname = emp.dept)")
        assert q(emp_db, "SELECT count(*) FROM emp") == [(8,)]


class TestTransactions:
    def test_explicit_commit(self, emp_db):
        txn = emp_db.begin()
        emp_db.execute("INSERT INTO dept VALUES ('ops', 10.0, 'x')", txn=txn)
        emp_db.commit(txn)
        assert len(q(emp_db, "SELECT * FROM dept")) == 4

    def test_explicit_rollback(self, emp_db):
        txn = emp_db.begin()
        emp_db.execute("INSERT INTO dept VALUES ('ops', 10.0, 'x')", txn=txn)
        emp_db.execute("UPDATE dept SET budget = 0 WHERE dname = 'hr'",
                       txn=txn)
        emp_db.rollback(txn)
        assert len(q(emp_db, "SELECT * FROM dept")) == 3
        assert q(emp_db, "SELECT budget FROM dept WHERE dname = 'hr'") == [
            (200.0,)]

    def test_multi_statement_transaction(self, emp_db):
        txn = emp_db.begin()
        emp_db.execute("DELETE FROM emp WHERE dept = 'hr'", txn=txn)
        emp_db.execute("INSERT INTO emp VALUES (9, 'ivan', 'hr', 65, NULL)",
                       txn=txn)
        emp_db.commit(txn)
        assert q(emp_db, "SELECT name FROM emp WHERE dept = 'hr'") == [
            ("ivan",)]

    def test_read_within_transaction_sees_own_writes(self, emp_db):
        txn = emp_db.begin()
        emp_db.execute("INSERT INTO emp VALUES (9, 'ivan', 'hr', 65, NULL)",
                       txn=txn)
        count = emp_db.execute("SELECT count(*) FROM emp", txn=txn).scalar()
        assert count == 9
        emp_db.rollback(txn)
        assert emp_db.execute("SELECT count(*) FROM emp").scalar() == 8


class TestStorageManagers:
    def test_fixed_storage_via_ddl(self, db):
        db.execute("CREATE TABLE metrics (k INTEGER, v DOUBLE) USING fixed")
        for i in range(100):
            db.execute("INSERT INTO metrics VALUES (%d, %f)" % (i, i * 2.0))
        assert db.execute("SELECT sum(v) FROM metrics").scalar() == \
            sum(i * 2.0 for i in range(100))
        db.execute("UPDATE metrics SET v = 0 WHERE k < 50")
        assert db.execute("SELECT sum(v) FROM metrics").scalar() == \
            sum(i * 2.0 for i in range(50, 100))
        db.execute("DELETE FROM metrics WHERE k >= 50")
        assert db.execute("SELECT count(*) FROM metrics").scalar() == 50

    def test_fixed_rejects_varlen_column(self, db):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            db.execute("CREATE TABLE bad (k INTEGER, s VARCHAR(10)) "
                       "USING fixed")

    def test_custom_storage_manager_registration(self, db):
        from repro.storage.heap import HeapTableStorage

        class LoggingStorage(HeapTableStorage):
            kind = "logging"
            inserts = 0

            def insert(self, record):
                LoggingStorage.inserts += 1
                return super().insert(record)

        db.register_storage_manager("logging", LoggingStorage)
        db.execute("CREATE TABLE t (a INTEGER) USING logging")
        db.execute("INSERT INTO t VALUES (1), (2)")
        assert LoggingStorage.inserts == 2
        assert q(db, "SELECT * FROM t") == [(1,), (2,)]


class TestIndexDdl:
    def test_create_index_on_populated_table(self, emp_db):
        emp_db.execute("CREATE INDEX idept ON emp (dept) USING hash")
        access = emp_db.engine.access_method("idept")
        assert len(access.probe(("eng",))) == 4

    def test_drop_index(self, emp_db):
        emp_db.execute("CREATE INDEX idept ON emp (dept)")
        emp_db.execute("DROP INDEX idept")
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            emp_db.engine.access_method("idept")

    def test_unique_index_rejects_existing_duplicates(self, emp_db):
        with pytest.raises(ConstraintError):
            emp_db.execute("CREATE UNIQUE INDEX u ON emp (dept)")

    def test_multi_column_index_used(self, emp_db):
        emp_db.execute("CREATE INDEX ide ON emp (dept, salary)")
        rows = q(emp_db, "SELECT name FROM emp WHERE dept = 'eng' "
                         "AND salary = 90")
        assert rows == [("bob",), ("grace",)]

    def test_drop_table_via_sql(self, db):
        db.execute("CREATE TABLE tmp (a INTEGER)")
        db.execute("DROP TABLE tmp")
        from repro.errors import SemanticError

        with pytest.raises(SemanticError):
            db.execute("SELECT * FROM tmp")


class TestTrickyDml:
    def test_correlated_scalar_subquery_assignment(self, emp_db):
        emp_db.execute(
            "UPDATE emp SET salary = (SELECT max(salary) FROM emp s "
            "WHERE s.dept = emp.dept) WHERE name = 'bob'")
        assert emp_db.execute("SELECT salary FROM emp WHERE name = 'bob'"
                              ).scalar() == 120.0

    def test_halloween_protection_on_update(self, db):
        """Updating the very column an index scan drives must not revisit
        moved rows (the Halloween problem)."""
        db.execute("CREATE TABLE t (k INTEGER)")
        txn = db.begin()
        for i in range(2000):
            db.engine.insert(txn, "t", (i,))
        db.commit(txn)
        db.execute("CREATE INDEX ik ON t (k)")
        db.analyze()
        compiled = db.compile("UPDATE t SET k = k + 10000 WHERE k < 100")
        result = db.run_compiled(compiled)
        assert result.rowcount == 100
        assert db.execute("SELECT count(*) FROM t WHERE k >= 10000"
                          ).scalar() == 100

    def test_insert_select_from_same_table(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        result = db.execute("INSERT INTO t SELECT a + 10 FROM t")
        assert result.rowcount == 2  # source materialized before inserts
        assert db.execute("SELECT count(*) FROM t").scalar() == 4

    def test_delete_self_referencing_subquery(self, emp_db):
        emp_db.execute("DELETE FROM emp WHERE salary < "
                       "(SELECT avg(salary) FROM emp)")
        # avg is computed once over the pre-delete state (85.0)
        assert emp_db.execute("SELECT count(*) FROM emp").scalar() == 4

    def test_having_with_subquery(self, emp_db):
        rows = sorted(emp_db.execute(
            "SELECT dept FROM emp GROUP BY dept HAVING count(*) > "
            "(SELECT count(*) FROM dept)").rows)
        assert rows == [("eng",)]
