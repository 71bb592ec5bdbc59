"""Every DBC extension point, exercised end-to-end through SQL.

The paper's extensibility checklist: new data types, scalar/aggregate/
table/set-predicate functions, storage methods, access methods, rewrite
rules, optimizer STARs, and execution operators/join kinds.
"""

import struct

import pytest

from repro.datatypes.types import DataType
from repro.errors import ExtensionError
from tests.stacks import stack_variants


def q(db, sql, params=()):
    return sorted(db.execute(sql, params).rows)


class PointType(DataType):
    """An externally defined 2-D point type."""

    name = "POINT"
    fixed_width = 16
    estimated_width = 16

    def validate(self, value):
        return (isinstance(value, tuple) and len(value) == 2
                and all(isinstance(v, (int, float)) for v in value))

    def serialize(self, value):
        return struct.pack("<dd", float(value[0]), float(value[1]))

    def deserialize(self, data):
        return struct.unpack("<dd", data)

    def compare(self, left, right):
        return (left > right) - (left < right)


class TestExternalTypes:
    def test_point_column_end_to_end(self, db):
        db.register_type(PointType())
        db.execute("CREATE TABLE sites (name VARCHAR(10), loc POINT)")
        txn = db.begin()
        db.engine.insert(txn, "sites", ("hq", (1.0, 2.0)))
        db.engine.insert(txn, "sites", ("lab", (5.0, 9.0)))
        db.commit(txn)
        rows = q(db, "SELECT name, loc FROM sites")
        assert rows == [("hq", (1.0, 2.0)), ("lab", (5.0, 9.0))]

    def test_functions_over_external_type(self, db):
        from repro.datatypes import DOUBLE

        db.register_type(PointType())
        db.execute("CREATE TABLE sites (name VARCHAR(10), loc POINT)")
        db.register_scalar_function(
            "dist_origin", lambda p: (p[0] ** 2 + p[1] ** 2) ** 0.5,
            DOUBLE, arity=1)
        txn = db.begin()
        db.engine.insert(txn, "sites", ("hq", (3.0, 4.0)))
        db.commit(txn)
        assert db.execute("SELECT dist_origin(loc) FROM sites"
                          ).scalar() == 5.0

    def test_external_type_comparison_predicates(self, db):
        db.register_type(PointType())
        db.execute("CREATE TABLE sites (name VARCHAR(10), loc POINT)")
        txn = db.begin()
        db.engine.insert(txn, "sites", ("a", (1.0, 1.0)))
        db.engine.insert(txn, "sites", ("b", (2.0, 2.0)))
        db.commit(txn)
        rows = q(db, "SELECT s1.name FROM sites s1, sites s2 "
                     "WHERE s1.loc = s2.loc AND s2.name = 'b'")
        assert rows == [("b",)]


class TestFunctionExtensions:
    def test_scalar_area(self, emp_db):
        """The paper's Area(Width, Length) example."""
        from repro.datatypes import DOUBLE

        emp_db.register_scalar_function("area", lambda w, h: w * h,
                                        DOUBLE, arity=2)
        assert emp_db.execute("SELECT area(3.0, 4.0) FROM dept "
                              "WHERE dname = 'hr'").scalar() == 12.0

    def test_scalar_function_in_predicate_filters_early(self, emp_db):
        """'by invoking functions in the predicate evaluator, Starburst can
        reduce the amount of irrelevant data returned'."""
        from repro.datatypes import BOOLEAN

        emp_db.register_scalar_function(
            "is_senior", lambda salary: salary >= 95, BOOLEAN, arity=1)
        rows = q(emp_db, "SELECT name FROM emp WHERE is_senior(salary)")
        assert rows == [("alice",), ("carol",)]

    def test_aggregate_stddev(self, emp_db):
        """The paper's StandardDeviation(Salary) example."""
        from repro.datatypes import DOUBLE

        class StdDev:
            def __init__(self):
                self.values = []

            def step(self, value):
                self.values.append(value)

            def final(self):
                if not self.values:
                    return None
                mean = sum(self.values) / len(self.values)
                return (sum((v - mean) ** 2 for v in self.values)
                        / len(self.values)) ** 0.5

        emp_db.register_aggregate_function("stddev", StdDev, DOUBLE)
        result = emp_db.execute("SELECT dept, stddev(salary) FROM emp "
                                "GROUP BY dept ORDER BY dept").rows
        assert result[1] == ("hr", 0.0)
        assert result[0][0] == "eng" and result[0][1] > 10

    def test_table_function_topn(self, emp_db):
        def top_n(args, inputs):
            names, types, rows = inputs[0]
            count, position = int(args[0]), int(args[1])
            ordered = sorted(rows, key=lambda r: r[position], reverse=True)
            return names, types, ordered[:count]

        emp_db.register_table_function("top_n", top_n, table_inputs=1)
        rows = emp_db.execute(
            "SELECT name FROM top_n(emp, 2, 3) t").rows
        assert sorted(rows) == [("alice",), ("carol",)]

    def test_table_function_over_subquery(self, emp_db):
        rows = emp_db.execute(
            "SELECT count(*) FROM sample((SELECT name FROM emp "
            "WHERE dept = 'eng'), 3) s").scalar()
        assert rows == 3

    def test_duplicate_function_rejected(self, emp_db):
        from repro.datatypes import DOUBLE

        with pytest.raises(ExtensionError):
            emp_db.register_scalar_function("abs", lambda v: v, DOUBLE,
                                            arity=1)


class TestAccessMethodExtensions:
    def test_custom_access_method_via_ddl(self, db):
        from repro.access.hashindex import HashIndex

        class CountingHash(HashIndex):
            kind = "counting"
            probes = 0

            def probe(self, key):
                CountingHash.probes += 1
                return super().probe(key)

        db.register_access_method("counting", CountingHash)
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        txn = db.begin()
        for i in range(2000):
            db.engine.insert(txn, "t", (i, i % 5))
        db.commit(txn)
        db.execute("CREATE INDEX ia ON t (a) USING counting")
        db.analyze()
        rows = q(db, "SELECT b FROM t WHERE a = 7")
        assert rows == [(2,)]
        assert CountingHash.probes >= 1  # the optimizer chose the new index

    def test_rtree_attachment_via_engine(self, db):
        from repro.access.rtree import Rect
        from repro.catalog.schema import IndexDef

        db.execute("CREATE TABLE pts (id INTEGER, x DOUBLE, y DOUBLE)")
        for i in range(20):
            db.execute("INSERT INTO pts VALUES (%d, %f, %f)"
                       % (i, float(i % 5), float(i // 5)))
        access = db.engine.create_index(
            IndexDef("ipts", "pts", ["x", "y"], kind="rtree"))
        hits = access.window_query(Rect(0.5, 0.5, 2.5, 2.5))
        rows = [db.engine.fetch(None, "pts", rid) for rid in hits]
        assert sorted(r[0] for r in rows) == [6, 7, 11, 12]


class TestOptimizerExtensions:
    def test_new_star_alternative_wins(self, emp_db):
        """A DBC adds a (fake) always-cheap access alternative and the
        generator picks it up without touching the evaluator."""
        from repro.optimizer.stars import Alternative
        from repro.optimizer.plans import TableScan
        from repro.qgm.model import BaseTableBox

        created = []

        def cheap_scan(gen, args):
            quantifier = args["quantifier"]
            if not isinstance(quantifier.input, BaseTableBox):
                return []
            plan = TableScan(gen.cm, quantifier.input.table, quantifier,
                             args["preds"])
            plan.props = plan.props.evolve(cost=0.001)
            created.append(plan)
            return [plan]

        emp_db.stars["AccessRoot"].alternatives.append(
            Alternative("CheapScan", cheap_scan, rank=0.1))
        try:
            result = emp_db.execute("SELECT name FROM emp WHERE id = 1")
            assert result.rows == [("alice",)]
            assert created  # the alternative was evaluated
        finally:
            emp_db.stars["AccessRoot"].alternatives = [
                a for a in emp_db.stars["AccessRoot"].alternatives
                if a.name != "CheapScan"]

    def test_unknown_star_alternative_rejected(self, emp_db):
        from repro.optimizer.stars import Alternative

        with pytest.raises(ExtensionError, match="no STAR named Nope"):
            emp_db.add_star_alternative(
                "Nope", Alternative("X", lambda gen, args: [], rank=1.0))

    def test_box_planner_registration(self):
        from repro.optimizer.boxopt import (
            _EXTENSION_BOX_PLANNERS,
            register_box_planner,
        )

        register_box_planner("myop", lambda opt, box: None)
        assert "myop" in _EXTENSION_BOX_PLANNERS
        del _EXTENSION_BOX_PLANNERS["myop"]


class TestJoinKindExtensions:
    def test_register_join_kind(self, emp_db):
        from repro.executor.kinds import JoinKind

        emp_db.register_join_kind(JoinKind(
            "at_least_two",
            combine=lambda outcomes: sum(
                1 for o in outcomes if o is True) >= 2))
        kind = emp_db.join_kinds.get("at_least_two")
        assert kind.combine([True, True, False]) is True
        assert kind.combine([True, False, False]) is False

    def test_duplicate_kind_rejected(self, emp_db):
        from repro.executor.kinds import JoinKind

        with pytest.raises(ExtensionError):
            emp_db.register_join_kind(JoinKind("exists"))


class TestDistributedSites:
    def test_ship_inserted_for_remote_table(self, db):
        db.catalog.add_site("remote1", ship_cost_per_row=0.5)
        db.execute("CREATE TABLE local_t (k INTEGER, v DOUBLE)")
        db.execute("CREATE TABLE remote_t (k INTEGER, w DOUBLE) "
                   "AT SITE remote1")
        for i in range(20):
            db.execute("INSERT INTO local_t VALUES (%d, %f)" % (i, i * 1.0))
            db.execute("INSERT INTO remote_t VALUES (%d, %f)" % (i, i * 2.0))
        db.analyze()
        compiled = db.compile("SELECT l.v, r.w FROM local_t l, remote_t r "
                              "WHERE l.k = r.k")
        ops = [type(n).__name__ for n in compiled.plan.walk()]
        assert "Ship" in ops
        rows = db.execute("SELECT count(*) FROM local_t l, remote_t r "
                          "WHERE l.k = r.k").scalar()
        assert rows == 20

    def test_site_property_tracked(self, db):
        db.catalog.add_site("remote1", ship_cost_per_row=0.5)
        db.execute("CREATE TABLE r (k INTEGER) AT SITE remote1")
        db.execute("INSERT INTO r VALUES (1)")
        compiled = db.compile("SELECT k FROM r")
        scan = [n for n in compiled.plan.walk()
                if type(n).__name__ == "TableScan"][0]
        assert scan.props.site == "remote1"


# The same cases on the fused codegen backend and under forced
# parallelism: the extensions must hold on every shipped stack.
globals().update(stack_variants(globals()))
