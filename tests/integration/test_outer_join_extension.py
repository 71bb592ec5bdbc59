"""The paper's worked DBC extension: adding LEFT OUTER JOIN end-to-end.

Section 4 walks through what adding left outer join requires: a new
setformer type (PF, Preserve-Foreach) in QGM, rewrite-rule awareness (the
push-down *from* rules must not apply to PF; a *receive* rule pushes
predicates through the outer join), optimizer support and an execution
join kind.  These tests exercise each of those touch points.
"""

import pytest

from repro.errors import SemanticError
from tests.stacks import stack_variants


def q(db, sql, params=()):
    return sorted(db.execute(sql, params).rows,
                  key=lambda r: tuple((v is None, v) for v in r))


@pytest.fixture
def oj_db(emp_db):
    emp_db.enable_operation("left_outer_join")
    emp_db.execute("CREATE TABLE bonus (emp_id INTEGER, amount DOUBLE)")
    for emp_id, amount in [(1, 10.0), (1, 5.0), (4, 7.0)]:
        emp_db.execute("INSERT INTO bonus VALUES (%d, %f)" % (emp_id, amount))
    emp_db.analyze()
    return emp_db


class TestGating:
    def test_rejected_until_enabled(self, emp_db):
        with pytest.raises(SemanticError):
            emp_db.execute("SELECT 1 FROM emp e LEFT OUTER JOIN dept d "
                           "ON e.dept = d.dname")

    def test_enabled_per_database(self, oj_db, db):
        oj_db.execute("SELECT e.name FROM emp e LEFT OUTER JOIN bonus b "
                      "ON e.id = b.emp_id")
        db.execute("CREATE TABLE x (a INTEGER)")
        with pytest.raises(SemanticError):
            db.execute("SELECT 1 FROM x a LEFT OUTER JOIN x b ON a.a = b.a")


class TestSemantics:
    def test_preserves_unmatched_left(self, oj_db):
        rows = q(oj_db, "SELECT e.name, b.amount FROM emp e "
                        "LEFT OUTER JOIN bonus b ON e.id = b.emp_id "
                        "WHERE e.dept = 'eng'")
        assert rows == [("alice", 5.0), ("alice", 10.0), ("bob", None),
                        ("carol", None), ("grace", None)]

    def test_inner_match_multiplicity(self, oj_db):
        rows = oj_db.execute("SELECT count(*) FROM emp e LEFT OUTER JOIN "
                             "bonus b ON e.id = b.emp_id").scalar()
        # alice matches twice; dan once; everyone else is padded once
        assert rows == 2 + 1 + 6

    def test_anti_join_idiom(self, oj_db):
        rows = q(oj_db, "SELECT e.name FROM emp e LEFT OUTER JOIN bonus b "
                        "ON e.id = b.emp_id WHERE b.emp_id IS NULL "
                        "AND e.dept = 'sales'")
        assert rows == [("eve",), ("heidi",)]

    def test_on_predicate_restricting_left_still_preserves(self, oj_db):
        """An ON-clause predicate on the preserved side must not drop
        left rows — they get NULL padding instead (the paper's point
        about not applying push-down to PF)."""
        rows = q(oj_db, "SELECT e.name, b.amount FROM emp e "
                        "LEFT OUTER JOIN bonus b "
                        "ON e.id = b.emp_id AND e.salary > 100 "
                        "WHERE e.dept IN ('eng', 'hr')")
        assert ("alice", 5.0) in rows and ("alice", 10.0) in rows
        assert ("frank", None) in rows
        assert ("bob", None) in rows  # salary 90: preserved, not matched

    def test_on_predicate_restricting_right_is_pushed(self, oj_db):
        rows = q(oj_db, "SELECT e.name, b.amount FROM emp e "
                        "LEFT OUTER JOIN bonus b "
                        "ON e.id = b.emp_id AND b.amount > 6 "
                        "WHERE e.id IN (1, 4)")
        assert rows == [("alice", 10.0), ("dan", 7.0)]

    def test_derived_left_side(self, oj_db):
        rows = q(oj_db, "SELECT s.name, b.amount FROM "
                        "(SELECT id, name FROM emp WHERE dept = 'hr') s "
                        "LEFT OUTER JOIN bonus b ON s.id = b.emp_id")
        assert rows == [("frank", None)]

    def test_aggregation_over_outer_join(self, oj_db):
        rows = q(oj_db, "SELECT e.dept, count(b.amount) FROM emp e "
                        "LEFT OUTER JOIN bonus b ON e.id = b.emp_id "
                        "GROUP BY e.dept")
        assert rows == [("eng", 2), ("hr", 0), ("sales", 1)]

    def test_name_collision_disambiguated(self, oj_db):
        rows = q(oj_db, "SELECT e.name, m.name FROM emp e "
                        "LEFT OUTER JOIN emp m ON e.mgr = m.id "
                        "WHERE e.dept = 'hr'")
        assert rows == [("frank", None)]


class TestRewriteInteraction:
    def test_where_predicate_on_preserved_side_pushed_through(self, oj_db):
        """The receive rule: a WHERE predicate on preserved-side columns is
        pushed *through* the outer join when the left side is a box."""
        compiled = oj_db.compile(
            "SELECT s.name, b.amount FROM "
            "(SELECT id, name, salary FROM emp) s "
            "LEFT OUTER JOIN bonus b ON s.id = b.emp_id "
            "WHERE s.salary > 100")
        assert compiled.rewrite_report.count("push_through_pf") == 1
        # and the result is correct
        result = oj_db.execute(
            "SELECT s.name, b.amount FROM "
            "(SELECT id, name, salary FROM emp) s "
            "LEFT OUTER JOIN bonus b ON s.id = b.emp_id "
            "WHERE s.salary > 100")
        assert sorted(result.rows) == [("alice", 5.0), ("alice", 10.0)]

    def test_outer_join_box_never_merged(self, oj_db):
        compiled = oj_db.compile(
            "SELECT e.name FROM emp e LEFT OUTER JOIN bonus b "
            "ON e.id = b.emp_id")
        oj_boxes = [b for b in compiled.qgm.reachable_boxes()
                    if b.annotations.get("operation") == "left_outer_join"]
        assert len(oj_boxes) == 1  # survived rewrite intact

    def test_results_match_rewrite_off(self, oj_db):
        sql = ("SELECT s.name FROM (SELECT id, name, salary FROM emp) s "
               "LEFT OUTER JOIN bonus b ON s.id = b.emp_id "
               "WHERE s.salary > 100")
        with_rewrite = q(oj_db, sql)
        oj_db.settings.rewrite_enabled = False
        without = q(oj_db, sql)
        oj_db.settings.rewrite_enabled = True
        assert with_rewrite == without


class TestJoinKindAcrossMethods:
    """'left outer join could be added as a join kind, allowing [it] to
    take advantage of existing methods of join evaluation' — run the same
    outer join through NL, merge, and hash methods."""

    SQL = ("SELECT e.name, b.amount FROM emp e LEFT OUTER JOIN bonus b "
           "ON e.id = b.emp_id")

    def run_with_only(self, oj_db, keep):
        from repro.language.parser import parse_statement
        from repro.language.translator import translate
        from repro.optimizer.boxopt import Optimizer
        from repro.executor.context import ExecutionContext
        from repro.executor.run import execute_plan

        graph = translate(parse_statement(self.SQL), oj_db)
        optimizer = Optimizer(oj_db.catalog, engine=oj_db.engine,
                              functions=oj_db.functions)
        for alt in ("NLJoinAlt:NL", "MergeJoinAlt:Merge", "HashJoinAlt:Hash"):
            star, name = alt.split(":")
            if name != keep:
                optimizer.generator.remove_alternative(star, name)
        plan = optimizer.optimize(graph)
        ctx = ExecutionContext(oj_db.engine, oj_db.functions)
        return sorted(execute_plan(plan, ctx),
                      key=lambda r: tuple((v is None, v) for v in r))

    def test_all_methods_agree(self, oj_db):
        nl = self.run_with_only(oj_db, "NL")
        merge = self.run_with_only(oj_db, "Merge")
        hash_rows = self.run_with_only(oj_db, "Hash")
        assert nl == merge == hash_rows
        assert len(nl) == 9


# The same cases on the fused codegen backend and under forced
# parallelism: the extensions must hold on every shipped stack.
globals().update(stack_variants(globals()))
