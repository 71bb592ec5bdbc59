"""Unit tests for semantic analysis and AST → QGM translation."""

import pytest

from repro import Database
from repro.errors import SemanticError, TypeCheckError
from repro.language.parser import parse_statement
from repro.language.translator import translate
from repro.qgm import validate_qgm
from repro.qgm.model import (
    DeleteBox,
    DistinctMode,
    GroupByBox,
    InsertBox,
    SelectBox,
    SetOpBox,
    TableFunctionBox,
    UpdateBox,
)


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER, b VARCHAR(10), c DOUBLE)")
    database.execute("CREATE TABLE u (x INTEGER PRIMARY KEY, y VARCHAR(10))")
    return database


def qgm_of(db, sql):
    graph = translate(parse_statement(sql), db)
    validate_qgm(graph)
    return graph


class TestBasics:
    def test_simple_select(self, db):
        graph = qgm_of(db, "SELECT a, c FROM t")
        root = graph.root
        assert isinstance(root, SelectBox)
        assert root.output_names() == ["a", "c"]
        assert len(root.setformers()) == 1

    def test_star_expansion(self, db):
        graph = qgm_of(db, "SELECT * FROM t, u")
        assert graph.root.output_names() == ["a", "b", "c", "x", "y"]

    def test_duplicate_output_names_disambiguated(self, db):
        graph = qgm_of(db, "SELECT a, a FROM t")
        assert graph.root.output_names() == ["a", "a_1"]

    def test_where_splits_conjuncts(self, db):
        graph = qgm_of(db, "SELECT a FROM t WHERE a > 1 AND c < 2.0 AND b = 'x'")
        assert len(graph.root.predicates) == 3

    def test_expression_types(self, db):
        graph = qgm_of(db, "SELECT a + 1, a / 2, b || 'z', a < 3 FROM t")
        types = [c.dtype.name for c in graph.root.head.columns]
        assert types == ["INTEGER", "DOUBLE", "VARCHAR", "BOOLEAN"]

    def test_distinct(self, db):
        graph = qgm_of(db, "SELECT DISTINCT a FROM t")
        assert graph.root.head.distinct is DistinctMode.ENFORCE

    def test_order_by_and_limit(self, db):
        graph = qgm_of(db, "SELECT a, c FROM t ORDER BY c DESC, 1 LIMIT 7")
        assert graph.order_by == [(1, False), (0, True)]
        assert graph.limit == 7

    def test_order_by_unknown_column(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT a FROM t ORDER BY zzz")

    def test_select_without_from(self, db):
        graph = qgm_of(db, "SELECT 1 + 2")
        assert graph.root.quantifiers == []


class TestNameResolution:
    def test_unknown_table(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT 1 FROM nope")

    def test_unknown_column(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT zzz FROM t")

    def test_ambiguous_column(self, db):
        db.execute("CREATE TABLE t2 (a INTEGER)")
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT a FROM t, t2")

    def test_qualifier_resolves_ambiguity(self, db):
        db.execute("CREATE TABLE t2 (a INTEGER)")
        qgm_of(db, "SELECT t.a, t2.a FROM t, t2")

    def test_duplicate_alias(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT 1 FROM t x, u x")

    def test_correlation_to_outer(self, db):
        graph = qgm_of(db, "SELECT a FROM t WHERE EXISTS "
                           "(SELECT 1 FROM u WHERE u.x = t.a)")
        # inner box predicate references the outer quantifier
        inner = [b for b in graph.boxes
                 if isinstance(b, SelectBox) and b is not graph.root][0]
        refs = {q for p in inner.predicates for q in p.quantifiers()}
        outer_q = graph.root.setformers()[0]
        assert outer_q in refs


class TestTypeChecking:
    def test_incomparable(self, db):
        with pytest.raises(TypeCheckError):
            qgm_of(db, "SELECT a FROM t WHERE b > 5")

    def test_arithmetic_on_string(self, db):
        with pytest.raises(TypeCheckError):
            qgm_of(db, "SELECT b + 1 FROM t")

    def test_where_must_be_boolean(self, db):
        with pytest.raises((TypeCheckError, SemanticError)):
            qgm_of(db, "SELECT a FROM t WHERE a + 1")

    def test_unknown_function(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT frobnicate(a) FROM t")

    def test_function_arity(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT abs(a, c) FROM t")


class TestSubqueries:
    def test_in_becomes_existential_quantifier(self, db):
        graph = qgm_of(db, "SELECT a FROM t WHERE a IN (SELECT x FROM u)")
        quantifier = graph.root.subquery_quantifiers()[0]
        assert quantifier.qtype == "E"

    def test_not_in_becomes_universal(self, db):
        graph = qgm_of(db, "SELECT a FROM t WHERE a NOT IN (SELECT x FROM u)")
        assert graph.root.subquery_quantifiers()[0].qtype == "A"

    def test_exists_flavours(self, db):
        graph = qgm_of(db, "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)")
        assert graph.root.subquery_quantifiers()[0].qtype == "E"
        graph = qgm_of(db, "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u)")
        assert graph.root.subquery_quantifiers()[0].qtype == "NE"

    def test_scalar_subquery(self, db):
        graph = qgm_of(db, "SELECT (SELECT max(x) FROM u) FROM t")
        assert graph.root.subquery_quantifiers()[0].qtype == "S"

    def test_all_quantifier(self, db):
        graph = qgm_of(db, "SELECT a FROM t WHERE a > ALL (SELECT x FROM u)")
        assert graph.root.subquery_quantifiers()[0].qtype == "A"

    def test_subquery_must_be_single_column(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT a FROM t WHERE a IN (SELECT x, y FROM u)")

    def test_in_value_list_is_disjunction(self, db):
        graph = qgm_of(db, "SELECT a FROM t WHERE a IN (1, 2)")
        assert graph.root.subquery_quantifiers() == []


class TestAggregation:
    def test_three_box_stack(self, db):
        graph = qgm_of(db, "SELECT b, sum(a) FROM t GROUP BY b")
        kinds = [type(b).__name__ for b in graph.reachable_boxes()]
        assert "GroupByBox" in kinds
        assert isinstance(graph.root, SelectBox)
        group_box = [b for b in graph.boxes if isinstance(b, GroupByBox)][0]
        assert len(group_box.group_keys) == 1

    def test_having(self, db):
        graph = qgm_of(db, "SELECT b FROM t GROUP BY b HAVING count(*) > 1")
        assert len(graph.root.predicates) == 1

    def test_ungrouped_column_rejected(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT a, count(*) FROM t GROUP BY b")

    def test_group_key_expression(self, db):
        graph = qgm_of(db, "SELECT a % 2, count(*) FROM t GROUP BY a % 2")
        assert isinstance(graph.root, SelectBox)

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT a FROM t WHERE count(*) > 1")

    def test_nested_aggregate_rejected(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT sum(count(*)) FROM t")

    def test_count_star_only(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT sum(*) FROM t")

    def test_global_aggregate(self, db):
        graph = qgm_of(db, "SELECT count(*), max(a) FROM t")
        assert isinstance(graph.root, SelectBox)


class TestSetOpsAndCtes:
    def test_union_box(self, db):
        graph = qgm_of(db, "SELECT a FROM t UNION SELECT x FROM u")
        assert isinstance(graph.root, SetOpBox)
        assert graph.root.op == "union"
        assert graph.root.head.distinct is DistinctMode.ENFORCE

    def test_union_all(self, db):
        graph = qgm_of(db, "SELECT a FROM t UNION ALL SELECT x FROM u")
        assert graph.root.head.distinct is DistinctMode.PRESERVE

    def test_arity_mismatch(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT a, b FROM t UNION SELECT x FROM u")

    def test_type_mismatch(self, db):
        with pytest.raises(TypeCheckError):
            qgm_of(db, "SELECT b FROM t UNION SELECT x FROM u")

    def test_cte(self, db):
        graph = qgm_of(db, "WITH big (v) AS (SELECT a FROM t WHERE a > 5) "
                           "SELECT v FROM big")
        assert graph.root.output_names() == ["v"]

    def test_cte_referenced_twice(self, db):
        graph = qgm_of(db, "WITH s AS (SELECT a FROM t) "
                           "SELECT s1.a FROM s s1, s s2 WHERE s1.a = s2.a")
        validate_qgm(graph)

    def test_recursive_cte(self, db):
        graph = qgm_of(db, "WITH RECURSIVE r(n) AS ("
                           "SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 5)"
                           " SELECT n FROM r")
        union = [b for b in graph.boxes if isinstance(b, SetOpBox)][0]
        assert union.is_recursive
        assert union.recursive_name == "r"

    def test_recursive_requires_union_all(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "WITH RECURSIVE r(n) AS ("
                       "SELECT 1 UNION SELECT n + 1 FROM r WHERE n < 5) "
                       "SELECT n FROM r")


class TestDml:
    def test_insert_values(self, db):
        graph = qgm_of(db, "INSERT INTO t (a, b) VALUES (1, 'x')")
        assert isinstance(graph.root, InsertBox)
        assert graph.root.column_positions == [0, 1]
        assert len(graph.root.rows) == 1

    def test_insert_select(self, db):
        graph = qgm_of(db, "INSERT INTO u SELECT a, b FROM t")
        assert isinstance(graph.root, InsertBox)
        assert graph.root.quantifiers

    def test_insert_arity_mismatch(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "INSERT INTO t (a, b) VALUES (1)")

    def test_update(self, db):
        graph = qgm_of(db, "UPDATE t SET a = a + 1 WHERE b = 'x'")
        assert isinstance(graph.root, UpdateBox)
        assert graph.root.assignments[0][0] == "a"

    def test_update_type_mismatch(self, db):
        with pytest.raises(TypeCheckError):
            qgm_of(db, "UPDATE t SET a = 'not-an-int'")

    def test_delete(self, db):
        graph = qgm_of(db, "DELETE FROM t WHERE a = 1")
        assert isinstance(graph.root, DeleteBox)


class TestExtensionsGating:
    def test_outer_join_disabled(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT 1 FROM t LEFT OUTER JOIN u ON t.a = u.x")

    def test_outer_join_enabled(self, db):
        db.enable_operation("left_outer_join")
        graph = qgm_of(db, "SELECT t.a, u.y FROM t LEFT OUTER JOIN u "
                           "ON t.a = u.x")
        oj_boxes = [b for b in graph.boxes
                    if b.annotations.get("operation") == "left_outer_join"]
        assert len(oj_boxes) == 1
        types = sorted(q.qtype for q in oj_boxes[0].quantifiers)
        assert types == ["F", "PF"]

    def test_unknown_table_function(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT 1 FROM frobnicate(t, 3) s")

    def test_table_function_box(self, db):
        graph = qgm_of(db, "SELECT * FROM sample(t, 3) s")
        tf = [b for b in graph.boxes if isinstance(b, TableFunctionBox)]
        assert len(tf) == 1
        assert tf[0].function_name == "sample"

    def test_unknown_set_predicate(self, db):
        with pytest.raises(SemanticError):
            qgm_of(db, "SELECT a FROM t WHERE a > nosuch (SELECT x FROM u)")

    def test_custom_set_predicate_quantifier(self, db):
        db.register_set_predicate(
            "majority",
            lambda outcomes: list(outcomes).count(True) * 2 > max(
                1, len(list([]))),
            quantifier_type="MAJ")
        graph = qgm_of(db, "SELECT a FROM t WHERE a > majority "
                           "(SELECT x FROM u)")
        assert graph.root.subquery_quantifiers()[0].qtype == "MAJ"


class TestAggregateOverGroupKey:
    """An aggregate whose argument is a GROUP BY key matches its own
    slot: the key inside ``min(k)`` is not replaced before the aggregate
    is looked up."""

    ROWS = [(i % 5 - 1 if i % 97 else None, i) for i in range(3000)]

    @pytest.fixture(scope="class")
    def gdb(self):
        database = Database()
        database.execute("CREATE TABLE g (k INTEGER, v INTEGER)")
        txn = database.begin()
        for row in self.ROWS:
            database.engine.insert(txn, "g", row)
        database.commit(txn)
        database.analyze()
        yield database
        database.close()

    def _expected(self, key):
        groups = {}
        for k, _v in self.ROWS:
            groups.setdefault(key(k), []).append(key(k))
        return groups

    @pytest.mark.parametrize("options", [
        dict(execution_mode="tuple"),
        dict(batch_size=1),
        dict(parallelism="on", dop=2),
    ], ids=["tuple", "compiled", "parallel"])
    def test_grouped_having_distinct_and_expression_keys(self, gdb,
                                                         options):
        from repro import CompileOptions

        options = CompileOptions(**options)
        groups = self._expected(lambda k: k)
        cases = {
            "SELECT k, min(k) FROM g GROUP BY k":
                {(k, k) for k in groups},
            "SELECT k, count(DISTINCT k) FROM g GROUP BY k":
                {(k, 0 if k is None else 1) for k in groups},
            "SELECT k FROM g GROUP BY k HAVING max(k) > 0":
                {(k,) for k in groups if k is not None and k > 0},
            "SELECT k + 1, sum(k + 1) FROM g GROUP BY k + 1":
                {(k, None if k is None else sum(values))
                 for k, values in self._expected(
                     lambda k: None if k is None else k + 1).items()},
        }
        for sql, expected in cases.items():
            result = gdb.execute(sql, options=options)
            assert len(result.rows) == len(expected), sql
            assert set(result.rows) == expected, sql
            if options.parallelism == "on":
                assert result.stats.morsels > 0, sql
