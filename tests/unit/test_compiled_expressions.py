"""Unit tests for plan refinement's expression compiler.

The compiled closures must agree exactly with the interpreting evaluator
(three-valued logic included); subquery-dependent expressions must fall
back to interpretation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompileOptions, Database
from repro.catalog import Catalog, ColumnDef, TableDef
from repro.datatypes import BOOLEAN, DOUBLE, INTEGER, VARCHAR
from repro.errors import ExecutionError
from repro.executor import vectorized
from repro.executor.compiled import ExprCompiler, refine_plan
from repro.executor.context import ExecutionContext
from repro.executor.evaluator import Evaluator
from repro.functions import FunctionRegistry, register_builtins
from repro.functions.registry import ScalarFunction
from repro.qgm import expressions as qe
from repro.qgm.model import QGM


@pytest.fixture
def setup():
    graph = QGM()
    table = TableDef("t", [ColumnDef("a", INTEGER), ColumnDef("b", VARCHAR),
                           ColumnDef("c", DOUBLE)])
    base = graph.base_table(table)
    quantifier = graph.new_quantifier("F", base)
    functions = register_builtins(FunctionRegistry())
    compiler = ExprCompiler(functions)
    ctx = ExecutionContext(engine=None, functions=functions,
                           params=(7, "seven"))
    return compiler, Evaluator(ctx), quantifier


def col(q, name, dtype=INTEGER):
    return qe.ColRef(q, name, dtype)


def agree(compiler, evaluator, expr, env, params=(7, "seven")):
    compiled = compiler.compile(expr)
    assert compiled is not None, "expected %r to compile" % expr
    assert compiled(env, params) == evaluator.eval(expr, env)
    return compiled


class TestAgreement:
    CASES = [
        (lambda q: qe.Const(42, INTEGER), (1, "x", 2.0)),
        (lambda q: col(q, "a"), (5, "x", 2.0)),
        (lambda q: col(q, "a"), (None, None, None)),
        (lambda q: qe.BinOp("+", col(q, "a"), qe.Const(1, INTEGER), INTEGER),
         (5, "x", 2.0)),
        (lambda q: qe.BinOp("*", col(q, "c", DOUBLE),
                            qe.Const(2.0, DOUBLE), DOUBLE), (5, "x", 2.5)),
        (lambda q: qe.BinOp("=", col(q, "a"), qe.Const(5, INTEGER), BOOLEAN),
         (5, "x", 2.0)),
        (lambda q: qe.BinOp("<", col(q, "a"), qe.Const(9, INTEGER), BOOLEAN),
         (None, "x", 2.0)),
        (lambda q: qe.BinOp("||", col(q, "b", VARCHAR),
                            qe.Const("!", VARCHAR), VARCHAR), (1, "hi", 0.0)),
        (lambda q: qe.Not(qe.BinOp(">", col(q, "a"), qe.Const(3, INTEGER),
                                   BOOLEAN)), (5, "x", 0.0)),
        (lambda q: qe.Neg(col(q, "a"), INTEGER), (5, "x", 0.0)),
        (lambda q: qe.IsNullTest(col(q, "a")), (None, "x", 0.0)),
        (lambda q: qe.IsNullTest(col(q, "a"), negated=True), (5, "x", 0.0)),
        (lambda q: qe.LikeOp(col(q, "b", VARCHAR),
                             qe.Const("h%", VARCHAR)), (1, "hello", 0.0)),
        (lambda q: qe.FuncCall("upper", [col(q, "b", VARCHAR)], VARCHAR),
         (1, "abc", 0.0)),
        (lambda q: qe.Cast(col(q, "a"), DOUBLE), (5, "x", 0.0)),
        (lambda q: qe.CaseOp([(qe.BinOp(">", col(q, "a"),
                                        qe.Const(0, INTEGER), BOOLEAN),
                               qe.Const("pos", VARCHAR))],
                             qe.Const("neg", VARCHAR), VARCHAR),
         (5, "x", 0.0)),
        (lambda q: qe.ParamRef(0, None, INTEGER), (5, "x", 0.0)),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_compiled_agrees_with_interpreter(self, setup, case):
        compiler, evaluator, quantifier = setup
        make, row = self.CASES[case]
        agree(compiler, evaluator, make(quantifier), {quantifier: row})

    def test_three_valued_and_or(self, setup):
        compiler, evaluator, q = setup
        unknown = qe.BinOp("=", col(q, "a"), qe.Const(1, INTEGER), BOOLEAN)
        true = qe.Const(True, BOOLEAN)
        false = qe.Const(False, BOOLEAN)
        env = {q: (None, "x", 0.0)}
        for expr in (qe.BinOp("and", unknown, true, BOOLEAN),
                     qe.BinOp("and", unknown, false, BOOLEAN),
                     qe.BinOp("or", unknown, true, BOOLEAN),
                     qe.BinOp("or", unknown, false, BOOLEAN)):
            compiled = compiler.compile(expr)
            assert compiled(env, ()) == evaluator.eval_bool(expr, env)

    def test_null_padded_outer_row(self, setup):
        compiler, _evaluator, q = setup
        compiled = compiler.compile(col(q, "a"))
        assert compiled({q: None}, ()) is None

    def test_division_by_zero(self, setup):
        compiler, _evaluator, q = setup
        expr = qe.BinOp("/", qe.Const(1, INTEGER), qe.Const(0, INTEGER),
                        DOUBLE)
        compiled = compiler.compile(expr)
        with pytest.raises(ExecutionError):
            compiled({}, ())


class TestFallback:
    def test_subquery_reference_not_compiled(self, setup):
        compiler, _evaluator, q = setup
        graph = QGM()
        table = TableDef("u", [ColumnDef("x", INTEGER)])
        sub_q = graph.new_quantifier("S", graph.base_table(table))
        expr = qe.BinOp("=", col(q, "a"), qe.ColRef(sub_q, "x", INTEGER),
                        BOOLEAN)
        assert compiler.compile(expr) is None
        assert compiler.fallback_count == 1

    def test_exists_test_not_compiled(self, setup):
        compiler, _evaluator, q = setup
        graph = QGM()
        table = TableDef("u", [ColumnDef("x", INTEGER)])
        sub_q = graph.new_quantifier("E", graph.base_table(table))
        assert compiler.compile(qe.ExistsTest(sub_q)) is None

    def test_aggregate_not_compiled(self, setup):
        compiler, _evaluator, q = setup
        expr = qe.AggCall("sum", col(q, "a"), False, INTEGER)
        assert compiler.compile(expr) is None


class TestRefinePlan:
    def test_refinement_attaches_closures(self, emp_db):
        compiled = emp_db.compile(
            "SELECT name, salary + 1 FROM emp WHERE salary > 80 "
            "AND dept LIKE 'e%'")
        assert compiled.refiner is not None
        assert compiled.refiner.compiled_count >= 3  # 2 preds + 2 heads
        scan = next(n for n in compiled.plan.walk()
                    if n.op_name in ("SCAN", "ISCAN"))
        assert all(getattr(p, "compiled", None) is not None
                   for p in scan.preds)

    def test_results_identical_with_refinement_off(self, emp_db):
        sql = ("SELECT name, salary * 2 FROM emp "
               "WHERE salary BETWEEN 70 AND 100 AND name LIKE '%a%'")
        on_rows = sorted(emp_db.execute(sql).rows)
        emp_db.settings.compile_expressions = False
        off_rows = sorted(emp_db.execute(sql).rows)
        emp_db.settings.compile_expressions = True
        assert on_rows == off_rows

    def test_subquery_predicates_fall_back(self, emp_db):
        compiled = emp_db.compile(
            "SELECT name FROM emp WHERE dept = 'hr' OR salary = "
            "(SELECT max(salary) FROM emp)")
        assert compiled.refiner.fallback_count >= 1
        result = emp_db.run_compiled(compiled)
        assert sorted(result.rows) == [("alice",), ("frank",)]


# ---------------------------------------------------------------------------
# Scalar closures vs generated source (the batch and fused backends' form)
# ---------------------------------------------------------------------------

_GRAPH = QGM()
_Q = _GRAPH.new_quantifier("F", _GRAPH.base_table(TableDef("g", [
    ColumnDef("a", INTEGER), ColumnDef("b", INTEGER),
    ColumnDef("s", VARCHAR), ColumnDef("p", VARCHAR)])))

#: Tags of the ``probe`` calls one evaluation made, in order: two
#: evaluations with equal logs skipped exactly the same operands.
_LOG = []


def _probe(tag, value):
    _LOG.append(tag)
    if value == 13:
        raise ValueError("unlucky")  # surfaces wrapped, as ExecutionError
    return value


_FUNCTIONS = register_builtins(FunctionRegistry())
_FUNCTIONS.register_scalar(ScalarFunction(
    "probe", _probe, INTEGER, arity=2, handles_null=True))

_tags = st.integers(0, 99)


def _probed(exprs, dtype):
    return st.tuples(_tags, exprs).map(lambda t: qe.FuncCall(
        "probe", [qe.Const(t[0], INTEGER), t[1]], dtype))


def _arith(depth=2):
    leaves = st.one_of(
        st.sampled_from([0, 1, 2, 13, -7]).map(
            lambda v: qe.Const(v, INTEGER)),
        st.just(qe.Const(None, None)),
        st.sampled_from(["a", "b"]).map(lambda c: col(_Q, c)),
        st.sampled_from([0, 1]).map(
            lambda i: qe.ParamRef(i, None, INTEGER)),
        st.just(qe.Cast(col(_Q, "s", VARCHAR), INTEGER)),
    )
    if depth == 0:
        return leaves
    sub = _arith(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.sampled_from(["+", "-", "*", "/", "%"]), sub, sub).map(
            lambda t: qe.BinOp(t[0], t[1], t[2], INTEGER)),
        sub.map(lambda e: qe.Neg(e, INTEGER)),
        sub.map(lambda e: qe.FuncCall("abs", [e], INTEGER)),
        sub.map(lambda e: qe.Cast(e, DOUBLE)),
        _probed(sub, INTEGER),
    )


def _boolean(depth=2):
    text = st.one_of(
        st.just(col(_Q, "s", VARCHAR)),
        _arith(0).map(lambda e: qe.Cast(e, VARCHAR)))
    pattern = st.one_of(
        st.sampled_from(["1%", "_", "%"]).map(
            lambda v: qe.Const(v, VARCHAR)),
        st.just(col(_Q, "p", VARCHAR)))  # dynamic, possibly NULL
    leaves = st.one_of(
        st.tuples(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
                  _arith(1), _arith(1)).map(
            lambda t: qe.BinOp(t[0], t[1], t[2], BOOLEAN)),
        _arith(1).map(qe.IsNullTest),
        st.tuples(text, pattern, st.booleans()).map(
            lambda t: qe.LikeOp(t[0], t[1], t[2])),
    )
    if depth == 0:
        return leaves
    sub = _boolean(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.sampled_from(["and", "or"]), sub, sub).map(
            lambda t: qe.BinOp(t[0], t[1], t[2], BOOLEAN)),
        sub.map(qe.Not),
        _probed(sub, BOOLEAN),
    )


def _numeric():
    return st.one_of(
        _arith(),
        st.tuples(_boolean(1), _arith(1), _arith(1)).map(
            lambda t: qe.CaseOp([(t[0], t[1])], t[2], INTEGER)))


_rows = st.tuples(
    st.sampled_from([None, 0, 1, 13, -7]),
    st.sampled_from([None, 0, 2, 5]),
    st.sampled_from([None, "12", "x", ""]),
    st.sampled_from([None, "1%", "_"]),
)
_params = st.lists(st.sampled_from([None, 0, 3]), max_size=2).map(tuple)


def _outcome(thunk):
    """(value-or-error-class, probe log) of one evaluation."""
    del _LOG[:]
    try:
        value = thunk()
        result = (type(value), value)
    except Exception as exc:  # the class is what the backends must share
        result = type(exc)
    return result, list(_LOG)


def _one_row_batch(row):
    batch = vectorized.EnvBatch(1)
    for position, value in enumerate(row):
        batch.cols[(_Q, position)] = [value]
    return batch


class TestGeneratedSourceAgreesWithClosures:
    """The scalar closure (tuple backend) and the generated source (batch
    and fused backends) must agree on the value, on the class of a raised
    error, and on which operands were *not* evaluated — the right sides
    of AND/OR, untaken CASE branches, operands behind a NULL."""

    @given(expr=st.one_of(_numeric(), _boolean()), row=_rows, params=_params)
    @settings(max_examples=300, deadline=None)
    def test_value_form(self, expr, row, params):
        closure = ExprCompiler(_FUNCTIONS).compile(expr)
        generated = vectorized._generate("rows", [expr], _FUNCTIONS, {})
        expected = _outcome(lambda: closure({_Q: row}, params))
        got = _outcome(
            lambda: generated(_one_row_batch(row), [0], params)[0][0])
        assert got == expected

    @given(expr=_boolean(), row=_rows, params=_params)
    @settings(max_examples=300, deadline=None)
    def test_predicate_form(self, expr, row, params):
        closure = ExprCompiler(_FUNCTIONS).compile(expr)
        select = vectorized._generate("select", [expr], _FUNCTIONS, {})
        expected = _outcome(lambda: closure({_Q: row}, params) is True)
        got = _outcome(
            lambda: select(_one_row_batch(row), [0], params) == [0])
        assert got == expected

    def test_unevaluated_right_side_pinned(self):
        # FALSE AND probe(1/0): neither the probe nor the division runs;
        # NULL AND probe(13): the right side runs, and its error surfaces.
        boom = qe.FuncCall("probe", [qe.Const(1, INTEGER), qe.BinOp(
            "/", qe.Const(1, INTEGER), qe.Const(0, INTEGER), INTEGER)],
            BOOLEAN)
        unknown = qe.BinOp("=", col(_Q, "a"), qe.Const(1, INTEGER), BOOLEAN)
        unlucky = qe.FuncCall("probe", [qe.Const(2, INTEGER),
                                        qe.Const(13, INTEGER)], BOOLEAN)
        batch = _one_row_batch((None, 0, None, None))
        guarded = vectorized._generate("rows", [qe.BinOp(
            "and", qe.Const(False, BOOLEAN), boom, BOOLEAN)], _FUNCTIONS, {})
        assert _outcome(lambda: guarded(batch, [0], ())) == (
            (list, [(False,)]), [])
        exposed = vectorized._generate("select", [qe.BinOp(
            "and", unknown, unlucky, BOOLEAN)], _FUNCTIONS, {})
        assert _outcome(lambda: exposed(batch, [0], ())) == (
            ExecutionError, [2])


def test_auto_compile_that_stays_on_tuple_generates_nothing():
    db = Database()
    db.execute("CREATE TABLE five (n INTEGER, tag VARCHAR(4))")
    db.execute("INSERT INTO five VALUES (1, 'a'), (2, 'b'), (3, 'c'), "
               "(4, 'd'), (5, 'e')")
    db.analyze()
    before = db.cache_stats()["codegen"]
    compiled = db.compile(
        "SELECT n * 2, upper(tag) FROM five WHERE n % 2 = 1 ORDER BY n",
        options=CompileOptions(execution_mode="auto", plan_cache=False))
    assert all(node.exec_backend == "tuple" for node in compiled.plan.walk())
    assert db.cache_stats()["codegen"] == before
    assert db.run_compiled(compiled).rows == [(2, "A"), (6, "C"), (10, "E")]
