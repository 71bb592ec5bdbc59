"""Unit tests for plan refinement's expression compiler.

The compiled closures must agree exactly with the reference oracle's
expression evaluator (three-valued logic included) — the only other
evaluator of a QGM expression over an environment — and every expression
must compile, the subquery-bearing ones into closures that drive the
context's evaluate-on-demand machinery.
"""

import ast
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompileOptions, Database
from repro.catalog import Catalog, ColumnDef, TableDef
from repro.datatypes import BOOLEAN, DOUBLE, INTEGER, VARCHAR
from repro.errors import ExecutionError, SemanticError, SubqueryError
from repro.executor.compiled import ExprCompiler
from repro.executor.context import ExecutionContext
from repro.executor.exprgen import ExprGen, materialize
from repro.executor.run import register_row_operator
from repro.functions import FunctionRegistry, register_builtins
from repro.functions.registry import ScalarFunction, SetPredicateFunction
from repro.optimizer import plans as pl
from repro.optimizer.plans import SubplanBinding
from repro.qgm import expressions as qe
from repro.qgm.model import QGM
from repro.testkit import QueryGenerator, build_database, generate_schema
from repro.testkit.oracle import ReferenceOracle


def make_ctx(functions, params=()):
    return ExecutionContext(engine=None, functions=functions, params=params)


@pytest.fixture
def setup():
    graph = QGM()
    table = TableDef("t", [ColumnDef("a", INTEGER), ColumnDef("b", VARCHAR),
                           ColumnDef("c", DOUBLE)])
    base = graph.base_table(table)
    quantifier = graph.new_quantifier("F", base)
    functions = register_builtins(FunctionRegistry())
    compiler = ExprCompiler(functions)
    oracle = ReferenceOracle(SimpleNamespace(functions=functions))
    return compiler, oracle, quantifier


def col(q, name, dtype=INTEGER):
    return qe.ColRef(q, name, dtype)


def agree(compiler, oracle, expr, env):
    compiled = compiler.compile(expr)
    ctx = make_ctx(compiler.functions)
    assert compiled(env, ctx) == oracle._eval(expr, env)
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
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_compiled_agrees_with_oracle(self, setup, case):
        compiler, oracle, quantifier = setup
        make, row = self.CASES[case]
        agree(compiler, oracle, make(quantifier), {quantifier: row})

    def test_parameter_reads_the_context(self, setup):
        # Parameter markers are outside the oracle; closures read them
        # off the context they are called with, never a captured one.
        compiler, _oracle, _q = setup
        compiled = compiler.compile(qe.ParamRef(0, None, INTEGER))
        assert compiled({}, make_ctx(compiler.functions, (7, "x"))) == 7
        assert compiled({}, make_ctx(compiler.functions, (8,))) == 8
        with pytest.raises(ExecutionError):
            compiled({}, make_ctx(compiler.functions))

    def test_three_valued_and_or(self, setup):
        compiler, oracle, q = setup
        unknown = qe.BinOp("=", col(q, "a"), qe.Const(1, INTEGER), BOOLEAN)
        true = qe.Const(True, BOOLEAN)
        false = qe.Const(False, BOOLEAN)
        env = {q: (None, "x", 0.0)}
        ctx = make_ctx(compiler.functions)
        for expr in (qe.BinOp("and", unknown, true, BOOLEAN),
                     qe.BinOp("and", unknown, false, BOOLEAN),
                     qe.BinOp("or", unknown, true, BOOLEAN),
                     qe.BinOp("or", unknown, false, BOOLEAN)):
            compiled = compiler.compile(expr)
            assert compiled(env, ctx) == oracle._eval_bool(expr, env)

    def test_null_padded_outer_row(self, setup):
        compiler, _oracle, q = setup
        compiled = compiler.compile(col(q, "a"))
        assert compiled({q: None}, make_ctx(compiler.functions)) is None

    def test_division_by_zero(self, setup):
        compiler, _oracle, q = setup
        expr = qe.BinOp("/", qe.Const(1, INTEGER), qe.Const(0, INTEGER),
                        DOUBLE)
        compiled = compiler.compile(expr)
        with pytest.raises(ExecutionError):
            compiled({}, make_ctx(compiler.functions))

    def test_or_shortcut_counts_once_per_deciding_left_arm(self, setup):
        compiler, _oracle, q = setup
        five = qe.BinOp("=", col(q, "a"), qe.Const(5, INTEGER), BOOLEAN)
        six = qe.BinOp("=", col(q, "a"), qe.Const(6, INTEGER), BOOLEAN)
        compiled = compiler.compile(qe.BinOp("or", five, six, BOOLEAN))
        ctx = make_ctx(compiler.functions)
        assert compiled({q: (5, "", 0.0)}, ctx) is True   # left decides
        assert compiled({q: (6, "", 0.0)}, ctx) is True   # right decides
        assert compiled({q: (7, "", 0.0)}, ctx) is False
        assert ctx.stats.or_branch_shortcuts == 1


class _Rows:
    """A stand-in subquery plan: a row operator yielding fixed rows, or
    the rows a callable computes from the environment it is opened in."""

    exec_backend = "tuple"

    def __init__(self, rows):
        self.rows = rows


register_row_operator(
    _Rows, lambda plan, ctx, env: iter(
        plan.rows(env) if callable(plan.rows) else plan.rows))


def _majority(outcomes):
    outcomes = list(outcomes)
    return sum(1 for o in outcomes if o is True) * 2 > len(outcomes)


class TestSubqueryClosures:
    """What only the tree-walking interpreter used to evaluate: every
    reference to an unbound subquery quantifier."""

    @pytest.fixture
    def sub(self, setup):
        compiler, _oracle, q = setup
        compiler.functions.register_set_predicate(
            SetPredicateFunction("majority", _majority))
        graph = QGM()
        inner = graph.base_table(TableDef("u", [ColumnDef("x", INTEGER)]))

        def bound(qtype, rows, correlation=()):
            quantifier = graph.new_quantifier(qtype, inner)
            ctx = make_ctx(compiler.functions)
            ctx.bind_subplans(
                [SubplanBinding(quantifier, _Rows(rows), correlation)])
            return quantifier, ctx

        return compiler, q, bound

    # a <op> <quantified> x over the subquery rows (1,), (NULL,), (3,)
    @pytest.mark.parametrize("qtype,a,expected", [
        ("E", 3, True), ("E", 2, None), ("E", None, None),
        ("A", 3, False), ("A", 2, False),
        ("NE", 3, False), ("NE", 2, None),
        ("MAJORITY", 3, False),
    ])
    def test_quantified_comparison_over_null_bearing_rows(
            self, sub, qtype, a, expected):
        compiler, q, bound = sub
        sq, ctx = bound(qtype, [(1,), (None,), (3,)])
        expr = qe.BinOp("=", col(q, "a"), col(sq, "x"), BOOLEAN)
        assert compiler.compile(expr, True)({q: (a, "", 0.0)}, ctx) \
            is expected

    def test_all_and_majority_on_clean_rows(self, sub):
        compiler, q, bound = sub
        for qtype, a, expected in (("A", 9, True), ("A", 2, False),
                                   ("MAJORITY", 3, True),
                                   ("MAJORITY", 1, False)):
            sq, ctx = bound(qtype, [(1,), (2,), (3,)])
            expr = qe.BinOp(">=", col(q, "a"), col(sq, "x"), BOOLEAN)
            assert compiler.compile(expr, True)({q: (a, "", 0.0)}, ctx) \
                is expected, (qtype, a)

    def test_bound_quantifier_means_one_inner_row(self, sub):
        compiler, q, bound = sub
        sq, ctx = bound("E", [(1,), (3,)])
        compiled = compiler.compile(
            qe.BinOp("=", col(q, "a"), col(sq, "x"), BOOLEAN), True)
        # A SubqueryJoin binds the inner row itself: no fold, no run.
        assert compiled({q: (3, "", 0.0), sq: (1,)}, ctx) is False
        assert ctx.stats.subquery_evaluations == 0

    def test_fold_happens_at_the_smallest_boolean_leaf(self, sub):
        compiler, q, bound = sub
        sq, ctx = bound("E", [(1,), (3,)])
        left = qe.BinOp("=", col(q, "a"), qe.Const(5, INTEGER), BOOLEAN)
        right = qe.BinOp("=", col(q, "a"), col(sq, "x"), BOOLEAN)
        compiled = compiler.compile(qe.BinOp("or", left, right, BOOLEAN))
        assert compiled({q: (5, "", 0.0)}, ctx) is True
        assert ctx.stats.subquery_evaluations == 0  # the OR operator
        assert ctx.stats.or_branch_shortcuts == 1
        assert compiled({q: (3, "", 0.0)}, ctx) is True
        assert ctx.stats.subquery_evaluations == 1

    def test_fold_is_by_position(self, sub):
        # The quantifier folds at the CASE condition; the CASE itself is
        # a value (an assignment, a key) and is never combined.
        compiler, q, bound = sub
        sq, ctx = bound("E", [(1,), (3,)])
        member = qe.BinOp("=", col(q, "a"), col(sq, "x"), BOOLEAN)
        case = qe.CaseOp([(member, qe.Const(10, INTEGER))],
                         qe.Const(20, INTEGER), INTEGER)
        compiled = compiler.compile(case)
        assert [compiled({q: (a, "", 0.0)}, ctx) for a in (3, 2)] == [10, 20]
        # In a value position nothing folds at the root ...
        with pytest.raises(ExecutionError, match="unbound iterator"):
            compiler.compile(
                qe.BinOp("=", col(q, "a"), col(sq, "x"), BOOLEAN))(
                    {q: (3, "", 0.0)}, ctx)
        # ... and a boolean position holds the fold to a truth value.
        with pytest.raises(ExecutionError, match="non-boolean"):
            compiler.compile(
                qe.BinOp("+", col(q, "a"), col(sq, "x"), INTEGER), True)(
                    {q: (3, "", 0.0)}, ctx)

    def test_exists_and_not_exists(self, sub):
        compiler, q, bound = sub
        for qtype, rows, expected in (("E", [(1,)], True), ("E", [], False),
                                      ("NE", [(1,)], False),
                                      ("NE", [], True)):
            sq, ctx = bound(qtype, rows)
            compiled = compiler.compile(qe.ExistsTest(sq), True)
            assert compiled({}, ctx) is expected, (qtype, rows)

    def test_scalar_subquery_zero_one_two_rows(self, sub):
        compiler, q, bound = sub
        for rows, expected in (([], None), ([(4,)], 5)):
            sq, ctx = bound("S", rows)
            expr = qe.BinOp("+", col(sq, "x"), qe.Const(1, INTEGER), INTEGER)
            assert compiler.compile(expr)({}, ctx) == expected
        sq, ctx = bound("S", [(4,), (5,)])
        with pytest.raises(SubqueryError):
            compiler.compile(col(sq, "x"))({}, ctx)

    def test_unbound_subquery_quantifier_raises(self, sub):
        compiler, q, bound = sub
        sq, _ctx = bound("S", [])
        with pytest.raises(ExecutionError):
            compiler.compile(col(sq, "x"))({}, make_ctx(compiler.functions))

    @pytest.mark.parametrize("cache", [True, False])
    def test_correlation_cache_counters(self, sub, cache):
        compiler, q, bound = sub
        key = col(q, "a")
        sq, ctx = bound("S", lambda env: [(env[q][0] * 10,)], [key])
        ctx.cache_subqueries = cache
        compiled = compiler.compile(col(sq, "x"))
        values = [compiled({q: (a, "", 0.0)}, ctx) for a in (1, 2, 1, 1)]
        assert values == [10, 20, 10, 10]
        assert ctx.stats.subquery_evaluations == (2 if cache else 4)
        assert ctx.stats.subquery_cache_hits == (2 if cache else 0)

    def test_unhashable_correlation_value_is_not_cached(self, sub):
        compiler, q, bound = sub
        sq, ctx = bound("S", [(1,)], [col(q, "a")])
        compiled = compiler.compile(col(sq, "x"))
        for _ in range(2):
            assert compiled({q: ([1, 2], "", 0.0)}, ctx) == 1
        assert ctx.stats.subquery_evaluations == 2
        assert ctx.stats.subquery_cache_hits == 0
        assert ctx.subquery_cache == {}


class TestEveryExpressionCompiles:
    def test_aggregate_outside_group_by_raises_per_row(self, setup):
        compiler, _oracle, q = setup
        compiled = compiler.compile(
            qe.AggCall("sum", col(q, "a"), False, INTEGER))
        with pytest.raises(ExecutionError):
            compiled({q: (1, "", 0.0)}, make_ctx(compiler.functions))

    def test_unknown_function_raises_per_row(self, setup):
        compiler, _oracle, _q = setup
        compiled = compiler.compile(qe.FuncCall("nope", [], None))
        with pytest.raises(ExecutionError):
            compiled({}, make_ctx(compiler.functions))

    def test_closure_is_kept_on_the_expression(self, setup):
        compiler, _oracle, q = setup
        expr = qe.BinOp("+", col(q, "a"), qe.Const(1, INTEGER), INTEGER)
        first = compiler.compile(expr)
        assert expr.closure is first
        assert compiler.compile(expr) is first
        assert compiler.compiled_count == 1


class TestRefinePlan:
    def test_refinement_attaches_closures(self, emp_db):
        compiled = emp_db.compile(
            "SELECT name, salary + 1 FROM emp WHERE salary > 80 "
            "AND dept LIKE 'e%'")
        assert compiled.refiner.compiled_count >= 3  # 2 preds + 2 heads
        scan = next(n for n in compiled.plan.walk()
                    if n.op_name in ("SCAN", "ISCAN"))
        assert scan.preds
        assert all(p.expr.closure is not None for p in scan.preds)

    def test_subquery_predicates_compile(self, emp_db):
        compiled = emp_db.compile(
            "SELECT name FROM emp WHERE dept = 'hr' OR salary = "
            "(SELECT max(salary) FROM emp)")
        owner = next(n for n in compiled.plan.walk()
                     if getattr(n, "subplans", None))
        assert all(p.expr.closure is not None for p in owner.preds)
        result = emp_db.run_compiled(compiled)
        assert sorted(result.rows) == [("alice",), ("frank",)]


def _evaluated_expressions(node):
    """The expressions the executor evaluates for a plan node, listed
    attribute by attribute — deliberately not refinement's own
    enumerator, so an attribute it overlooks fails here."""
    for attr in ("preds", "residual"):
        for predicate in getattr(node, attr, ()):
            yield predicate.expr
    for attr in ("exprs", "group_exprs", "outer_keys", "inner_keys",
                 "eq_exprs", "scalar_args", "prune_exprs"):
        yield from getattr(node, attr, ())
    for agg in getattr(node, "aggregates", ()):
        if agg.arg is not None:
            yield agg.arg
    if isinstance(node, pl.Sort):
        for expr, _ascending in node.keys:
            yield expr
    if getattr(node, "range_bounds", None) is not None:
        low, _low_inc, high, _high_inc = node.range_bounds
        yield from (bound for bound in (low, high) if bound is not None)
    for row in getattr(node, "literal_rows", None) or ():
        yield from row
    for _name, expr in getattr(node, "assignments", ()):
        yield expr
    for binding in getattr(node, "subplans", ()):
        yield from binding.correlation


def _assert_total(db, sql, options=None):
    compiled = db.compile(sql, options=options)
    found = 0
    for node in compiled.plan.walk():
        for expr in _evaluated_expressions(node):
            assert expr.closure is not None, (sql, node.describe(), expr)
            found += 1
    return found


class TestRefinementIsTotal:
    """After refinement every expression of every plan node carries its
    closure: nothing is left to compile at open, whatever the statement."""

    OPTIONS = [None,
               CompileOptions(rewrite_enabled=False),
               CompileOptions(forced_join_method="merge"),
               CompileOptions(parallelism="on", dop=2)]

    def test_differential_corpus(self):
        found = 0
        for seed in range(50):
            rng = random.Random(seed)
            schema = generate_schema(rng)
            db = build_database(schema)
            generator = QueryGenerator(rng, schema)
            try:
                for _ in range(4):
                    sql = generator.generate().render()
                    for options in self.OPTIONS:
                        try:
                            found += _assert_total(db, sql, options)
                        except SemanticError:
                            break  # the generator also emits rejects
            finally:
                db.close()
        assert found > 2000

    def test_subquery_statements(self, emp_db):
        emp_db.register_set_predicate("majority", _majority)
        source = (Path(__file__).parents[1] / "integration"
                  / "test_subqueries.py").read_text()
        statements = [node.value for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.startswith("SELECT ")]
        assert len(statements) >= 20
        for sql in statements:
            assert _assert_total(emp_db, sql) > 0

    def test_dml_and_table_functions(self, emp_db):
        for sql in (
                "INSERT INTO dept VALUES ('ops', 100.0 + 1, lower('X'))",
                "UPDATE emp SET salary = salary * 1.1 WHERE dept = "
                "(SELECT max(dname) FROM dept)",
                "DELETE FROM emp WHERE id = 3",
                "SELECT name FROM emp WHERE id = 2 + 1",
                "SELECT name FROM emp WHERE id BETWEEN 2 AND 1 + 3",
                "SELECT * FROM series(1, 2 + 3)"):
            assert _assert_total(emp_db, sql) > 0


# ---------------------------------------------------------------------------
# Scalar closures vs generated source (the fused backend's form)
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


def _generate(shape, exprs):
    """``f(row, params)`` over ``_Q``'s row, generated the way a fused
    pipeline inlines expressions: ``"rows"`` returns ``[values]``,
    ``"select"`` returns ``[0]`` when every predicate is True, else
    ``[]``."""
    gen = ExprGen(lambda quantifier, position: "row[%d]" % position,
                  _FUNCTIONS)
    if shape == "select":
        result = "[0] if %s else []" % " and ".join(
            gen.cond(expr) for expr in exprs)
    else:
        result = "[%s]" % gen.tuple_of(exprs)
    lines = ["def _p(H):"]
    lines.extend("    " + line for line in gen.bind_hoisted("H"))
    lines.append("    def f(row, params):")
    lines.extend("        " + line for line in gen.bind_params())
    lines.append("        return " + result)
    lines.append("    return f")
    factory, _shared = materialize("\n".join(lines) + "\n")
    return factory(tuple(gen.hoisted))


class TestGeneratedSourceAgreesWithClosures:
    """The scalar closure (tuple backend) and the generated source (fused
    backend) must agree on the value, on the class of a raised
    error, and on which operands were *not* evaluated — the right sides
    of AND/OR, untaken CASE branches, operands behind a NULL."""

    @given(expr=st.one_of(_numeric(), _boolean()), row=_rows, params=_params)
    @settings(max_examples=300, deadline=None)
    def test_value_form(self, expr, row, params):
        closure = ExprCompiler(_FUNCTIONS).compile(expr)
        generated = _generate("rows", [expr])
        ctx = make_ctx(_FUNCTIONS, params)
        expected = _outcome(lambda: closure({_Q: row}, ctx))
        got = _outcome(
            lambda: generated(row, params)[0][0])
        assert got == expected

    @given(expr=_boolean(), row=_rows, params=_params)
    @settings(max_examples=300, deadline=None)
    def test_predicate_form(self, expr, row, params):
        closure = ExprCompiler(_FUNCTIONS).compile(expr)
        select = _generate("select", [expr])
        ctx = make_ctx(_FUNCTIONS, params)
        expected = _outcome(lambda: closure({_Q: row}, ctx) is True)
        got = _outcome(
            lambda: select(row, params) == [0])
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
        row = (None, 0, None, None)
        guarded = _generate("rows", [qe.BinOp(
            "and", qe.Const(False, BOOLEAN), boom, BOOLEAN)])
        assert _outcome(lambda: guarded(row, ())) == (
            (list, [(False,)]), [])
        exposed = _generate("select", [qe.BinOp(
            "and", unknown, unlucky, BOOLEAN)])
        assert _outcome(lambda: exposed(row, ())) == (
            ExecutionError, [2])


def test_auto_compile_that_stays_on_tuple_generates_nothing():
    db = Database()
    db.execute("CREATE TABLE five (n INTEGER, tag VARCHAR(4))")
    db.execute("INSERT INTO five VALUES (1, 'a'), (2, 'b'), (3, 'c'), "
               "(4, 'd'), (5, 'e')")
    db.analyze()
    before = db.cache_stats()["codegen"]
    # DELETE and its input have no fused form: the plan stays on the
    # interpreter, whose closures evaluate the predicate.
    compiled = db.compile(
        "DELETE FROM five WHERE n % 2 = 1 AND upper(tag) <> 'Z'",
        options=CompileOptions(execution_mode="auto", plan_cache=False))
    assert all(node.exec_backend == "tuple" for node in compiled.plan.walk())
    assert db.cache_stats()["codegen"] == before
    assert db.run_compiled(compiled).rowcount == 3
    assert sorted(db.execute("SELECT n FROM five").rows) == [(2,), (4,)]
