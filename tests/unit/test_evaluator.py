"""Unit tests for expression evaluation: 3VL, LIKE, CASE, functions.

Every operator — built-in or registered by a DBC — evaluates an
expression through its closure (``repro.executor.compiled.closure``),
so these cases pin the engine's one scalar evaluator directly.
"""

import pytest

from repro.catalog import Catalog, ColumnDef, TableDef
from repro.datatypes import BOOLEAN, DOUBLE, INTEGER, VARCHAR
from repro.errors import ExecutionError
from repro.executor.compiled import (
    closure,
    kleene_and,
    kleene_not,
    kleene_or,
)
from repro.executor.context import ExecutionContext
from repro.functions import FunctionRegistry, register_builtins
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
    ctx = ExecutionContext(engine=None, functions=functions,
                           params=(41, "hello"))
    return ctx, quantifier


def value(ctx, expr, env):
    return closure(expr, ctx.functions)(env, ctx)


def truth(ctx, expr, env):
    """Three-valued evaluation in a boolean (predicate) position."""
    return closure(expr, ctx.functions, True)(env, ctx)


def col(quantifier, name, dtype=INTEGER):
    return qe.ColRef(quantifier, name, dtype)


class TestKleene:
    def test_and(self):
        assert kleene_and(True, True) is True
        assert kleene_and(True, None) is None
        assert kleene_and(False, None) is False
        assert kleene_and(None, None) is None

    def test_or(self):
        assert kleene_or(False, False) is False
        assert kleene_or(False, None) is None
        assert kleene_or(True, None) is True

    def test_not(self):
        assert kleene_not(True) is False
        assert kleene_not(None) is None


class TestEval:
    def test_colref(self, setup):
        ctx, q = setup
        env = {q: (7, "x", 1.5)}
        assert value(ctx, col(q, "a"), env) == 7
        assert value(ctx, col(q, "c", DOUBLE), env) == 1.5

    def test_null_padded_row(self, setup):
        ctx, q = setup
        assert value(ctx, col(q, "a"), {q: None}) is None

    def test_unbound_raises(self, setup):
        ctx, q = setup
        with pytest.raises(ExecutionError):
            value(ctx, col(q, "a"), {})

    def test_arithmetic(self, setup):
        ctx, q = setup
        env = {q: (10, "x", 4.0)}
        expr = qe.BinOp("+", col(q, "a"), qe.Const(5, INTEGER), INTEGER)
        assert value(ctx, expr, env) == 15
        assert value(
            ctx, qe.BinOp("/", col(q, "a"), qe.Const(4, INTEGER), DOUBLE),
            env) == 2.5
        assert value(
            ctx, qe.BinOp("%", col(q, "a"), qe.Const(3, INTEGER), INTEGER),
            env) == 1

    def test_null_propagation(self, setup):
        ctx, q = setup
        env = {q: (None, None, None)}
        plus = qe.BinOp("+", col(q, "a"), qe.Const(1, INTEGER), INTEGER)
        assert value(ctx, plus, env) is None
        compare = qe.BinOp("=", col(q, "a"), qe.Const(1, INTEGER), BOOLEAN)
        assert value(ctx, compare, env) is None

    def test_division_by_zero(self, setup):
        ctx, q = setup
        expr = qe.BinOp("/", qe.Const(1, INTEGER), qe.Const(0, INTEGER),
                        DOUBLE)
        with pytest.raises(ExecutionError):
            value(ctx, expr, {})

    def test_comparisons(self, setup):
        ctx, q = setup
        env = {q: (10, "abc", 1.0)}
        for op, expected in [("=", False), ("<>", True), ("<", True),
                             ("<=", True), (">", False), (">=", False)]:
            expr = qe.BinOp(op, col(q, "a"), qe.Const(20, INTEGER), BOOLEAN)
            assert value(ctx, expr, env) is expected

    def test_concat(self, setup):
        ctx, q = setup
        expr = qe.BinOp("||", qe.Const("a", VARCHAR), qe.Const("b", VARCHAR),
                        VARCHAR)
        assert value(ctx, expr, {}) == "ab"

    def test_params(self, setup):
        ctx, _q = setup
        assert value(ctx, qe.ParamRef(0, None, INTEGER), {}) == 41
        assert value(ctx, qe.ParamRef(1, None, VARCHAR), {}) == "hello"
        with pytest.raises(ExecutionError):
            value(ctx, qe.ParamRef(5, None, None), {})

    def test_is_null(self, setup):
        ctx, q = setup
        env = {q: (None, "x", 1.0)}
        assert value(ctx, qe.IsNullTest(col(q, "a")), env) is True
        assert value(ctx, qe.IsNullTest(col(q, "a"), negated=True),
                     env) is False

    def test_like(self, setup):
        ctx, _q = setup

        def like(text, pattern, negated=False):
            return value(ctx, qe.LikeOp(
                qe.Const(text, VARCHAR), qe.Const(pattern, VARCHAR),
                negated), {})

        assert like("hello", "h%") is True
        assert like("hello", "%llo") is True
        assert like("hello", "h_llo") is True
        assert like("hello", "H%") is False  # case sensitive
        assert like("hello", "hello") is True
        assert like("hello", "h") is False
        assert like("a.c", "a.c") is True
        assert like("abc", "a.c") is False  # dot is literal
        assert like("hello", "x%", negated=True) is True
        assert like(None, "%") is None

    def test_case(self, setup):
        ctx, q = setup
        expr = qe.CaseOp(
            whens=[(qe.BinOp(">", col(q, "a"), qe.Const(0, INTEGER), BOOLEAN),
                    qe.Const("pos", VARCHAR)),
                   (qe.BinOp("<", col(q, "a"), qe.Const(0, INTEGER), BOOLEAN),
                    qe.Const("neg", VARCHAR))],
            else_value=qe.Const("zero", VARCHAR), dtype=VARCHAR)
        assert value(ctx, expr, {q: (5, "", 0.0)}) == "pos"
        assert value(ctx, expr, {q: (-5, "", 0.0)}) == "neg"
        assert value(ctx, expr, {q: (0, "", 0.0)}) == "zero"
        no_else = qe.CaseOp(whens=expr.whens, else_value=None, dtype=VARCHAR)
        assert value(ctx, no_else, {q: (0, "", 0.0)}) is None

    def test_cast(self, setup):
        ctx, _q = setup
        assert value(ctx, qe.Cast(qe.Const("12", VARCHAR), INTEGER),
                     {}) == 12
        assert value(ctx, qe.Cast(qe.Const(3, INTEGER), VARCHAR),
                     {}) == "3"
        assert value(ctx, qe.Cast(qe.Const(None, None), INTEGER),
                     {}) is None
        with pytest.raises(ExecutionError):
            value(ctx, qe.Cast(qe.Const("nope", VARCHAR), INTEGER), {})

    def test_scalar_functions(self, setup):
        ctx, _q = setup
        expr = qe.FuncCall("upper", [qe.Const("abc", VARCHAR)], VARCHAR)
        assert value(ctx, expr, {}) == "ABC"
        with pytest.raises(ExecutionError):
            value(ctx, qe.FuncCall("nope", [], None), {})

    def test_neg(self, setup):
        ctx, q = setup
        assert value(ctx, qe.Neg(qe.Const(5, INTEGER), INTEGER), {}) == -5
        assert value(ctx, qe.Neg(col(q, "a"), INTEGER),
                     {q: (None, "", 0.0)}) is None


class TestEvalBool:
    def test_short_circuit_and(self, setup):
        ctx, _q = setup
        # right side would divide by zero; AND must short-circuit on False
        bad = qe.BinOp("=", qe.BinOp("/", qe.Const(1, INTEGER),
                                     qe.Const(0, INTEGER), DOUBLE),
                       qe.Const(1, INTEGER), BOOLEAN)
        expr = qe.BinOp("and", qe.Const(False, BOOLEAN), bad, BOOLEAN)
        assert truth(ctx, expr, {}) is False

    def test_short_circuit_or(self, setup):
        ctx, _q = setup
        bad = qe.BinOp("=", qe.BinOp("/", qe.Const(1, INTEGER),
                                     qe.Const(0, INTEGER), DOUBLE),
                       qe.Const(1, INTEGER), BOOLEAN)
        expr = qe.BinOp("or", qe.Const(True, BOOLEAN), bad, BOOLEAN)
        assert truth(ctx, expr, {}) is True
        assert ctx.stats.or_branch_shortcuts == 1

    def test_predicate_requires_true(self, setup):
        ctx, q = setup
        unknown = qe.BinOp("=", col(q, "a"), qe.Const(1, INTEGER), BOOLEAN)
        assert truth(ctx, unknown, {q: (None, "", 0.0)}) is not True
