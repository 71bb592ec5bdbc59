"""Property test: the expression compiler agrees with the reference
oracle's expression evaluator on randomly generated expression trees and
rows — values, and whether (not how) an evaluation fails."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import ColumnDef, TableDef
from repro.datatypes import BOOLEAN, DOUBLE, INTEGER, VARCHAR
from repro.errors import ReproError
from repro.executor.compiled import ExprCompiler
from repro.executor.context import ExecutionContext
from repro.functions import FunctionRegistry, register_builtins
from repro.qgm import expressions as qe
from repro.qgm.model import QGM
from repro.testkit.oracle import ReferenceOracle

_GRAPH = QGM()
_TABLE = TableDef("t", [ColumnDef("a", INTEGER), ColumnDef("b", INTEGER),
                        ColumnDef("s", VARCHAR)])
_Q = _GRAPH.new_quantifier("F", _GRAPH.base_table(_TABLE))
_FUNCTIONS = register_builtins(FunctionRegistry())


def leaf_exprs():
    # Zero and a division by it are drawn often: an operand that raises
    # must stay unevaluated behind a NULL left operand on both sides
    # (``NULL = 1 / 0`` is NULL), and raise on both sides everywhere else.
    return st.one_of(
        st.integers(-50, 50).map(lambda v: qe.Const(v, INTEGER)),
        st.just(qe.Const(0, INTEGER)),
        st.sampled_from(["/", "%"]).map(lambda op: qe.BinOp(
            op, qe.Const(1, INTEGER), qe.Const(0, INTEGER), INTEGER)),
        st.just(qe.Const(None, None)),
        st.just(qe.ColRef(_Q, "a", INTEGER)),
        st.just(qe.ColRef(_Q, "b", INTEGER)),
    )


def numeric_exprs(depth=2):
    if depth == 0:
        return leaf_exprs()
    sub = numeric_exprs(depth - 1)
    return st.one_of(
        leaf_exprs(),
        st.tuples(st.sampled_from(["+", "-", "*", "/", "%"]), sub, sub).map(
            lambda t: qe.BinOp(t[0], t[1], t[2], INTEGER)),
        sub.map(lambda e: qe.Neg(e, INTEGER)),
    )


def bool_exprs(depth=2):
    comparison = st.tuples(
        st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        numeric_exprs(1), numeric_exprs(1)).map(
        lambda t: qe.BinOp(t[0], t[1], t[2], BOOLEAN))
    if depth == 0:
        return comparison
    sub = bool_exprs(depth - 1)
    return st.one_of(
        comparison,
        st.tuples(st.sampled_from(["and", "or"]), sub, sub).map(
            lambda t: qe.BinOp(t[0], t[1], t[2], BOOLEAN)),
        sub.map(qe.Not),
        numeric_exprs(1).map(qe.IsNullTest),
    )


rows = st.tuples(
    st.one_of(st.none(), st.integers(-50, 50)),
    st.one_of(st.none(), st.just(0), st.integers(-50, 50)),
    st.sampled_from(["x", "y"]),
)


class TestCompilerAgreement:
    @given(expr=numeric_exprs(), row=rows)
    @settings(max_examples=200, deadline=None)
    def test_numeric(self, expr, row):
        self._check(expr, row, boolean=False)

    @given(expr=bool_exprs(), row=rows)
    @settings(max_examples=200, deadline=None)
    def test_boolean(self, expr, row):
        self._check(expr, row, boolean=True)

    @staticmethod
    def _check(expr, row, boolean):
        ctx = ExecutionContext(engine=None, functions=_FUNCTIONS)
        oracle = ReferenceOracle(SimpleNamespace(functions=_FUNCTIONS))
        compiled = ExprCompiler(_FUNCTIONS).compile(expr)
        env = {_Q: row}
        try:
            reference = (oracle._eval_bool(expr, env) if boolean
                         else oracle._eval(expr, env))
            reference_error = None
        except ReproError as exc:
            reference, reference_error = None, type(exc)
        try:
            fast = compiled(env, ctx)
            fast_error = None
        except ReproError as exc:
            fast, fast_error = None, type(exc)
        assert reference_error == fast_error
        if reference_error is None:
            assert fast == reference
