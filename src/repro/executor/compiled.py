"""Plan refinement: compiling QEP expressions into Python closures.

Section 7 notes that the algebraic interface "can also serve as the input
specification to a component that compiles QEPs into iterative programs
[FREY86]".  This module is that component's expression half: the
*refinement* phase of Figure 1 walks the optimizer's plan and replaces
interpreted expression trees with composed Python closures — no AST
dispatch at run time.

Only subquery-free expressions compile (anything touching an unbound
quantifier of type E/A/S/... falls back to the interpreting
:class:`~repro.executor.evaluator.Evaluator`, which owns the
evaluate-on-demand machinery).  A compiled predicate is attached to its
:class:`~repro.qgm.model.Predicate` as ``compiled``; the stream operators
use it when present.

Closures have the signature ``f(env, params) -> value`` with SQL
three-valued semantics (None = unknown/NULL).

The source-emitting backends (batch and fused) do not use these closures:
:mod:`repro.executor.exprgen` generates Python source with the same
semantics, sharing :func:`invoker` and :func:`caster` so a function or
cast error is raised by the same code on every backend.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import DivisionByZeroError, ExecutionError
from repro.executor.evaluator import _like_regex, kleene_not
from repro.qgm import expressions as qe

Compiled = Callable[[Dict, Sequence[Any]], Any]


class ExprCompiler:
    """Compiles QGM expressions; returns None for non-compilable ones."""

    def __init__(self, functions):
        self.functions = functions
        self.compiled_count = 0
        self.fallback_count = 0

    def compile(self, expr: qe.QExpr) -> Optional[Compiled]:
        # Unbound subquery machinery needs the interpreting evaluator.
        for quantifier in qe.quantifiers_in(expr):
            if not quantifier.is_setformer:
                self.fallback_count += 1
                return None
        try:
            fn = self._compile(expr)
        except _NotCompilable:
            self.fallback_count += 1
            return None
        self.compiled_count += 1
        return fn

    # -- node compilers -------------------------------------------------------

    def _compile(self, expr: qe.QExpr) -> Compiled:
        method = getattr(self, "_c_%s" % type(expr).__name__.lower(), None)
        if method is None:
            raise _NotCompilable(type(expr).__name__)
        return method(expr)

    def _c_const(self, expr: qe.Const) -> Compiled:
        value = expr.value
        return lambda env, params: value

    def _c_paramref(self, expr: qe.ParamRef) -> Compiled:
        index = expr.index

        def get_param(env, params):
            try:
                return params[index]
            except IndexError:
                raise ExecutionError(
                    "no value bound for parameter %d" % (index + 1)
                ) from None

        return get_param

    def _c_colref(self, expr: qe.ColRef) -> Compiled:
        quantifier = expr.quantifier
        position = quantifier.input.head.index_of(expr.column)

        def get_column(env, params):
            row = env[quantifier]
            return None if row is None else row[position]

        return get_column

    _COMPARISONS = {
        "=": lambda a, b: a == b,
        "<>": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def _c_binop(self, expr: qe.BinOp) -> Compiled:
        left = self._compile(expr.left)
        right = self._compile(expr.right)
        op = expr.op
        if op == "and":
            def and_fn(env, params):
                a = left(env, params)
                if a is False:
                    return False
                b = right(env, params)
                if b is False:
                    return False
                if a is None or b is None:
                    return None
                return True
            return and_fn
        if op == "or":
            def or_fn(env, params):
                a = left(env, params)
                if a is True:
                    return True
                b = right(env, params)
                if b is True:
                    return True
                if a is None or b is None:
                    return None
                return False
            return or_fn
        if op in self._COMPARISONS:
            compare = self._COMPARISONS[op]

            def cmp_fn(env, params):
                a = left(env, params)
                if a is None:
                    return None
                b = right(env, params)
                if b is None:
                    return None
                return compare(a, b)
            return cmp_fn
        if op == "||":
            def concat(env, params):
                a = left(env, params)
                b = right(env, params)
                if a is None or b is None:
                    return None
                return str(a) + str(b)
            return concat
        if op in ("+", "-", "*"):
            arith = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                     "*": lambda a, b: a * b}[op]

            def arith_fn(env, params):
                a = left(env, params)
                if a is None:
                    return None
                b = right(env, params)
                if b is None:
                    return None
                return arith(a, b)
            return arith_fn
        if op in ("/", "%"):
            is_div = op == "/"

            def div_fn(env, params):
                a = left(env, params)
                if a is None:
                    return None
                b = right(env, params)
                if b is None:
                    return None
                if b == 0:
                    raise DivisionByZeroError("division by zero")
                return a / b if is_div else a % b
            return div_fn
        raise _NotCompilable(op)

    def _c_not(self, expr: qe.Not) -> Compiled:
        operand = self._compile(expr.operand)
        return lambda env, params: kleene_not(operand(env, params))

    def _c_neg(self, expr: qe.Neg) -> Compiled:
        operand = self._compile(expr.operand)

        def neg(env, params):
            value = operand(env, params)
            return None if value is None else -value

        return neg

    def _c_isnulltest(self, expr: qe.IsNullTest) -> Compiled:
        operand = self._compile(expr.operand)
        negated = expr.negated

        def test(env, params):
            is_null = operand(env, params) is None
            return (not is_null) if negated else is_null

        return test

    def _c_likeop(self, expr: qe.LikeOp) -> Compiled:
        operand = self._compile(expr.operand)
        negated = expr.negated
        if isinstance(expr.pattern, qe.Const) and expr.pattern.value is not None:
            regex = _like_regex(expr.pattern.value)

            def like_const(env, params):
                value = operand(env, params)
                if value is None:
                    return None
                matched = regex.match(value) is not None
                return (not matched) if negated else matched
            return like_const
        pattern = self._compile(expr.pattern)

        def like_dynamic(env, params):
            value = operand(env, params)
            pat = pattern(env, params)
            if value is None or pat is None:
                return None
            matched = _like_regex(pat).match(value) is not None
            return (not matched) if negated else matched

        return like_dynamic

    def _c_funccall(self, expr: qe.FuncCall) -> Compiled:
        function = self.functions.scalar(expr.name)
        if function is None:
            raise _NotCompilable(expr.name)
        invoke = invoker(function)
        args = [self._compile(a) for a in expr.args]
        return lambda env, params: invoke([a(env, params) for a in args])

    def _c_caseop(self, expr: qe.CaseOp) -> Compiled:
        whens = [(self._compile(c), self._compile(v))
                 for c, v in expr.whens]
        else_fn = (self._compile(expr.else_value)
                   if expr.else_value is not None else None)

        def case(env, params):
            for condition, value in whens:
                if condition(env, params) is True:
                    return value(env, params)
            return else_fn(env, params) if else_fn is not None else None

        return case

    def _c_cast(self, expr: qe.Cast) -> Compiled:
        operand = self._compile(expr.operand)
        cast = caster(expr.dtype)

        def cast_fn(env, params):
            value = operand(env, params)
            return None if value is None else cast(value)

        return cast_fn


def invoker(function) -> Callable[[List[Any]], Any]:
    """``call(values)`` for one registered scalar function: anything it
    raises besides an :class:`ExecutionError` is wrapped into one."""
    invoke = function.invoke
    name = function.name

    def call(values):
        try:
            return invoke(values)
        except ExecutionError:
            raise
        except Exception as exc:
            raise ExecutionError(
                "function %s failed: %s" % (name, exc)) from exc

    return call


def caster(target) -> Callable[[Any], Any]:
    """``cast(value)`` of a non-NULL value to the ``target`` data type."""
    convert = {"INTEGER": int, "DOUBLE": float, "VARCHAR": str,
               "BOOLEAN": bool}.get(target.name)

    def cast(value):
        if convert is not None:
            try:
                return convert(value)
            except (TypeError, ValueError) as exc:
                raise ExecutionError("bad cast: %s" % exc) from exc
        if target.validate(value):
            return value
        raise ExecutionError("cannot cast %r to %s" % (value, target.name))

    return cast


class _NotCompilable(Exception):
    """Internal: the expression needs the interpreting evaluator."""


def refine_plan(plan, functions) -> ExprCompiler:
    """The plan-refinement phase: compile every compilable predicate and
    head expression in the plan, in place.

    Returns the compiler (whose counters EXPLAIN and benchmarks report).
    """
    compiler = ExprCompiler(functions)
    for node in plan.walk():
        for attr in ("preds", "matched_preds", "residual"):
            for predicate in getattr(node, attr, []) or []:
                if getattr(predicate, "compiled", None) is None:
                    predicate.compiled = compiler.compile(predicate.expr)
        if hasattr(node, "exprs"):  # Project
            node.compiled_exprs = [compiler.compile(e) for e in node.exprs]
    return compiler
