"""Plan refinement: compiling QEP expressions into Python closures.

Section 7 notes that the algebraic interface "can also serve as the input
specification to a component that compiles QEPs into iterative programs
[FREY86]".  This module is that component's expression half: the
*refinement* phase of Figure 1 compiles every expression a plan node
evaluates into composed closures ``f(env, ctx) -> value`` with SQL
three-valued semantics (None = unknown/NULL).  ``env`` maps quantifiers
to their current rows; the execution context carries parameters, counters
and subquery bindings, and is passed rather than captured because a
compiled plan is cached and shared across sessions and forked workers.
The closures are the engine's only scalar evaluator besides the source
:mod:`repro.executor.exprgen` generates for the fused backend.

A subquery quantifier that is not bound in ``env`` is evaluated on
demand (one that is — a SubqueryJoin binds one inner row at a time —
reads like any other iterator):

- scalar (S) quantifiers where their column is read — at most one row,
  NULLs when empty — with correlation-value caching,
- existential/universal/DBC quantifiers at the boolean leaf (the operand
  of AND/OR/NOT, the CASE condition, the predicate or head) that
  references them: the leaf is evaluated per subquery row and the
  outcomes are folded with the quantifier type's combinator (ANY, ALL,
  NOT EXISTS, MAJORITY, ...).  This gives the OR operator of section 7
  for free: in ``a = 5 OR b = (subquery)`` the subquery only runs when
  the left arm does not decide.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import DivisionByZeroError, ExecutionError, SubqueryError
from repro.executor.kinds import _combine_not_exists
from repro.functions.builtins import combine_all, combine_any
from repro.optimizer.plans import Project, SubplanBinding
from repro.qgm import expressions as qe
from repro.qgm.model import Predicate

Env = Dict[Any, Any]
Compiled = Callable[[Env, Any], Any]


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> "re.Pattern":
    """Compile a SQL LIKE pattern (%, _) to a regex."""
    wild = {"%": ".*", "_": "."}
    return re.compile(
        "^%s$" % "".join(wild.get(ch) or re.escape(ch) for ch in pattern),
        re.DOTALL)


def kleene_and(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def kleene_or(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def kleene_not(value: Optional[bool]) -> Optional[bool]:
    return None if value is None else (not value)


def _raising(message: str) -> Compiled:
    """The closure of a node that cannot be evaluated: the error belongs
    to the row that reaches it, not to the compile."""
    def fail(env, ctx):
        raise ExecutionError(message)
    return fail


class ExprCompiler:
    """Compiles QGM expressions to closures; every expression compiles."""

    def __init__(self, functions):
        self.functions = functions
        #: Expressions this compiler compiled (memo hits do not count).
        self.compiled_count = 0

    def compile(self, expr: qe.QExpr, boolean: bool = False) -> Compiled:
        """The closure kept on ``expr``'s root, compiled now if there is
        none, for the position ``expr`` sits in: ``boolean`` for a predicate
        or a head, a value anywhere else (a key, an assignment, a bound)."""
        fn = expr.closure
        if fn is None:
            build = self._compile_bool if boolean else self._compile
            fn = expr.closure = build(expr)
            self.compiled_count += 1
        return fn

    # -- node compilers -------------------------------------------------------

    def _compile(self, expr: qe.QExpr) -> Compiled:
        method = getattr(self, "_c_%s" % type(expr).__name__.lower(), None)
        if method is None:
            return _raising("cannot evaluate %s" % type(expr).__name__)
        return method(expr)

    def _compile_bool(self, expr: qe.QExpr) -> Compiled:
        """``expr`` in a boolean position: AND/OR/NOT recurse into their
        operands, any other node is a boolean leaf, and a leaf that
        references existential/universal/DBC quantifiers is folded over
        their rows.  A CASE's WHEN conditions are boolean positions of
        their own (``_c_caseop``), so only its result arms fold here."""
        leaf = self._compile(expr)
        if isinstance(expr, qe.Not) or (
                isinstance(expr, qe.BinOp) and expr.op in ("and", "or")):
            return leaf
        quantified = sorted(
            (q for q in qe.fold_scope(expr)
             if not q.is_setformer and q.qtype != "S"),
            key=lambda q: q.uid)
        if not quantified:
            return leaf

        def fold(env, ctx, start=0):
            # Quantifiers combine in uid order; one bound in ``env``
            # means we are looking at one inner row already.
            for index in range(start, len(quantified)):
                quantifier = quantified[index]
                binding = ctx.subplan_bindings.get(quantifier)
                if quantifier in env or binding is None:
                    continue
                combine = _combinator(quantifier.qtype, ctx.functions)
                return combine(
                    fold({**env, quantifier: row}, ctx, index + 1)
                    for row in subquery_rows(binding, env, ctx))
            value = leaf(env, ctx)
            if value is None or value is True or value is False:
                return value
            raise ExecutionError(
                "predicate produced non-boolean %r" % (value,))

        return fold

    def _c_const(self, expr: qe.Const) -> Compiled:
        value = expr.value
        return lambda env, ctx: value

    def _c_paramref(self, expr: qe.ParamRef) -> Compiled:
        index = expr.index

        def get_param(env, ctx):
            try:
                return ctx.params[index]
            except IndexError:
                raise ExecutionError(
                    "no value bound for parameter %d" % (index + 1)
                ) from None

        return get_param

    def _c_colref(self, expr: qe.ColRef) -> Compiled:
        quantifier = expr.quantifier
        position = quantifier.input.head.index_of(expr.column)
        unbound = "unbound iterator %s in expression" % quantifier.name
        if quantifier.is_setformer:
            def get_column(env, ctx):
                try:
                    row = env[quantifier]
                except KeyError:
                    raise ExecutionError(unbound) from None
                return None if row is None else row[position]

            return get_column
        scalar = quantifier.qtype == "S"

        def get_subquery_column(env, ctx):
            row = env.get(quantifier)
            if row is None and quantifier not in env:
                binding = (ctx.subplan_bindings.get(quantifier)
                           if scalar else None)
                if binding is None:
                    raise ExecutionError(unbound)
                row = scalar_subquery_row(binding, env, ctx)
            return None if row is None else row[position]

        return get_subquery_column

    #: Comparisons and arithmetic: NULL on a NULL left operand without
    #: evaluating the right one, NULL on a NULL right operand.
    _STRICT = {
        "=": operator.eq, "<>": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "%": operator.mod,
    }

    def _c_binop(self, expr: qe.BinOp) -> Compiled:
        op = expr.op
        if op in ("and", "or"):
            left = self._compile_bool(expr.left)
            right = self._compile_bool(expr.right)
            if op == "and":
                def and_fn(env, ctx):
                    a = left(env, ctx)
                    if a is False:
                        return False
                    b = right(env, ctx)
                    return b if a is True or b is False else None
                return and_fn

            def or_fn(env, ctx):
                a = left(env, ctx)
                if a is True:
                    ctx.stats.or_branch_shortcuts += 1
                    return True
                b = right(env, ctx)
                return b if a is False or b is True else None
            return or_fn
        left = self._compile(expr.left)
        right = self._compile(expr.right)
        if op == "||":
            def concat(env, ctx):
                a = left(env, ctx)
                b = right(env, ctx)
                if a is None or b is None:
                    return None
                return str(a) + str(b)
            return concat
        apply = self._STRICT.get(op)
        if apply is None:
            return _raising("unknown operator %s" % op)
        divides = op in ("/", "%")

        def strict_fn(env, ctx):
            a = left(env, ctx)
            if a is None:
                return None
            b = right(env, ctx)
            if b is None:
                return None
            if divides and b == 0:
                raise DivisionByZeroError("division by zero")
            return apply(a, b)
        return strict_fn

    def _c_not(self, expr: qe.Not) -> Compiled:
        operand = self._compile_bool(expr.operand)
        return lambda env, ctx: kleene_not(operand(env, ctx))

    def _c_neg(self, expr: qe.Neg) -> Compiled:
        operand = self._compile(expr.operand)

        def neg(env, ctx):
            value = operand(env, ctx)
            return None if value is None else -value

        return neg

    def _c_isnulltest(self, expr: qe.IsNullTest) -> Compiled:
        operand = self._compile(expr.operand)
        negated = expr.negated

        def test(env, ctx):
            is_null = operand(env, ctx) is None
            return (not is_null) if negated else is_null

        return test

    def _c_likeop(self, expr: qe.LikeOp) -> Compiled:
        operand = self._compile(expr.operand)
        negated = expr.negated
        if isinstance(expr.pattern, qe.Const) and expr.pattern.value is not None:
            regex = _like_regex(expr.pattern.value)

            def like_const(env, ctx):
                value = operand(env, ctx)
                if value is None:
                    return None
                matched = regex.match(value) is not None
                return (not matched) if negated else matched
            return like_const
        pattern = self._compile(expr.pattern)

        def like_dynamic(env, ctx):
            value = operand(env, ctx)
            pat = pattern(env, ctx)
            if value is None or pat is None:
                return None
            matched = _like_regex(pat).match(value) is not None
            return (not matched) if negated else matched

        return like_dynamic

    def _c_funccall(self, expr: qe.FuncCall) -> Compiled:
        function = self.functions.scalar(expr.name)
        if function is None:
            return _raising("unknown function %s" % expr.name)
        invoke = invoker(function)
        args = [self._compile(a) for a in expr.args]
        return lambda env, ctx: invoke([a(env, ctx) for a in args])

    def _c_aggcall(self, expr: qe.AggCall) -> Compiled:
        return _raising(
            "aggregate %s evaluated outside GROUP BY" % expr.name)

    def _c_caseop(self, expr: qe.CaseOp) -> Compiled:
        whens = [(self._compile_bool(c), self._compile(v))
                 for c, v in expr.whens]
        else_fn = (self._compile(expr.else_value)
                   if expr.else_value is not None else None)

        def case(env, ctx):
            for condition, value in whens:
                if condition(env, ctx) is True:
                    return value(env, ctx)
            return else_fn(env, ctx) if else_fn is not None else None

        return case

    def _c_cast(self, expr: qe.Cast) -> Compiled:
        operand = self._compile(expr.operand)
        cast = caster(expr.dtype)

        def cast_fn(env, ctx):
            value = operand(env, ctx)
            return None if value is None else cast(value)

        return cast_fn

    def _c_existstest(self, expr: qe.ExistsTest) -> Compiled:
        # With the quantifier bound we are looking at one inner row, which
        # by construction exists; unbound, the fold over its rows decides.
        return lambda env, ctx: True


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


def _combinator(qtype: str, functions):
    if qtype == "E":
        return combine_any
    if qtype == "A":
        return combine_all
    if qtype == "NE":
        return _combine_not_exists
    function = functions.set_predicate_for_qtype(qtype)
    if function is not None:
        return function.combine
    raise SubqueryError("no combinator for iterator type %s" % qtype)


def subquery_rows(binding, env: Env, ctx) -> List[Tuple[Any, ...]]:
    """Evaluate-on-demand with correlation caching (section 7)."""
    from repro.executor.run import rows_iter

    key = None
    if ctx.cache_subqueries:
        try:
            key = (id(binding),
                   tuple([ref(env, ctx) for ref in closures(
                       binding.correlation, ctx.functions)]))
            cached = ctx.subquery_cache.get(key)
        except TypeError:  # an unhashable correlation value
            key = cached = None
        if cached is not None:
            ctx.stats.subquery_cache_hits += 1
            return cached
    ctx.stats.subquery_evaluations += 1
    rows = list(rows_iter(binding.plan, ctx, env))
    if key is not None:
        ctx.subquery_cache[key] = rows
    return rows


def scalar_subquery_row(binding, env: Env, ctx) -> Optional[Tuple[Any, ...]]:
    """The one row of a scalar subquery, None when it returns none."""
    rows = subquery_rows(binding, env, ctx)
    if len(rows) > 1:
        raise SubqueryError("scalar subquery returned %d rows" % len(rows))
    return rows[0] if rows else None


def closure(expr: qe.QExpr, functions, boolean: bool = False) -> Compiled:
    """What refinement attached to ``expr``, or — in a hand-built plan or
    an operator a DBC registered, which it never saw — ``expr`` compiled
    now (as a value unless ``boolean``) and kept."""
    return expr.closure or ExprCompiler(functions).compile(expr, boolean)


def closures(items, functions, boolean: bool = False) -> List[Compiled]:
    """:func:`closure` over a list; a predicate is a boolean position."""
    return [closure(item.expr, functions, True)
            if isinstance(item, Predicate)
            else closure(item, functions, boolean) for item in items]


def plan_expressions(node) -> Iterator[Tuple[qe.QExpr, bool]]:
    """Every expression a plan node carries — whatever its attributes
    hold, directly or in lists and tuples, as an expression, a predicate,
    an aggregate's argument or a subquery binding's correlation reference
    — with whether it is a boolean position (a predicate, a head)."""
    stack = [(value, isinstance(node, Project))
             for value in vars(node).values()]
    while stack:
        value, boolean = stack.pop()
        if isinstance(value, qe.AggCall):
            value = value.arg
        if isinstance(value, qe.QExpr):
            yield value, boolean
        elif isinstance(value, Predicate):
            yield value.expr, True
        elif isinstance(value, SubplanBinding):
            stack.extend((ref, False) for ref in value.correlation)
        elif isinstance(value, (list, tuple)):
            stack.extend((item, boolean) for item in value)


def refine_plan(plan, functions) -> ExprCompiler:
    """The plan-refinement phase: compile every expression of every node
    of the plan (subquery plans included), in place.  Returns the
    compiler, whose counter EXPLAIN and benchmarks report."""
    compiler = ExprCompiler(functions)
    for node in plan.walk():
        for expr, boolean in plan_expressions(node):
            compiler.compile(expr, boolean)
    return compiler
