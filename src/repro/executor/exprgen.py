"""The expression code generator: QGM expressions → Python source.

The fused-pipeline backend (:mod:`~repro.executor.codegen`) inlines the
emitted source into its per-pipeline loops.  Everything generated goes
through :func:`materialize`, a cache keyed by the source text, so
structurally identical code — in *different* statements — shares one
code object.

**Semantics.**  The emitted source reproduces the scalar closures of
:class:`~repro.executor.compiled.ExprCompiler` operator for operator:
NULL short-circuits, lazy right operands, eager ``||`` and LIKE operands,
typed division errors, lazily-raising parameter references.  Function
calls and casts go through the *same* helpers the closures use
(:func:`~repro.executor.compiled.invoker`, :func:`~repro.executor.
compiled.caster`), hoisted out of the loop.  So generated code is
row-for-row and error-for-error identical to the tuple backend, and
the engine's expression semantics live in two places only: the scalar
closures (which own on-demand subqueries) and this generator.

**Hoisting.**  Source text is structural — column slots, parameter
indices, operator shape.  Every value (constants, regexes, function
objects, cast targets) is *hoisted*: the generator hands out a name
``_hN`` and collects the value in :attr:`ExprGen.hoisted` for the caller
to bind at instantiation time.  So statements that differ only in their
literals share generated code, and nothing has to survive ``repr``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import DivisionByZeroError, ExecutionError
from repro.executor.compiled import _like_regex, caster, invoker
from repro.qgm import expressions as qe


class Unsupported(Exception):
    """Internal: this expression (or plan region) cannot be generated."""


# ---------------------------------------------------------------------------
# Helpers referenced from generated code
# ---------------------------------------------------------------------------

#: Sentinel for "parameter slot not bound" (the generated code raises
#: lazily, per evaluation, like the scalar closure does).
_MISS = object()


def _dz():
    raise DivisionByZeroError("division by zero")


def _np(index):
    raise ExecutionError("no value bound for parameter %d" % (index + 1))


_HELPERS = {"_dz": _dz, "_np": _np, "_MISS": _MISS, "_like": _like_regex}


# ---------------------------------------------------------------------------
# Code-object cache (cross-statement sharing)
# ---------------------------------------------------------------------------

#: source text -> compiled code object.  The source *is* the structural
#: fingerprint; everything identity-bearing is passed in at run time, so
#: two statements with structurally identical code share one entry.
_CODE_CACHE: Dict[str, Any] = {}
_CACHE_HITS = 0
_CACHE_MISSES = 0
#: Concurrent serving sessions generate code in parallel; the cache
#: probe + counter bump is a read-modify-write and needs the lock (a
#: duplicate ``compile()`` would be harmless, a lost counter is not).
_CACHE_LOCK = threading.Lock()


def reinit_locks() -> None:
    """Fresh module lock after ``fork()`` (a parent thread may have held
    the old one at fork time)."""
    global _CACHE_LOCK
    _CACHE_LOCK = threading.Lock()


def codegen_cache_stats() -> Dict[str, int]:
    """Hit/miss counters for the shared code-object cache."""
    with _CACHE_LOCK:
        return {"entries": len(_CODE_CACHE), "hits": _CACHE_HITS,
                "misses": _CACHE_MISSES}


def materialize(source: str, **extra_globals) -> Tuple[Any, bool]:
    """Compile (or fetch) the code object of ``source`` — a module
    defining ``_p`` — and bind it into a fresh globals dict.  Returns
    ``(_p, shared)``."""
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        code = _CODE_CACHE.get(source)
    shared = code is not None
    if code is None:
        code = compile(source, "<codegen>", "exec")
        with _CACHE_LOCK:
            _CODE_CACHE[source] = code
            _CACHE_MISSES += 1
    else:
        with _CACHE_LOCK:
            _CACHE_HITS += 1
    namespace = dict(_HELPERS, **extra_globals)
    exec(code, namespace)
    return namespace["_p"], shared


# ---------------------------------------------------------------------------
# Capability (selection-time structural check)
# ---------------------------------------------------------------------------

_BINOPS = frozenset(
    ["and", "or", "=", "<>", "<", "<=", ">", ">=", "||",
     "+", "-", "*", "/", "%"])

_PLAIN_NODES = (qe.Const, qe.ParamRef, qe.Not, qe.Neg, qe.IsNullTest,
                qe.LikeOp, qe.CaseOp, qe.Cast)


def reject_reason(expr: qe.QExpr, functions) -> Optional[str]:
    """None when :class:`ExprGen` can emit ``expr``, otherwise why not.

    Subquery quantifiers need the closures' evaluate-on-demand
    machinery.
    """
    for node in qe.walk(expr):
        if isinstance(node, qe.ColRef):
            quantifier = node.quantifier
            if not quantifier.is_setformer:
                return "subquery reference %s" % quantifier.name
        elif isinstance(node, qe.BinOp):
            if node.op not in _BINOPS:
                return "operator %s" % node.op
        elif isinstance(node, qe.FuncCall):
            if functions.scalar(node.name) is None:
                return "unknown function %s" % node.name
        elif not isinstance(node, _PLAIN_NODES):
            return "expression %s" % type(node).__name__
    return None


# ---------------------------------------------------------------------------
# Expression emission
# ---------------------------------------------------------------------------

_CMP = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _is_const(expr: qe.QExpr) -> bool:
    return isinstance(expr, qe.Const) and expr.value is not None


class ExprGen:
    """Emits inline Python source for one generated function's
    expressions.

    ``value(expr)`` produces an expression-source whose runtime value
    matches the scalar closure exactly; ``cond(expr)`` produces a source
    that is *truthy iff the scalar value is True* (the form predicates
    use), allowing cheaper short-circuits where the difference is
    unobservable (no error-capable operand is skipped that the scalar
    closure would evaluate).

    ``column(quantifier, position)`` resolves a column reference to its
    source (raising :class:`Unsupported` when the caller cannot produce
    it).  The caller places :meth:`bind_hoisted` and :meth:`bind_params`
    ahead of the emitted source.
    """

    def __init__(self, column: Callable[[Any, int], str], functions):
        self.column = column
        self.functions = functions
        self.hoisted: List[Any] = []
        self.used_params: set = set()
        self._literals: Dict[int, Tuple[str, qe.Const]] = {}
        self._tmp = 0

    def tmp(self) -> str:
        name = "_t%d" % self._tmp
        self._tmp += 1
        return name

    def hoist(self, value: Any) -> str:
        self.hoisted.append(value)
        return "_h%d" % (len(self.hoisted) - 1)

    def bind_hoisted(self, source: str) -> List[str]:
        """Statements binding each ``_hN`` the emitted source uses from
        ``source``, the name of the runtime tuple of :attr:`hoisted`."""
        return ["_h%d = %s[%d]" % (n, source, n)
                for n in range(len(self.hoisted))]

    def bind_params(self) -> List[str]:
        """Statements binding each ``_ppN`` the emitted source uses."""
        return ["_pp%d = params[%d] if len(params) > %d else _MISS"
                % (index, index, index)
                for index in sorted(self.used_params)]

    def lit(self, expr: qe.QExpr) -> Optional[str]:
        """The operand's source when it is a non-NULL constant — such
        operands need no None-guard (and a constant divisor needs no
        per-row zero test), which keeps the hot loop tight.  The value
        itself is hoisted, never spelled into the source: statements that
        differ only in their literals generate identical text and share
        one code object."""
        if not _is_const(expr):
            return None
        entry = self._literals.get(id(expr))
        if entry is None:
            # Holding the node keeps its id from being reused.
            entry = self._literals[id(expr)] = (self.hoist(expr.value), expr)
        return entry[0]

    def can_raise(self, expr: qe.QExpr) -> bool:
        """Whether evaluating ``expr`` can raise for some row — such an
        operand may only be skipped where the scalar closure skips it."""
        for node in qe.walk(expr):
            if isinstance(node, qe.BinOp) and node.op in ("/", "%"):
                return True
            if isinstance(node, (qe.FuncCall, qe.Cast, qe.ParamRef)):
                return True
        return False

    # -- value forms ----------------------------------------------------------

    def value(self, expr: qe.QExpr) -> str:
        method = getattr(self, "_v_%s" % type(expr).__name__.lower(), None)
        if method is None:
            raise Unsupported("expression %s" % type(expr).__name__)
        return method(expr)

    def tuple_of(self, exprs) -> str:
        values = [self.value(expr) for expr in exprs]
        return "(%s%s)" % (", ".join(values), "," if values else "")

    def _v_const(self, expr: qe.Const) -> str:
        return self.lit(expr) or "None"

    def _v_paramref(self, expr: qe.ParamRef) -> str:
        self.used_params.add(expr.index)
        return ("(_pp%d if _pp%d is not _MISS else _np(%d))"
                % (expr.index, expr.index, expr.index))

    def _v_colref(self, expr: qe.ColRef) -> str:
        position = expr.quantifier.input.head.index_of(expr.column)
        return self.column(expr.quantifier, position)

    def _v_binop(self, expr: qe.BinOp) -> str:
        op = expr.op
        if op == "and":
            a, b = self.tmp(), self.tmp()
            return ("(False if (%s := %s) is False else "
                    "(False if (%s := %s) is False else "
                    "(None if %s is None or %s is None else True)))"
                    % (a, self.value(expr.left), b, self.value(expr.right),
                       a, b))
        if op == "or":
            a, b = self.tmp(), self.tmp()
            return ("(True if (%s := %s) is True else "
                    "(True if (%s := %s) is True else "
                    "(None if %s is None or %s is None else False)))"
                    % (a, self.value(expr.left), b, self.value(expr.right),
                       a, b))
        if op in _CMP:
            return self._v_guarded(expr, _CMP[op])
        if op == "||":
            return self._v_eager(expr.left, expr.right,
                                 "str(%(a)s) + str(%(b)s)")
        if op in ("+", "-", "*"):
            return self._v_guarded(expr, op)
        if op in ("/", "%"):
            right_lit = self.lit(expr.right)
            if right_lit is not None:
                divisor = expr.right.value
                body = "_dz()" if divisor == 0 else None
                return self._v_guarded(expr, op, body=body)
            left_lit = self.lit(expr.left)
            b = self.tmp()
            if left_lit is not None:
                return ("(None if (%s := %s) is None else "
                        "(_dz() if %s == 0 else (%s %s %s)))"
                        % (b, self.value(expr.right), b, left_lit, op, b))
            a = self.tmp()
            return ("(None if (%s := %s) is None else "
                    "(None if (%s := %s) is None else "
                    "(_dz() if %s == 0 else (%s %s %s))))"
                    % (a, self.value(expr.left), b, self.value(expr.right),
                       b, a, op, b))
        raise Unsupported("operator %s" % op)

    def _v_eager(self, left: qe.QExpr, right: qe.QExpr,
                 result: str) -> str:
        """Both operands evaluate, in order, before the NULL test (the
        2-tuple is always truthy); ``result`` is a format over the two
        temporaries ``a`` and ``b``."""
        a, b = self.tmp(), self.tmp()
        return ("(((%s := %s), (%s := %s)) and "
                "(None if %s is None or %s is None else %s))"
                % (a, self.value(left), b, self.value(right), a, b,
                   result % {"a": a, "b": b}))

    def _v_guarded(self, expr: qe.BinOp, op: str,
                   body: Optional[str] = None) -> str:
        """``left op right`` with a None-guard only on the non-constant
        sides; ``body`` overrides the result source (constant-zero
        divisor)."""
        left_lit = self.lit(expr.left)
        right_lit = self.lit(expr.right)
        if left_lit is not None and right_lit is not None:
            return body or "(%s %s %s)" % (left_lit, op, right_lit)
        if right_lit is not None:
            a = self.tmp()
            return ("(None if (%s := %s) is None else %s)"
                    % (a, self.value(expr.left),
                       body or "(%s %s %s)" % (a, op, right_lit)))
        if left_lit is not None:
            b = self.tmp()
            return ("(None if (%s := %s) is None else %s)"
                    % (b, self.value(expr.right),
                       body or "(%s %s %s)" % (left_lit, op, b)))
        a, b = self.tmp(), self.tmp()
        return ("(None if (%s := %s) is None else "
                "(None if (%s := %s) is None else %s))"
                % (a, self.value(expr.left), b, self.value(expr.right),
                   body or "(%s %s %s)" % (a, op, b)))

    def _v_not(self, expr: qe.Not) -> str:
        t = self.tmp()
        return ("(None if (%s := %s) is None else (not %s))"
                % (t, self.value(expr.operand), t))

    def _v_neg(self, expr: qe.Neg) -> str:
        t = self.tmp()
        return ("(None if (%s := %s) is None else (-%s))"
                % (t, self.value(expr.operand), t))

    def _v_isnulltest(self, expr: qe.IsNullTest) -> str:
        test = "is not None" if expr.negated else "is None"
        return "((%s) %s)" % (self.value(expr.operand), test)

    def _v_likeop(self, expr: qe.LikeOp) -> str:
        test = "is None" if expr.negated else "is not None"
        if not _is_const(expr.pattern):
            # Dynamic pattern: translated (and memoized) per evaluation.
            return self._v_eager(
                expr.operand, expr.pattern,
                "(_like(%%(b)s).match(%%(a)s) %s)" % test)
        match = self.hoist(_like_regex(expr.pattern.value).match)
        t = self.tmp()
        return ("(None if (%s := %s) is None else (%s(%s) %s))"
                % (t, self.value(expr.operand), match, t, test))

    def _v_funccall(self, expr: qe.FuncCall) -> str:
        function = self.functions.scalar(expr.name)
        if function is None:
            raise Unsupported("unknown function %s" % expr.name)
        # The list display evaluates every argument, left to right.
        return "%s([%s])" % (
            self.hoist(invoker(function)),
            ", ".join(self.value(arg) for arg in expr.args))

    def _v_caseop(self, expr: qe.CaseOp) -> str:
        out = (self.value(expr.else_value)
               if expr.else_value is not None else "None")
        # Python's ternary evaluates its condition first, then exactly one
        # branch — the scalar closure's first-True-wins order.
        for condition, value in reversed(expr.whens):
            out = "(%s if %s else %s)" % (self.value(value),
                                          self.cond(condition), out)
        return out

    def _v_cast(self, expr: qe.Cast) -> str:
        t = self.tmp()
        return ("(None if (%s := %s) is None else %s(%s))"
                % (t, self.value(expr.operand),
                   self.hoist(caster(expr.dtype)), t))

    # -- condition forms ------------------------------------------------------

    def cond(self, expr: qe.QExpr) -> str:
        if isinstance(expr, qe.BinOp):
            op = expr.op
            if op in _CMP:
                left_lit = self.lit(expr.left)
                right_lit = self.lit(expr.right)
                if left_lit is not None and right_lit is not None:
                    return "(%s %s %s)" % (left_lit, _CMP[op], right_lit)
                if right_lit is not None:
                    a = self.tmp()
                    return ("((%s := %s) is not None and %s %s %s)"
                            % (a, self.value(expr.left), a, _CMP[op],
                               right_lit))
                if left_lit is not None:
                    b = self.tmp()
                    return ("((%s := %s) is not None and %s %s %s)"
                            % (b, self.value(expr.right), left_lit,
                               _CMP[op], b))
                a, b = self.tmp(), self.tmp()
                return ("((%s := %s) is not None and "
                        "(%s := %s) is not None and %s %s %s)"
                        % (a, self.value(expr.left),
                           b, self.value(expr.right), a, _CMP[op], b))
            if op == "and":
                if self.can_raise(expr.right):
                    # The scalar closure evaluates the right side even
                    # when the left is NULL (only False short-circuits);
                    # an error-capable right side must keep that order.
                    a, b = self.tmp(), self.tmp()
                    return ("((%s := %s) is not False and "
                            "(%s := %s) is not False and "
                            "%s is not None and %s is not None)"
                            % (a, self.value(expr.left),
                               b, self.value(expr.right), a, b))
                return "(%s and %s)" % (self.cond(expr.left),
                                        self.cond(expr.right))
            if op == "or":
                return "(%s or %s)" % (self.cond(expr.left),
                                       self.cond(expr.right))
        if isinstance(expr, qe.Not):
            return "((%s) is False)" % self.value(expr.operand)
        if isinstance(expr, qe.IsNullTest):
            return self._v_isnulltest(expr)
        if isinstance(expr, qe.LikeOp) and _is_const(expr.pattern):
            match = self.hoist(_like_regex(expr.pattern.value).match)
            t = self.tmp()
            test = "is None" if expr.negated else "is not None"
            return ("((%s := %s) is not None and %s(%s) %s)"
                    % (t, self.value(expr.operand), match, t, test))
        return "((%s) is True)" % self.value(expr)
