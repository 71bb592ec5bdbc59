"""Resolved expressions over QGM iterators.

Unlike AST expressions, these reference :class:`~repro.qgm.model.Quantifier`
objects directly — a ``ColRef`` is an edge from a predicate or head column
to an iterator.  Subqueries never appear inside QGM expressions: the
translator turns every subquery into a quantifier plus ordinary predicates,
which is what makes the rewrite rules (subquery-to-join etc.) simple graph
transformations.

Every node carries a ``dtype`` assigned during translation.  The helpers at
the bottom (:func:`walk`, :func:`transform`, :func:`quantifiers_in`,
:func:`substitute_colrefs`) are the "rich set of primitives for manipulating
query graphs" that rewrite rules build on.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.datatypes.types import BOOLEAN, DataType


class QExpr:
    """Base class for resolved expressions."""

    __slots__ = ("dtype", "closure")

    def __init__(self, dtype: Optional[DataType] = None):
        self.dtype = dtype
        #: The compiled form of the expression rooted here, set by plan
        #: refinement (:mod:`repro.executor.compiled`) on the roots a plan
        #: evaluates.  A ``deepcopy`` carries it by reference, bound to the
        #: original's quantifiers: ``QGM.snapshot`` is for rewrite, before it.
        self.closure = None

    def children(self) -> Sequence["QExpr"]:
        return ()

    def copy_with(self, children: Sequence["QExpr"]) -> "QExpr":
        """Shallow copy with new children (transform support)."""
        raise NotImplementedError


class Const(QExpr):
    __slots__ = ("value",)

    def __init__(self, value: Any, dtype: Optional[DataType] = None):
        super().__init__(dtype)
        self.value = value

    def copy_with(self, children: Sequence[QExpr]) -> "Const":
        return Const(self.value, self.dtype)

    def __repr__(self) -> str:
        return repr(self.value)


class ParamRef(QExpr):
    """Host-variable reference bound at execution time."""

    __slots__ = ("index", "name")

    def __init__(self, index: int, name: Optional[str] = None,
                 dtype: Optional[DataType] = None):
        super().__init__(dtype)
        self.index = index
        self.name = name

    def copy_with(self, children: Sequence[QExpr]) -> "ParamRef":
        return ParamRef(self.index, self.name, self.dtype)

    def __repr__(self) -> str:
        return ":%s" % (self.name or self.index)


class ColRef(QExpr):
    """Reference to an output column of the box a quantifier ranges over."""

    __slots__ = ("quantifier", "column")

    def __init__(self, quantifier, column: str,
                 dtype: Optional[DataType] = None):
        super().__init__(dtype)
        self.quantifier = quantifier
        self.column = column

    def copy_with(self, children: Sequence[QExpr]) -> "ColRef":
        return ColRef(self.quantifier, self.column, self.dtype)

    def __repr__(self) -> str:
        return "%s.%s" % (self.quantifier.name, self.column)


class BinOp(QExpr):
    """Arithmetic (+ - * / %), concat (||), comparisons, AND/OR."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: QExpr, right: QExpr,
                 dtype: Optional[DataType] = None):
        super().__init__(dtype)
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Sequence[QExpr]:
        return (self.left, self.right)

    def copy_with(self, children: Sequence[QExpr]) -> "BinOp":
        left, right = children
        return BinOp(self.op, left, right, self.dtype)

    def __repr__(self) -> str:
        return "(%r %s %r)" % (self.left, self.op.upper(), self.right)


class Not(QExpr):
    __slots__ = ("operand",)

    def __init__(self, operand: QExpr):
        super().__init__(BOOLEAN)
        self.operand = operand

    def children(self) -> Sequence[QExpr]:
        return (self.operand,)

    def copy_with(self, children: Sequence[QExpr]) -> "Not":
        return Not(children[0])

    def __repr__(self) -> str:
        return "(NOT %r)" % (self.operand,)


class Neg(QExpr):
    __slots__ = ("operand",)

    def __init__(self, operand: QExpr, dtype: Optional[DataType] = None):
        super().__init__(dtype)
        self.operand = operand

    def children(self) -> Sequence[QExpr]:
        return (self.operand,)

    def copy_with(self, children: Sequence[QExpr]) -> "Neg":
        return Neg(children[0], self.dtype)

    def __repr__(self) -> str:
        return "(-%r)" % (self.operand,)


class IsNullTest(QExpr):
    __slots__ = ("operand", "negated")

    def __init__(self, operand: QExpr, negated: bool = False):
        super().__init__(BOOLEAN)
        self.operand = operand
        self.negated = negated

    def children(self) -> Sequence[QExpr]:
        return (self.operand,)

    def copy_with(self, children: Sequence[QExpr]) -> "IsNullTest":
        return IsNullTest(children[0], self.negated)

    def __repr__(self) -> str:
        return "(%r IS %sNULL)" % (self.operand,
                                   "NOT " if self.negated else "")


class LikeOp(QExpr):
    __slots__ = ("operand", "pattern", "negated")

    def __init__(self, operand: QExpr, pattern: QExpr, negated: bool = False):
        super().__init__(BOOLEAN)
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def children(self) -> Sequence[QExpr]:
        return (self.operand, self.pattern)

    def copy_with(self, children: Sequence[QExpr]) -> "LikeOp":
        return LikeOp(children[0], children[1], self.negated)

    def __repr__(self) -> str:
        return "(%r %sLIKE %r)" % (self.operand,
                                   "NOT " if self.negated else "",
                                   self.pattern)


class FuncCall(QExpr):
    """Scalar function call (built-in or DBC-registered)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[QExpr],
                 dtype: Optional[DataType] = None):
        super().__init__(dtype)
        self.name = name.lower()
        self.args = list(args)

    def children(self) -> Sequence[QExpr]:
        return tuple(self.args)

    def copy_with(self, children: Sequence[QExpr]) -> "FuncCall":
        return FuncCall(self.name, list(children), self.dtype)

    def __repr__(self) -> str:
        return "%s(%s)" % (self.name, ", ".join(repr(a) for a in self.args))


class AggCall(QExpr):
    """Aggregate call; only legal in a GROUP BY box's head.

    ``arg`` is None for COUNT(*).
    """

    __slots__ = ("name", "arg", "distinct")

    def __init__(self, name: str, arg: Optional[QExpr],
                 distinct: bool = False, dtype: Optional[DataType] = None):
        super().__init__(dtype)
        self.name = name.lower()
        self.arg = arg
        self.distinct = distinct

    def children(self) -> Sequence[QExpr]:
        return (self.arg,) if self.arg is not None else ()

    def copy_with(self, children: Sequence[QExpr]) -> "AggCall":
        arg = children[0] if children else None
        return AggCall(self.name, arg, self.distinct, self.dtype)

    def __repr__(self) -> str:
        inner = "*" if self.arg is None else repr(self.arg)
        if self.distinct:
            inner = "DISTINCT " + inner
        return "%s(%s)" % (self.name.upper(), inner)


class CaseOp(QExpr):
    __slots__ = ("whens", "else_value")

    def __init__(self, whens: Sequence[Tuple[QExpr, QExpr]],
                 else_value: Optional[QExpr] = None,
                 dtype: Optional[DataType] = None):
        super().__init__(dtype)
        self.whens = list(whens)
        self.else_value = else_value

    def children(self) -> Sequence[QExpr]:
        flat: List[QExpr] = []
        for condition, value in self.whens:
            flat.append(condition)
            flat.append(value)
        if self.else_value is not None:
            flat.append(self.else_value)
        return tuple(flat)

    def copy_with(self, children: Sequence[QExpr]) -> "CaseOp":
        pairs = []
        for index in range(len(self.whens)):
            pairs.append((children[2 * index], children[2 * index + 1]))
        else_value = (children[-1] if self.else_value is not None else None)
        return CaseOp(pairs, else_value, self.dtype)

    def __repr__(self) -> str:
        parts = ["CASE"]
        for condition, value in self.whens:
            parts.append("WHEN %r THEN %r" % (condition, value))
        if self.else_value is not None:
            parts.append("ELSE %r" % (self.else_value,))
        parts.append("END")
        return " ".join(parts)


class Cast(QExpr):
    __slots__ = ("operand",)

    def __init__(self, operand: QExpr, dtype: DataType):
        super().__init__(dtype)
        self.operand = operand

    def children(self) -> Sequence[QExpr]:
        return (self.operand,)

    def copy_with(self, children: Sequence[QExpr]) -> "Cast":
        return Cast(children[0], self.dtype)

    def __repr__(self) -> str:
        return "CAST(%r AS %s)" % (self.operand, self.dtype.name)


class ExistsTest(QExpr):
    """Marker predicate for EXISTS: true for every row of the quantifier.

    Combined with an existential (E) quantifier this means "the subquery is
    non-empty"; with a negated-existential (NE) quantifier it means "empty".
    """

    __slots__ = ("quantifier",)

    def __init__(self, quantifier):
        super().__init__(BOOLEAN)
        self.quantifier = quantifier

    def copy_with(self, children: Sequence[QExpr]) -> "ExistsTest":
        return ExistsTest(self.quantifier)

    def __repr__(self) -> str:
        return "EXISTS(%s)" % self.quantifier.name


# ---------------------------------------------------------------------------
# Graph-manipulation primitives
# ---------------------------------------------------------------------------


def walk(expr: QExpr) -> Iterator[QExpr]:
    """Yield ``expr`` and every descendant, pre-order."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def quantifiers_in(expr: QExpr):
    """The set of quantifiers referenced anywhere inside ``expr``."""
    result = set()
    for node in walk(expr):
        if isinstance(node, ColRef):
            result.add(node.quantifier)
        elif isinstance(node, ExistsTest):
            result.add(node.quantifier)
    return result


def fold_scope(expr: QExpr):
    """The quantifiers a boolean position over ``expr`` folds at its root:
    all of them, except that a CASE's WHEN conditions are boolean
    positions of their own, so a CASE folds only its result arms'."""
    if not isinstance(expr, CaseOp):
        return quantifiers_in(expr)
    arms = [value for _condition, value in expr.whens] + [expr.else_value]
    return set().union(*(quantifiers_in(arm) for arm in arms
                         if arm is not None))


def transform(expr: QExpr, fn: Callable[[QExpr], Optional[QExpr]]) -> QExpr:
    """Bottom-up rewrite: ``fn`` may return a replacement for any node.

    Children are transformed first; ``fn`` then sees the rebuilt node and
    may return None (keep) or a new node.
    """
    children = expr.children()
    if children:
        new_children = [transform(child, fn) for child in children]
        if any(new is not old for new, old in zip(new_children, children)):
            expr = expr.copy_with(new_children)
    replacement = fn(expr)
    return replacement if replacement is not None else expr


def substitute_colrefs(expr: QExpr,
                       mapping: Callable[[ColRef], Optional[QExpr]]) -> QExpr:
    """Replace column references per ``mapping`` (None keeps the original).

    This is the primitive behind box merging: references to the merged
    box's quantifier are replaced by the merged box's head expressions.
    """
    def visit(node: QExpr) -> Optional[QExpr]:
        if isinstance(node, ColRef):
            return mapping(node)
        return None

    return transform(expr, visit)


def retarget_quantifier(expr: QExpr, old, new) -> QExpr:
    """Replace references to ``old`` (ColRef and ExistsTest) with ``new``."""
    def visit(node: QExpr) -> Optional[QExpr]:
        if isinstance(node, ColRef) and node.quantifier is old:
            return ColRef(new, node.column, node.dtype)
        if isinstance(node, ExistsTest) and node.quantifier is old:
            return ExistsTest(new)
        return None

    return transform(expr, visit)


def conjuncts(expr: QExpr) -> List[QExpr]:
    """Split a boolean expression into its top-level AND conjuncts."""
    if isinstance(expr, BinOp) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(exprs: Sequence[QExpr]) -> Optional[QExpr]:
    """AND a list of boolean expressions back together."""
    result: Optional[QExpr] = None
    for expr in exprs:
        result = expr if result is None else BinOp("and", result, expr, BOOLEAN)
    return result


def is_column_equality(expr: QExpr) -> Optional[Tuple[ColRef, ColRef]]:
    """Match ``q1.c1 = q2.c2`` between two different quantifiers."""
    if (isinstance(expr, BinOp) and expr.op == "="
            and isinstance(expr.left, ColRef)
            and isinstance(expr.right, ColRef)
            and expr.left.quantifier is not expr.right.quantifier):
        return expr.left, expr.right
    return None
