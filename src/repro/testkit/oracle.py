"""A deliberately naive reference interpreter for QGM.

The oracle runs the *translated* QGM directly: no rewrite rules, no
optimizer, no plan refinement, no expression compilation, no join
algorithms beyond nested loops.  Every box is evaluated by the textbook
definition of its operation — SELECT boxes enumerate the cross product of
their setformers and apply every predicate afterwards; set operations are
left-folded pairwise with exact bag semantics; GROUP BY materializes its
groups.  Its only shared machinery with the engine is the parser, the
translator, the catalog, the storage scan, and the function registry (the
DBC extension point — custom scalar/aggregate functions must mean the same
thing on both sides).

That independence is the point: when
:mod:`repro.testkit.differential` runs the same SQL through the real
pipeline under many configurations and through this interpreter, any
disagreement is a bug in the clever path, because this path has no clever
parts.

Performance is disregarded except for one concession, correlation
caching: an inner box's rows are memoized on the values of its free
(correlated) column references, which keeps nested-loop subquery
evaluation polynomial in practice on the tiny generated catalogs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import DivisionByZeroError, ReproError
from repro.language.parser import parse_statement
from repro.language.translator import translate
from repro.qgm import expressions as qe
from repro.qgm.model import (
    BaseTableBox,
    Box,
    ChooseBox,
    DistinctMode,
    GroupByBox,
    Quantifier,
    SelectBox,
    SetOpBox,
    TableFunctionBox,
)
from repro.qgm.validate import validate_qgm

Env = Dict[Quantifier, Optional[Tuple[Any, ...]]]

_SETFORMER_TYPES = ("F", "PF")


class OracleError(ReproError):
    """The oracle could not produce an answer.

    ``unsupported`` distinguishes "this query is outside the oracle's
    scope" (the differential runner skips it) from genuine runtime
    errors like a scalar subquery returning two rows (which the engine
    is expected to raise as well)."""

    def __init__(self, message: str, unsupported: bool = False):
        super().__init__(message)
        self.unsupported = unsupported


class _Desc:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Desc") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and other.value == self.value


def sort_rows(rows: List[Tuple[Any, ...]],
              positions: Sequence[Tuple[int, bool]]) -> List[Tuple[Any, ...]]:
    """Engine ordering semantics: NULLs sort last under ASC and DESC."""

    def key(row):
        parts = []
        for position, ascending in positions:
            value = row[position]
            null_rank = value is None
            filled = 0 if value is None else value
            parts.append((null_rank, filled if ascending else _Desc(filled)))
        return tuple(parts)

    return sorted(rows, key=key)


def combine_any(outcomes) -> Optional[bool]:
    saw_unknown = False
    for outcome in outcomes:
        if outcome is True:
            return True
        if outcome is None:
            saw_unknown = True
    return None if saw_unknown else False


def combine_all(outcomes) -> Optional[bool]:
    saw_unknown = False
    for outcome in outcomes:
        if outcome is False:
            return False
        if outcome is None:
            saw_unknown = True
    return None if saw_unknown else True


def _kleene_not(value: Optional[bool]) -> Optional[bool]:
    return None if value is None else (not value)


class OracleResult:
    """What the oracle says the query must return."""

    __slots__ = ("columns", "rows", "order_by")

    def __init__(self, columns: List[str], rows: List[Tuple[Any, ...]],
                 order_by: List[Tuple[int, bool]]):
        self.columns = columns
        #: order_by positions restricted to the visible prefix: these are
        #: the positions on which the produced order is actually
        #: constrained (and hence checkable).
        self.rows = rows
        self.order_by = order_by


class ReferenceOracle:
    """Evaluates Hydrogen SELECTs straight off the QGM."""

    def __init__(self, db):
        self.db = db
        self.functions = db.functions
        self._like_cache: Dict[str, Any] = {}
        self._free_refs: Dict[int, List[qe.ColRef]] = {}
        self._row_cache: Dict[Tuple, List[Tuple[Any, ...]]] = {}
        self._recursive_rows: Dict[Box, Set[Tuple[Any, ...]]] = {}

    # -- entry point ------------------------------------------------------------------

    def execute(self, sql: str) -> OracleResult:
        statement = parse_statement(sql)
        qgm = translate(statement, self.db)
        validate_qgm(qgm)
        self._free_refs.clear()
        self._row_cache.clear()
        self._recursive_rows.clear()
        rows = list(self._box_rows(qgm.root, {}))
        if qgm.order_by:
            rows = sort_rows(rows, qgm.order_by)
        if qgm.limit is not None:
            rows = rows[:qgm.limit]
        visible = qgm.visible_columns
        columns = qgm.root.head.column_names()
        if visible is not None:
            rows = [row[:visible] for row in rows]
            columns = columns[:visible]
            order_by = [(pos, asc) for pos, asc in qgm.order_by
                        if pos < visible]
        else:
            order_by = list(qgm.order_by)
        return OracleResult(columns, rows, order_by)

    # -- box evaluation ---------------------------------------------------------------

    def _box_rows(self, box: Box, env: Env) -> List[Tuple[Any, ...]]:
        active = self._recursive_rows.get(box)
        if active is not None:
            return list(active)
        cache_key = self._cache_key(box, env)
        if cache_key is not None:
            cached = self._row_cache.get(cache_key)
            if cached is not None:
                return cached
        if isinstance(box, BaseTableBox):
            rows = [row for _rid, row
                    in self.db.engine.scan(None, box.table.name)]
        elif isinstance(box, SetOpBox):
            rows = self._setop_rows(box, env)
        elif isinstance(box, GroupByBox):
            rows = self._groupby_rows(box, env)
        elif isinstance(box, ChooseBox):
            if not box.quantifiers:
                raise OracleError("CHOOSE box has no alternatives",
                                  unsupported=True)
            rows = self._box_rows(box.quantifiers[0].input, env)
        elif isinstance(box, TableFunctionBox):
            rows = self._table_function_rows(box, env)
        elif isinstance(box, SelectBox):
            if box.annotations.get("operation") == "left_outer_join":
                rows = self._outer_join_rows(box, env)
            else:
                rows = self._select_rows(box, env)
        else:
            raise OracleError("oracle cannot evaluate %s box"
                              % type(box).__name__, unsupported=True)
        if cache_key is not None:
            self._row_cache[cache_key] = rows
        return rows

    def _cache_key(self, box: Box, env: Env) -> Optional[Tuple]:
        if self._recursive_rows:
            return None  # fixpoint in progress: rows are not stable yet
        try:
            values = tuple(
                (ref.quantifier.uid,
                 self._eval_colref(ref, env))
                for ref in self._free_colrefs(box))
            return (id(box),) + values
        except (TypeError, ReproError):
            return None

    def _free_colrefs(self, box: Box) -> List[qe.ColRef]:
        """Column references escaping ``box``'s subtree (its correlation)."""
        found = self._free_refs.get(id(box))
        if found is not None:
            return found
        local: Set[Quantifier] = set()
        refs: Dict[Tuple[int, str], qe.ColRef] = {}
        seen: Set[int] = set()

        def visit(node: Box) -> None:
            if id(node) in seen:
                return
            seen.add(id(node))
            exprs: List[qe.QExpr] = [
                c.expr for c in node.head.columns if c.expr is not None]
            exprs.extend(p.expr for p in node.predicates)
            if isinstance(node, GroupByBox):
                exprs.extend(node.group_keys)
            for quantifier in node.quantifiers:
                local.add(quantifier)
                visit(quantifier.input)
            for expr in exprs:
                for sub in qe.walk(expr):
                    if isinstance(sub, qe.ColRef):
                        refs.setdefault((sub.quantifier.uid, sub.column),
                                        sub)

        visit(box)
        found = [ref for ref in refs.values()
                 if ref.quantifier not in local]
        found.sort(key=lambda ref: (ref.quantifier.uid, ref.column))
        self._free_refs[id(box)] = found
        return found

    def _select_rows(self, box: SelectBox, env: Env) -> List[Tuple[Any, ...]]:
        setformers = [q for q in box.quantifiers
                      if q.qtype in _SETFORMER_TYPES]
        # Plain predicates first, subquery-referencing ones last: this is
        # the engine's evaluation order (pushdown runs cheap filters before
        # subquery machinery), so both sides skip subqueries — and any
        # errors inside them — for the same rows.
        plain = [p.expr for p in box.predicates
                 if all(q.qtype in _SETFORMER_TYPES
                        for q in p.quantifiers())]
        with_subquery = [p.expr for p in box.predicates
                         if any(q.qtype not in _SETFORMER_TYPES
                                for q in p.quantifiers())]
        predicates = plain + with_subquery
        out: List[Tuple[Any, ...]] = []

        def bind(index: int, bound: Env) -> None:
            if index == len(setformers):
                if all(self._eval_bool(pred, bound) is True
                       for pred in predicates):
                    out.append(self._head_row(box, bound))
                return
            quantifier = setformers[index]
            for row in self._box_rows(quantifier.input, bound):
                inner = dict(bound)
                inner[quantifier] = row
                bind(index + 1, inner)

        bind(0, dict(env))
        return self._finish(box, out)

    def _outer_join_rows(self, box: SelectBox,
                         env: Env) -> List[Tuple[Any, ...]]:
        preserved = [q for q in box.quantifiers if q.qtype == "PF"]
        regular = [q for q in box.quantifiers if q.qtype == "F"]
        if len(preserved) != 1 or len(regular) != 1:
            raise OracleError("outer-join box must have one PF and one F "
                              "iterator", unsupported=True)
        outer_q, inner_q = preserved[0], regular[0]
        # The engine applies subquery-referencing predicates *after* the
        # join (including to NULL-padded rows); only plain predicates
        # decide whether a preserved row found a match.
        join_preds: List[qe.QExpr] = []
        post_preds: List[qe.QExpr] = []
        for predicate in box.predicates:
            has_subquery = any(q.qtype not in _SETFORMER_TYPES
                               for q in predicate.quantifiers())
            (post_preds if has_subquery else join_preds).append(
                predicate.expr)
        out: List[Tuple[Any, ...]] = []
        for outer_row in self._box_rows(outer_q.input, env):
            bound = dict(env)
            bound[outer_q] = outer_row
            inner_rows = self._box_rows(inner_q.input, bound)
            matched = False
            for inner_row in inner_rows:
                both = dict(bound)
                both[inner_q] = inner_row
                if all(self._eval_bool(pred, both) is True
                       for pred in join_preds):
                    matched = True
                    if all(self._eval_bool(pred, both) is True
                           for pred in post_preds):
                        out.append(self._head_row(box, both))
            if not matched:
                padded = dict(bound)
                padded[inner_q] = None
                if all(self._eval_bool(pred, padded) is True
                       for pred in post_preds):
                    out.append(self._head_row(box, padded))
        return self._finish(box, out)

    def _groupby_rows(self, box: GroupByBox,
                      env: Env) -> List[Tuple[Any, ...]]:
        quantifier = box.input_quantifier
        groups: Dict[Tuple, List[Env]] = {}
        order: List[Tuple] = []
        for row in self._box_rows(quantifier.input, env):
            bound = dict(env)
            bound[quantifier] = row
            key = tuple(self._eval(expr, bound) for expr in box.group_keys)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
                order.append(key)
            bucket.append(bound)
        if not groups and not box.group_keys:
            empty = dict(env)
            empty[quantifier] = None
            row = tuple(
                self._aggregate(column.expr, [])
                if isinstance(column.expr, qe.AggCall)
                else None
                for column in box.head.columns)
            return self._finish(box, [row])
        out: List[Tuple[Any, ...]] = []
        for key in order:
            bucket = groups[key]
            values: List[Any] = []
            for column in box.head.columns:
                if isinstance(column.expr, qe.AggCall):
                    values.append(self._aggregate(column.expr, bucket))
                else:
                    values.append(self._eval(column.expr, bucket[0]))
            out.append(tuple(values))
        return self._finish(box, out)

    def _aggregate(self, agg: qe.AggCall, envs: List[Env]) -> Any:
        function = self.functions.aggregate(agg.name)
        if function is None:
            raise OracleError("unknown aggregate %s" % agg.name,
                              unsupported=True)
        accumulator = function.factory()
        seen: Set[Any] = set()
        for bound in envs:
            if agg.arg is None:
                value: Any = 1  # COUNT(*)
            else:
                value = self._eval(agg.arg, bound)
                if value is None and not function.handles_null:
                    continue
            if agg.distinct:
                if value in seen:
                    continue
                seen.add(value)
            accumulator.step(value)
        return accumulator.final()

    def _table_function_rows(self, box: TableFunctionBox,
                             env: Env) -> List[Tuple[Any, ...]]:
        """Evaluate a table function the same way the executor does:
        scalar args against the environment, each input quantifier
        materialized, output arity checked against the box head."""
        function = self.functions.table_function(box.function_name)
        if function is None:
            raise OracleError(
                "unknown table function %s" % box.function_name)
        args = [self._eval(a, env) for a in box.scalar_args]
        inputs = []
        for quantifier in box.quantifiers:
            head = quantifier.input.head
            inputs.append((head.column_names(),
                           [c.dtype for c in head.columns],
                           self._box_rows(quantifier.input, env)))
        try:
            _names, _types, rows = function.invoke(args, inputs)
        except ReproError:
            raise
        except Exception as exc:
            raise OracleError(
                "table function %s failed: %s"
                % (box.function_name, exc))
        arity = len(box.head.columns)
        out = []
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise OracleError(
                    "table function %s produced a %d-column row, "
                    "expected %d" % (box.function_name, len(row), arity))
            out.append(row)
        return out

    def _setop_rows(self, box: SetOpBox, env: Env) -> List[Tuple[Any, ...]]:
        if box.is_recursive:
            return self._recursive_setop_rows(box, env)
        children = [self._box_rows(q.input, env) for q in box.quantifiers]
        result = list(children[0])
        for right in children[1:]:
            result = _fold_setop(box.op, box.all_rows, result, right)
        if not box.all_rows:
            result = _dedupe(result)
        return self._finish(box, result)

    def _recursive_setop_rows(self, box: SetOpBox,
                              env: Env) -> List[Tuple[Any, ...]]:
        base: List[Quantifier] = []
        recursive: List[Quantifier] = []
        for quantifier in box.quantifiers:
            if _references_box(quantifier.input, box):
                recursive.append(quantifier)
            else:
                base.append(quantifier)
        total: Set[Tuple[Any, ...]] = set()
        ordered: List[Tuple[Any, ...]] = []
        for quantifier in base:
            for row in self._box_rows(quantifier.input, env):
                if row not in total:
                    total.add(row)
                    ordered.append(row)
        iterations = 0
        while True:
            iterations += 1
            if iterations > 10_000:
                raise OracleError("recursive query did not reach a "
                                  "fixpoint")
            self._recursive_rows[box] = set(total)
            grew = False
            for quantifier in recursive:
                for row in self._box_rows(quantifier.input, env):
                    if row not in total:
                        total.add(row)
                        ordered.append(row)
                        grew = True
            if not grew:
                break
        self._recursive_rows.pop(box, None)
        return self._finish(box, ordered)

    def _finish(self, box: Box, rows: List[Tuple[Any, ...]]
                ) -> List[Tuple[Any, ...]]:
        if box.head.distinct is DistinctMode.ENFORCE:
            return _dedupe(rows)
        return rows

    def _head_row(self, box: Box, env: Env) -> Tuple[Any, ...]:
        return tuple(self._head_value(column.expr, env)
                     for column in box.head.columns)

    def _head_value(self, expr: Optional[qe.QExpr], env: Env) -> Any:
        if expr is None:
            raise OracleError("head column without an expression",
                              unsupported=True)
        if any(q.qtype not in _SETFORMER_TYPES and q.qtype != "S"
               and q not in env
               for q in qe.quantifiers_in(expr)):
            return self._eval_bool(expr, env)
        return self._eval(expr, env)

    # -- expression evaluation --------------------------------------------------------

    def _eval_bool(self, expr: qe.QExpr, env: Env) -> Optional[bool]:
        if isinstance(expr, qe.BinOp) and expr.op in ("and", "or"):
            # Short-circuit exactly like the engine: the right arm (often
            # a subquery) is not evaluated when the left arm decides, so
            # neither side observes errors the other would skip.
            left = self._eval_bool(expr.left, env)
            if expr.op == "and":
                if left is False:
                    return False
                right = self._eval_bool(expr.right, env)
                if right is False:
                    return False
                if left is None or right is None:
                    return None
                return True
            if left is True:
                return True
            right = self._eval_bool(expr.right, env)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False
        if isinstance(expr, qe.Not):
            return _kleene_not(self._eval_bool(expr.operand, env))
        # A CASE folds only its result arms here; each WHEN condition
        # is a boolean position of its own (``_eval`` folds it).
        scope = [q for q in qe.fold_scope(expr)
                 if q.qtype not in _SETFORMER_TYPES and q.qtype != "S"]
        if not scope and isinstance(expr, qe.CaseOp):
            return self._eval(expr, env)
        unbound = sorted((q for q in scope if q not in env),
                         key=lambda q: q.uid)
        if unbound:
            quantifier = unbound[0]
            rows = self._box_rows(quantifier.input, env)

            def outcomes():
                for row in rows:
                    inner = dict(env)
                    inner[quantifier] = row
                    yield self._eval_bool(expr, inner)

            return self._combine(quantifier, outcomes())
        value = self._eval(expr, env)
        if value is None or isinstance(value, bool):
            return value
        raise OracleError("predicate produced non-boolean %r" % (value,))

    def _combine(self, quantifier: Quantifier, outcomes) -> Optional[bool]:
        qtype = quantifier.qtype
        if qtype == "E":
            return combine_any(outcomes)
        if qtype == "A":
            return combine_all(outcomes)
        if qtype == "NE":
            return _kleene_not(combine_any(outcomes))
        function = self.functions.set_predicate_for_qtype(qtype)
        if function is not None:
            return function.combine(outcomes)
        raise OracleError("no combinator for iterator type %s" % qtype,
                          unsupported=True)

    def _eval(self, expr: qe.QExpr, env: Env) -> Any:
        if isinstance(expr, qe.Const):
            return expr.value
        if isinstance(expr, qe.ColRef):
            return self._eval_colref(expr, env)
        if isinstance(expr, qe.BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, qe.Not):
            return _kleene_not(self._eval_bool(expr.operand, env))
        if isinstance(expr, qe.Neg):
            value = self._eval(expr.operand, env)
            return None if value is None else -value
        if isinstance(expr, qe.IsNullTest):
            is_null = self._eval(expr.operand, env) is None
            return (not is_null) if expr.negated else is_null
        if isinstance(expr, qe.LikeOp):
            return self._eval_like(expr, env)
        if isinstance(expr, qe.FuncCall):
            function = self.functions.scalar(expr.name)
            if function is None:
                raise OracleError("unknown function %s" % expr.name,
                                  unsupported=True)
            args = [self._eval(a, env) for a in expr.args]
            return function.invoke(args)
        if isinstance(expr, qe.CaseOp):
            for condition, value in expr.whens:
                if self._eval_bool(condition, env) is True:
                    return self._eval(value, env)
            if expr.else_value is not None:
                return self._eval(expr.else_value, env)
            return None
        if isinstance(expr, qe.Cast):
            return self._eval_cast(expr, env)
        if isinstance(expr, qe.ExistsTest):
            if expr.quantifier in env:
                return True
            return self._eval_bool(expr, env)
        if isinstance(expr, qe.ParamRef):
            raise OracleError("parameter markers are outside the oracle",
                              unsupported=True)
        if isinstance(expr, qe.AggCall):
            raise OracleError("aggregate %s outside GROUP BY" % expr.name)
        raise OracleError("oracle cannot evaluate %s"
                          % type(expr).__name__, unsupported=True)

    def _eval_colref(self, expr: qe.ColRef, env: Env) -> Any:
        quantifier = expr.quantifier
        if quantifier in env:
            row = env[quantifier]
            if row is None:
                return None  # NULL-padded outer-join row
            return row[quantifier.input.head.index_of(expr.column)]
        if quantifier.qtype == "S":
            rows = self._box_rows(quantifier.input, env)
            if len(rows) > 1:
                raise OracleError("scalar subquery returned %d rows"
                                  % len(rows))
            if not rows:
                return None
            return rows[0][quantifier.input.head.index_of(expr.column)]
        raise OracleError("unbound iterator %s in expression"
                          % quantifier.name)

    def _eval_binop(self, expr: qe.BinOp, env: Env) -> Any:
        op = expr.op
        if op in ("and", "or"):
            return self._eval_bool(expr, env)
        left = self._eval(expr.left, env)
        if left is None and op != "||":
            # Comparisons and arithmetic are NULL on a NULL left operand
            # without evaluating the right one (so its errors are never
            # raised); ``||`` evaluates both operands first.
            return None
        right = self._eval(expr.right, env)
        if left is None or right is None:
            return None
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise DivisionByZeroError("division by zero")
            return left / right
        if op == "%":
            if right == 0:
                raise DivisionByZeroError("division by zero")
            return left % right
        if op == "||":
            return str(left) + str(right)
        raise OracleError("unknown operator %s" % op, unsupported=True)

    def _eval_like(self, expr: qe.LikeOp, env: Env) -> Optional[bool]:
        import re

        value = self._eval(expr.operand, env)
        pattern = self._eval(expr.pattern, env)
        if value is None or pattern is None:
            return None
        compiled = self._like_cache.get(pattern)
        if compiled is None:
            parts = []
            for ch in pattern:
                if ch == "%":
                    parts.append(".*")
                elif ch == "_":
                    parts.append(".")
                else:
                    parts.append(re.escape(ch))
            compiled = re.compile("^" + "".join(parts) + "$", re.DOTALL)
            self._like_cache[pattern] = compiled
        matched = compiled.match(value) is not None
        return (not matched) if expr.negated else matched

    def _eval_cast(self, expr: qe.Cast, env: Env) -> Any:
        value = self._eval(expr.operand, env)
        if value is None:
            return None
        target = expr.dtype.name
        try:
            if target == "INTEGER":
                return int(value)
            if target == "DOUBLE":
                return float(value)
            if target == "VARCHAR":
                return str(value)
            if target == "BOOLEAN":
                return bool(value)
        except (TypeError, ValueError) as exc:
            raise OracleError("bad cast: %s" % exc)
        if expr.dtype.validate(value):
            return value
        raise OracleError("cannot cast %r to %s" % (value, target))


def _dedupe(rows: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    seen: Set[Tuple[Any, ...]] = set()
    out: List[Tuple[Any, ...]] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


def _fold_setop(op: str, all_rows: bool, left: List[Tuple[Any, ...]],
                right: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    """One pairwise step of a left-associated set-operation chain, with
    textbook bag semantics for the ALL variants."""
    from collections import Counter

    if op == "union":
        return left + right
    counts = Counter(right)
    if op == "intersect":
        if all_rows:
            budget = Counter(counts)
            out = []
            for row in left:
                if budget[row] > 0:
                    budget[row] -= 1
                    out.append(row)
            return out
        return [row for row in _dedupe(left) if counts[row] > 0]
    if op == "except":
        if all_rows:
            budget = Counter(counts)
            out = []
            for row in left:
                if budget[row] > 0:
                    budget[row] -= 1
                else:
                    out.append(row)
            return out
        return [row for row in _dedupe(left) if counts[row] == 0]
    raise OracleError("unknown set operation %s" % op, unsupported=True)


def _references_box(start: Box, target: Box) -> bool:
    seen: Set[int] = set()

    def visit(node: Box) -> bool:
        if id(node) in seen:
            return False
        seen.add(id(node))
        for quantifier in node.quantifiers:
            if quantifier.input is target:
                return True
            if visit(quantifier.input):
                return True
        return False

    return visit(start)
