"""Semantic analysis and AST → QGM translation.

"Semantic analysis of the query is also done during parsing, so the QGM
produced is guaranteed to be valid" — this module is that step.  It resolves
names against the catalog and lexical scopes (including correlation into
enclosing queries), type-checks every expression, expands views and table
expressions, and produces a consistent QGM graph.

Key translation rules (section 4 of the paper):

- every subquery becomes a *quantifier* plus ordinary predicates: ``IN`` →
  existential (E) quantifier + equality predicate; ``op ALL`` → universal
  (A) quantifier; scalar subqueries → S quantifiers referenced like columns;
  DBC set-predicate functions supply their own quantifier types,
- views and table expressions are expanded into the graph as boxes (the
  *view merging* rewrite rule may later merge them into consumers),
- aggregation splits into lower SELECT → GROUP BY → upper SELECT boxes,
- LEFT OUTER JOIN (the paper's worked DBC extension) builds a SELECT box
  whose preserved side uses the PF setformer type — and is rejected unless
  the operation has been registered.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.datatypes.coercion import common_type, is_comparable, is_numeric
from repro.datatypes.types import BOOLEAN, DOUBLE, INTEGER, VARCHAR, DataType
from repro.errors import SemanticError, TypeCheckError
from repro.language import ast
from repro.qgm import expressions as qe
from repro.qgm.model import (
    QGM,
    BaseTableBox,
    Box,
    DeleteBox,
    DistinctMode,
    GroupByBox,
    Head,
    HeadColumn,
    InsertBox,
    Predicate,
    Quantifier,
    SelectBox,
    SetOpBox,
    TableFunctionBox,
    UpdateBox,
)

#: Name of the operation flag that enables LEFT OUTER JOIN.
LEFT_OUTER_JOIN = "left_outer_join"


class SourceBinding:
    """One FROM source visible in a scope: a quantifier plus a column map.

    ``columns`` maps user-visible column names to head-column names of the
    quantifier's input box (they differ for outer-join sources whose head
    had to disambiguate column names).
    """

    __slots__ = ("quantifier", "columns")

    def __init__(self, quantifier: Quantifier,
                 columns: Optional[Dict[str, str]] = None):
        self.quantifier = quantifier
        if columns is None:
            columns = {name: name
                       for name in quantifier.input.head.column_names()}
        self.columns = columns


class Scope:
    """Lexical scope for name resolution; parents give correlation."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.bindings: Dict[str, SourceBinding] = {}
        self.order: List[SourceBinding] = []

    def define(self, alias: str, binding: SourceBinding) -> None:
        key = alias.lower()
        if key in self.bindings:
            raise SemanticError("duplicate table name/alias %s" % alias)
        self.bindings[key] = binding
        self.order.append(binding)

    def resolve(self, name: str,
                qualifier: Optional[str]) -> Tuple[Quantifier, str, DataType]:
        """Resolve a column reference to (quantifier, head column, type)."""
        found = self._resolve_local(name, qualifier)
        if found is not None:
            return found
        if self.parent is not None:
            return self.parent.resolve(name, qualifier)
        target = "%s.%s" % (qualifier, name) if qualifier else name
        raise SemanticError("unknown column %s" % target)

    def _resolve_local(self, name: str, qualifier: Optional[str]):
        name = name.lower()
        if qualifier is not None:
            binding = self.bindings.get(qualifier.lower())
            if binding is None:
                return None
            head_name = binding.columns.get(name)
            if head_name is None:
                raise SemanticError(
                    "no column %s in %s" % (name, qualifier)
                )
            dtype = binding.quantifier.input.head.column(head_name).dtype
            return binding.quantifier, head_name, dtype
        matches = []
        for binding in self.order:
            head_name = binding.columns.get(name)
            if head_name is not None:
                matches.append((binding, head_name))
        if not matches:
            return None
        if len(matches) > 1:
            raise SemanticError("ambiguous column %s" % name)
        binding, head_name = matches[0]
        dtype = binding.quantifier.input.head.column(head_name).dtype
        return binding.quantifier, head_name, dtype

    def source_named(self, qualifier: str) -> Optional[SourceBinding]:
        binding = self.bindings.get(qualifier.lower())
        if binding is not None:
            return binding
        if self.parent is not None:
            return self.parent.source_named(qualifier)
        return None


class Translator:
    """Translates one statement; holds the QGM under construction.

    ``context`` must provide: ``catalog``, ``types`` (TypeRegistry),
    ``functions`` (FunctionRegistry), and ``operations`` (a set of enabled
    DBC operation names, e.g. ``{"left_outer_join"}``).
    """

    def __init__(self, context):
        self.context = context
        self.qgm = QGM()
        self._cte_stack: List[Dict[str, Box]] = []
        self._param_count = 0

    # ==== entry point ==========================================================

    def translate(self, statement: ast.Statement) -> QGM:
        if isinstance(statement, ast.SelectStmt):
            root = self.translate_query(statement, None, toplevel=True)
        elif isinstance(statement, ast.InsertStmt):
            root = self._translate_insert(statement)
        elif isinstance(statement, ast.UpdateStmt):
            root = self._translate_update(statement)
        elif isinstance(statement, ast.DeleteStmt):
            root = self._translate_delete(statement)
        else:
            raise SemanticError(
                "cannot translate %s to QGM" % type(statement).__name__
            )
        self.qgm.root = root
        self.qgm.parameter_count = self._param_count
        for box in self.qgm.boxes:
            box.annotations.pop("scope", None)
        return self.qgm

    # ==== queries ===============================================================

    def translate_query(self, stmt: ast.SelectStmt,
                        outer_scope: Optional[Scope],
                        toplevel: bool = False) -> Box:
        """Translate a full query expression (WITH + set ops) to a box."""
        if stmt.ctes:
            self._cte_stack.append({})
            try:
                self._translate_ctes(stmt, outer_scope)
                box = self._translate_setops(stmt, outer_scope, toplevel)
            finally:
                self._cte_stack.pop()
        else:
            box = self._translate_setops(stmt, outer_scope, toplevel)
        return box

    def _translate_ctes(self, stmt: ast.SelectStmt,
                        outer_scope: Optional[Scope]) -> None:
        for cte in stmt.ctes:
            if stmt.recursive and self._references_name(cte.query, cte.name):
                box = self._translate_recursive_cte(cte, outer_scope)
            else:
                box = self.translate_query(cte.query, outer_scope)
                if cte.column_names:
                    self._rename_head(box, cte.column_names)
                box.annotations["table_expression"] = cte.name
            self._cte_stack[-1][cte.name.lower()] = box

    @staticmethod
    def _references_name(stmt: ast.SelectStmt, name: str) -> bool:
        """Does the query reference table ``name`` anywhere (recursion test)?"""
        name = name.lower()

        def from_item_refs(item: ast.FromItem) -> bool:
            if isinstance(item, ast.TableRef):
                return item.name.lower() == name
            if isinstance(item, ast.SubquerySource):
                return stmt_refs(item.query)
            if isinstance(item, ast.JoinSource):
                return from_item_refs(item.left) or from_item_refs(item.right)
            if isinstance(item, ast.TableFunctionSource):
                return any(from_item_refs(t) for t in item.table_args)
            return False

        def stmt_refs(node: ast.SelectStmt) -> bool:
            current: Optional[ast.SelectStmt] = node
            while current is not None:
                if any(from_item_refs(i) for i in current.from_items):
                    return True
                current = current.set_right
            return False

        return stmt_refs(stmt)

    def _translate_recursive_cte(self, cte: ast.CommonTableExpr,
                                 outer_scope: Optional[Scope]) -> Box:
        """A recursive table expression: UNION ALL of base + recursive parts."""
        body = cte.query
        if body.set_op != "union" or not body.set_all:
            raise SemanticError(
                "recursive table expression %s must be a UNION ALL of a "
                "base case and a recursive case" % cte.name
            )
        union = SetOpBox("union", all_rows=True, name=cte.name)
        union.recursive_name = cte.name.lower()
        self.qgm.add_box(union)
        self._cte_stack[-1][cte.name.lower()] = union

        # Base case: must not reference the CTE.
        branches = self._setop_branches(body)
        base_branches = [b for b in branches
                         if not self._references_name_core(b, cte.name)]
        rec_branches = [b for b in branches
                        if self._references_name_core(b, cte.name)]
        if not base_branches or not rec_branches:
            raise SemanticError(
                "recursive table expression %s needs at least one base and "
                "one recursive branch" % cte.name
            )
        first = self._translate_core(base_branches[0], outer_scope)
        names = cte.column_names or first.head.column_names()
        if len(names) != len(first.head.columns):
            raise SemanticError(
                "table expression %s declares %d columns, query produces %d"
                % (cte.name, len(names), len(first.head.columns))
            )
        union.head = Head([
            HeadColumn(name.lower(), None, column.dtype)
            for name, column in zip(names, first.head.columns)
        ])
        union.head.distinct = DistinctMode.PRESERVE
        for branch_stmt in base_branches:
            branch_box = (first if branch_stmt is base_branches[0]
                          else self._translate_core(branch_stmt, outer_scope))
            self._check_setop_arity(union, branch_box)
            union.add_quantifier(self.qgm.new_quantifier("F", branch_box))
        for branch_stmt in rec_branches:
            branch_box = self._translate_core(branch_stmt, outer_scope)
            self._check_setop_arity(union, branch_box)
            union.add_quantifier(self.qgm.new_quantifier("F", branch_box))
        return union

    def _references_name_core(self, stmt: ast.SelectStmt, name: str) -> bool:
        single = ast.SelectStmt(items=stmt.items, from_items=stmt.from_items,
                                where=stmt.where, group_by=stmt.group_by,
                                having=stmt.having)
        return self._references_name(single, name)

    @staticmethod
    def _setop_branches(stmt: ast.SelectStmt) -> List[ast.SelectStmt]:
        """Flatten a left-deep UNION ALL chain into its branch cores."""
        branches = []
        current: Optional[ast.SelectStmt] = stmt
        while current is not None:
            branches.append(current)
            nxt = current.set_right
            current = nxt
        return branches

    def _check_setop_arity(self, setop: SetOpBox, branch: Box) -> None:
        if len(branch.head.columns) != len(setop.head.columns):
            raise SemanticError(
                "set-operation branches have different column counts"
            )
        for target, source in zip(setop.head.columns, branch.head.columns):
            if (target.dtype is not None and source.dtype is not None
                    and common_type(target.dtype, source.dtype) is None):
                raise TypeCheckError(
                    "set-operation column %s has incompatible types %s / %s"
                    % (target.name, target.dtype.name, source.dtype.name)
                )

    def _translate_setops(self, stmt: ast.SelectStmt,
                          outer_scope: Optional[Scope],
                          toplevel: bool = False) -> Box:
        # The WITH clause of ``stmt`` (if any) was processed by the caller.
        box = self._translate_core(stmt, outer_scope, skip_ctes=True)
        current = stmt
        while current.set_op is not None and current.set_right is not None:
            right_stmt = current.set_right
            right = self._translate_core(right_stmt, outer_scope)
            setop = SetOpBox(current.set_op, current.set_all)
            self.qgm.add_box(setop)
            setop.head = Head([
                HeadColumn(column.name, None, column.dtype)
                for column in box.head.columns
            ])
            setop.head.distinct = (DistinctMode.PRESERVE if current.set_all
                                   else DistinctMode.ENFORCE)
            self._check_setop_arity(setop, box)
            self._check_setop_arity(setop, right)
            setop.add_quantifier(self.qgm.new_quantifier("F", box))
            setop.add_quantifier(self.qgm.new_quantifier("F", right))
            box = setop
            current = right_stmt
        if toplevel:
            self._apply_order_and_limit(stmt, box)
        return box

    def _apply_order_and_limit(self, stmt: ast.SelectStmt, box: Box) -> None:
        # ORDER BY belongs to the statement's final result, not to a box.
        order = self._find_order_stmt(stmt)
        if order.order_by:
            for item in order.order_by:
                position = self._resolve_order_item(item, box)
                self.qgm.order_by.append((position, item.ascending))
        if order.limit is not None:
            self.qgm.limit = order.limit

    @staticmethod
    def _find_order_stmt(stmt: ast.SelectStmt) -> ast.SelectStmt:
        """ORDER BY/LIMIT parse onto the first core of a set-op chain."""
        return stmt

    def _resolve_order_item(self, item: ast.OrderItem, box: Box) -> int:
        expr = item.expr
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value - 1
            if not 0 <= position < len(box.head.columns):
                raise SemanticError(
                    "ORDER BY position %d out of range" % expr.value
                )
            return position
        if isinstance(expr, ast.ColumnRef) and expr.qualifier is None:
            try:
                return box.head.index_of(expr.name.lower())
            except Exception:
                pass
        # A non-output expression: add a hidden head column when the box's
        # translation scope is still available (plain SELECT cores).
        scope = box.annotations.get("scope")
        if scope is not None:
            if box.head.distinct is DistinctMode.ENFORCE:
                raise SemanticError(
                    "ORDER BY expressions must appear in the select list "
                    "when SELECT DISTINCT is used"
                )
            translated = self._translate_expr(expr, box, scope,
                                              allow_aggregates=False)
            for position, column in enumerate(box.head.columns):
                if column.expr is not None and \
                        self._same_expr(column.expr, translated):
                    return position
            if self.qgm.visible_columns is None:
                self.qgm.visible_columns = len(box.head.columns)
            name = "__ord%d" % len(box.head.columns)
            box.head.columns.append(HeadColumn(name, translated,
                                               translated.dtype))
            return len(box.head.columns) - 1
        raise SemanticError(
            "ORDER BY must name an output column or position"
        )

    # ==== SELECT core ============================================================

    def _translate_core(self, stmt: ast.SelectStmt,
                        outer_scope: Optional[Scope],
                        skip_ctes: bool = False) -> Box:
        if stmt.ctes and not skip_ctes:
            # a parenthesized inner query may carry its own WITH
            return self.translate_query(stmt, outer_scope)
        box = SelectBox()
        self.qgm.add_box(box)
        scope = Scope(outer_scope)
        for item in stmt.from_items:
            self._add_from_item(item, box, scope)
        if stmt.where is not None:
            self._add_where(stmt.where, box, scope)

        has_aggregates = bool(stmt.group_by) or stmt.having is not None or any(
            self._contains_aggregate(select_item.expr)
            for select_item in stmt.items
        )
        if has_aggregates:
            result = self._build_aggregation(stmt, box, scope)
        else:
            self._build_plain_head(stmt, box, scope)
            result = box
            # Kept for ORDER BY resolution over non-output expressions;
            # dropped once the statement is fully translated.
            result.annotations["scope"] = scope
        if stmt.distinct:
            result.head.distinct = DistinctMode.ENFORCE
        return result

    # -- FROM -----------------------------------------------------------------------

    def _add_from_item(self, item: ast.FromItem, box: Box,
                       scope: Scope) -> None:
        if isinstance(item, ast.JoinSource):
            self._add_join_source(item, box, scope)
            return
        binding, alias = self._make_binding(item, scope)
        box.add_quantifier(binding.quantifier)
        scope.define(alias, binding)

    def _make_binding(self, item: ast.FromItem,
                      scope: Scope) -> Tuple[SourceBinding, str]:
        """Create a setformer + binding for a non-join FROM item."""
        if isinstance(item, ast.TableRef):
            input_box = self._resolve_table_source(item.name)
            alias = item.alias or item.name
        elif isinstance(item, ast.SubquerySource):
            input_box = self.translate_query(item.query, scope)
            if item.column_names:
                self._rename_head(input_box, item.column_names)
            alias = item.alias or "q%d" % input_box.uid
        elif isinstance(item, ast.TableFunctionSource):
            input_box = self._translate_table_function(item, scope)
            if item.column_names:
                self._rename_head(input_box, item.column_names)
            alias = item.alias or item.name
        else:
            raise SemanticError("unsupported FROM item %r" % (item,))
        quantifier = self.qgm.new_quantifier("F", input_box,
                                             name=(item.alias or None))
        return SourceBinding(quantifier), alias

    def _resolve_table_source(self, name: str) -> Box:
        """Resolve a table name: table expression → view → base table."""
        key = name.lower()
        for frame in reversed(self._cte_stack):
            if key in frame:
                return frame[key]
        catalog = self.context.catalog
        if catalog.has_view(key):
            view = catalog.view(key)
            box = self.translate_query(view.ast, None)
            if view.column_names:
                self._rename_head(box, view.column_names)
            box.annotations["view"] = view.name
            return box
        if catalog.has_table(key):
            return self.qgm.base_table(catalog.table(key))
        raise SemanticError("unknown table or view %s" % name)

    def _rename_head(self, box: Box, names: Sequence[str]) -> None:
        if len(names) != len(box.head.columns):
            raise SemanticError(
                "%d column names supplied for a %d-column table"
                % (len(names), len(box.head.columns))
            )
        for column, name in zip(box.head.columns, names):
            column.name = name.lower()

    def _translate_table_function(self, item: ast.TableFunctionSource,
                                  scope: Scope) -> Box:
        function = self.context.functions.table_function(item.name)
        if function is None:
            raise SemanticError("unknown table function %s" % item.name)
        if len(item.table_args) != function.table_inputs:
            raise SemanticError(
                "table function %s expects %d table input(s), got %d"
                % (item.name, function.table_inputs, len(item.table_args))
            )
        box = TableFunctionBox(item.name)
        self.qgm.add_box(box)
        for argument in item.scalar_args:
            expr = self._translate_expr(argument, None, None,
                                        allow_aggregates=False)
            box.scalar_args.append(expr)
        for table_arg in item.table_args:
            binding, _ = self._make_binding(table_arg, scope)
            box.add_quantifier(binding.quantifier)
        # The output schema of a table function is known only at run time
        # in general; built-ins with static shape declare it here.
        self._infer_table_function_head(box, function)
        return box

    def _infer_table_function_head(self, box: TableFunctionBox,
                                   function) -> None:
        if box.function_name == "series":
            box.head.columns.append(HeadColumn("n", qe.Const(0, INTEGER),
                                               INTEGER))
            return
        if box.quantifiers:
            # Default: same shape as the first table input (true for SAMPLE
            # and most filters); DBC functions can override via annotation.
            source = box.quantifiers[0].input
            for column in source.head.columns:
                box.head.columns.append(
                    HeadColumn(column.name,
                               qe.Const(None, column.dtype), column.dtype)
                )
            return
        raise SemanticError(
            "table function %s must declare an output schema"
            % box.function_name
        )

    def _add_join_source(self, item: ast.JoinSource, box: Box,
                         scope: Scope) -> None:
        if item.join_type == "inner":
            self._add_from_item(item.left, box, scope)
            self._add_from_item(item.right, box, scope)
            if item.condition is not None:
                self._add_where(item.condition, box, scope)
            return
        if item.join_type == "left_outer":
            if LEFT_OUTER_JOIN not in self.context.operations:
                raise SemanticError(
                    "LEFT OUTER JOIN is not enabled; register the "
                    "'%s' operation extension first" % LEFT_OUTER_JOIN
                )
            self._add_outer_join(item, box, scope)
            return
        raise SemanticError("unsupported join type %s" % item.join_type)

    def _add_outer_join(self, item: ast.JoinSource, box: Box,
                        scope: Scope) -> None:
        """Build the outer-join SELECT box: PF (preserved) + F setformers."""
        ojbox = SelectBox()
        ojbox.annotations["operation"] = LEFT_OUTER_JOIN
        self.qgm.add_box(ojbox)
        inner_scope = Scope(scope.parent)

        def add_side(side: ast.FromItem, qtype: str) -> SourceBinding:
            if isinstance(side, ast.JoinSource):
                raise SemanticError(
                    "nested joins inside OUTER JOIN are not supported; "
                    "use a derived table"
                )
            binding, alias = self._make_binding(side, inner_scope)
            binding.quantifier.qtype = qtype
            ojbox.add_quantifier(binding.quantifier)
            inner_scope.define(alias, binding)
            return binding

        left = add_side(item.left, "PF")
        right = add_side(item.right, "F")
        if item.condition is not None:
            for conjunct in self._split_ast_conjuncts(item.condition):
                expr = self._translate_expr(conjunct, ojbox, inner_scope,
                                            allow_aggregates=False)
                self._require_boolean(expr)
                ojbox.add_predicate(Predicate(expr))

        # Head: every column of both sides; disambiguate duplicate names.
        used: Set[str] = set()
        outer_maps: List[Dict[str, str]] = []
        for binding in (left, right):
            mapping: Dict[str, str] = {}
            alias = next(a for a, b in inner_scope.bindings.items()
                         if b is binding)
            for column in binding.quantifier.input.head.columns:
                head_name = column.name
                if head_name in used:
                    head_name = "%s_%s" % (alias, column.name)
                used.add(head_name)
                mapping[column.name] = head_name
                ojbox.head.columns.append(HeadColumn(
                    head_name,
                    qe.ColRef(binding.quantifier, column.name, column.dtype),
                    column.dtype,
                ))
            outer_maps.append(mapping)

        oj_quantifier = self.qgm.new_quantifier("F", ojbox)
        box.add_quantifier(oj_quantifier)
        for binding, mapping in zip((left, right), outer_maps):
            alias = next(a for a, b in inner_scope.bindings.items()
                         if b is binding)
            scope.define(alias, SourceBinding(oj_quantifier, mapping))

    # -- WHERE ------------------------------------------------------------------------

    @staticmethod
    def _split_ast_conjuncts(expr: ast.Expr) -> List[ast.Expr]:
        if isinstance(expr, ast.BinaryOp) and expr.op == "and":
            return (Translator._split_ast_conjuncts(expr.left)
                    + Translator._split_ast_conjuncts(expr.right))
        return [expr]

    def _add_where(self, where: ast.Expr, box: Box, scope: Scope) -> None:
        for conjunct in self._split_ast_conjuncts(where):
            expr = self._translate_expr(conjunct, box, scope,
                                        allow_aggregates=False)
            self._require_boolean(expr)
            box.add_predicate(Predicate(expr))

    @staticmethod
    def _require_boolean(expr: qe.QExpr) -> None:
        if expr.dtype is not None and expr.dtype != BOOLEAN:
            raise TypeCheckError("predicate %r is not boolean" % (expr,))

    # -- head construction ---------------------------------------------------------------

    def _expand_items(self, stmt: ast.SelectStmt, box: Box,
                      scope: Scope) -> List[Tuple[str, ast.Expr]]:
        """Expand * and name every select item."""
        result: List[Tuple[str, ast.Expr]] = []
        used: Dict[str, int] = {}

        def unique(name: str) -> str:
            count = used.get(name, 0)
            used[name] = count + 1
            return name if count == 0 else "%s_%d" % (name, count)

        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                for alias, binding in self._star_bindings(item.expr, scope):
                    for visible, head_name in binding.columns.items():
                        result.append((
                            unique(visible),
                            ast.ColumnRef(visible, qualifier=alias),
                        ))
                continue
            if item.alias:
                name = item.alias.lower()
            elif isinstance(item.expr, ast.ColumnRef):
                name = item.expr.name.lower()
            else:
                name = "c%d" % (len(result) + 1)
            result.append((unique(name), item.expr))
        if not result:
            raise SemanticError("empty select list")
        return result

    def _star_bindings(self, star: ast.Star, scope: Scope):
        if star.qualifier is not None:
            binding = scope.bindings.get(star.qualifier.lower())
            if binding is None:
                raise SemanticError("unknown table %s in %s.*"
                                    % (star.qualifier, star.qualifier))
            return [(star.qualifier.lower(), binding)]
        pairs = []
        for alias, binding in scope.bindings.items():
            if binding in scope.order:
                pairs.append((alias, binding))
        # keep FROM order
        pairs.sort(key=lambda pair: scope.order.index(pair[1]))
        if not pairs:
            raise SemanticError("* with no FROM clause")
        # Drop duplicate bindings (outer-join sides share one quantifier,
        # but with distinct column maps, so keep those).
        return pairs

    def _build_plain_head(self, stmt: ast.SelectStmt, box: Box,
                          scope: Scope) -> None:
        for name, expr_ast in self._expand_items(stmt, box, scope):
            expr = self._translate_expr(expr_ast, box, scope,
                                        allow_aggregates=False)
            box.head.columns.append(HeadColumn(name, expr, expr.dtype))
        if not box.quantifiers and not box.head.columns:
            raise SemanticError("degenerate select")

    # -- aggregation --------------------------------------------------------------------

    def _contains_aggregate(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.FunctionCall):
            if self.context.functions.is_aggregate(expr.name):
                return True
            return any(self._contains_aggregate(a) for a in expr.args
                       if not isinstance(a, ast.Star))
        for attr in getattr(expr, "__slots__", ()):
            value = getattr(expr, attr, None)
            if isinstance(value, ast.Expr):
                if self._contains_aggregate(value):
                    return True
            elif isinstance(value, list):
                for element in value:
                    if isinstance(element, ast.Expr) and \
                            self._contains_aggregate(element):
                        return True
                    if (isinstance(element, tuple) and len(element) == 2
                            and isinstance(element[0], ast.Expr)):
                        if (self._contains_aggregate(element[0])
                                or self._contains_aggregate(element[1])):
                            return True
        return False

    def _build_aggregation(self, stmt: ast.SelectStmt, lower: Box,
                           scope: Scope) -> Box:
        """lower SELECT → GROUP BY → upper SELECT decomposition."""
        # 1. Group keys over the lower box.
        group_keys = [
            self._translate_expr(g, lower, scope, allow_aggregates=False)
            for g in stmt.group_by
        ]

        # 2. Create the upper SELECT box now: subqueries inside the select
        #    list or HAVING belong to it (they are evaluated per *group*),
        #    while plain column references still resolve through ``scope``
        #    to the lower box's iterators (rewritten in step 5).
        upper = SelectBox()
        self.qgm.add_box(upper)

        items = self._expand_items(stmt, lower, scope)
        translated_items: List[Tuple[str, qe.QExpr]] = [
            (name, self._translate_expr(expr_ast, upper, scope,
                                        allow_aggregates=True))
            for name, expr_ast in items
        ]
        having_expr = None
        if stmt.having is not None:
            having_expr = self._translate_expr(stmt.having, upper, scope,
                                               allow_aggregates=True)
            self._require_boolean(having_expr)

        aggregates: List[qe.AggCall] = []

        def collect(expr: qe.QExpr) -> None:
            for node in qe.walk(expr):
                if isinstance(node, qe.AggCall):
                    if not any(self._same_expr(node, seen)
                               for seen in aggregates):
                        aggregates.append(node)

        for _, expr in translated_items:
            collect(expr)
        if having_expr is not None:
            collect(having_expr)

        # 3. Lower head: group keys + aggregate arguments.
        lower_names: List[str] = []
        for index, key in enumerate(group_keys):
            name = "g%d" % index
            lower.head.columns.append(HeadColumn(name, key, key.dtype))
            lower_names.append(name)
        agg_arg_names: List[Optional[str]] = []
        for index, agg in enumerate(aggregates):
            if agg.arg is None:
                agg_arg_names.append(None)
                continue
            name = "a%d" % index
            lower.head.columns.append(HeadColumn(name, agg.arg,
                                                 agg.arg.dtype))
            agg_arg_names.append(name)
        if not lower.head.columns:
            # COUNT(*) with no group keys: expose a constant column.
            lower.head.columns.append(
                HeadColumn("one", qe.Const(1, INTEGER), INTEGER)
            )

        # 4. GROUP BY box.
        group_box = GroupByBox()
        self.qgm.add_box(group_box)
        gq = self.qgm.new_quantifier("F", lower)
        group_box.add_quantifier(gq)
        for index, key in enumerate(group_keys):
            key_ref = qe.ColRef(gq, "g%d" % index, key.dtype)
            group_box.group_keys.append(key_ref)
            group_box.head.columns.append(
                HeadColumn("g%d" % index, key_ref, key.dtype)
            )
        for index, (agg, arg_name) in enumerate(zip(aggregates,
                                                    agg_arg_names)):
            arg_ref = (qe.ColRef(gq, arg_name, agg.arg.dtype)
                       if arg_name is not None else None)
            function = self.context.functions.aggregate(agg.name)
            dtype = function.return_type(
                [arg_ref.dtype] if arg_ref is not None else []
            )
            group_box.head.columns.append(HeadColumn(
                "agg%d" % index,
                qe.AggCall(agg.name, arg_ref, agg.distinct, dtype),
                dtype,
            ))

        # 5. Wire the upper SELECT box over the group box and rewrite the
        #    items/having expressions onto it.
        uq = self.qgm.new_quantifier("F", group_box)
        upper.add_quantifier(uq)

        def visit(node: qe.QExpr) -> qe.QExpr:
            # Top-down, so an aggregate is matched before a group key
            # inside its argument (min(k) GROUP BY k) is replaced:
            # aggregates and keys -> group-box output columns.
            if isinstance(node, qe.AggCall):
                for index, agg in enumerate(aggregates):
                    if self._same_expr(node, agg):
                        return qe.ColRef(
                            uq, "agg%d" % index,
                            group_box.head.columns[
                                len(group_keys) + index].dtype)
                raise SemanticError("unmatched aggregate %r" % node)
            for index, key in enumerate(group_keys):
                if self._same_expr(node, key):
                    return qe.ColRef(uq, "g%d" % index, key.dtype)
            children = node.children()
            rebuilt = [visit(child) for child in children]
            if any(new is not old for new, old in zip(rebuilt, children)):
                return node.copy_with(rebuilt)
            return node

        def rewrite(expr: qe.QExpr) -> qe.QExpr:
            result = visit(expr)
            # Anything still referencing lower quantifiers is illegal.
            lower_quantifiers = set(lower.quantifiers)
            for quantifier in qe.quantifiers_in(result):
                if quantifier in lower_quantifiers:
                    raise SemanticError(
                        "expression %r must appear in GROUP BY or inside "
                        "an aggregate" % expr
                    )
            return result

        for name, expr in translated_items:
            rewritten = rewrite(expr)
            upper.head.columns.append(HeadColumn(name, rewritten,
                                                 rewritten.dtype))
        if having_expr is not None:
            upper.add_predicate(Predicate(rewrite(having_expr)))
        return upper

    @staticmethod
    def _same_expr(left: qe.QExpr, right: qe.QExpr) -> bool:
        """Structural equality; quantifier names are unique per graph."""
        return repr(left) == repr(right)

    # ==== DML =====================================================================

    def _translate_insert(self, stmt: ast.InsertStmt) -> Box:
        table = self.context.catalog.table(stmt.table_name)
        if stmt.column_names is not None:
            positions = [table.column_index(c) for c in stmt.column_names]
        else:
            positions = list(range(table.arity))
        box = InsertBox(table, positions)
        self.qgm.add_box(box)
        if stmt.rows is not None:
            box.rows = []
            for row in stmt.rows:
                if len(row) != len(positions):
                    raise SemanticError(
                        "INSERT row has %d values, expected %d"
                        % (len(row), len(positions))
                    )
                box.rows.append([
                    self._translate_expr(value, None, None,
                                         allow_aggregates=False)
                    for value in row
                ])
        else:
            source = self.translate_query(stmt.query, None)
            if len(source.head.columns) != len(positions):
                raise SemanticError(
                    "INSERT query produces %d columns, expected %d"
                    % (len(source.head.columns), len(positions))
                )
            box.add_quantifier(self.qgm.new_quantifier("F", source))
        return box

    def _translate_update(self, stmt: ast.UpdateStmt) -> Box:
        table = self.context.catalog.table(stmt.table_name)
        box = UpdateBox(table)
        self.qgm.add_box(box)
        base = self.qgm.base_table(table)
        quantifier = self.qgm.new_quantifier("F", base, name=table.name)
        box.add_quantifier(quantifier)
        scope = Scope()
        scope.define(table.name, SourceBinding(quantifier))
        for column_name, value in stmt.assignments:
            column = table.column(column_name)
            expr = self._translate_expr(value, box, scope,
                                        allow_aggregates=False)
            self._check_assignable(expr, column.dtype, column_name)
            box.assignments.append((column.name, expr))
        if stmt.where is not None:
            self._add_where(stmt.where, box, scope)
        return box

    def _translate_delete(self, stmt: ast.DeleteStmt) -> Box:
        table = self.context.catalog.table(stmt.table_name)
        box = DeleteBox(table)
        self.qgm.add_box(box)
        base = self.qgm.base_table(table)
        quantifier = self.qgm.new_quantifier("F", base, name=table.name)
        box.add_quantifier(quantifier)
        scope = Scope()
        scope.define(table.name, SourceBinding(quantifier))
        if stmt.where is not None:
            self._add_where(stmt.where, box, scope)
        return box

    @staticmethod
    def _check_assignable(expr: qe.QExpr, target: DataType,
                          column_name: str) -> None:
        if expr.dtype is None or target is None:
            return
        if common_type(expr.dtype, target) is None:
            raise TypeCheckError(
                "cannot assign %s to column %s (%s)"
                % (expr.dtype.name, column_name, target.name)
            )

    # ==== expressions ==============================================================

    def _translate_expr(self, expr: ast.Expr, box: Optional[Box],
                        scope: Optional[Scope],
                        allow_aggregates: bool) -> qe.QExpr:
        method = getattr(self, "_tx_%s" % type(expr).__name__.lower(), None)
        if method is None:
            raise SemanticError(
                "unsupported expression %s" % type(expr).__name__
            )
        return method(expr, box, scope, allow_aggregates)

    # each _tx_* takes (expr, box, scope, allow_aggregates)

    def _tx_literal(self, expr: ast.Literal, box, scope, allow_aggregates):
        value = expr.value
        if value is None:
            return qe.Const(None, None)
        if isinstance(value, bool):
            return qe.Const(value, BOOLEAN)
        if isinstance(value, int):
            return qe.Const(value, INTEGER)
        if isinstance(value, float):
            return qe.Const(value, DOUBLE)
        if isinstance(value, str):
            return qe.Const(value, VARCHAR)
        raise SemanticError("unsupported literal %r" % (value,))

    def _tx_param(self, expr: ast.Param, box, scope, allow_aggregates):
        self._param_count = max(self._param_count, expr.index + 1)
        return qe.ParamRef(expr.index, expr.name, None)

    def _tx_columnref(self, expr: ast.ColumnRef, box, scope,
                      allow_aggregates):
        if scope is None:
            raise SemanticError(
                "column %s not allowed in this context" % expr.name
            )
        quantifier, head_name, dtype = scope.resolve(expr.name,
                                                     expr.qualifier)
        return qe.ColRef(quantifier, head_name, dtype)

    def _tx_binaryop(self, expr: ast.BinaryOp, box, scope,
                     allow_aggregates):
        left = self._translate_expr(expr.left, box, scope, allow_aggregates)
        right = self._translate_expr(expr.right, box, scope,
                                     allow_aggregates)
        op = expr.op
        if op in ("and", "or"):
            for side in (left, right):
                self._require_boolean(side)
            return qe.BinOp(op, left, right, BOOLEAN)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            if (left.dtype is not None and right.dtype is not None
                    and not is_comparable(left.dtype, right.dtype)):
                raise TypeCheckError(
                    "cannot compare %s with %s"
                    % (left.dtype.name, right.dtype.name)
                )
            return qe.BinOp(op, left, right, BOOLEAN)
        if op == "||":
            return qe.BinOp(op, left, right, VARCHAR)
        if op in ("+", "-", "*", "/", "%"):
            dtype = None
            if left.dtype is not None and right.dtype is not None:
                if not (is_numeric(left.dtype) and is_numeric(right.dtype)):
                    raise TypeCheckError(
                        "arithmetic needs numeric operands, got %s %s %s"
                        % (left.dtype.name, op, right.dtype.name)
                    )
                dtype = common_type(left.dtype, right.dtype)
                if op == "/":
                    dtype = DOUBLE
            return qe.BinOp(op, left, right, dtype)
        raise SemanticError("unknown operator %s" % op)

    def _tx_unaryop(self, expr: ast.UnaryOp, box, scope, allow_aggregates):
        operand = self._translate_expr(expr.operand, box, scope,
                                       allow_aggregates)
        if expr.op == "not":
            self._require_boolean(operand)
            return qe.Not(operand)
        if expr.op == "-":
            if operand.dtype is not None and not is_numeric(operand.dtype):
                raise TypeCheckError("unary minus needs a numeric operand")
            return qe.Neg(operand, operand.dtype)
        raise SemanticError("unknown unary operator %s" % expr.op)

    def _tx_isnull(self, expr: ast.IsNull, box, scope, allow_aggregates):
        operand = self._translate_expr(expr.operand, box, scope,
                                       allow_aggregates)
        return qe.IsNullTest(operand, expr.negated)

    def _tx_between(self, expr: ast.Between, box, scope, allow_aggregates):
        operand = self._translate_expr(expr.operand, box, scope,
                                       allow_aggregates)
        low = self._translate_expr(expr.low, box, scope, allow_aggregates)
        high = self._translate_expr(expr.high, box, scope, allow_aggregates)
        body = qe.BinOp("and",
                        qe.BinOp(">=", operand, low, BOOLEAN),
                        qe.BinOp("<=", operand, high, BOOLEAN),
                        BOOLEAN)
        return qe.Not(body) if expr.negated else body

    def _tx_like(self, expr: ast.Like, box, scope, allow_aggregates):
        operand = self._translate_expr(expr.operand, box, scope,
                                       allow_aggregates)
        pattern = self._translate_expr(expr.pattern, box, scope,
                                       allow_aggregates)
        return qe.LikeOp(operand, pattern, expr.negated)

    def _tx_caseexpr(self, expr: ast.CaseExpr, box, scope,
                     allow_aggregates):
        whens = []
        dtype: Optional[DataType] = None
        for condition, value in expr.whens:
            tx_condition = self._translate_expr(condition, box, scope,
                                                allow_aggregates)
            self._require_boolean(tx_condition)
            tx_value = self._translate_expr(value, box, scope,
                                            allow_aggregates)
            whens.append((tx_condition, tx_value))
            if tx_value.dtype is not None:
                dtype = (tx_value.dtype if dtype is None
                         else common_type(dtype, tx_value.dtype))
        else_value = None
        if expr.else_value is not None:
            else_value = self._translate_expr(expr.else_value, box, scope,
                                              allow_aggregates)
            if else_value.dtype is not None and dtype is not None:
                dtype = common_type(dtype, else_value.dtype)
        return qe.CaseOp(whens, else_value, dtype)

    def _tx_castexpr(self, expr: ast.CastExpr, box, scope,
                     allow_aggregates):
        operand = self._translate_expr(expr.operand, box, scope,
                                       allow_aggregates)
        dtype = self.context.types.lookup(expr.type_name, expr.type_length)
        return qe.Cast(operand, dtype)

    def _tx_functioncall(self, expr: ast.FunctionCall, box, scope,
                         allow_aggregates):
        functions = self.context.functions
        if functions.is_aggregate(expr.name):
            if not allow_aggregates:
                raise SemanticError(
                    "aggregate %s is not allowed here" % expr.name
                )
            if len(expr.args) == 1 and isinstance(expr.args[0], ast.Star):
                if expr.name != "count":
                    raise SemanticError("only COUNT(*) may take *")
                return qe.AggCall("count", None, False, INTEGER)
            if len(expr.args) != 1:
                raise SemanticError(
                    "aggregate %s takes exactly one argument" % expr.name
                )
            # aggregate arguments must not contain aggregates
            argument = self._translate_expr(expr.args[0], box, scope,
                                            allow_aggregates=False)
            function = functions.aggregate(expr.name)
            dtype = function.return_type([argument.dtype])
            return qe.AggCall(expr.name, argument, expr.distinct, dtype)
        scalar = functions.scalar(expr.name)
        if scalar is None:
            raise SemanticError("unknown function %s" % expr.name)
        scalar.check_arity(len(expr.args))
        args = [self._translate_expr(a, box, scope, allow_aggregates)
                for a in expr.args]
        dtype = scalar.return_type([a.dtype for a in args])
        return qe.FuncCall(expr.name, args, dtype)

    # -- subquery expressions -------------------------------------------------------

    def _subquery_box(self, stmt: ast.SelectStmt, scope: Scope) -> Box:
        return self.translate_query(stmt, scope)

    def _require_context(self, box, scope, what: str) -> None:
        if box is None or scope is None:
            raise SemanticError("%s not allowed in this context" % what)

    def _tx_inexpr(self, expr: ast.InExpr, box, scope, allow_aggregates):
        operand = self._translate_expr(expr.operand, box, scope,
                                       allow_aggregates)
        if expr.values is not None:
            result: Optional[qe.QExpr] = None
            for value in expr.values:
                candidate = self._translate_expr(value, box, scope,
                                                 allow_aggregates)
                equals = qe.BinOp("=", operand, candidate, BOOLEAN)
                result = equals if result is None else qe.BinOp(
                    "or", result, equals, BOOLEAN)
            assert result is not None
            return qe.Not(result) if expr.negated else result
        self._require_context(box, scope, "IN (subquery)")
        sub = self._subquery_box(expr.subquery, scope)
        if len(sub.head.columns) != 1:
            raise SemanticError("IN subquery must produce one column")
        column = sub.head.columns[0]
        if expr.negated:
            quantifier = self.qgm.new_quantifier("A", sub)
            box.add_quantifier(quantifier)
            return qe.BinOp("<>", operand,
                            qe.ColRef(quantifier, column.name, column.dtype),
                            BOOLEAN)
        quantifier = self.qgm.new_quantifier("E", sub)
        box.add_quantifier(quantifier)
        return qe.BinOp("=", operand,
                        qe.ColRef(quantifier, column.name, column.dtype),
                        BOOLEAN)

    def _tx_existsexpr(self, expr: ast.ExistsExpr, box, scope,
                       allow_aggregates):
        self._require_context(box, scope, "EXISTS")
        sub = self._subquery_box(expr.subquery, scope)
        qtype = "NE" if expr.negated else "E"
        quantifier = self.qgm.new_quantifier(qtype, sub)
        box.add_quantifier(quantifier)
        return qe.ExistsTest(quantifier)

    def _tx_quantifiedcomparison(self, expr: ast.QuantifiedComparison, box,
                                 scope, allow_aggregates):
        self._require_context(box, scope, "quantified comparison")
        function = self.context.functions.set_predicate(expr.function)
        if function is None:
            raise SemanticError(
                "unknown set-predicate function %s" % expr.function
            )
        operand = self._translate_expr(expr.operand, box, scope,
                                       allow_aggregates)
        sub = self._subquery_box(expr.subquery, scope)
        if len(sub.head.columns) != 1:
            raise SemanticError(
                "quantified subquery must produce one column"
            )
        column = sub.head.columns[0]
        quantifier = self.qgm.new_quantifier(function.quantifier_type, sub)
        box.add_quantifier(quantifier)
        return qe.BinOp(expr.op, operand,
                        qe.ColRef(quantifier, column.name, column.dtype),
                        BOOLEAN)

    def _tx_scalarsubquery(self, expr: ast.ScalarSubquery, box, scope,
                           allow_aggregates):
        self._require_context(box, scope, "scalar subquery")
        sub = self._subquery_box(expr.subquery, scope)
        if len(sub.head.columns) != 1:
            raise SemanticError("scalar subquery must produce one column")
        column = sub.head.columns[0]
        quantifier = self.qgm.new_quantifier("S", sub)
        box.add_quantifier(quantifier)
        return qe.ColRef(quantifier, column.name, column.dtype)

    def _tx_star(self, expr: ast.Star, box, scope, allow_aggregates):
        raise SemanticError("* is only allowed in a select list or COUNT(*)")


def translate(statement: ast.Statement, context) -> QGM:
    """Translate a parsed statement to QGM."""
    return Translator(context).translate(statement)
