"""QGM data model: boxes, heads, quantifiers, predicates.

The model matches section 4 of the paper:

- every operation is a *box* with a *head* (the description of its output
  table) and a *body*,
- the body holds *iterators* (:class:`Quantifier` — the class covers both
  setformers and quantifiers, distinguished by ``qtype``) and *predicates*
  (qualifier edges),
- iterators carry a *range edge* (:attr:`Quantifier.input`) to the box they
  range over; base tables are leaf boxes, so "many iterators can range over
  the same input table" is simply many quantifiers sharing one input box,
- new operations are new ``Box`` subclasses; new iterator types are new
  ``qtype`` strings whose interpretation is supplied by set-predicate
  functions or by the executor's join-kind registry.

Built-in iterator types:

========  ==========================================================
``F``     setformer (ForEach) — contributes rows to the output
``PF``    Preserve-ForEach — the outer-join extension's setformer
``E``     existential quantifier (IN, EXISTS, = ANY)
``NE``    negated existential (NOT EXISTS, NOT IN via A in SQL terms)
``A``     universal quantifier (op ALL)
``S``     scalar subquery (at most one row)
========  ==========================================================
"""

from __future__ import annotations

import copy
import enum
import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.catalog.schema import TableDef
from repro.datatypes.types import DataType
from repro.errors import QGMError
from repro.qgm.expressions import QExpr, quantifiers_in

#: Iterator types that contribute rows to the output (setformers).
SETFORMER_TYPES = ("F", "PF")


class DistinctMode(enum.Enum):
    """Duplicate handling of a box's output (paper's rule 2 uses this).

    - ENFORCE: duplicates must be eliminated,
    - PRESERVE: duplicates must be kept exactly,
    - PERMIT: either way is acceptable (the optimizer may choose).
    """

    ENFORCE = "enforce"
    PRESERVE = "preserve"
    PERMIT = "permit"


class HeadColumn:
    """One output column: name, defining expression, type."""

    __slots__ = ("name", "expr", "dtype")

    def __init__(self, name: str, expr: Optional[QExpr],
                 dtype: Optional[DataType] = None):
        self.name = name
        self.expr = expr
        self.dtype = dtype if dtype is not None else (
            expr.dtype if expr is not None else None)

    def __repr__(self) -> str:
        return "%s=%r" % (self.name, self.expr)


class Head:
    """A box's output description."""

    def __init__(self, columns: Optional[List[HeadColumn]] = None,
                 distinct: DistinctMode = DistinctMode.PRESERVE):
        self.columns: List[HeadColumn] = columns or []
        self.distinct = distinct

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> HeadColumn:
        for column in self.columns:
            if column.name == name:
                return column
        raise QGMError("no head column %s" % name)

    def index_of(self, name: str) -> int:
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise QGMError("no head column %s" % name)


class Quantifier:
    """An iterator: a vertex with a range edge to its input box."""

    _ids = itertools.count(1)

    def __init__(self, name: str, qtype: str, input_box: "Box"):
        self.uid = next(Quantifier._ids)
        self.name = name
        self.qtype = qtype
        self.input = input_box
        #: The box whose body this iterator belongs to (set by Box.add_quantifier).
        self.box: Optional[Box] = None

    @property
    def is_setformer(self) -> bool:
        return self.qtype in SETFORMER_TYPES

    def __repr__(self) -> str:
        return "<%s:%s over %s>" % (self.name, self.qtype, self.input.label())

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return self is other


class Predicate:
    """A qualifier edge: a boolean expression over one or more iterators."""

    _ids = itertools.count(1)

    def __init__(self, expr: QExpr):
        self.uid = next(Predicate._ids)
        self.expr = expr

    def quantifiers(self):
        return quantifiers_in(self.expr)

    def __repr__(self) -> str:
        return "P%d[%r]" % (self.uid, self.expr)


class Box:
    """Base class for QGM operations."""

    kind = "abstract"

    _ids = itertools.count(1)

    def __init__(self, name: Optional[str] = None):
        self.uid = next(Box._ids)
        self.name = name
        self.head = Head()
        self.quantifiers: List[Quantifier] = []
        self.predicates: List[Predicate] = []
        #: Free-form annotations for DBC extensions and rewrite bookkeeping.
        self.annotations: Dict[str, Any] = {}

    # -- body manipulation -------------------------------------------------------

    def add_quantifier(self, quantifier: Quantifier) -> Quantifier:
        quantifier.box = self
        self.quantifiers.append(quantifier)
        return quantifier

    def remove_quantifier(self, quantifier: Quantifier) -> None:
        self.quantifiers.remove(quantifier)
        quantifier.box = None

    def add_predicate(self, predicate: Predicate) -> Predicate:
        self.predicates.append(predicate)
        return predicate

    def remove_predicate(self, predicate: Predicate) -> None:
        self.predicates.remove(predicate)

    def setformers(self) -> List[Quantifier]:
        return [q for q in self.quantifiers if q.is_setformer]

    def subquery_quantifiers(self) -> List[Quantifier]:
        return [q for q in self.quantifiers if not q.is_setformer]

    # -- output schema --------------------------------------------------------------

    def output_names(self) -> List[str]:
        return self.head.column_names()

    def label(self) -> str:
        base = "%s#%d" % (self.kind, self.uid)
        return "%s(%s)" % (base, self.name) if self.name else base

    def __repr__(self) -> str:
        return "<Box %s>" % self.label()

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return self is other


class BaseTableBox(Box):
    """Leaf box for a stored table (drawn dotted in the paper's figures)."""

    kind = "base_table"

    def __init__(self, table: TableDef):
        super().__init__(name=table.name)
        self.table = table
        for column in table.columns:
            self.head.columns.append(
                HeadColumn(column.name, None, column.dtype)
            )
        # A stored table has no duplicate question: rows are what they are.
        self.head.distinct = DistinctMode.PRESERVE


class SelectBox(Box):
    """SELECT: selection + projection + join in one box."""

    kind = "select"


class GroupByBox(Box):
    """GROUP BY: one input setformer, grouping keys, aggregated head."""

    kind = "groupby"

    def __init__(self, name: Optional[str] = None):
        super().__init__(name)
        self.group_keys: List[QExpr] = []

    @property
    def input_quantifier(self) -> Quantifier:
        if len(self.quantifiers) != 1:
            raise QGMError("GROUP BY box must have exactly one iterator")
        return self.quantifiers[0]


class SetOpBox(Box):
    """UNION / INTERSECT / EXCEPT over two or more inputs.

    A recursive table expression is a UNION ALL SetOpBox whose recursive
    branch quantifier ranges over the box itself (a cycle in the graph);
    ``recursive_name`` carries the table-expression name.
    """

    kind = "setop"

    def __init__(self, op: str, all_rows: bool, name: Optional[str] = None):
        super().__init__(name)
        if op not in ("union", "intersect", "except"):
            raise QGMError("unknown set operation %s" % op)
        self.op = op
        self.all_rows = all_rows
        self.recursive_name: Optional[str] = None

    @property
    def is_recursive(self) -> bool:
        return self.recursive_name is not None

    def label(self) -> str:
        base = "%s#%d" % (self.op, self.uid)
        if self.recursive_name:
            base += "(rec %s)" % self.recursive_name
        return base


class TableFunctionBox(Box):
    """A DBC table function: scalar args + table inputs -> a table."""

    kind = "table_function"

    def __init__(self, function_name: str, name: Optional[str] = None):
        super().__init__(name)
        self.function_name = function_name.lower()
        self.scalar_args: List[QExpr] = []

    def label(self) -> str:
        return "tf:%s#%d" % (self.function_name, self.uid)


class ChooseBox(Box):
    """CHOOSE (section 5): links alternative equivalent subgraphs.

    Each quantifier ranges over one alternative; all alternatives share the
    same output schema.  The optimizer keeps the cheapest and drops the
    rest (or the choice can be deferred to runtime).
    """

    kind = "choose"


class InsertBox(Box):
    """INSERT ... VALUES or INSERT ... SELECT."""

    kind = "insert"

    def __init__(self, table: TableDef,
                 column_positions: Optional[List[int]] = None):
        super().__init__(name=table.name)
        self.table = table
        #: Which table column each supplied value feeds, in order.
        self.column_positions = column_positions or list(range(table.arity))
        #: Literal rows (each a list of QExpr) when not INSERT ... SELECT.
        self.rows: Optional[List[List[QExpr]]] = None


class UpdateBox(Box):
    """UPDATE: a target setformer over the base table + assignments."""

    kind = "update"

    def __init__(self, table: TableDef):
        super().__init__(name=table.name)
        self.table = table
        self.assignments: List[Tuple[str, QExpr]] = []

    @property
    def target(self) -> Quantifier:
        return self.quantifiers[0]


class DeleteBox(Box):
    """DELETE: a target setformer over the base table + predicates."""

    kind = "delete"

    def __init__(self, table: TableDef):
        super().__init__(name=table.name)
        self.table = table

    @property
    def target(self) -> Quantifier:
        return self.quantifiers[0]


class QGM:
    """One query's graph: the main-memory database about the query."""

    def __init__(self):
        self.boxes: List[Box] = []
        self.root: Optional[Box] = None
        self._base_tables: Dict[str, BaseTableBox] = {}
        self._quantifier_names = itertools.count(1)
        self._used_names: set = set()
        #: ORDER BY on the final result: (head position, ascending) pairs.
        self.order_by: List[Tuple[int, bool]] = []
        self.limit: Optional[int] = None
        self.parameter_count = 0
        #: When ORDER BY references non-output expressions, hidden head
        #: columns are appended; only the first ``visible_columns`` columns
        #: are part of the user-visible result (None = all).
        self.visible_columns: Optional[int] = None

    # -- construction -----------------------------------------------------------------

    def add_box(self, box: Box) -> Box:
        self.boxes.append(box)
        return box

    def base_table(self, table: TableDef) -> BaseTableBox:
        """The shared leaf box for a stored table."""
        box = self._base_tables.get(table.name)
        if box is None:
            box = BaseTableBox(table)
            self._base_tables[table.name] = box
            self.add_box(box)
        return box

    def new_quantifier(self, qtype: str, input_box: Box,
                       name: Optional[str] = None) -> Quantifier:
        if name is None:
            while True:
                name = "q%d" % next(self._quantifier_names)
                if name not in self._used_names:
                    break
        elif name in self._used_names:
            base = name
            suffix = 2
            while name in self._used_names:
                name = "%s_%d" % (base, suffix)
                suffix += 1
        self._used_names.add(name)
        return Quantifier(name, qtype, input_box)

    def remove_box(self, box: Box) -> None:
        """Remove a box that no longer has consumers."""
        if self.consumers(box):
            raise QGMError("box %s still has consumers" % box.label())
        self.boxes.remove(box)
        if isinstance(box, BaseTableBox):
            self._base_tables.pop(box.table.name, None)

    # -- snapshots ---------------------------------------------------------------------

    def snapshot(self) -> "QGM":
        """A deep copy of the graph that shares catalog objects.

        The rewrite engine's search mode explores alternative rule-firing
        sequences on snapshots, costing each variant, without disturbing
        the original graph.  Table definitions and data types are *shared*
        (pinned in the deepcopy memo): they belong to the catalog, not to
        the query, and rules never mutate them.
        """
        memo: Dict[int, Any] = {}
        for box in self.boxes:
            table = getattr(box, "table", None)
            if table is not None:
                memo[id(table)] = table
            for column in box.head.columns:
                if column.dtype is not None:
                    memo[id(column.dtype)] = column.dtype
        return copy.deepcopy(self, memo)

    def adopt(self, other: "QGM") -> None:
        """Take over another graph's contents (same QGM object identity).

        Used by search-mode rewrite: the winning snapshot's boxes become
        this graph's boxes, so callers holding a reference to this QGM see
        the rewritten query.
        """
        self.boxes = other.boxes
        self.root = other.root
        self._base_tables = other._base_tables
        self._quantifier_names = other._quantifier_names
        self._used_names = other._used_names
        self.order_by = other.order_by
        self.limit = other.limit
        self.parameter_count = other.parameter_count
        self.visible_columns = other.visible_columns

    # -- graph queries -----------------------------------------------------------------

    def consumers(self, box: Box) -> List[Quantifier]:
        """Every quantifier (in any box) ranging over ``box``."""
        result = []
        for candidate in self.boxes:
            for quantifier in candidate.quantifiers:
                if quantifier.input is box:
                    result.append(quantifier)
        return result

    def reachable_boxes(self) -> List[Box]:
        """Boxes reachable from the root, in depth-first discovery order."""
        if self.root is None:
            return []
        seen: List[Box] = []
        seen_set = set()
        stack = [self.root]
        while stack:
            box = stack.pop()
            if box in seen_set:
                continue
            seen_set.add(box)
            seen.append(box)
            for quantifier in box.quantifiers:
                stack.append(quantifier.input)
        return seen

    def garbage_collect(self) -> int:
        """Drop boxes no longer reachable from the root; returns the count."""
        reachable = set(self.reachable_boxes())
        removed = 0
        for box in list(self.boxes):
            if box not in reachable:
                self.boxes.remove(box)
                if isinstance(box, BaseTableBox):
                    self._base_tables.pop(box.table.name, None)
                removed += 1
        return removed
