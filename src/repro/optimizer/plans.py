"""LOLEPOPs: low-level plan operators.

"LOLEPOPs are a variation of the relational algebra (e.g. JOIN, UNION,
etc.) supplemented with physical operators such as SCAN, SORT, SHIP ...
Each LOLEPOP is expressed as a function that operates on 0 or more streams
of tuples and produces 0 or more new streams."  Every operator's
constructor *is* its property function: it derives the output
:class:`~repro.optimizer.properties.PlanProperties` (including cost and
cardinality) from its inputs.

Two stream flavours flow between operators:

- **binding streams** carry an environment mapping quantifiers to rows —
  these exist inside one QGM box (scans, joins, filters),
- **row streams** carry plain tuples — the output of PROJECT, GROUP BY and
  set operations, i.e. a *table* crossing a box boundary.

Join operators take a ``kind`` parameter separating the *join method*
(control structure: NL / merge / hash) from the *join kind* (function:
regular, exists, not_exists, all, scalar, left_outer, or any DBC-registered
kind) exactly as section 7 of the paper prescribes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.catalog.schema import IndexDef, TableDef
from repro.optimizer.cost import CostModel
from repro.optimizer.properties import PlanProperties, order_key
from repro.qgm import expressions as qe
from repro.qgm.model import Box, Predicate, Quantifier

#: Join kinds that add the inner quantifier's row to the binding stream.
BINDING_JOIN_KINDS = ("regular", "scalar", "left_outer")


class SubplanBinding:
    """A subquery quantifier's plan plus its correlation signature.

    ``correlation`` lists the outer-quantifier column references appearing
    free inside the subplan; the executor caches subquery results keyed by
    their values ("evaluate-on-demand ... avoid re-evaluating the subquery
    when the correlation values have not changed").
    """

    __slots__ = ("quantifier", "plan", "correlation")

    def __init__(self, quantifier: Quantifier, plan: "PlanOp",
                 correlation: Sequence[qe.ColRef]):
        self.quantifier = quantifier
        self.plan = plan
        self.correlation = list(correlation)


class PlanOp:
    """Base class for all LOLEPOPs."""

    op_name = "ABSTRACT"
    #: True when the operator emits plain tuples rather than bindings.
    produces_rows = False
    #: Which executor backend runs this node: "tuple" (the stream
    #: interpreter) or "compiled" (the pipeline-fusion codegen backend).
    #: The refinement phase flips this per node via the ExecBackend
    #: STAR.
    exec_backend = "tuple"

    def __init__(self, children: Sequence["PlanOp"],
                 props: PlanProperties):
        self.children: Tuple[PlanOp, ...] = tuple(children)
        self.props = props

    # -- display ------------------------------------------------------------------

    def describe(self) -> str:
        return self.op_name

    def explain(self, depth: int = 0) -> str:
        program = getattr(self, "codegen_program", None)
        lines = ["%s%s  (cost=%.2f card=%.1f%s%s%s%s%s%s)" % (
            "  " * depth, self.describe(), self.props.cost, self.props.card,
            (" order=" + str(list(self.props.order))) if self.props.order else "",
            " backend=%s" % self.exec_backend
            if self.exec_backend != "tuple" else "",
            " fused=%d" % program.n_pipelines if program is not None else "",
            " dop=%d" % self.props.dop if self.props.dop > 1 else "",
            # A scan of a hash-sharded table reads the catalog's layout.
            " partitioned=hash:%d" % self.table.partitions
            if isinstance(self, TableScan) and self.table.partitions
            else "",
            " fallback=%s" % self.fallback_mark
            if getattr(self, "fallback_mark", None) else "",
        )]
        for child in self.children:
            lines.append(child.explain(depth + 1))
        for binding in getattr(self, "subplans", []):
            lines.append("%s[subquery %s:%s]" % ("  " * (depth + 1),
                                                 binding.quantifier.name,
                                                 binding.quantifier.qtype))
            lines.append(binding.plan.explain(depth + 2))
        return "\n".join(lines)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()
        for binding in getattr(self, "subplans", []):
            yield from binding.plan.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<%s cost=%.2f>" % (self.op_name, self.props.cost)


# ---------------------------------------------------------------------------
# Access operators
# ---------------------------------------------------------------------------


class TableScan(PlanOp):
    """SCAN: stored table → binding stream, applying pushed predicates.

    "SCAN changes a stored table to a memory-resident stream of tuples, but
    optionally can also subset columns and apply predicates."
    """

    op_name = "SCAN"

    def __init__(self, cm: CostModel, table: TableDef,
                 quantifier: Quantifier, preds: Sequence[Predicate]):
        self.table = table
        self.quantifier = quantifier
        self.preds = list(preds)
        rows = cm.table_cardinality(table.name)
        #: Stored-table cardinality from TableStatistics: the rows this
        #: scan *reads* (before predicates), which is what the parallel
        #: glue sizes worker startup against — a selective filter
        #: doesn't make a big scan cheap to read.
        self.input_rows = rows
        #: On a sharded table, the ``e`` of every pushed ``q.part_col = e``
        #: (``e`` not over ``q``): a value of one routes the whole scan to
        #: a single partition.
        self.prune_exprs = (
            _partition_key_operands(self.preds, quantifier, table.partition_by)
            if table.partition_by and table.partitions > 1 else [])
        selectivity = 1.0
        for predicate in self.preds:
            selectivity *= cm.selectivity(predicate)
        props = PlanProperties(
            quantifiers=frozenset([quantifier]),
            preds_applied=frozenset(p.uid for p in self.preds),
            order=(),
            site=table.site,
            cost=cm.scan_cost(cm.table_pages(table.name), rows),
            card=max(0.1, rows * selectivity),
        )
        super().__init__((), props)

    def describe(self) -> str:
        extra = " + %d pred(s)" % len(self.preds) if self.preds else ""
        return "SCAN(%s as %s%s)" % (self.table.name, self.quantifier.name,
                                     extra)


def _partition_key_operands(preds: Sequence[Predicate],
                            quantifier: Quantifier,
                            column: str) -> List[qe.QExpr]:
    found = []
    for predicate in preds:
        expr = predicate.expr
        if not isinstance(expr, qe.BinOp) or expr.op != "=":
            continue
        for side, other in ((expr.left, expr.right),
                            (expr.right, expr.left)):
            if (isinstance(side, qe.ColRef)
                    and side.quantifier is quantifier
                    and side.column == column
                    and quantifier not in qe.quantifiers_in(other)):
                found.append(other)
    return found


class IndexScan(PlanOp):
    """Index access: equality prefix and/or a range on the next key column,
    then fetch + residual predicates."""

    op_name = "ISCAN"

    def __init__(self, cm: CostModel, table: TableDef,
                 quantifier: Quantifier, index: IndexDef,
                 eq_exprs: Sequence[qe.QExpr],
                 range_bounds: Optional[Tuple[Optional[qe.QExpr], bool,
                                              Optional[qe.QExpr], bool]],
                 matched_preds: Sequence[Predicate],
                 residual_preds: Sequence[Predicate],
                 ordered: bool):
        self.table = table
        self.quantifier = quantifier
        self.index = index
        self.eq_exprs = list(eq_exprs)
        self.range_bounds = range_bounds
        self.matched_preds = list(matched_preds)
        self.residual_preds = list(residual_preds)
        self.preds = self.matched_preds + self.residual_preds

        rows = cm.table_cardinality(table.name)
        match_sel = 1.0
        for predicate in self.matched_preds:
            match_sel *= cm.selectivity(predicate)
        matching = max(0.1, rows * match_sel)
        residual_sel = 1.0
        for predicate in self.residual_preds:
            residual_sel *= cm.selectivity(predicate)
        order: Tuple = ()
        if ordered:
            order = tuple(
                (order_key(qe.ColRef(quantifier, column)), True)
                for column in index.column_names
            )
        props = PlanProperties(
            quantifiers=frozenset([quantifier]),
            preds_applied=frozenset(p.uid for p in self.preds),
            order=order,
            site=table.site,
            cost=cm.index_scan_cost(matching, rows,
                                    cm.table_pages(table.name)),
            card=max(0.1, matching * residual_sel),
        )
        super().__init__((), props)

    def describe(self) -> str:
        return "ISCAN(%s as %s via %s, eq=%d%s)" % (
            self.table.name, self.quantifier.name, self.index.name,
            len(self.eq_exprs), ", range" if self.range_bounds else "")


class DerivedScan(PlanOp):
    """Access to a derived table: bind the child's rows to a quantifier."""

    op_name = "ACCESS"

    def __init__(self, cm: CostModel, child: "PlanOp", box: Box,
                 quantifier: Quantifier, preds: Sequence[Predicate] = ()):
        self.box = box
        self.quantifier = quantifier
        self.preds = list(preds)
        selectivity = 1.0
        for predicate in self.preds:
            selectivity *= cm.selectivity(predicate)
        props = PlanProperties(
            quantifiers=frozenset([quantifier]),
            preds_applied=frozenset(p.uid for p in self.preds),
            order=tuple(
                (order_key(qe.ColRef(quantifier,
                                     box.head.columns[pos].name)), asc)
                for pos, asc in _positional_order(child)
            ),
            site=child.props.site,
            cost=child.props.cost + cm.per_row_cpu(child.props.card),
            card=max(0.1, child.props.card * selectivity),
            extras={"replay_cost": child.props.extras.get(
                "replay_cost", child.props.cost)},
        )
        super().__init__((child,), props)

    def describe(self) -> str:
        return "ACCESS(%s as %s)" % (self.box.label(), self.quantifier.name)


def _positional_order(child: PlanOp) -> List[Tuple[int, bool]]:
    """Decode a row stream's positional order keys ("$i")."""
    result = []
    for key, asc in child.props.order:
        if key.startswith("$"):
            try:
                result.append((int(key[1:]), asc))
            except ValueError:
                break
        else:
            break
    return result


class DeltaScan(PlanOp):
    """Access to the delta of a recursive table (semi-naive evaluation)."""

    op_name = "DELTA"

    def __init__(self, cm: CostModel, box: Box, quantifier: Quantifier):
        self.box = box
        self.quantifier = quantifier
        self.preds: List[Predicate] = []
        props = PlanProperties(
            quantifiers=frozenset([quantifier]),
            cost=1.0,
            card=50.0,  # a guess; recursion sizes are unknowable statically
        )
        super().__init__((), props)

    def describe(self) -> str:
        return "DELTA(%s as %s)" % (self.box.label(), self.quantifier.name)


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


class Filter(PlanOp):
    """FILTER: apply subquery-free predicates to a binding stream."""

    op_name = "FILTER"

    def __init__(self, cm: CostModel, child: PlanOp,
                 preds: Sequence[Predicate]):
        self.preds = list(preds)
        selectivity = 1.0
        for predicate in self.preds:
            selectivity *= cm.selectivity(predicate)
        props = child.props.evolve(
            preds_applied=child.props.preds_applied
            | frozenset(p.uid for p in self.preds),
            cost=child.props.cost + cm.per_row_cpu(child.props.card),
            card=max(0.1, child.props.card * selectivity),
        )
        super().__init__((child,), props)

    def describe(self) -> str:
        return "FILTER(%s)" % ", ".join(repr(p.expr) for p in self.preds)


class QuantifiedFilter(PlanOp):
    """The OR operator (section 7): evaluates predicates that mention
    subquery quantifiers — possibly disjunctively — over a binding stream.

    Each referenced subquery has a :class:`SubplanBinding`; evaluation is
    on demand with correlation-value caching.
    """

    op_name = "ORFILTER"

    def __init__(self, cm: CostModel, child: PlanOp,
                 preds: Sequence[Predicate],
                 subplans: Sequence[SubplanBinding]):
        self.preds = list(preds)
        self.subplans = list(subplans)
        selectivity = 1.0
        for predicate in self.preds:
            selectivity *= cm.selectivity(predicate)
        inner_cost = sum(b.plan.props.cost for b in self.subplans)
        inner_rows = sum(b.plan.props.card for b in self.subplans)
        props = child.props.evolve(
            preds_applied=child.props.preds_applied
            | frozenset(p.uid for p in self.preds),
            cost=(child.props.cost + inner_cost
                  + cm.per_row_cpu(child.props.card * (1.0 + inner_rows))),
            card=max(0.1, child.props.card * selectivity),
        )
        super().__init__((child,), props)

    def describe(self) -> str:
        return "ORFILTER(%s; %d subquery stream(s))" % (
            ", ".join(repr(p.expr) for p in self.preds), len(self.subplans))


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def _join_props(cm: CostModel, outer: PlanOp, inner: PlanOp, kind: str,
                preds: Sequence[Predicate], cost: float,
                order) -> PlanProperties:
    selectivity = 1.0
    for predicate in preds:
        selectivity *= cm.selectivity(predicate)
    if kind == "regular":
        card = max(0.1, outer.props.card * inner.props.card * selectivity)
        quantifiers = outer.props.quantifiers | inner.props.quantifiers
    elif kind == "left_outer":
        card = max(outer.props.card,
                   outer.props.card * inner.props.card * selectivity)
        quantifiers = outer.props.quantifiers | inner.props.quantifiers
    elif kind == "scalar":
        card = outer.props.card
        quantifiers = outer.props.quantifiers | inner.props.quantifiers
    else:  # exists / not_exists / all / DBC kinds: semijoin-like
        card = max(0.1, outer.props.card * 0.5)
        quantifiers = outer.props.quantifiers
    return PlanProperties(
        quantifiers=quantifiers,
        preds_applied=(outer.props.preds_applied | inner.props.preds_applied
                       | frozenset(p.uid for p in preds)),
        order=order,
        site=outer.props.site,
        cost=cost,
        card=card,
    )


class NLJoin(PlanOp):
    """Nested-loop join; the inner stream is re-opened per outer row."""

    op_name = "NLJOIN"

    def __init__(self, cm: CostModel, outer: PlanOp, inner: PlanOp,
                 kind: str, preds: Sequence[Predicate]):
        self.kind = kind
        self.preds = list(preds)
        replay = inner.props.extras.get("replay_cost", inner.props.cost)
        cost = (outer.props.cost + inner.props.cost
                + max(0.0, outer.props.card - 1.0) * replay
                + cm.per_row_cpu(outer.props.card * inner.props.card))
        props = _join_props(cm, outer, inner, kind, preds, cost,
                            outer.props.order)
        super().__init__((outer, inner), props)

    def describe(self) -> str:
        return "NLJOIN[%s](%s)" % (self.kind,
                                   ", ".join(repr(p.expr) for p in self.preds))


class MergeJoin(PlanOp):
    """Sort-merge join; requires both inputs ordered on the join keys."""

    op_name = "MERGEJOIN"

    def __init__(self, cm: CostModel, outer: PlanOp, inner: PlanOp,
                 kind: str, outer_keys: Sequence[qe.QExpr],
                 inner_keys: Sequence[qe.QExpr],
                 preds: Sequence[Predicate],
                 residual: Sequence[Predicate] = ()):
        self.kind = kind
        self.outer_keys = list(outer_keys)
        self.inner_keys = list(inner_keys)
        self.preds = list(preds)
        self.residual = list(residual)
        cost = (outer.props.cost + inner.props.cost
                + cm.per_row_cpu(outer.props.card + inner.props.card))
        props = _join_props(cm, outer, inner, kind,
                            list(preds) + list(residual), cost,
                            outer.props.order)
        super().__init__((outer, inner), props)

    def describe(self) -> str:
        return "MERGEJOIN[%s](%s)" % (
            self.kind,
            ", ".join("%r=%r" % (o, i)
                      for o, i in zip(self.outer_keys, self.inner_keys)))


class HashJoin(PlanOp):
    """Hash join: build on the inner, probe with the outer."""

    op_name = "HASHJOIN"

    def __init__(self, cm: CostModel, outer: PlanOp, inner: PlanOp,
                 kind: str, outer_keys: Sequence[qe.QExpr],
                 inner_keys: Sequence[qe.QExpr],
                 preds: Sequence[Predicate],
                 residual: Sequence[Predicate] = ()):
        self.kind = kind
        self.outer_keys = list(outer_keys)
        self.inner_keys = list(inner_keys)
        self.preds = list(preds)
        self.residual = list(residual)
        cost = (outer.props.cost + inner.props.cost
                + cm.hash_cost(inner.props.card, outer.props.card))
        props = _join_props(cm, outer, inner, kind,
                            list(preds) + list(residual), cost,
                            outer.props.order)
        super().__init__((outer, inner), props)

    def describe(self) -> str:
        return "HASHJOIN[%s](%s)" % (
            self.kind,
            ", ".join("%r=%r" % (o, i)
                      for o, i in zip(self.outer_keys, self.inner_keys)))


class SubqueryJoin(PlanOp):
    """Join against a subquery stream by *kind* (exists/all/scalar/...).

    This is the evaluate-on-demand operator: the inner plan is evaluated
    lazily per outer row, with caching keyed on the correlation values.
    """

    op_name = "SUBQJOIN"

    def __init__(self, cm: CostModel, outer: PlanOp,
                 binding: SubplanBinding, kind: str,
                 preds: Sequence[Predicate]):
        self.kind = kind
        self.binding = binding
        self.subplans = [binding]
        self.preds = list(preds)
        inner = binding.plan
        correlated = bool(binding.correlation)
        evaluations = outer.props.card if correlated else 1.0
        cost = (outer.props.cost
                + inner.props.cost * min(evaluations,
                                         max(1.0, outer.props.card * 0.2))
                + cm.per_row_cpu(outer.props.card * max(1.0, inner.props.card)))
        selectivity = 1.0
        for predicate in self.preds:
            selectivity *= cm.selectivity(predicate)
        quantifiers = outer.props.quantifiers
        card = max(0.1, outer.props.card
                   * (selectivity if kind in ("exists", "scalar") else 0.5))
        if kind == "scalar":
            card = outer.props.card
        props = PlanProperties(
            quantifiers=quantifiers,
            preds_applied=outer.props.preds_applied
            | frozenset(p.uid for p in self.preds),
            order=outer.props.order,
            site=outer.props.site,
            cost=cost,
            card=card,
        )
        super().__init__((outer,), props)

    def describe(self) -> str:
        return "SUBQJOIN[%s](%s as %s; %s)" % (
            self.kind, self.binding.plan.op_name,
            self.binding.quantifier.name,
            ", ".join(repr(p.expr) for p in self.preds) or "non-empty")


# ---------------------------------------------------------------------------
# Order / site / materialization operators
# ---------------------------------------------------------------------------


class Sort(PlanOp):
    """SORT a binding stream on expression keys (merge-join glue)."""

    op_name = "SORT"

    def __init__(self, cm: CostModel, child: PlanOp,
                 keys: Sequence[Tuple[qe.QExpr, bool]]):
        self.keys = list(keys)
        props = child.props.evolve(
            order=tuple((order_key(expr), asc) for expr, asc in self.keys),
            cost=child.props.cost + cm.sort_cost(child.props.card),
            extras={"replay_cost": cm.per_row_cpu(child.props.card)},
        )
        super().__init__((child,), props)

    def describe(self) -> str:
        return "SORT(%s)" % ", ".join(
            "%r %s" % (expr, "ASC" if asc else "DESC")
            for expr, asc in self.keys)


class TopSort(PlanOp):
    """Final ORDER BY over a row stream (positional keys)."""

    op_name = "ORDERBY"

    def __init__(self, cm: CostModel, child: PlanOp,
                 positions: Sequence[Tuple[int, bool]]):
        self.positions = list(positions)
        props = child.props.evolve(
            order=tuple(("$%d" % pos, asc) for pos, asc in self.positions),
            cost=child.props.cost + cm.sort_cost(child.props.card),
        )
        super().__init__((child,), props)
    produces_rows = True

    def describe(self) -> str:
        return "ORDERBY(%s)" % ", ".join(
            "%d %s" % (pos + 1, "ASC" if asc else "DESC")
            for pos, asc in self.positions)


class Ship(PlanOp):
    """SHIP a stream to another site (simulated distribution)."""

    op_name = "SHIP"

    def __init__(self, cm: CostModel, child: PlanOp, to_site: str):
        self.to_site = to_site
        props = child.props.evolve(
            site=to_site,
            cost=child.props.cost + cm.ship_cost(child.props.card, to_site),
        )
        super().__init__((child,), props)
        self.produces_rows = child.produces_rows

    def describe(self) -> str:
        return "SHIP(to %s)" % self.to_site


class Temp(PlanOp):
    """TEMP: materialize a stream so it can be replayed cheaply."""

    op_name = "TEMP"

    def __init__(self, cm: CostModel, child: PlanOp):
        props = child.props.evolve(
            cost=child.props.cost + cm.per_row_cpu(child.props.card),
            extras={"replay_cost": cm.per_row_cpu(child.props.card)},
        )
        super().__init__((child,), props)
        self.produces_rows = child.produces_rows

    def describe(self) -> str:
        return "TEMP"


# ---------------------------------------------------------------------------
# Exchange operators (intra-query parallelism glue)
# ---------------------------------------------------------------------------


class Exchange(PlanOp):
    """Base of the Exchange family: glue LOLEPOPs that change the ``dop``
    property the way SHIP changes ``site``.

    The subtree below runs at ``self.dop`` over page-range morsels of
    ``morsel_scan`` (a heap-table SCAN marked as the partitioned source);
    the Exchange re-establishes a single dop=1 stream for its consumer.
    When the runtime cannot fork, or a worker pool cannot be built, the
    operator degrades to executing its child inline at dop=1 — counted in
    ``stats.parallel_fallbacks`` and visible as a ``fallback=`` EXPLAIN
    mark on the node.
    """

    op_name = "EXCHANGE"

    def __init__(self, cm: CostModel, child: PlanOp, dop: int,
                 morsel_scan: TableScan):
        self.dop = dop
        self.morsel_scan = morsel_scan
        props = child.props.evolve(
            dop=1,
            cost=(child.props.cost / float(max(1, dop))
                  + cm.parallel_startup(dop)
                  + cm.exchange_cost(child.props.card)),
        )
        super().__init__((child,), props)
        self.produces_rows = child.produces_rows

    def describe(self) -> str:
        return "%s(dop=%d over %s)" % (self.op_name, self.dop,
                                       self.morsel_scan.table.name)


class Gather(Exchange):
    """GATHER: concatenate worker result streams in morsel order.

    Morsel order equals serial scan order, so the gathered stream is
    byte-identical to dop=1 execution.  With ``merge_groups`` set (a
    GroupBy whose partial results the workers computed per-morsel), the
    gather instead merges partial groups by key, combining order-safe
    accumulators (COUNT/MIN/MAX/integer SUM) — the paper's "push work
    below the glue" move applied to aggregation.
    """

    op_name = "GATHER"

    def __init__(self, cm: CostModel, child: PlanOp, dop: int,
                 morsel_scan: TableScan,
                 merge_groups: Optional["GroupBy"] = None):
        self.merge_groups = merge_groups
        super().__init__(cm, child, dop, morsel_scan)

    def describe(self) -> str:
        base = Exchange.describe(self)
        return base + (" merge-partial-aggs" if self.merge_groups else "")


class MergeGather(Exchange):
    """MERGEGATHER: merge locally-sorted worker runs, preserving order.

    Spliced under ORDER BY (+ LIMIT): each worker sorts its morsel's rows
    on ``positions`` and, with ``limit_hint``, keeps only the local top-K,
    so at most dop*K rows cross the exchange.  The stable merge emits
    ties in morsel (= scan) order, matching the serial stable sort.
    """

    op_name = "MERGEGATHER"

    def __init__(self, cm: CostModel, child: PlanOp, dop: int,
                 morsel_scan: TableScan,
                 positions: Sequence[Tuple[int, bool]],
                 limit_hint: Optional[int] = None):
        self.positions = list(positions)
        self.limit_hint = limit_hint
        super().__init__(cm, child, dop, morsel_scan)
        self.props = self.props.evolve(
            order=tuple(("$%d" % pos, asc) for pos, asc in self.positions))

    def describe(self) -> str:
        base = Exchange.describe(self)
        if self.limit_hint is not None:
            base += " top-%d" % self.limit_hint
        return base


# ---------------------------------------------------------------------------
# Box-boundary operators (row producers)
# ---------------------------------------------------------------------------


class Project(PlanOp):
    """Evaluate head expressions: binding stream → row stream."""

    op_name = "PROJECT"
    produces_rows = True

    def __init__(self, cm: CostModel, child: PlanOp,
                 exprs: Sequence[qe.QExpr], names: Sequence[str],
                 subplans: Sequence[SubplanBinding] = ()):
        self.exprs = list(exprs)
        self.names = list(names)
        self.subplans = list(subplans)
        # Translate a child order on head expressions into positional order.
        child_order = list(child.props.order)
        positional = []
        expr_keys = [order_key(e) for e in self.exprs]
        for key, asc in child_order:
            if key in expr_keys:
                positional.append(("$%d" % expr_keys.index(key), asc))
            else:
                break
        props = child.props.evolve(
            order=tuple(positional),
            cost=child.props.cost + cm.per_row_cpu(child.props.card),
        )
        super().__init__((child,), props)

    def describe(self) -> str:
        return "PROJECT(%s)" % ", ".join(self.names)


class Distinct(PlanOp):
    """Duplicate elimination over a row stream (hash based)."""

    op_name = "DISTINCT"
    produces_rows = True

    def __init__(self, cm: CostModel, child: PlanOp):
        props = child.props.evolve(
            cost=child.props.cost + cm.hash_cost(child.props.card, 0.0),
            card=max(0.1, child.props.card * 0.9),
        )
        super().__init__((child,), props)

    def describe(self) -> str:
        return "DISTINCT"


class LimitOp(PlanOp):
    op_name = "LIMIT"
    produces_rows = True

    def __init__(self, cm: CostModel, child: PlanOp, limit: int):
        self.limit = limit
        props = child.props.evolve(card=min(child.props.card, float(limit)))
        super().__init__((child,), props)

    def describe(self) -> str:
        return "LIMIT(%d)" % self.limit


class GroupBy(PlanOp):
    """Hash aggregation: binding stream → row stream of group results."""

    op_name = "GROUPBY"
    produces_rows = True

    def __init__(self, cm: CostModel, child: PlanOp,
                 group_exprs: Sequence[qe.QExpr],
                 aggregates: Sequence[qe.AggCall],
                 names: Sequence[str]):
        self.group_exprs = list(group_exprs)
        self.aggregates = list(aggregates)
        self.names = list(names)
        if self.group_exprs:
            groups = max(1.0, child.props.card * 0.1)
        else:
            groups = 1.0
        props = child.props.evolve(
            order=(),
            cost=child.props.cost + cm.hash_cost(child.props.card, 0.0),
            card=groups,
        )
        super().__init__((child,), props)

    def describe(self) -> str:
        return "GROUPBY(keys=%d, aggs=%s)" % (
            len(self.group_exprs),
            ", ".join(a.name for a in self.aggregates))


class SetOpPlan(PlanOp):
    """UNION / INTERSECT / EXCEPT over row streams."""

    op_name = "SETOP"
    produces_rows = True

    def __init__(self, cm: CostModel, op: str, all_rows: bool,
                 children: Sequence[PlanOp]):
        self.op = op
        self.all_rows = all_rows
        cards = [c.props.card for c in children]
        if op == "union":
            card = sum(cards)
        elif op == "intersect":
            card = min(cards)
        else:  # except
            card = max(0.1, cards[0] - sum(cards[1:]) * 0.5)
        cost = sum(c.props.cost for c in children)
        if not all_rows or op != "union":
            cost += cm.hash_cost(sum(cards), 0.0)
        props = PlanProperties(
            site=children[0].props.site,
            cost=cost,
            card=max(0.1, card),
        )
        super().__init__(tuple(children), props)

    def describe(self) -> str:
        return "%s%s" % (self.op.upper(), " ALL" if self.all_rows else "")


class TableFunctionPlan(PlanOp):
    """Invoke a DBC table function over materialized input tables."""

    op_name = "TFUNC"
    produces_rows = True

    def __init__(self, cm: CostModel, function_name: str,
                 scalar_args: Sequence[qe.QExpr],
                 children: Sequence[PlanOp], box: Box):
        self.function_name = function_name
        self.scalar_args = list(scalar_args)
        self.box = box
        card = sum(c.props.card for c in children) or 10.0
        cost = sum(c.props.cost for c in children) + cm.per_row_cpu(card)
        props = PlanProperties(cost=cost, card=max(0.1, card))
        super().__init__(tuple(children), props)

    def describe(self) -> str:
        return "TFUNC(%s)" % self.function_name


class Recurse(PlanOp):
    """Fixpoint evaluation of a recursive table expression (semi-naive)."""

    op_name = "RECURSE"
    produces_rows = True

    def __init__(self, cm: CostModel, box: Box,
                 base_plans: Sequence[PlanOp],
                 recursive_plans: Sequence[PlanOp],
                 naive: bool = False):
        self.box = box
        self.base_plans = list(base_plans)
        self.recursive_plans = list(recursive_plans)
        self.naive = naive
        base_card = sum(p.props.card for p in base_plans)
        card = max(1.0, base_card * 10.0)  # fixpoint size is a guess
        cost = (sum(p.props.cost for p in base_plans)
                + 10.0 * sum(p.props.cost for p in recursive_plans))
        props = PlanProperties(cost=cost, card=card)
        super().__init__(tuple(base_plans) + tuple(recursive_plans), props)

    def describe(self) -> str:
        mode = "naive" if self.naive else "semi-naive"
        return "RECURSE[%s](%s)" % (mode, self.box.label())


# ---------------------------------------------------------------------------
# DML operators
# ---------------------------------------------------------------------------


class InsertPlan(PlanOp):
    op_name = "INSERT"
    produces_rows = True

    def __init__(self, cm: CostModel, table: TableDef,
                 column_positions: Sequence[int],
                 source: Optional[PlanOp],
                 literal_rows: Optional[List[List[qe.QExpr]]]):
        self.table = table
        self.column_positions = list(column_positions)
        self.literal_rows = literal_rows
        children = (source,) if source is not None else ()
        card = (source.props.card if source is not None
                else float(len(literal_rows or [])))
        cost = (source.props.cost if source is not None else 0.0) + card
        super().__init__(children, PlanProperties(cost=cost, card=card))

    def describe(self) -> str:
        return "INSERT(%s)" % self.table.name


class UpdatePlan(PlanOp):
    op_name = "UPDATE"
    produces_rows = True

    def __init__(self, cm: CostModel, table: TableDef, target: PlanOp,
                 target_quantifier: Quantifier,
                 assignments: Sequence[Tuple[str, qe.QExpr]],
                 subplans: Sequence[SubplanBinding] = ()):
        self.table = table
        self.target_quantifier = target_quantifier
        self.assignments = list(assignments)
        self.subplans = list(subplans)
        props = PlanProperties(cost=target.props.cost + target.props.card,
                               card=target.props.card)
        super().__init__((target,), props)

    def describe(self) -> str:
        return "UPDATE(%s SET %s)" % (
            self.table.name,
            ", ".join(name for name, _ in self.assignments))


class DeletePlan(PlanOp):
    op_name = "DELETE"
    produces_rows = True

    def __init__(self, cm: CostModel, table: TableDef, target: PlanOp,
                 target_quantifier: Quantifier,
                 subplans: Sequence[SubplanBinding] = ()):
        self.table = table
        self.target_quantifier = target_quantifier
        self.subplans = list(subplans)
        props = PlanProperties(cost=target.props.cost + target.props.card,
                               card=target.props.card)
        super().__init__((target,), props)

    def describe(self) -> str:
        return "DELETE(%s)" % self.table.name
