"""Bottom-up, per-box plan optimization.

"The optimizer algorithm optimizes each QGM operation independently, bottom
up, using a rule-driven plan generator and rules peculiar to that
operation's type."  This module walks the QGM graph from the leaves to the
root, producing one (best) row-stream plan per box, with:

- access-path selection and join enumeration for SELECT boxes,
- subqueries applied as *join kinds* (SUBQJOIN) when a predicate references
  a single subquery quantifier, or through the OR operator
  (QuantifiedFilter) for disjunctive/multi-quantifier predicates,
- GROUP BY, set operations, CHOOSE resolution, table functions,
- recursive table expressions planned with DELTA scans for semi-naive
  fixpoint execution,
- INSERT/UPDATE/DELETE wrappers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.errors import OptimizerError
from repro.optimizer.cost import CostModel
from repro.optimizer.enumerator import JoinEnumerator, prune_plans
from repro.optimizer.plans import (
    DeltaScan,
    DerivedScan,
    Distinct,
    Filter,
    GroupBy,
    InsertPlan,
    LimitOp,
    DeletePlan,
    PlanOp,
    Project,
    QuantifiedFilter,
    Recurse,
    SetOpPlan,
    SubplanBinding,
    SubqueryJoin,
    TableFunctionPlan,
    TableScan,
    TopSort,
    UpdatePlan,
)
from repro.optimizer.stars import PlanGenerator, default_star_array
from repro.qgm import expressions as qe
from repro.qgm.model import (
    QGM,
    BaseTableBox,
    Box,
    ChooseBox,
    DeleteBox,
    DistinctMode,
    GroupByBox,
    InsertBox,
    Predicate,
    Quantifier,
    SelectBox,
    SetOpBox,
    TableFunctionBox,
    UpdateBox,
)

if TYPE_CHECKING:
    from repro.core.options import CompileOptions

#: Mapping from built-in QGM iterator types to executor join kinds.
QTYPE_TO_KIND = {
    "E": "exists",
    "NE": "not_exists",
    "A": "all",
    "S": "scalar",
}


class _PlannerContext:
    """What the STAR rules see: cost model, access methods, and the
    :class:`~repro.core.options.CompileOptions` being compiled under
    (``settings``)."""

    def __init__(self, cm: CostModel, engine, settings: CompileOptions):
        self.cm = cm
        self._engine = engine
        self.settings = settings

    def access_methods(self, table_name: str):
        if self._engine is None:
            return []
        return self._engine.access_methods(table_name)


class Optimizer:
    """Plans one QGM graph.

    ``settings`` is the :class:`~repro.core.options.CompileOptions` the
    statement compiles under (the default value when omitted); the
    search-strategy fields — ``allow_bushy``, ``allow_cartesian``,
    ``join_enumeration``, ``naive_recursion``, and through the STARs
    ``rank_cutoff``, ``sort_by_rank`` and ``forced_join_method`` — are
    read from it.
    """

    def __init__(self, catalog, engine=None,
                 settings: Optional[CompileOptions] = None,
                 functions=None,
                 stars: Optional[dict] = None,
                 trace=None):
        self.catalog = catalog
        self.engine = engine
        self.functions = functions
        if settings is None:
            # Imported here: repro.core imports this module.
            from repro.core.options import CompileOptions

            settings = CompileOptions()
        self.settings = settings
        self.cm = CostModel(catalog)
        context = _PlannerContext(self.cm, engine, self.settings)
        self.generator = PlanGenerator(stars or default_star_array(), context)
        #: Optional :class:`repro.obs.RequestTrace` for optimizer decisions;
        #: shared with the generator (STAR expansions) and enumerators.
        self.trace = trace
        self.generator.trace = trace
        self.enumerator_stats: List = []
        self._memo: Dict[Box, PlanOp] = {}
        self._recursion_stack: Set[Box] = set()

    # -- entry point -----------------------------------------------------------------

    def optimize(self, qgm: QGM) -> PlanOp:
        """Produce the best executable plan for a QGM graph."""
        if qgm.root is None:
            raise OptimizerError("QGM has no root")
        plan = self.plan_box(qgm.root)
        if qgm.order_by:
            plan = TopSort(self.cm, plan, qgm.order_by)
        if qgm.limit is not None:
            plan = LimitOp(self.cm, plan, qgm.limit)
        if self.trace is not None:
            self.trace.event(
                "optimizer.plan", cost=round(plan.props.cost, 2),
                card=round(plan.props.card, 1),
                breakdown=[(node.describe(), round(node.props.cost, 2))
                           for node in plan.walk()])
        return plan

    # -- per-box dispatch ---------------------------------------------------------------

    def plan_box(self, box: Box) -> PlanOp:
        cached = self._memo.get(box)
        if cached is not None:
            return cached
        method = getattr(self, "_plan_%s" % box.kind, None)
        if method is None:
            planner = _EXTENSION_BOX_PLANNERS.get(box.kind)
            if planner is None:
                raise OptimizerError("no planner for box kind %s" % box.kind)
            plan = planner(self, box)
        else:
            plan = method(box)
        self._memo[box] = plan
        return plan

    # -- base table (standalone: scan + project) ---------------------------------------

    def _plan_base_table(self, box: BaseTableBox) -> PlanOp:
        quantifier = Quantifier("_scan_%s" % box.table.name, "F", box)
        scan = TableScan(self.cm, box.table, quantifier, [])
        exprs = [qe.ColRef(quantifier, c.name, c.dtype)
                 for c in box.head.columns]
        return Project(self.cm, scan, exprs, box.head.column_names())

    # -- SELECT ---------------------------------------------------------------------------

    def _plan_select(self, box: SelectBox) -> PlanOp:
        setformers = box.setformers()
        sub_quantifiers = box.subquery_quantifiers()
        own = set(box.quantifiers)

        # 1. Classify predicates by the *own* iterators they reference.
        local_preds: Dict[Quantifier, List[Predicate]] = {
            q: [] for q in setformers}
        join_preds: List[Predicate] = []
        subquery_preds: List[Predicate] = []
        free_preds: List[Predicate] = []
        for predicate in box.predicates:
            refs = predicate.quantifiers() & own
            sub_refs = [q for q in refs if not q.is_setformer]
            if sub_refs:
                subquery_preds.append(predicate)
            elif len(refs) == 1:
                local_preds[next(iter(refs))].append(predicate)
            elif len(refs) >= 2:
                join_preds.append(predicate)
            else:
                free_preds.append(predicate)

        # Outer join boxes keep their own execution discipline.
        if box.annotations.get("operation") == "left_outer_join":
            return self._plan_outer_join(box, local_preds, join_preds,
                                         subquery_preds, free_preds)

        # 2. Access plans per setformer (AccessRoot STAR).
        if setformers:
            single_plans: Dict[Quantifier, List[PlanOp]] = {}
            for quantifier in setformers:
                single_plans[quantifier] = self._access_plans(
                    quantifier, local_preds[quantifier])
            # Lateral dependencies: a derived setformer (e.g. a subquery
            # converted to a join by rewrite Rule 1) may still reference
            # sibling iterators inside its subtree.  The enumerator must
            # bind those siblings first, on the outer side of an NL join.
            own_setformers = set(setformers)
            dependencies: Dict[Quantifier, frozenset] = {}
            for quantifier in setformers:
                if isinstance(quantifier.input, BaseTableBox):
                    continue
                escaping = {ref.quantifier for ref
                            in self._correlation_refs(quantifier.input)}
                deps = frozenset((escaping & own_setformers)
                                 - {quantifier})
                if deps:
                    dependencies[quantifier] = deps
            enumerator = JoinEnumerator(
                self.generator,
                allow_bushy=self.settings.allow_bushy,
                allow_cartesian=self.settings.allow_cartesian,
                strategy=self.settings.join_enumeration,
                dependencies=dependencies,
                trace=self.trace)
            plans = enumerator.enumerate(single_plans, join_preds)
            self.enumerator_stats.append(enumerator.stats)
            plan = min(plans, key=lambda p: p.props.cost)
            if self.trace is not None:
                self.trace.event(
                    "optimizer.winner", box=box.label(),
                    plan=plan.describe(),
                    cost=round(plan.props.cost, 2),
                    card=round(plan.props.card, 1),
                    considered=len(plans))
        else:
            # SELECT without FROM: one empty binding.
            plan = _SingletonPlan(self.cm)

        # 3. Subquery predicates: join kinds, then the OR operator.
        plan = self._apply_subqueries(plan, box, sub_quantifiers,
                                      subquery_preds)

        # 4. Free predicates (pure correlation / constants).
        if free_preds:
            plan = Filter(self.cm, plan, free_preds)

        # 5. Head + duplicate handling.
        return self._finish_box(plan, box)

    def _access_plans(self, quantifier: Quantifier,
                      preds: List[Predicate]) -> List[PlanOp]:
        child_plan = None
        if not isinstance(quantifier.input, BaseTableBox):
            if quantifier.input in self._recursion_stack:
                delta: PlanOp = DeltaScan(self.cm, quantifier.input,
                                          quantifier)
                if preds:
                    delta = Filter(self.cm, delta, preds)
                return [delta]
            child_plan = self.plan_box(quantifier.input)
        plans = self.generator.evaluate(
            "AccessRoot", quantifier=quantifier, preds=preds,
            child_plan=child_plan, want_order=True)
        if not plans:
            raise OptimizerError(
                "no access plan for iterator %s" % quantifier.name)
        return prune_plans(plans)

    def _subplan_binding(self, quantifier: Quantifier) -> SubplanBinding:
        plan = self.plan_box(quantifier.input)
        correlation = self._correlation_refs(quantifier.input)
        return SubplanBinding(quantifier, plan, correlation)

    def _correlation_refs(self, box: Box) -> List[qe.ColRef]:
        """Column references inside ``box``'s subtree that escape it."""
        subtree: Set[Box] = set()
        stack = [box]
        while stack:
            current = stack.pop()
            if current in subtree:
                continue
            subtree.add(current)
            for quantifier in current.quantifiers:
                stack.append(quantifier.input)
        inside = {q for b in subtree for q in b.quantifiers}
        refs: List[qe.ColRef] = []
        seen: Set[str] = set()

        def scan_expr(expr: Optional[qe.QExpr]) -> None:
            if expr is None:
                return
            for node in qe.walk(expr):
                if isinstance(node, qe.ColRef) and node.quantifier not in inside:
                    key = repr(node)
                    if key not in seen:
                        seen.add(key)
                        refs.append(node)

        for member in subtree:
            for predicate in member.predicates:
                scan_expr(predicate.expr)
            for column in member.head.columns:
                scan_expr(column.expr)
            if isinstance(member, GroupByBox):
                for key in member.group_keys:
                    scan_expr(key)
        return refs

    def _apply_subqueries(self, plan: PlanOp, box: Box,
                          sub_quantifiers: List[Quantifier],
                          subquery_preds: List[Predicate]) -> PlanOp:
        if not sub_quantifiers and not subquery_preds:
            return plan
        bindings = {q: self._subplan_binding(q) for q in sub_quantifiers}
        remaining = list(subquery_preds)
        handled: Set[Quantifier] = set()

        # Head expressions may also reference subquery quantifiers (scalar
        # subqueries in the select list); those are bound by the projection,
        # not here.
        head_refs: Set[Quantifier] = set()
        for column in box.head.columns:
            if column.expr is not None:
                head_refs |= {q for q in qe.quantifiers_in(column.expr)
                              if q in bindings}

        # Conjuncts referencing exactly one subquery quantifier become
        # kind-parameterized joins (section 7).
        by_quantifier: Dict[Quantifier, List[Predicate]] = {}
        complex_preds: List[Predicate] = []
        for predicate in remaining:
            refs = [q for q in predicate.quantifiers() if q in bindings]
            if len(refs) == 1 and not self._needs_general_evaluation(
                    predicate, set(bindings)):
                by_quantifier.setdefault(refs[0], []).append(predicate)
            else:
                complex_preds.append(predicate)

        complex_refs: Set[Quantifier] = set()
        for predicate in complex_preds:
            complex_refs |= {q for q in predicate.quantifiers()
                             if q in bindings}

        for quantifier, preds in by_quantifier.items():
            if quantifier in complex_refs:
                complex_preds.extend(preds)
                continue
            kind = self._kind_for(quantifier)
            joined = self.generator.evaluate(
                "SubqueryRoot", outer=plan, binding=bindings[quantifier],
                kind=kind, preds=preds)
            if not joined:
                raise OptimizerError(
                    "no subquery strategy for %s" % quantifier.name)
            plan = min(joined, key=lambda p: p.props.cost)
            handled.add(quantifier)

        # Everything else — disjunctions, multi-subquery predicates — goes
        # through the OR operator with on-demand evaluation.
        if complex_preds:
            involved = sorted(complex_refs - handled, key=lambda q: q.uid)
            plan = QuantifiedFilter(self.cm, plan, complex_preds,
                                    [bindings[q] for q in involved])
            handled |= set(involved)

        # E/NE quantifiers with no predicate at all (plain EXISTS was folded
        # into ExistsTest predicates, so this is rare) — and scalar
        # quantifiers referenced only by the head — are joined kind-wise.
        for quantifier in sub_quantifiers:
            if quantifier in handled:
                continue
            if quantifier in head_refs:
                kind = self._kind_for(quantifier)
                plan = SubqueryJoin(self.cm, plan, bindings[quantifier],
                                    kind, [])
                handled.add(quantifier)
        return plan

    @staticmethod
    def _needs_general_evaluation(predicate: Predicate,
                                  subquery_quantifiers: Set[Quantifier]
                                  ) -> bool:
        """Kind-based subquery joins fold the *whole* predicate inside the
        quantifier combination, which is only correct when no subquery
        reference sits beneath a NOT, OR or CASE — otherwise the OR
        operator's general evaluator (which combines at the smallest
        containing boolean subexpression) must run the predicate."""

        def visit(expr: qe.QExpr, guarded: bool) -> bool:
            if guarded and any(
                    q in subquery_quantifiers
                    for q in qe.quantifiers_in(expr)):
                return True
            if isinstance(expr, qe.Not):
                return visit(expr.operand, True)
            if isinstance(expr, qe.CaseOp) or (
                    isinstance(expr, qe.BinOp) and expr.op == "or"):
                return any(visit(child, True) for child in expr.children())
            return any(visit(child, guarded) for child in expr.children())

        return visit(predicate.expr, False)

    def _kind_for(self, quantifier: Quantifier) -> str:
        kind = QTYPE_TO_KIND.get(quantifier.qtype)
        if kind is not None:
            return kind
        if self.functions is not None:
            function = self.functions.set_predicate_for_qtype(quantifier.qtype)
            if function is not None:
                return "setpred:%s" % function.name
        raise OptimizerError(
            "no join kind for iterator type %s" % quantifier.qtype)

    def _finish_box(self, plan: PlanOp, box: Box) -> PlanOp:
        subplans = []
        head_quantifiers: Set[Quantifier] = set()
        bound = plan.props.quantifiers
        for column in box.head.columns:
            if column.expr is None:
                raise OptimizerError(
                    "box %s has an untyped head" % box.label())
            for quantifier in qe.quantifiers_in(column.expr):
                if quantifier not in bound and not quantifier.is_setformer:
                    head_quantifiers.add(quantifier)
        for quantifier in sorted(head_quantifiers, key=lambda q: q.uid):
            subplans.append(self._subplan_binding(quantifier))
        exprs = [c.expr for c in box.head.columns]
        names = box.head.column_names()
        plan = Project(self.cm, plan, exprs, names, subplans)
        if box.head.distinct is DistinctMode.ENFORCE:
            plan = Distinct(self.cm, plan)
        return plan

    # -- outer join (the DBC extension's execution shape) ---------------------------------

    def _plan_outer_join(self, box: SelectBox, local_preds, join_preds,
                         subquery_preds, free_preds) -> PlanOp:
        """LEFT OUTER JOIN: preserved (PF) side drives a left-outer NL join."""
        preserved = [q for q in box.quantifiers if q.qtype == "PF"]
        regular = [q for q in box.quantifiers if q.qtype == "F"]
        if len(preserved) != 1 or len(regular) != 1:
            raise OptimizerError(
                "outer-join box must have exactly one PF and one F iterator")
        outer_q, inner_q = preserved[0], regular[0]
        # ON-clause predicates touching only the preserved side must stay at
        # the join: pushing them into the PF access would drop rows the
        # outer join is required to preserve (the paper's "from" rule does
        # not apply to PF setformers).  Inner-side predicates push safely.
        outer_plans = self._access_plans(outer_q, [])
        join_preds = list(join_preds) + list(local_preds[outer_q])
        inner_plans = self._access_plans(inner_q, local_preds[inner_q])
        outer = min(outer_plans, key=lambda p: p.props.cost)
        inner = min(inner_plans, key=lambda p: p.props.cost)
        joined = self.generator.evaluate(
            "JoinRoot", outer=outer, inner=inner, preds=join_preds,
            kind="left_outer")
        if not joined:
            raise OptimizerError("no outer-join plan")
        plan = min(joined, key=lambda p: p.props.cost)
        plan = self._apply_subqueries(plan, box, box.subquery_quantifiers(),
                                      subquery_preds)
        if free_preds:
            plan = Filter(self.cm, plan, free_preds)
        return self._finish_box(plan, box)

    # -- GROUP BY -----------------------------------------------------------------------------

    def _plan_groupby(self, box: GroupByBox) -> PlanOp:
        quantifier = box.input_quantifier
        child = self.plan_box(quantifier.input)
        stream = DerivedScan(self.cm, child, quantifier.input, quantifier)
        if box.predicates:
            # Predicates on a groupby box range over its input quantifier
            # (push_into_groupby parks group-key filters here), so they
            # apply to the stream *before* aggregation.
            stream = Filter(self.cm, stream, list(box.predicates))
        aggregates = [c.expr for c in box.head.columns
                      if isinstance(c.expr, qe.AggCall)]
        plan = GroupBy(self.cm, stream, box.group_keys, aggregates,
                       box.head.column_names())
        if box.head.distinct is DistinctMode.ENFORCE:
            plan = Distinct(self.cm, plan)
        return plan

    # -- set operations & recursion ----------------------------------------------------------------

    def _plan_setop(self, box: SetOpBox) -> PlanOp:
        if box.is_recursive:
            return self._plan_recursive(box)
        children = [self.plan_box(q.input) for q in box.quantifiers]
        plan = SetOpPlan(self.cm, box.op, box.all_rows, children)
        if box.head.distinct is DistinctMode.ENFORCE and box.all_rows:
            plan = Distinct(self.cm, plan)
        return plan

    def _plan_recursive(self, box: SetOpBox) -> PlanOp:
        base_plans: List[PlanOp] = []
        rec_plans: List[PlanOp] = []
        self._recursion_stack.add(box)
        try:
            for quantifier in box.quantifiers:
                branch = quantifier.input
                if self._branch_references(branch, box):
                    rec_plans.append(self.plan_box(branch))
                else:
                    base_plans.append(self.plan_box(branch))
        finally:
            self._recursion_stack.discard(box)
            # Recursive-branch plans must not leak into the memo: their
            # DELTA scans are only valid inside this fixpoint.
            for branch_box in list(self._memo):
                if self._branch_references(branch_box, box):
                    del self._memo[branch_box]
        if not base_plans or not rec_plans:
            raise OptimizerError(
                "recursive box %s needs base and recursive branches"
                % box.label())
        return Recurse(self.cm, box, base_plans, rec_plans,
                       naive=self.settings.naive_recursion)

    @staticmethod
    def _branch_references(branch: Box, target: Box) -> bool:
        seen: Set[Box] = set()
        stack = [branch]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for quantifier in current.quantifiers:
                if quantifier.input is target:
                    return True
                stack.append(quantifier.input)
        return False

    # -- CHOOSE ----------------------------------------------------------------------------------------

    def _plan_choose(self, box: ChooseBox) -> PlanOp:
        """Cost the alternatives and keep the cheapest (section 5)."""
        candidates = [(self.plan_box(q.input), q) for q in box.quantifiers]
        best, _q = min(candidates, key=lambda pair: pair[0].props.cost)
        return best

    # -- table functions -----------------------------------------------------------------------------------

    def _plan_table_function(self, box: TableFunctionBox) -> PlanOp:
        children = [self.plan_box(q.input) for q in box.quantifiers]
        return TableFunctionPlan(self.cm, box.function_name, box.scalar_args,
                                 children, box)

    # -- DML -------------------------------------------------------------------------------------------------

    def _plan_insert(self, box: InsertBox) -> PlanOp:
        source = None
        if box.quantifiers:
            source = self.plan_box(box.quantifiers[0].input)
        return InsertPlan(self.cm, box.table, box.column_positions, source,
                          box.rows)

    def _dml_target_plan(self, box) -> Tuple[PlanOp, List[SubplanBinding]]:
        quantifier = box.target
        local: List[Predicate] = []
        subquery_preds: List[Predicate] = []
        for predicate in box.predicates:
            refs = predicate.quantifiers()
            if any(not q.is_setformer for q in refs):
                subquery_preds.append(predicate)
            else:
                local.append(predicate)
        plans = self._access_plans(quantifier, local)
        plan = min(plans, key=lambda p: p.props.cost)
        bindings = []
        if subquery_preds:
            sub_quantifiers = sorted(
                {q for p in subquery_preds for q in p.quantifiers()
                 if not q.is_setformer},
                key=lambda q: q.uid)
            bindings = [self._subplan_binding(q) for q in sub_quantifiers]
            plan = QuantifiedFilter(self.cm, plan, subquery_preds, bindings)
        return plan, bindings

    def _plan_update(self, box: UpdateBox) -> PlanOp:
        target, _bindings = self._dml_target_plan(box)
        # Assignments may contain scalar subqueries of their own.
        assign_refs: Set[Quantifier] = set()
        for _name, expr in box.assignments:
            assign_refs |= {q for q in qe.quantifiers_in(expr)
                            if not q.is_setformer}
        subplans = [self._subplan_binding(q)
                    for q in sorted(assign_refs, key=lambda q: q.uid)]
        return UpdatePlan(self.cm, box.table, target, box.target,
                          box.assignments, subplans)

    def _plan_delete(self, box: DeleteBox) -> PlanOp:
        target, _bindings = self._dml_target_plan(box)
        return DeletePlan(self.cm, box.table, target, box.target)


class _SingletonPlan(PlanOp):
    """A one-row, zero-column binding stream (SELECT without FROM)."""

    op_name = "SINGLETON"

    def __init__(self, cm: CostModel):
        from repro.optimizer.properties import PlanProperties

        super().__init__((), PlanProperties(cost=0.01, card=1.0))

    def describe(self) -> str:
        return "SINGLETON"


#: DBC-registered planners for extension box kinds.
_EXTENSION_BOX_PLANNERS: Dict[str, object] = {}


def register_box_planner(kind: str, planner) -> None:
    """DBC extension point: supply a planner for a new QGM operation."""
    _EXTENSION_BOX_PLANNERS[kind] = planner
