"""The rewrite rule engine and QGM search facility.

"The rule engine is independent of the individual rules ... It handles IF
THEN rules, using a forward chaining strategy.  Several control strategies
are provided: sequential (rules are processed sequentially), priority
(higher priority rules are given a chance first), and statistical (next
rule is chosen randomly based on a user defined probability distribution).
To keep the rule engine from spending too much time rewriting queries, it
can be given a budget.  When the budget is exhausted, the processing stops
at a consistent state (of QGM).  The search strategy is independent of both
the rules and the rule engine ... Both depth first (top down) and breadth
first search are supported."

Rules are Python callables (the paper's rule language is C — the host
language either way): ``condition(ctx, box)`` returns a truthy match object
or a false value; ``action(ctx, box, match)`` performs one complete
transformation.  Rules are grouped into *rule classes* "to limit the number
of rules that have to be examined, to allow modularization of rules, and to
give the DBC more explicit control over the execution sequence".
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import RewriteError
from repro.qgm import expressions as qe
from repro.qgm.model import QGM, Box, GroupByBox, UpdateBox

Condition = Callable[["RuleContext", Box], Any]
Action = Callable[["RuleContext", Box, Any], None]


class Rule:
    """IF condition THEN action, with priority and statistical weight.

    ``box_kinds`` is the rule-indexing hint the paper lists as future work
    ("efficient execution techniques such as RETE networks and rule
    indexing"): the kinds of QGM boxes the condition can possibly match.
    When the engine's index is enabled, conditions are only evaluated
    against boxes of a matching kind; None means "any box".
    """

    def __init__(self, name: str, condition: Condition, action: Action,
                 priority: int = 0, probability: float = 1.0,
                 box_kinds: Optional[Tuple[str, ...]] = None):
        self.name = name
        self.condition = condition
        self.action = action
        self.priority = priority
        self.probability = probability
        self.box_kinds = tuple(box_kinds) if box_kinds else None

    def applies_to(self, box: Box) -> bool:
        return self.box_kinds is None or box.kind in self.box_kinds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Rule %s prio=%d>" % (self.name, self.priority)


class RuleContext:
    """What a rule sees: the graph, the database registries, primitives."""

    def __init__(self, qgm: QGM, db):
        self.qgm = qgm
        self.db = db

    # -- graph-manipulation primitives shared by the rules ---------------------

    def substitute_everywhere(self, mapping: Callable[[qe.ColRef],
                                                      Optional[qe.QExpr]]) -> None:
        """Apply a ColRef substitution to every expression in the graph."""
        for box in self.qgm.boxes:
            for predicate in box.predicates:
                predicate.expr = qe.substitute_colrefs(predicate.expr, mapping)
            for column in box.head.columns:
                if column.expr is not None:
                    column.expr = qe.substitute_colrefs(column.expr, mapping)
            if isinstance(box, GroupByBox):
                box.group_keys = [qe.substitute_colrefs(k, mapping)
                                  for k in box.group_keys]
            if isinstance(box, UpdateBox):
                box.assignments = [
                    (name, qe.substitute_colrefs(expr, mapping))
                    for name, expr in box.assignments
                ]

    def consumers(self, box: Box):
        return self.qgm.consumers(box)

    def single_consumer(self, box: Box):
        consumers = self.qgm.consumers(box)
        return consumers[0] if len(consumers) == 1 else None


class RewriteReport:
    """What happened during one engine run."""

    def __init__(self):
        self.firings: List[Tuple[str, str]] = []  # (rule name, box label)
        self.conditions_checked = 0
        self.budget_exhausted = False
        self.passes = 0
        #: "default" (one forward-chaining pass to fixpoint) or "search"
        #: (budgeted cost-driven exploration of firing sequences).
        self.strategy = "default"
        #: Search mode: variants explored, and the optimizer-estimated
        #: costs of the un-rewritten graph / the adopted variant.
        self.explored = 0
        self.base_cost: Optional[float] = None
        self.best_cost: Optional[float] = None

    @property
    def fired(self) -> int:
        return len(self.firings)

    def count(self, rule_name: str) -> int:
        return sum(1 for name, _ in self.firings if name == rule_name)

    def __repr__(self) -> str:
        extra = ""
        if self.strategy == "search":
            extra = ", search explored %d variant(s)" % self.explored
        return ("%d firing(s), %d condition(s) checked, %d pass(es)%s%s"
                % (self.fired, self.conditions_checked, self.passes,
                   ", budget exhausted" if self.budget_exhausted else "",
                   extra))


class RewriteEngine:
    """Forward-chaining rewrite engine over QGM."""

    #: Control strategies (the paper's three).
    SEQUENTIAL = "sequential"
    PRIORITY = "priority"
    STATISTICAL = "statistical"

    #: Search strategies.
    DEPTH_FIRST = "depth_first"
    BREADTH_FIRST = "breadth_first"

    def __init__(self, db, budget: int = 1000,
                 control: str = SEQUENTIAL,
                 search: str = DEPTH_FIRST,
                 seed: int = 17):
        self.db = db
        self.budget = budget
        self.control = control
        self.search = search
        self.seed = seed
        #: rule class name → list of rules (insertion-ordered).
        self.rule_classes: Dict[str, List[Rule]] = {}
        #: Which classes run, in order; None = all, insertion order.
        self.enabled_classes: Optional[List[str]] = None
        #: Per-rule disable switch (benchmarks toggle individual rules).
        self.disabled_rules: set = set()
        #: Rule indexing (§5's "rule indexing" future work): skip condition
        #: evaluation on boxes whose kind a rule declares it cannot match.
        self.use_rule_index = True
        #: Search-mode knobs: beam width over variants, and a cap on
        #: explored firings (further bounded by the engine budget).
        self.search_beam = 2
        self.search_expansions = 24

    # -- rule management -------------------------------------------------------------

    def add_rule(self, rule: Rule, rule_class: str = "user") -> Rule:
        self.rule_classes.setdefault(rule_class, []).append(rule)
        return rule

    def remove_rule(self, name: str) -> None:
        for rules in self.rule_classes.values():
            for rule in list(rules):
                if rule.name == name:
                    rules.remove(rule)
        self._rules_changed()

    def disable_rule(self, name: str) -> None:
        self.disabled_rules.add(name)
        self._rules_changed()

    def enable_rule(self, name: str) -> None:
        self.disabled_rules.discard(name)
        self._rules_changed()

    def _rules_changed(self) -> None:
        # Cached plans were rewritten by the old rule set: retire them,
        # as Database.register_rewrite_rule does for an added rule.
        self.db.catalog.bump_schema_epoch()

    def rules(self, only: Optional[Tuple[str, ...]] = None) -> List[Rule]:
        """Active rules honouring class enabling and per-rule switches.

        ``only`` restricts the run to the named rules regardless of class
        enabling or per-rule disables — the rulecheck harness uses it to
        force-fire one rule (or one combination) in isolation.
        """
        if only is not None:
            wanted = set(only)
            return [rule for rule in self.all_rules() if rule.name in wanted]
        class_names = (self.enabled_classes
                       if self.enabled_classes is not None
                       else list(self.rule_classes))
        active: List[Rule] = []
        for class_name in class_names:
            for rule in self.rule_classes.get(class_name, []):
                if rule.name not in self.disabled_rules:
                    active.append(rule)
        return active

    def all_rules(self) -> List[Rule]:
        """Every registered rule, insertion-ordered, ignoring switches."""
        return [rule for rules in self.rule_classes.values()
                for rule in rules]

    def rule_count(self) -> int:
        return len(self.rules())

    def class_of(self, rule: Rule) -> Optional[str]:
        """The rule class a rule is registered under (None if unknown)."""
        for class_name, rules in self.rule_classes.items():
            if rule in rules:
                return class_name
        return None

    # -- search facility ------------------------------------------------------------------

    def browse(self, qgm: QGM) -> List[Box]:
        """The boxes, in search order: the context the rules work on."""
        if qgm.root is None:
            return []
        if self.search == self.BREADTH_FIRST:
            order: List[Box] = []
            seen = set()
            queue = deque([qgm.root])
            while queue:
                box = queue.popleft()
                if box in seen:
                    continue
                seen.add(box)
                order.append(box)
                for quantifier in box.quantifiers:
                    queue.append(quantifier.input)
            return order
        return qgm.reachable_boxes()  # depth-first discovery order

    # -- the engine proper -----------------------------------------------------------------

    def run(self, qgm: QGM, trace=None,
            only_rules: Optional[Tuple[str, ...]] = None,
            strategy: Optional[str] = None,
            optimizer_settings=None) -> RewriteReport:
        """Fire rules to fixpoint (or until the budget runs out).

        ``trace`` is an optional :class:`repro.obs.RequestTrace`; every firing
        emits a ``rewrite.fire`` event (rule name, rule class, box label,
        budget spent so far).  ``only_rules`` restricts the run to the
        named rules (forced-fire mode).  ``strategy="search"`` dispatches
        to the budgeted cost-driven sequence search instead of the single
        forward-chaining pass; ``optimizer_settings`` is the
        :class:`~repro.core.options.CompileOptions` the search-mode cost
        estimator plans under (the defaults when omitted).
        """
        if strategy == "search":
            return self.run_search(qgm, trace=trace, only_rules=only_rules,
                                   optimizer_settings=optimizer_settings)
        report = RewriteReport()
        context = RuleContext(qgm, self.db)
        rng = random.Random(self.seed)
        remaining = self.budget

        while True:
            report.passes += 1
            firing = self._find_firing(context, report, rng,
                                       only=only_rules)
            if firing is None:
                break
            if remaining <= 0:
                report.budget_exhausted = True
                if trace is not None:
                    trace.event("rewrite.budget", budget=self.budget)
                break
            rule, box, match = firing
            try:
                rule.action(context, box, match)
            except RewriteError:
                raise
            except Exception as exc:
                raise RewriteError(
                    "rule %s failed on %s: %s" % (rule.name, box.label(), exc)
                ) from exc
            remaining -= 1
            report.firings.append((rule.name, box.label()))
            if trace is not None:
                trace.event("rewrite.fire", rule=rule.name,
                            rule_class=self.class_of(rule),
                            box=box.label(),
                            budget_spent=self.budget - remaining)
            qgm.garbage_collect()
        return report

    def _find_firing(self, context: RuleContext, report: RewriteReport,
                     rng: random.Random,
                     only: Optional[Tuple[str, ...]] = None):
        """Locate the next (rule, box, match) per the control strategy."""
        boxes = self.browse(context.qgm)
        rules = self.rules(only=only)
        if self.control == self.PRIORITY:
            rules = sorted(rules, key=lambda r: -r.priority)
        elif self.control == self.STATISTICAL:
            # Sample an order weighted by rule probability.
            weighted = [(rng.random() ** (1.0 / max(rule.probability, 1e-6)),
                         index, rule)
                        for index, rule in enumerate(rules)]
            weighted.sort(reverse=True)
            rules = [rule for _w, _i, rule in weighted]
        for rule in rules:
            for box in boxes:
                if self.use_rule_index and not rule.applies_to(box):
                    continue
                report.conditions_checked += 1
                match = rule.condition(context, box)
                if match:
                    return rule, box, match
        return None

    # -- cost-driven sequence search (strategy="search") ------------------------------------

    #: Relative cost margin a variant must beat the sequential fixpoint by
    #: before search abandons the (byte-identity-preserving) default plan.
    SEARCH_MARGIN = 1e-6

    def run_search(self, qgm: QGM, trace=None,
                   only_rules: Optional[Tuple[str, ...]] = None,
                   optimizer_settings=None) -> RewriteReport:
        """Budgeted beam search over rule-firing sequences.

        The sequential fixpoint is computed first (on a snapshot) and is
        the variant to beat: alternative firing orders explored from the
        un-rewritten graph only replace it when the optimizer estimates a
        *strictly* lower cost.  Every explored firing — baseline and
        alternatives alike — is charged against the engine budget, so
        search never fires more actions than ``budget`` allows.  Progress
        is emitted as ``rewrite.search`` trace events.
        """
        report = RewriteReport()
        report.strategy = "search"
        estimate = self._cost_estimator(optimizer_settings)
        report.base_cost = estimate(qgm)

        # 1. The sequential fixpoint, computed on a snapshot so the input
        #    graph stays pristine for alternative-order exploration.
        baseline = qgm.snapshot()
        seq_report = self.run(baseline, only_rules=only_rules)
        report.conditions_checked = seq_report.conditions_checked
        report.passes = seq_report.passes
        report.budget_exhausted = seq_report.budget_exhausted
        best = (baseline, list(seq_report.firings), estimate(baseline))
        if trace is not None:
            trace.event("rewrite.search", phase="baseline",
                        fired=len(best[1]),
                        cost=best[2], base_cost=report.base_cost)

        # 2. Explore alternative firing orders from the original graph.
        remaining = max(0, self.budget - seq_report.fired)
        expansions = min(remaining, self.search_expansions)
        frontier = [(qgm, [], report.base_cost)]
        threshold = best[2] - abs(best[2]) * self.SEARCH_MARGIN
        while frontier and expansions > 0:
            frontier.sort(key=lambda entry: (entry[2], len(entry[1])))
            level, frontier = frontier[:self.search_beam], []
            for parent, firings, _cost in level:
                context = RuleContext(parent, self.db)
                candidates = self._candidate_firings(context, report,
                                                     only_rules)
                for index in range(len(candidates)):
                    if expansions <= 0:
                        break
                    child = parent.snapshot()
                    child_context = RuleContext(child, self.db)
                    replayed = self._candidate_firings(
                        child_context, report, only_rules)
                    if index >= len(replayed):
                        continue
                    rule, box, match = replayed[index]
                    try:
                        rule.action(child_context, box, match)
                    except RewriteError:
                        raise
                    except Exception as exc:
                        raise RewriteError(
                            "rule %s failed on %s: %s"
                            % (rule.name, box.label(), exc)) from exc
                    expansions -= 1
                    report.explored += 1
                    child.garbage_collect()
                    child_cost = estimate(child)
                    child_firings = firings + [(rule.name, box.label())]
                    if trace is not None:
                        trace.event("rewrite.search", phase="explore",
                                    rule=rule.name, box=box.label(),
                                    depth=len(child_firings),
                                    cost=child_cost,
                                    explored=report.explored)
                    if child_cost < threshold:
                        best = (child, child_firings, child_cost)
                        threshold = (child_cost
                                     - abs(child_cost) * self.SEARCH_MARGIN)
                    frontier.append((child, child_firings, child_cost))

        # 3. Adopt the winner into the caller's graph object.
        chosen, firings, cost = best
        qgm.adopt(chosen)
        report.firings = firings
        report.best_cost = cost
        if trace is not None:
            for step, (rule_name, box_label) in enumerate(firings):
                trace.event("rewrite.search", phase="fire", step=step,
                            rule=rule_name, box=box_label)
            trace.event("rewrite.search", phase="done",
                        chosen=("variant" if chosen is not baseline
                                else "baseline"),
                        fired=len(firings), explored=report.explored,
                        cost=cost, base_cost=report.base_cost)
        return report

    def _candidate_firings(self, context: RuleContext,
                           report: RewriteReport,
                           only: Optional[Tuple[str, ...]] = None):
        """All (rule, box, match) firings possible on the current graph.

        Deterministic: rules in registration order, boxes in browse order —
        so re-running it on a snapshot yields the same candidate list and
        an index identifies the same firing on both graphs.
        """
        boxes = self.browse(context.qgm)
        candidates = []
        for rule in self.rules(only=only):
            for box in boxes:
                if self.use_rule_index and not rule.applies_to(box):
                    continue
                report.conditions_checked += 1
                match = rule.condition(context, box)
                if match:
                    candidates.append((rule, box, match))
        return candidates

    def _cost_estimator(self, optimizer_settings=None):
        """A QGM → optimizer-estimated plan cost function for search mode."""
        from repro.optimizer.boxopt import Optimizer

        db = self.db

        def estimate(qgm: QGM) -> float:
            if qgm.root is None:
                return float("inf")
            try:
                optimizer = Optimizer(db.catalog, engine=db.engine,
                                      settings=optimizer_settings,
                                      functions=db.functions,
                                      stars=db.stars)
                plan = optimizer.optimize(qgm)
            except Exception:
                return float("inf")
            return plan.props.cost

        return estimate
