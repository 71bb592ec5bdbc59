"""Join enumeration.

"A join enumerator then enumerates all valid join sequences by iteratively
constructing progressively larger sets of iterators from two smaller
iterator sets, starting initially from the plans generated earlier for sets
of a single iterator.  For each such pair of iterator sets, the join
enumerator invokes the plan generator to generate and evaluate alternative
QEPs for that join ... Two other parameters allow the join enumerator to
prune join sequences having composite inners ("bushy trees") or no join
predicate (Cartesian products), as System R and R* always did."

This module implements that dynamic program.  Plans are memoized per
iterator set, pruned to the cheapest plan per *interesting property class*
(order + site + predicates applied), so interesting orders survive for
merge joins above.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence

from repro.errors import OptimizerError
from repro.optimizer.plans import PlanOp
from repro.optimizer.stars import PlanGenerator
from repro.qgm.model import Predicate, Quantifier


class EnumeratorStats:
    """Counters for benchmark E5."""

    def __init__(self):
        self.sets_enumerated = 0
        self.pairs_considered = 0
        self.plans_generated = 0
        self.plans_kept = 0
        self.cartesian_skipped = 0
        self.bushy_skipped = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("<EnumStats sets=%d pairs=%d plans=%d kept=%d>"
                % (self.sets_enumerated, self.pairs_considered,
                   self.plans_generated, self.plans_kept))


def prune_plans(plans: Sequence[PlanOp]) -> List[PlanOp]:
    """Keep the cheapest plan per interesting property class."""
    best: Dict[tuple, PlanOp] = {}
    for plan in plans:
        key = plan.props.interesting_key()
        current = best.get(key)
        if current is None or plan.props.cost < current.props.cost:
            best[key] = plan
    return list(best.values())


class JoinEnumerator:
    """Join-order search over iterator sets.

    The default ``strategy`` is the System-R dynamic program ('dp').  The
    'greedy' strategy instead grows one join sequence by repeatedly
    attaching the iterator whose join is currently cheapest — linear in
    the number of iterators, no optimality guarantee, but every plan it
    emits must compute the same answer (the differential harness checks
    exactly that).
    """

    def __init__(self, generator: PlanGenerator, allow_bushy: bool = False,
                 allow_cartesian: bool = False, strategy: str = "dp",
                 dependencies=None, trace=None):
        if strategy not in ("dp", "greedy"):
            raise OptimizerError(
                "unknown join enumeration strategy %r" % (strategy,))
        self.generator = generator
        #: Optional :class:`repro.obs.RequestTrace`; pruning decisions emit
        #: ``optimizer.prune`` events with the losing plans' costs.
        self.trace = trace
        self.allow_bushy = allow_bushy
        self.allow_cartesian = allow_cartesian
        self.strategy = strategy
        #: Lateral dependencies: quantifier -> sibling quantifiers its
        #: input subtree references (correlated setformers, e.g. after the
        #: subquery-to-join rewrite).  A dependent iterator is only valid
        #: on the inner side of a nested-loops join whose outer side binds
        #: every dependency.
        self.dependencies = dict(dependencies or {})
        self.stats = EnumeratorStats()

    def _deps(self, quantifier: Quantifier) -> FrozenSet[Quantifier]:
        return self.dependencies.get(quantifier, frozenset())

    def _emit_prune(self, subset, plans: List[PlanOp],
                    kept: List[PlanOp]) -> None:
        if self.trace is None or len(plans) <= len(kept):
            return
        kept_ids = {id(plan) for plan in kept}
        losing = sorted(plan.props.cost for plan in plans
                        if id(plan) not in kept_ids)
        self.trace.event(
            "optimizer.prune",
            subset=sorted(q.name for q in subset),
            considered=len(plans), kept=len(kept),
            losing_costs=[round(cost, 2) for cost in losing[:8]])

    def _outer_ok(self, outer_set: FrozenSet[Quantifier]) -> bool:
        """An outer side must be self-contained: it is evaluated before
        the inner side binds anything."""
        return all(self._deps(q) <= outer_set for q in outer_set)

    def _lateral(self, outer_set: FrozenSet[Quantifier],
                 inner_set: FrozenSet[Quantifier]) -> bool:
        return any(self._deps(q) & outer_set for q in inner_set)

    def enumerate(self, single_plans: Dict[Quantifier, List[PlanOp]],
                  join_preds: Sequence[Predicate]) -> List[PlanOp]:
        """Best plans for the full set of iterators.

        ``single_plans`` maps each setformer to its access plans;
        ``join_preds`` are the predicates connecting two or more of them.
        """
        quantifiers = list(single_plans)
        if not quantifiers:
            raise OptimizerError("nothing to enumerate")
        memo: Dict[FrozenSet[Quantifier], List[PlanOp]] = {}
        for quantifier, plans in single_plans.items():
            memo[frozenset([quantifier])] = prune_plans(plans)
            self.stats.sets_enumerated += 1

        full = frozenset(quantifiers)
        if len(quantifiers) == 1:
            return memo[full]

        pred_sets = [(p, frozenset(q for q in p.quantifiers()
                                   if q in full)) for p in join_preds]

        if self.strategy == "greedy":
            return self._enumerate_greedy(memo, pred_sets, quantifiers)

        for size in range(2, len(quantifiers) + 1):
            for subset in _subsets_of_size(quantifiers, size):
                plans: List[PlanOp] = []
                had_connected_split = False
                for left_set, right_set in self._splits(subset):
                    left_plans = memo.get(left_set)
                    right_plans = memo.get(right_set)
                    if not left_plans or not right_plans:
                        continue
                    if not self._outer_ok(left_set):
                        continue
                    if any(self._deps(q) - subset for q in right_set):
                        continue  # a dependency is not even joined yet
                    lateral = self._lateral(left_set, right_set)
                    applicable = self._applicable_preds(
                        pred_sets, subset, left_set, right_set)
                    connected = lateral or any(
                        qs & left_set and qs & right_set
                        for _p, qs in pred_sets
                        if qs and qs <= subset
                    )
                    if not connected and not self.allow_cartesian:
                        self.stats.cartesian_skipped += 1
                        continue
                    had_connected_split = had_connected_split or connected
                    for outer in left_plans:
                        for inner in right_plans:
                            self.stats.pairs_considered += 1
                            produced = self.generator.evaluate(
                                "JoinRoot", outer=outer, inner=inner,
                                preds=applicable, lateral=lateral)
                            self.stats.plans_generated += len(produced)
                            plans.extend(produced)
                if plans:
                    memo[subset] = prune_plans(plans)
                    self._emit_prune(subset, plans, memo[subset])
                    self.stats.plans_kept += len(memo[subset])
                    self.stats.sets_enumerated += 1

        if full not in memo:
            if not self.allow_cartesian:
                # Disconnected query graph: fall back to allowing Cartesian
                # products rather than failing (System R did the same).
                fallback = JoinEnumerator(self.generator,
                                          allow_bushy=self.allow_bushy,
                                          allow_cartesian=True,
                                          dependencies=self.dependencies,
                                          trace=self.trace)
                result = fallback.enumerate(single_plans, join_preds)
                self.stats.pairs_considered += fallback.stats.pairs_considered
                self.stats.plans_generated += fallback.stats.plans_generated
                return result
            raise OptimizerError("join enumeration produced no plan")
        return memo[full]

    def _enumerate_greedy(self, memo, pred_sets,
                          quantifiers: Sequence[Quantifier]) -> List[PlanOp]:
        """Cheapest-next greedy join ordering (left-deep only).

        Start from the iterator with the cheapest access plan, then at
        each step join in the remaining iterator whose best join plan is
        cheapest, preferring iterators connected by a join predicate.
        When no remaining iterator is connected the step is a Cartesian
        product regardless of ``allow_cartesian`` (same escape hatch the
        DP strategy uses for disconnected query graphs).
        """
        def cheapest_cost(plans: List[PlanOp]) -> float:
            return min(plan.props.cost for plan in plans)

        remaining = sorted(quantifiers, key=lambda q: q.uid)
        independent = [q for q in remaining if not self._deps(q)]
        if not independent:
            raise OptimizerError(
                "every iterator has lateral dependencies: no valid "
                "greedy start")
        start = min(independent,
                    key=lambda q: (cheapest_cost(memo[frozenset([q])]),
                                   q.uid))
        remaining.remove(start)
        current_set = frozenset([start])
        current_plans = memo[current_set]

        while remaining:
            eligible = [q for q in remaining
                        if self._deps(q) <= current_set]
            if not eligible:
                raise OptimizerError(
                    "unsatisfiable lateral dependencies in greedy "
                    "enumeration")
            connected = [
                q for q in eligible
                if self._deps(q)
                or any(qset & current_set and q in qset
                       for _p, qset in pred_sets)
            ]
            pool = connected or eligible
            if not connected:
                self.stats.cartesian_skipped += 1
            best = None  # (cost, uid, quantifier, plans)
            for candidate in pool:
                joined_set = current_set | {candidate}
                lateral = bool(self._deps(candidate))
                applicable = self._applicable_preds(
                    pred_sets, joined_set, current_set,
                    frozenset([candidate]))
                plans: List[PlanOp] = []
                for outer in current_plans:
                    for inner in memo[frozenset([candidate])]:
                        self.stats.pairs_considered += 1
                        produced = self.generator.evaluate(
                            "JoinRoot", outer=outer, inner=inner,
                            preds=applicable, lateral=lateral)
                        self.stats.plans_generated += len(produced)
                        plans.extend(produced)
                if not plans:
                    continue
                cost = cheapest_cost(plans)
                if best is None or (cost, candidate.uid) < best[:2]:
                    best = (cost, candidate.uid, candidate, plans)
            if best is None:
                raise OptimizerError(
                    "greedy enumeration produced no join plan")
            _cost, _uid, chosen, plans = best
            remaining.remove(chosen)
            current_set = current_set | {chosen}
            current_plans = prune_plans(plans)
            self._emit_prune(current_set, plans, current_plans)
            self.stats.plans_kept += len(current_plans)
            self.stats.sets_enumerated += 1
        return current_plans

    def _splits(self, subset: FrozenSet[Quantifier]):
        """Yield (outer, inner) splits of ``subset``.

        Without bushy trees the inner side must be a single iterator
        (left-deep plans only); with them, any proper partition is legal.
        """
        members = sorted(subset, key=lambda q: q.uid)
        if self.allow_bushy:
            # all proper, non-empty bipartitions (each once per direction)
            count = len(members)
            for mask in range(1, (1 << count) - 1):
                left = frozenset(members[i] for i in range(count)
                                 if mask & (1 << i))
                right = subset - left
                yield left, right
        else:
            for member in members:
                inner = frozenset([member])
                outer = subset - inner
                if outer:
                    yield outer, inner
                    self.stats.bushy_skipped += 0  # explicit: no composites

    @staticmethod
    def _applicable_preds(pred_sets, subset, left_set, right_set):
        """Predicates fully contained in ``subset`` that span the split
        (or reference more than two iterators, all now available)."""
        applicable = []
        for predicate, qset in pred_sets:
            if not qset or not qset <= subset:
                continue
            if qset & left_set and qset & right_set:
                applicable.append(predicate)
        return applicable


def _subsets_of_size(items: Sequence[Quantifier], size: int):
    """All frozensets of the given size, in a deterministic order."""
    from itertools import combinations

    for combo in combinations(sorted(items, key=lambda q: q.uid), size):
        yield frozenset(combo)
