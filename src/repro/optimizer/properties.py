"""Plan properties.

"Every table (either a base table or the result of a plan) has a set of
properties ... of three types: relational (tables joined, columns accessed,
predicates applied thus far), operational (order of tuples, site of result)
and estimated ((cumulative) cost, cardinality)."  Each LOLEPOP's property
function computes its output properties from its inputs.

Properties are immutable; LOLEPOP constructors derive new instances.  DBCs
can extend them through ``extras`` (a frozen dict) without touching the
core fields — the paper's "add a new property" extension.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.qgm.expressions import QExpr

#: An order spec: tuple of (expression key, ascending) pairs.  Expression
#: keys are canonical strings (repr of the QGM expression) so that order
#: produced by a SORT on ``q1.partno`` is recognized as satisfying a merge
#: join's requirement on the same expression.
OrderSpec = Tuple[Tuple[str, bool], ...]


def order_key(expr: QExpr) -> str:
    """Canonical key for an ordering expression."""
    return repr(expr)


class PlanProperties:
    """Immutable property bundle attached to every plan operator."""

    __slots__ = ("quantifiers", "preds_applied", "order", "site", "dop",
                 "cost", "card", "extras")

    def __init__(self, quantifiers: FrozenSet = frozenset(),
                 preds_applied: FrozenSet[int] = frozenset(),
                 order: OrderSpec = (), site: str = "local",
                 dop: int = 1,
                 cost: float = 0.0, card: float = 1.0,
                 extras: Optional[Dict[str, Any]] = None):
        self.quantifiers = quantifiers
        self.preds_applied = preds_applied
        self.order = order
        self.site = site
        #: Degree of parallelism of the stream this plan produces.  Like
        #: ``site``, it is an operational property: an Exchange LOLEPOP is
        #: the glue that re-establishes ``dop == 1`` for consumers that
        #: need a single stream (the paper's parallelism extension).
        self.dop = dop
        self.cost = cost
        self.card = card
        self.extras = dict(extras) if extras else {}

    def evolve(self, **changes: Any) -> "PlanProperties":
        """Copy with selected fields replaced (LOLEPOP property functions)."""
        values = {
            "quantifiers": self.quantifiers,
            "preds_applied": self.preds_applied,
            "order": self.order,
            "site": self.site,
            "dop": self.dop,
            "cost": self.cost,
            "card": self.card,
            "extras": self.extras,
        }
        values.update(changes)
        return PlanProperties(**values)

    def satisfies_order(self, required: OrderSpec) -> bool:
        """Does this plan's order satisfy the required prefix order?"""
        if not required:
            return True
        if len(self.order) < len(required):
            return False
        return tuple(self.order[: len(required)]) == tuple(required)

    def interesting_key(self) -> Tuple:
        """Dedup key for the DP memo: plans with the same key compete."""
        return (self.quantifiers, self.preds_applied, self.order, self.site,
                self.dop)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("<Props n=%d cost=%.2f card=%.1f order=%s site=%s dop=%d>"
                % (len(self.quantifiers), self.cost, self.card,
                   self.order, self.site, self.dop))
