"""Bloom-join: a filtration join method added as a pure DBC extension.

Section 6 claims the STAR formalism can express "filtration methods such
as semi-joins and Bloom-joins [MACK86]".  This module proves it by adding
the strategy without touching a single base module:

1. a :class:`BloomFilter` (bit array + k hash functions),
2. a :class:`BloomJoin` LOLEPOP whose property function models the
   filtration benefit: the *outer* stream is pre-filtered against a Bloom
   filter built from the inner join keys before the (hash) join — the win
   of [MACK86]'s Bloom-joins is shipping/joining fewer outer rows,
3. an interpreter for the LOLEPOP, registered with the QES,
4. a STAR alternative appended to the join-method array.

Install into a database with :func:`install_bloom_join`; the optimizer
then generates Bloom-join alternatives automatically wherever an equi-join
has a filtered inner, and picks them when the cost model says the
filtration pays (selective inner, expensive outer rows).
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterator, List, Sequence

from repro.executor.compiled import closures
from repro.executor.context import ExecutionContext
from repro.executor.run import env_iter, register_env_operator
from repro.optimizer.cost import CPU_WEIGHT, CostModel
from repro.optimizer.plans import PlanOp, _join_props
from repro.optimizer.stars import Alternative, PlanGenerator
from repro.qgm import expressions as qe
from repro.qgm.model import Predicate


class BloomFilter:
    """A classic Bloom filter over hashable keys."""

    def __init__(self, bits: int = 8192, hashes: int = 3):
        self.bits = bits
        self.hashes = hashes
        self._words = bytearray((bits + 7) // 8)
        self.added = 0

    def _positions(self, key: Any) -> List[int]:
        digest = hashlib.blake2b(repr(key).encode(), digest_size=16).digest()
        positions = []
        for index in range(self.hashes):
            chunk = digest[index * 4: index * 4 + 4]
            positions.append(int.from_bytes(chunk, "little") % self.bits)
        return positions

    def add(self, key: Any) -> None:
        for position in self._positions(key):
            self._words[position // 8] |= 1 << (position % 8)
        self.added += 1

    def might_contain(self, key: Any) -> bool:
        return all(self._words[p // 8] & (1 << (p % 8))
                   for p in self._positions(key))

    def false_positive_rate(self) -> float:
        """Theoretical FP rate for the current fill."""
        if self.added == 0:
            return 0.0
        fill = 1.0 - (1.0 - 1.0 / self.bits) ** (self.hashes * self.added)
        return fill ** self.hashes


class BloomJoin(PlanOp):
    """Hash join with a Bloom pre-filter on the outer stream.

    The property function credits the filtration: outer rows that cannot
    match are dropped for a bit-test instead of a hash probe (and, when
    the outer comes from another site, before they would be shipped).
    """

    op_name = "BLOOMJOIN"

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
        # Survivors of the filter ~ rows that actually join (+ noise).
        selectivity = 1.0
        for predicate in list(preds) + list(residual):
            selectivity *= cm.selectivity(predicate)
        surviving = max(1.0, outer.props.card * inner.props.card
                        * selectivity / max(inner.props.card, 1.0))
        cost = (outer.props.cost + inner.props.cost
                + cm.hash_cost(inner.props.card, surviving)
                + outer.props.card * CPU_WEIGHT * 0.3)  # bit tests
        props = _join_props(cm, outer, inner, kind,
                            list(preds) + list(residual), cost,
                            outer.props.order)
        super().__init__((outer, inner), props)

    def describe(self) -> str:
        return "BLOOMJOIN[%s](%s)" % (
            self.kind,
            ", ".join("%r=%r" % (o, i)
                      for o, i in zip(self.outer_keys, self.inner_keys)))


def _run_bloom_join(plan: BloomJoin, ctx: ExecutionContext,
                    env) -> Iterator:
    # Each expression's closure is what refinement compiled, or is
    # compiled now (this operator is one refinement never saw) and kept.
    outer_fns = closures(plan.outer_keys, ctx.functions)
    inner_fns = closures(plan.inner_keys, ctx.functions)
    residual = closures(plan.residual, ctx.functions)
    outer_plan, inner_plan = plan.children

    def join_key(fns, binding_env):
        values = tuple([fn(binding_env, ctx) for fn in fns])
        return None if None in values else values

    # Build side: hash table + Bloom filter over the inner keys.
    bloom = BloomFilter()
    table = {}
    for inner_env in env_iter(inner_plan, ctx, env):
        key = join_key(inner_fns, inner_env)
        if key is not None:
            bloom.add(key)
            table.setdefault(key, []).append(inner_env)

    filtered = 0
    for outer_env in env_iter(outer_plan, ctx, env):
        key = join_key(outer_fns, outer_env)
        if key is None:
            continue
        if not bloom.might_contain(key):
            filtered += 1
            continue
        for inner_env in table.get(key, ()):
            merged = {**outer_env, **inner_env}
            if all(fn(merged, ctx) is True for fn in residual):
                yield merged
    ctx.stats.__dict__.setdefault("bloom_filtered", 0)
    ctx.stats.__dict__["bloom_filtered"] += filtered


def _bloom_join_alternative(gen: PlanGenerator, args) -> List[PlanOp]:
    """The STAR alternative: applicable to equi-joins with a *selective*
    inner (otherwise the filter rejects nothing)."""
    outer, inner = args["outer"], args["inner"]
    kind = args.get("kind", "regular")
    if kind != "regular":
        return []
    outer_keys: List[qe.QExpr] = []
    inner_keys: List[qe.QExpr] = []
    key_preds: List[Predicate] = []
    residual: List[Predicate] = []
    for predicate in args["preds"]:
        pair = qe.is_column_equality(predicate.expr)
        if pair is not None:
            left, right = pair
            if (left.quantifier in outer.props.quantifiers
                    and right.quantifier in inner.props.quantifiers):
                outer_keys.append(left)
                inner_keys.append(right)
                key_preds.append(predicate)
                continue
            if (right.quantifier in outer.props.quantifiers
                    and left.quantifier in inner.props.quantifiers):
                outer_keys.append(right)
                inner_keys.append(left)
                key_preds.append(predicate)
                continue
        residual.append(predicate)
    if not outer_keys:
        return []
    return [BloomJoin(gen.cm, outer, inner, kind, outer_keys, inner_keys,
                      key_preds, residual)]


def install_bloom_join(db) -> None:
    """Register the Bloom-join extension with a database.

    Purely additive: one STAR alternative on the join-method expansion and
    one interpreter registration — exactly the touch points the paper's
    extension architecture prescribes.
    """
    already = any(a.name == "Bloom"
                  for a in db.stars["JoinRoot"].alternatives)
    if not already:
        db.add_star_alternative("JoinRoot", Alternative(
            "Bloom", _bloom_join_alternative, rank=1.6))
    register_env_operator(BloomJoin, _run_bloom_join)
