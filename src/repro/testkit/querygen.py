"""Random Hydrogen query generation.

A :class:`QuerySpec` is a structured description of one SELECT statement —
select list, source chain, predicates, grouping, set operation, ordering —
that knows how to ``render()`` itself to SQL and, crucially, how to
*simplify* itself: :meth:`QuerySpec.simplifications` yields structurally
smaller variants, which is what the shrinker in
:mod:`repro.testkit.differential` walks to reduce a failing query to a
minimal reproduction.

:class:`QueryGenerator` draws specs from a ``random.Random``; the same
(seed, schema) pair always produces the same query sequence.  Coverage is
deliberately aimed at the engine's treacherous corners: NULL-laden
three-valued predicates, LEFT OUTER JOIN, correlated EXISTS / IN / scalar
subqueries, quantified comparisons, GROUP BY + aggregates, UNION /
INTERSECT / EXCEPT with and without ALL, positional ORDER BY and LIMIT.

Division and modulo ARE generated (zero divisors included): both engine
and oracle raise the typed :class:`~repro.errors.DivisionByZeroError`, so
the harness checks error class equivalence, not just row equivalence.
One deliberate omission keeps every generated query deterministic: LIMIT
only appears under an ORDER BY that covers *every* output column
(otherwise the set of surviving rows is implementation-defined).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.testkit.datagen import Relation, SchemaSpec

NUMERIC = ("int", "float")

_CONST_BY_KIND = {
    "int": ("0", "1", "2", "3", "-1"),
    "float": ("0.5", "1.0", "2.0", "3.5"),
    "str": ("'ab'", "'b'", "'xy'", "'zz'"),
}

_LIKE_PATTERNS = ("'a%'", "'%b'", "'%b%'", "'ab'", "'_b'", "'x_'")


def _fallback_const(kind: str) -> str:
    return _CONST_BY_KIND[kind][0]


class GenBias:
    """Tunable probabilities for :class:`QueryGenerator`.

    The defaults are exactly the generator's historical constants, so a
    default-constructed bias changes nothing — same (seed, schema) pair,
    same query stream.  The rulecheck harness passes skewed biases to
    steer generation toward QGM shapes a particular rewrite rule's
    condition can match (more subqueries for subquery_to_join, more
    joins for predicate_transitivity, ...).
    """

    __slots__ = ("single_source", "left_join", "join_pred", "subquery",
                 "grouped", "distinct", "setop", "sub_correlated",
                 "sub_distinct")

    def __init__(self, single_source: float = 0.35,
                 left_join: float = 0.35,
                 join_pred: float = 0.85,
                 subquery: float = 0.30,
                 grouped: float = 0.3,
                 distinct: float = 0.2,
                 setop: float = 0.25,
                 sub_correlated: float = 0.6,
                 sub_distinct: float = 0.2):
        self.single_source = single_source
        self.left_join = left_join
        self.join_pred = join_pred
        self.subquery = subquery
        self.grouped = grouped
        self.distinct = distinct
        self.setop = setop
        self.sub_correlated = sub_correlated
        self.sub_distinct = sub_distinct


class SelectItem:
    """One select-list entry: SQL text plus its output kind."""

    __slots__ = ("sql", "kind", "aliases", "is_agg", "arg")

    def __init__(self, sql: str, kind: str, aliases: Set[str],
                 is_agg: bool = False,
                 arg: Optional[Tuple[str, str, Set[str]]] = None):
        self.sql = sql
        self.kind = kind
        self.aliases = set(aliases)
        self.is_agg = is_agg
        self.arg = arg  # (sql, kind, aliases) of the aggregate argument

    def degrouped(self) -> "SelectItem":
        """This item with the aggregate peeled off (for the shrinker)."""
        if not self.is_agg:
            return self
        if self.arg is not None:
            sql, kind, aliases = self.arg
            return SelectItem(sql, kind, aliases)
        return SelectItem("1", "int", set())


class Pred:
    """One WHERE/HAVING/ON conjunct.

    ``template`` is the SQL text; when ``sub`` is set it contains a
    ``{sub}`` placeholder filled with the subquery's rendering, so the
    shrinker can swap in simplified subqueries without re-parsing text.
    ``aliases`` lists every source alias the predicate touches, including
    correlated references from inside the subquery.
    """

    __slots__ = ("template", "aliases", "sub")

    def __init__(self, template: str, aliases: Set[str],
                 sub: Optional["QuerySpec"] = None):
        self.template = template
        self.aliases = set(aliases)
        self.sub = sub

    def render(self) -> str:
        if self.sub is not None:
            return self.template.format(sub=self.sub.render(top=False))
        return self.template

    def with_sub(self, sub: "QuerySpec") -> "Pred":
        return Pred(self.template, self.aliases, sub)


class Source:
    """One FROM entry.  ``left_join`` sources chain onto the previous
    source with ``LEFT OUTER JOIN ... ON on``; others are comma-listed."""

    __slots__ = ("relation", "alias", "columns", "left_join", "on")

    def __init__(self, relation: str, alias: str,
                 columns: Sequence[Tuple[str, str]],
                 left_join: bool = False, on: Optional[Pred] = None):
        self.relation = relation
        self.alias = alias
        self.columns = list(columns)
        self.left_join = left_join
        self.on = on

    def columns_of_kind(self, kind: str) -> List[str]:
        return [name for name, k in self.columns if k == kind]

    def numeric_columns(self) -> List[Tuple[str, str]]:
        return [(name, k) for name, k in self.columns if k in NUMERIC]


class QuerySpec:
    """A structured SELECT, renderable and shrinkable."""

    def __init__(self, items: List[SelectItem], sources: List[Source],
                 where: Optional[List[Pred]] = None, distinct: bool = False,
                 group_by: Optional[List[SelectItem]] = None,
                 having: Optional[List[Pred]] = None,
                 setop: Optional[Tuple[str, bool, "QuerySpec"]] = None,
                 order_by: Optional[List[Tuple[int, bool]]] = None,
                 limit: Optional[int] = None):
        self.items = items
        self.sources = sources
        self.where = where or []
        self.distinct = distinct
        self.group_by = group_by or []
        self.having = having or []
        self.setop = setop  # (op, all_rows, right)
        self.order_by = order_by or []
        self.limit = limit

    # -- rendering --------------------------------------------------------------------

    def render(self, top: bool = True) -> str:
        parts = ["SELECT "]
        if self.distinct:
            parts.append("DISTINCT ")
        rendered_items = []
        for position, item in enumerate(self.items):
            if top:
                rendered_items.append("%s AS c%d" % (item.sql, position))
            else:
                rendered_items.append(item.sql)
        parts.append(", ".join(rendered_items))
        parts.append(" FROM ")
        chunks: List[str] = []
        for source in self.sources:
            ref = "%s %s" % (source.relation, source.alias)
            if source.left_join and chunks:
                on_sql = source.on.render() if source.on else "1 = 1"
                chunks[-1] += " LEFT OUTER JOIN %s ON %s" % (ref, on_sql)
            else:
                chunks.append(ref)
        parts.append(", ".join(chunks))
        if self.where:
            parts.append(" WHERE ")
            parts.append(" AND ".join("(%s)" % p.render()
                                      for p in self.where))
        if self.group_by:
            parts.append(" GROUP BY ")
            parts.append(", ".join(key.sql for key in self.group_by))
        if self.having:
            parts.append(" HAVING ")
            parts.append(" AND ".join("(%s)" % p.render()
                                      for p in self.having))
        if self.setop is not None:
            op, all_rows, right = self.setop
            parts.append(" %s%s %s" % (op.upper(),
                                       " ALL" if all_rows else "",
                                       right.render(top=False)))
        if self.order_by:
            parts.append(" ORDER BY ")
            parts.append(", ".join("%d %s" % (pos + 1,
                                              "ASC" if asc else "DESC")
                                   for pos, asc in self.order_by))
        if self.limit is not None:
            parts.append(" LIMIT %d" % self.limit)
        return "".join(parts)

    # -- introspection ----------------------------------------------------------------

    def referenced_relations(self) -> Set[str]:
        names = {source.relation for source in self.sources}
        for pred in self.where + self.having:
            if pred.sub is not None:
                names |= pred.sub.referenced_relations()
        for source in self.sources:
            if source.on is not None and source.on.sub is not None:
                names |= source.on.sub.referenced_relations()
        if self.setop is not None:
            names |= self.setop[2].referenced_relations()
        return names

    def kinds(self) -> List[str]:
        return [item.kind for item in self.items]

    def _copy(self, **overrides) -> "QuerySpec":
        fields = dict(items=self.items, sources=self.sources,
                      where=self.where, distinct=self.distinct,
                      group_by=self.group_by, having=self.having,
                      setop=self.setop, order_by=self.order_by,
                      limit=self.limit)
        fields.update(overrides)
        return QuerySpec(**fields)

    # -- shrinking --------------------------------------------------------------------

    def simplifications(self) -> Iterator["QuerySpec"]:
        """Structurally smaller variants of this query, most aggressive
        first.  Every yielded spec renders to valid Hydrogen on its own;
        the shrinker keeps a variant only if it still reproduces the
        divergence."""
        if self.setop is not None:
            yield self._copy(setop=None)
        for index in range(1, len(self.sources)):
            dropped = self._drop_source(index)
            if dropped is not None:
                yield dropped
        for index in range(len(self.where)):
            yield self._copy(where=self.where[:index]
                             + self.where[index + 1:])
        for index, pred in enumerate(self.where):
            if pred.sub is None:
                continue
            for smaller in pred.sub.simplifications():
                replaced = list(self.where)
                replaced[index] = pred.with_sub(smaller)
                yield self._copy(where=replaced)
        if self.group_by:
            yield self._copy(items=[item.degrouped()
                                    for item in self.items],
                             group_by=[], having=[])
        for index in range(len(self.having)):
            yield self._copy(having=self.having[:index]
                             + self.having[index + 1:])
        if self.setop is not None:
            for smaller in self.setop[2].simplifications():
                if smaller.kinds() == self.setop[2].kinds():
                    yield self._copy(setop=(self.setop[0], self.setop[1],
                                            smaller))
        if self.limit is not None:
            yield self._copy(limit=None)
        if self.order_by:
            yield self._copy(order_by=[], limit=None)
        if self.distinct:
            yield self._copy(distinct=False)
        if len(self.items) > 1 and self.setop is None:
            for index in range(len(self.items)):
                yield self._drop_item(index)

    def _drop_item(self, index: int) -> "QuerySpec":
        items = self.items[:index] + self.items[index + 1:]
        order_by = []
        for pos, asc in self.order_by:
            if pos == index:
                continue
            order_by.append((pos - 1 if pos > index else pos, asc))
        limit = self.limit
        if limit is not None and {pos for pos, _ in order_by} != \
                set(range(len(items))):
            limit = None
        return self._copy(items=items, order_by=order_by, limit=limit)

    def _drop_source(self, index: int) -> Optional["QuerySpec"]:
        victim = self.sources[index]
        for other_index, other in enumerate(self.sources):
            if other_index == index or other.on is None:
                continue
            if victim.alias in other.on.aliases:
                return None  # a later join's ON condition needs this source
        alias = victim.alias
        sources = self.sources[:index] + self.sources[index + 1:]
        where = [p for p in self.where if alias not in p.aliases]
        having = [p for p in self.having if alias not in p.aliases]
        group_by = [key for key in self.group_by
                    if alias not in key.aliases]
        keep = [i for i, item in enumerate(self.items)
                if alias not in item.aliases]
        if self.setop is not None and len(keep) != len(self.items):
            return None  # cannot change arity under a set operation
        items = [self.items[i] for i in keep]
        if not items:
            items = [SelectItem("1", "int", set())]
            keep = []
        remap = {old: new for new, old in enumerate(keep)}
        order_by = [(remap[pos], asc) for pos, asc in self.order_by
                    if pos in remap]
        limit = self.limit
        if limit is not None and {pos for pos, _ in order_by} != \
                set(range(len(items))):
            limit = None
        return self._copy(items=items, sources=sources, where=where,
                          group_by=group_by, having=having,
                          order_by=order_by, limit=limit)


class QueryGenerator:
    """Draws reproducible :class:`QuerySpec` values from one rng."""

    def __init__(self, rng: random.Random, schema: SchemaSpec,
                 bias: Optional[GenBias] = None):
        self.rng = rng
        self.schema = schema
        self.bias = bias if bias is not None else GenBias()
        self.relations = schema.relations()
        self._alias_counter = 0

    def _fresh_alias(self) -> str:
        alias = "a%d" % self._alias_counter
        self._alias_counter += 1
        return alias

    def generate(self) -> QuerySpec:
        return self._query(depth=0)

    # -- query assembly ---------------------------------------------------------------

    def _query(self, depth: int,
               outer_sources: Sequence[Source] = ()) -> QuerySpec:
        rng = self.rng
        bias = self.bias
        max_sources = 3 if depth == 0 else 2
        source_count = 1 if rng.random() < bias.single_source else \
            rng.randint(1, max_sources)
        sources = self._sources(source_count)

        where: List[Pred] = []
        # Equi-join the comma-listed sources most of the time, so the plan
        # space has real join orders to explore (the rest stay Cartesian
        # on purpose: tiny tables, and the enumerator must handle them).
        for index in range(1, len(sources)):
            if sources[index].left_join:
                continue
            if rng.random() < bias.join_pred:
                pred = self._join_pred(sources[:index], sources[index])
                if pred is not None:
                    where.append(pred)
        for _ in range(rng.randint(0, 2)):
            where.append(self._predicate(sources, outer_sources, depth))

        grouped = depth == 0 and rng.random() < bias.grouped
        group_by: List[SelectItem] = []
        having: List[Pred] = []
        if grouped:
            items, group_by, having = self._grouped_select(sources)
        else:
            items = self._select_items(sources)

        distinct = not grouped and rng.random() < bias.distinct

        setop = None
        if depth == 0 and rng.random() < bias.setop:
            op = rng.choice(("union", "intersect", "except"))
            all_rows = rng.random() < 0.5
            setop = (op, all_rows, self._setop_side(self.kinds_of(items)))

        order_by: List[Tuple[int, bool]] = []
        limit = None
        if depth == 0 and rng.random() < 0.55:
            positions = list(range(len(items)))
            rng.shuffle(positions)
            kept = positions[:rng.randint(1, len(positions))]
            order_by = [(pos, rng.random() < 0.65) for pos in kept]
            if len(kept) == len(items) and rng.random() < 0.45:
                limit = rng.randint(1, 5)

        return QuerySpec(items, sources, where=where, distinct=distinct,
                         group_by=group_by, having=having, setop=setop,
                         order_by=order_by, limit=limit)

    @staticmethod
    def kinds_of(items: Sequence[SelectItem]) -> List[str]:
        return [item.kind for item in items]

    def _sources(self, count: int) -> List[Source]:
        rng = self.rng
        sources: List[Source] = []
        for index in range(count):
            relation = rng.choice(self.relations)
            alias = self._fresh_alias()
            source = Source(relation.name, alias, relation.columns)
            if index > 0 and rng.random() < self.bias.left_join:
                on = self._join_pred([sources[-1]], source)
                if on is not None:
                    source.left_join = True
                    source.on = on
            sources.append(source)
        return sources

    def _join_pred(self, candidates: Sequence[Source],
                   source: Source) -> Optional[Pred]:
        rng = self.rng
        right = source.numeric_columns()
        if not right:
            return None
        partners = [(other, column) for other in candidates
                    for column in other.numeric_columns()]
        if not partners:
            return None
        other, (left_col, _) = rng.choice(partners)
        right_col, _ = rng.choice(right)
        sql = "%s.%s = %s.%s" % (other.alias, left_col,
                                 source.alias, right_col)
        return Pred(sql, {other.alias, source.alias})

    # -- select lists -----------------------------------------------------------------

    def _column_item(self, sources: Sequence[Source]) -> SelectItem:
        rng = self.rng
        source = rng.choice(list(sources))
        name, kind = rng.choice(source.columns)
        return SelectItem("%s.%s" % (source.alias, name), kind,
                          {source.alias})

    def _select_items(self, sources: Sequence[Source]) -> List[SelectItem]:
        rng = self.rng
        items: List[SelectItem] = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.72:
                items.append(self._column_item(sources))
            elif roll < 0.88:
                source = rng.choice(list(sources))
                numeric = source.numeric_columns()
                if numeric:
                    name, kind = rng.choice(numeric)
                    const = rng.choice(_CONST_BY_KIND[rng.choice(NUMERIC)])
                    op = rng.choice(("+", "-", "*", "/", "%"))
                    if op == "/":
                        out = "float"  # SQL / here is true division
                    else:
                        out = "float" if (kind == "float" or "." in const) \
                            else "int"
                    items.append(SelectItem(
                        "%s.%s %s %s" % (source.alias, name, op, const),
                        out, {source.alias}))
                else:
                    items.append(self._column_item(sources))
            else:
                kind = rng.choice(("int", "float", "str"))
                items.append(SelectItem(rng.choice(_CONST_BY_KIND[kind]),
                                        kind, set()))
        return items

    def _aggregate_item(self, sources: Sequence[Source]) -> SelectItem:
        rng = self.rng
        name = rng.choice(("count", "count", "sum", "min", "max", "avg"))
        if name == "count" and rng.random() < 0.5:
            return SelectItem("COUNT(*)", "int", set(), is_agg=True)
        source = rng.choice(list(sources))
        if name in ("sum", "avg"):
            pool = source.numeric_columns()
            if not pool:
                return SelectItem("COUNT(*)", "int", set(), is_agg=True)
            column, kind = rng.choice(pool)
        else:
            column, kind = rng.choice(source.columns)
        arg = "%s.%s" % (source.alias, column)
        distinct = "DISTINCT " if rng.random() < 0.2 else ""
        if name == "count":
            out = "int"
        elif name == "avg":
            out = "float"
        else:
            out = kind
        return SelectItem("%s(%s%s)" % (name.upper(), distinct, arg), out,
                          {source.alias}, is_agg=True,
                          arg=(arg, kind, {source.alias}))

    def _grouped_select(self, sources: Sequence[Source]):
        rng = self.rng
        keys: List[SelectItem] = []
        seen: Set[str] = set()
        for _ in range(rng.randint(1, 2)):
            item = self._column_item(sources)
            if item.sql not in seen:
                seen.add(item.sql)
                keys.append(item)
        items: List[SelectItem] = [key for key in keys
                                   if rng.random() < 0.8]
        for _ in range(rng.randint(1, 2)):
            items.append(self._aggregate_item(sources))
        if not items:
            items = [self._aggregate_item(sources)]
        having: List[Pred] = []
        if rng.random() < 0.35:
            agg = self._aggregate_item(sources)
            op = rng.choice((">", ">=", "<", "<=", "=", "<>"))
            const = rng.choice(_CONST_BY_KIND[agg.kind])
            having.append(Pred("%s %s %s" % (agg.sql, op, const),
                               agg.aliases))
        return items, keys, having

    # -- predicates -------------------------------------------------------------------

    def _predicate(self, sources: Sequence[Source],
                   outer_sources: Sequence[Source], depth: int) -> Pred:
        rng = self.rng
        roll = rng.random()
        if depth < 2 and roll < self.bias.subquery:
            return self._subquery_pred(sources, outer_sources, depth)
        if roll < 0.42:
            left = self._predicate_simple(sources)
            right = self._predicate_simple(sources)
            op = "OR" if rng.random() < 0.6 else "AND"
            inner = "(%s) %s (%s)" % (left.template, op, right.template)
            if rng.random() < 0.3:
                inner = "NOT (%s)" % inner
            return Pred(inner, left.aliases | right.aliases)
        return self._predicate_simple(sources, outer_sources)

    def _predicate_simple(self, sources: Sequence[Source],
                          outer_sources: Sequence[Source] = ()) -> Pred:
        rng = self.rng
        source = rng.choice(list(sources))
        name, kind = rng.choice(source.columns)
        column = "%s.%s" % (source.alias, name)
        aliases = {source.alias}
        roll = rng.random()
        if roll < 0.30:
            op = rng.choice(("=", "<>", "<", "<=", ">", ">="))
            if kind in NUMERIC:
                const = rng.choice(_CONST_BY_KIND[rng.choice(NUMERIC)])
            else:
                const = rng.choice(_CONST_BY_KIND[kind])
            return Pred("%s %s %s" % (column, op, const), aliases)
        if roll < 0.45:
            pool: List[Tuple[Source, str]] = []
            for other in list(sources) + list(outer_sources):
                for other_name, other_kind in other.columns:
                    comparable = (kind in NUMERIC and other_kind in NUMERIC) \
                        or kind == other_kind
                    if comparable:
                        pool.append((other,
                                     "%s.%s" % (other.alias, other_name)))
            if pool:
                other, other_column = rng.choice(pool)
                op = rng.choice(("=", "<>", "<", ">="))
                return Pred("%s %s %s" % (column, op, other_column),
                            aliases | {other.alias})
            return Pred("%s IS NOT NULL" % column, aliases)
        if roll < 0.60:
            negated = "NOT " if rng.random() < 0.5 else ""
            return Pred("%s IS %sNULL" % (column, negated), aliases)
        if roll < 0.72 and kind in NUMERIC:
            low, high = sorted(rng.sample(range(-1, 5), 2))
            negated = "NOT " if rng.random() < 0.3 else ""
            return Pred("%s %sBETWEEN %d AND %d"
                        % (column, negated, low, high), aliases)
        if roll < 0.85:
            values = rng.sample(_CONST_BY_KIND[kind],
                                rng.randint(2, 3))
            negated = "NOT " if rng.random() < 0.35 else ""
            return Pred("%s %sIN (%s)" % (column, negated,
                                          ", ".join(values)), aliases)
        if kind == "str":
            negated = "NOT " if rng.random() < 0.3 else ""
            return Pred("%s %sLIKE %s"
                        % (column, negated, rng.choice(_LIKE_PATTERNS)),
                        aliases)
        op = rng.choice(("=", "<>", "<", ">"))
        const = rng.choice(_CONST_BY_KIND[kind])
        return Pred("%s %s %s" % (column, op, const), aliases)

    def _subquery_pred(self, sources: Sequence[Source],
                       outer_sources: Sequence[Source], depth: int) -> Pred:
        rng = self.rng
        outer_scope = list(sources) + list(outer_sources)
        style = rng.choice(("exists", "exists", "in", "in", "quant",
                            "scalar"))
        if style == "exists":
            sub = self._subquery(depth + 1, outer_scope, signature=None)
            negated = "NOT " if rng.random() < 0.4 else ""
            return Pred("%sEXISTS ({sub})" % negated,
                        self._correlated_aliases(sub, sources), sub)
        source = rng.choice(list(sources))
        name, kind = rng.choice(source.columns)
        column = "%s.%s" % (source.alias, name)
        if style == "scalar":
            sub = self._scalar_subquery(depth + 1, outer_scope, kind)
            op = rng.choice(("=", "<>", "<", "<=", ">", ">="))
            return Pred("%s %s ({sub})" % (column, op),
                        {source.alias}
                        | self._correlated_aliases(sub, sources), sub)
        sub = self._subquery(depth + 1, outer_scope, signature=[kind])
        if style == "in":
            negated = "NOT " if rng.random() < 0.4 else ""
            return Pred("%s %sIN ({sub})" % (column, negated),
                        {source.alias}
                        | self._correlated_aliases(sub, sources), sub)
        op = rng.choice(("=", "<>", "<", "<=", ">", ">="))
        quantifier = rng.choice(("ANY", "ALL", "SOME"))
        return Pred("%s %s %s ({sub})" % (column, op, quantifier),
                    {source.alias}
                    | self._correlated_aliases(sub, sources), sub)

    @staticmethod
    def _correlated_aliases(sub: QuerySpec,
                            sources: Sequence[Source]) -> Set[str]:
        local = {source.alias for source in sources}
        used: Set[str] = set()
        for pred in sub.where:
            used |= pred.aliases & local
        return used

    def _subquery(self, depth: int, outer_scope: Sequence[Source],
                  signature: Optional[List[str]]) -> QuerySpec:
        rng = self.rng
        relation = rng.choice(self.relations)
        alias = self._fresh_alias()
        source = Source(relation.name, alias, relation.columns)
        where: List[Pred] = []
        if outer_scope and rng.random() < self.bias.sub_correlated:
            pred = self._correlation_pred(source, outer_scope)
            if pred is not None:
                where.append(pred)
        if rng.random() < 0.5:
            where.append(self._predicate_simple([source], outer_scope))
        if signature is None:
            items = [SelectItem("1", "int", set())]
        else:
            items = [self._item_of_kind(source, kind) for kind in signature]
        distinct = rng.random() < self.bias.sub_distinct
        return QuerySpec(items, [source], where=where, distinct=distinct)

    def _scalar_subquery(self, depth: int, outer_scope: Sequence[Source],
                         kind: str) -> QuerySpec:
        """An aggregate subquery with no GROUP BY: exactly one row."""
        rng = self.rng
        relation = rng.choice(self.relations)
        alias = self._fresh_alias()
        source = Source(relation.name, alias, relation.columns)
        pool = [name for name, k in source.columns
                if k == kind or (kind in NUMERIC and k in NUMERIC)]
        if pool:
            agg = rng.choice(("MIN", "MAX"))
            sql = "%s(%s.%s)" % (agg, alias, rng.choice(pool))
        else:
            sql = "COUNT(*)"
        where: List[Pred] = []
        if outer_scope and rng.random() < self.bias.sub_correlated:
            pred = self._correlation_pred(source, outer_scope)
            if pred is not None:
                where.append(pred)
        item = SelectItem(sql, kind, {alias}, is_agg=True)
        return QuerySpec([item], [source], where=where)

    def _correlation_pred(self, source: Source,
                          outer_scope: Sequence[Source]) -> Optional[Pred]:
        rng = self.rng
        pool = []
        for outer in outer_scope:
            for outer_name, outer_kind in outer.columns:
                for name, kind in source.columns:
                    if (kind in NUMERIC and outer_kind in NUMERIC) \
                            or kind == outer_kind:
                        pool.append((outer, outer_name, name))
        if not pool:
            return None
        outer, outer_name, name = rng.choice(pool)
        op = "=" if rng.random() < 0.7 else rng.choice(("<", ">", "<>"))
        return Pred("%s.%s %s %s.%s" % (source.alias, name, op,
                                        outer.alias, outer_name),
                    {source.alias, outer.alias})

    def _item_of_kind(self, source: Source, kind: str) -> SelectItem:
        pool = source.columns_of_kind(kind)
        if pool:
            name = self.rng.choice(pool)
            return SelectItem("%s.%s" % (source.alias, name), kind,
                              {source.alias})
        return SelectItem(_fallback_const(kind), kind, set())

    def _setop_side(self, signature: List[str]) -> QuerySpec:
        rng = self.rng
        relation = rng.choice(self.relations)
        alias = self._fresh_alias()
        source = Source(relation.name, alias, relation.columns)
        items = [self._item_of_kind(source, kind) for kind in signature]
        where: List[Pred] = []
        if rng.random() < 0.5:
            where.append(self._predicate_simple([source]))
        return QuerySpec(items, [source], where=where,
                         distinct=rng.random() < 0.2)
