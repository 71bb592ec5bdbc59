"""The Query Evaluation System (section 7 of the paper).

The QES interprets query evaluation plans: "Each operator takes one or more
streams of tuples as input and produces one or more streams of tuples ...
We implement the concept of streams by lazy evaluation to keep intermediate
results between operators as small as one tuple."

Reproduced design points:

- operators are lazy Python generators over *binding streams* (environments
  mapping quantifiers to rows) and *row streams* (plain tuples),
- join operators separate the join **method** (NL / merge / hash) from the
  join **kind** (regular, exists, not_exists, all, scalar, left_outer, and
  DBC-registered kinds) — one operator handles many kinds,
- subqueries are evaluated **on demand** with caching keyed on correlation
  values ("evaluate-on-demand" replacing evaluate-at-open/application),
- the **OR operator** evaluates disjunctive predicates involving
  subqueries without changing the other operators,
- recursive table expressions run as semi-naive (or, for comparison,
  naive) fixpoints over DELTA streams.
"""

from repro.executor.context import ExecutionContext, ExecutionStats
from repro.executor.run import execute_plan
from repro.executor.kinds import JoinKindRegistry, default_join_kinds

__all__ = [
    "ExecutionContext",
    "ExecutionStats",
    "execute_plan",
    "JoinKindRegistry",
    "default_join_kinds",
]
