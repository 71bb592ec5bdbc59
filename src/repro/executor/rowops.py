"""Blocking row operators, defined once for every executor.

DISTINCT, LIMIT, ORDER BY, the set operators and the tail of a GROUP BY
consume plain row streams and do not care which backend produced them.
The tuple interpreter (:mod:`~repro.executor.run`), the fused-pipeline
driver (:mod:`~repro.executor.codegen`) and the parallel workers
(:mod:`~repro.executor.parallel`) all call the functions below, so SQL's
NULL ordering, bag arithmetic and empty-input aggregate row are each
stated in exactly one place.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

from repro.errors import ExecutionError

Row = Tuple[Any, ...]


class Reversed:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Reversed) and other.value == self.value


def null_last_key(row: Row, positions: List[Tuple[int, bool]]):
    """Sort key over output positions: NULLs last in either direction."""
    key = []
    for position, ascending in positions:
        value = row[position]
        base = value if value is not None else 0
        key.append((value is None, base if ascending else Reversed(base)))
    return tuple(key)


def sort_rows(rows: List[Row], positions: List[Tuple[int, bool]]) -> None:
    """ORDER BY, in place and stable (ties keep their input order)."""
    rows.sort(key=lambda row: null_last_key(row, positions))


def distinct_rows(rows: Iterable[Row]) -> Iterator[Row]:
    seen = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row


def limit_rows(rows: Iterable[Row], limit: int) -> Iterator[Row]:
    return itertools.islice(rows, max(limit, 0))


def setop_rows(op: str, all_rows: bool,
               streams: Iterable[Iterable[Row]]) -> Iterator[Row]:
    """UNION / INTERSECT / EXCEPT [ALL] over the children's row streams
    (an iterable, so a caller can open each child only when reached).

    INTERSECT and EXCEPT over three or more children associate pairwise,
    left to right.  Summing all right-hand bags into one Counter is NOT
    equivalent: for A INTERSECT ALL B INTERSECT ALL C the count is
    min(a, b, c), not min(a, b + c), and distinct INTERSECT requires
    membership in every child, not in the union of the rest.
    """
    if op == "union":
        rows = itertools.chain.from_iterable(streams)
        yield from (rows if all_rows else distinct_rows(rows))
        return
    keep_matched = op == "intersect"
    streams = iter(streams)
    left = list(next(streams))
    for stream in streams:
        if all_rows:
            budget = Counter(stream)
            folded = []
            for row in left:
                matched = budget[row] > 0
                if matched:
                    budget[row] -= 1
                if matched == keep_matched:
                    folded.append(row)
            left = folded
        else:
            right = set(stream)
            left = list(distinct_rows(
                row for row in left if (row in right) == keep_matched))
    yield from left


def aggregate_functions(aggregates, functions) -> List[Any]:
    """Resolve a GROUP BY's aggregate calls against the registry."""
    resolved = []
    for agg in aggregates:
        function = functions.aggregate(agg.name)
        if function is None:
            raise ExecutionError("unknown aggregate %s" % agg.name)
        resolved.append(function)
    return resolved


def finish_groups(groups: Dict[Row, List[Any]], grouped: bool,
                  functions: Callable[[], List[Any]]) -> Iterator[Row]:
    """The rows of a completed aggregation: one per group in first-seen
    order (``groups`` is insertion-ordered).  ``functions`` is only
    called when an ungrouped aggregation saw no input."""
    if not groups and not grouped:
        # SQL: aggregation over an empty input yields one row.
        yield tuple(f.factory().final() for f in functions())
        return
    for key, accumulators in groups.items():
        yield key + tuple(acc.final() for acc in accumulators)
