"""Per-operator runtime instrumentation (the ANALYZE half of EXPLAIN).

A :class:`PlanProfile` is attached to the :class:`ExecutionContext` as
``ctx.profile`` only when ``CompileOptions.analyze`` is set; every
dispatch site (``rows_iter``/``env_iter`` in the tuple interpreter, the
fused-region driver) checks ``ctx.profile is not None`` and only then
routes the operator's stream through a timing wrapper — with analyze
off, no wrapper generators or probe objects are ever constructed.  A
fused region is timed as a whole; the nodes inside it get actual rows
from the row counters of the region's analyze variant.

Timing is inclusive (a node's time contains its children's, the
PostgreSQL EXPLAIN ANALYZE convention) and measured with
``perf_counter_ns`` around each ``next()`` so consumer time between pulls
is never attributed to the producer.

Parallel workers build their own ``PlanProfile`` over their own compiled
copy of the plan; :meth:`PlanProfile.export` flattens the probes to
``plan.walk()`` indices (structurally identical across the fork
boundary), and the coordinator folds them back in with
:meth:`PlanProfile.merge_worker`, so ``EXPLAIN ANALYZE`` shows the rows
and time spent below a Gather/MergeGather even though those operators ran
in other processes.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Dict, Iterator, Optional, Tuple


class OpProbe:
    """One operator's runtime counters."""

    __slots__ = ("rows", "loops", "time_ns",
                 "worker_rows", "worker_time_ns", "worker_tasks")

    def __init__(self):
        #: Items the operator yielded on the coordinator: rows for row
        #: streams, bindings for binding streams.
        self.rows = 0
        #: Times the operator was opened (a re-opened join inner counts
        #: once per outer binding).
        self.loops = 0
        #: Inclusive wall time spent producing, in nanoseconds.
        self.time_ns = 0
        #: The same counters accumulated across parallel worker tasks.
        self.worker_rows = 0
        self.worker_time_ns = 0
        self.worker_tasks = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class PlanProfile:
    """Runtime probes for every executed operator of one plan."""

    def __init__(self, plan):
        self.plan = plan
        self._probes: Dict[int, OpProbe] = {}
        #: id(node) → node, keeping probed nodes alive and renderable.
        self._nodes: Dict[int, Any] = {}
        #: id(exchange) → {"morsels": n, "workers": n, "runs": n}.
        self.exchanges: Dict[int, Dict[str, int]] = {}
        #: The request trace this profile ran under (set by the execute
        #: path when the statement is both analyzed and traced), so the
        #: rendered plan and the span tree share one identifier.
        self.trace_id: Optional[str] = None

    # -- probe access --------------------------------------------------------

    def probe(self, node) -> OpProbe:
        key = id(node)
        probe = self._probes.get(key)
        if probe is None:
            probe = OpProbe()
            self._probes[key] = probe
            self._nodes[key] = node
        return probe

    def probe_for(self, node) -> Optional[OpProbe]:
        return self._probes.get(id(node))

    def __len__(self) -> int:
        return len(self._probes)

    # -- stream wrappers -----------------------------------------------------

    def iter_stream(self, plan, handler, ctx, env) -> Iterator[Any]:
        """Wrap a row/binding stream, timing each pull and counting
        yields.  ``handler`` is only invoked inside, so eager handlers
        (e.g. a sort that materializes on open) bill their setup here."""
        probe = self.probe(plan)
        probe.loops += 1
        spent = 0
        t0 = perf_counter_ns()
        try:
            stream = handler(plan, ctx, env)
            while True:
                try:
                    item = next(stream)
                except StopIteration:
                    spent += perf_counter_ns() - t0
                    break
                spent += perf_counter_ns() - t0
                probe.rows += 1
                yield item
                t0 = perf_counter_ns()
        finally:
            probe.time_ns += spent

    # -- parallel-worker merge ----------------------------------------------

    def note_exchange(self, exchange, morsels: int, workers: int,
                      worker_times=None, worker_ids=None,
                      wire_bytes: int = 0) -> None:
        """Record fan-out detail for one Exchange execution.

        ``worker_times`` — per-task wall seconds, for the EXPLAIN
        ANALYZE skew view (min/median/max); ``worker_ids`` — the worker
        process that ran each task, aligned with ``worker_times``, for
        the per-worker wall-time view (several tasks can land on one
        worker); ``wire_bytes`` — measured inter-process bytes for a
        SHIP.
        """
        key = id(exchange)
        detail = self.exchanges.get(key)
        if detail is None:
            detail = {"morsels": 0, "workers": workers, "runs": 0,
                      "worker_times": [], "worker_ids": [],
                      "wire_bytes": 0}
            self.exchanges[key] = detail
            self._nodes.setdefault(key, exchange)
        detail["morsels"] += morsels
        detail["workers"] = workers
        detail["runs"] += 1
        if worker_times:
            detail["worker_times"].extend(worker_times)
            ids = (list(worker_ids)
                   if worker_ids and len(worker_ids) == len(worker_times)
                   else [None] * len(worker_times))
            detail["worker_ids"].extend(ids)
        detail["wire_bytes"] += int(wire_bytes)

    def export(self) -> Dict[int, Tuple[int, int, int]]:
        """Flatten probes to ``plan.walk()`` indices for the trip back
        across the fork boundary (worker → coordinator)."""
        index_of = {id(node): index
                    for index, node in enumerate(self.plan.walk())}
        out: Dict[int, Tuple[int, int, int]] = {}
        for key, probe in self._probes.items():
            index = index_of.get(key)
            if index is not None:
                out[index] = (probe.rows, probe.loops, probe.time_ns)
        return out

    def merge_worker(self, exported: Dict[int, Tuple[int, int, int]]
                     ) -> None:
        """Fold one worker task's exported probes into this profile,
        mapping walk indices back onto the coordinator's plan nodes."""
        nodes = list(self.plan.walk())
        for index, (rows, loops, time_ns) in exported.items():
            if 0 <= index < len(nodes):
                probe = self.probe(nodes[index])
                probe.worker_rows += rows
                probe.worker_time_ns += time_ns
                probe.worker_tasks += 1 if loops else 0


def export_stats(stats) -> Dict[str, int]:
    """Snapshot an ``ExecutionStats``'s integer counters for shipping a
    worker's activity back to the coordinator."""
    return {name: value for name, value in vars(stats).items()
            if isinstance(value, int) and not isinstance(value, bool)}


def merge_stats(stats, exported: Dict[str, int]) -> None:
    """Add a worker's exported counters onto the coordinator's stats."""
    for name, value in exported.items():
        setattr(stats, name, getattr(stats, name, 0) + value)
