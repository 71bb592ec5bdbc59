"""Execution context and statistics."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple


class ExecutionStats:
    """Counters exposed to tests and benchmarks."""

    def __init__(self):
        self.rows_scanned = 0
        self.rows_emitted = 0
        self.index_probes = 0
        self.subquery_evaluations = 0
        self.subquery_cache_hits = 0
        self.recursion_iterations = 0
        self.sorts = 0
        #: One increment each time an OR's left arm is TRUE, so its right
        #: arm (often a subquery) is not evaluated.  The scalar closures
        #: count; source generated for fused pipelines does not.
        self.or_branch_shortcuts = 0
        #: Number of fused/tuple boundary crossings: a tuple operator
        #: consuming a fused region, or a fused pipeline pulling from a
        #: tuple leaf.
        self.fallbacks = 0
        #: Number of fused pipeline functions the codegen backend ran
        #: (0 under execution_mode "tuple").
        self.codegen_pipelines = 0
        #: Number of Exchange operators executed by the parallel runtime.
        self.parallel_exchanges = 0
        #: Number of page-range morsels dispatched to workers.
        self.morsels = 0
        #: Exchanges that degraded to inline dop=1 execution (no fork, no
        #: pool, writes in flight, ...); reasons in ``parallel_reasons``.
        self.parallel_fallbacks = 0
        #: Human-readable reasons for each parallel fallback.
        self.parallel_reasons: list = []
        #: Partitions skipped by equality-predicate partition pruning on
        #: sharded table scans.
        self.partitions_pruned = 0

    def reset(self) -> None:
        self.__init__()

    def export(self) -> Dict[str, int]:
        """The integer counters, for shipping a worker's activity back
        to the coordinator."""
        return {name: value for name, value in vars(self).items()
                if isinstance(value, int) and not isinstance(value, bool)}

    def merge(self, exported: Dict[str, int]) -> None:
        """Add a worker's exported counters onto these."""
        for name, value in exported.items():
            setattr(self, name, getattr(self, name, 0) + value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # Generated from vars() so newly added counters can never go
        # stale in the repr again.
        fields = " ".join("%s=%r" % (name, value)
                          for name, value in sorted(vars(self).items()))
        return "<ExecStats %s>" % fields


class ExecutionContext:
    """Everything a running plan needs.

    - ``engine`` — the storage engine (scans, index probes, DML),
    - ``functions`` — the function registry (scalar, aggregate, table,
      set-predicate),
    - ``params`` — host-variable values,
    - ``txn`` — the surrounding transaction (may be None for read-only
      autocommit execution),
    - ``subplan_bindings`` — subquery quantifier → SubplanBinding, pushed
      into scope by the operators that own them,
    - ``recursion_deltas`` — per recursive box, the current delta rows
      visible to DELTA scans,
    - ``subquery_cache`` — evaluate-on-demand memo keyed by (binding id,
      correlation values).
    """

    def __init__(self, engine, functions, params: Sequence[Any] = (),
                 txn=None):
        self.engine = engine
        self.functions = functions
        self.params = list(params)
        self.txn = txn
        self.stats = ExecutionStats()
        self.subplan_bindings: Dict[Any, Any] = {}
        self.recursion_deltas: Dict[Any, List[Tuple[Any, ...]]] = {}
        self.subquery_cache: Dict[Tuple, List[Tuple[Any, ...]]] = {}
        #: Set by DML operators: number of affected rows.
        self.rowcount: Optional[int] = None
        #: When False, correlation caching is disabled (benchmark E8).
        self.cache_subqueries = True
        #: Rows per fused-pipeline morsel (set from
        #: ``CompileOptions.batch_size`` by the caller).
        self.batch_size = 1024
        #: (lo, hi) heap page-number morsel restricting the SCAN marked as
        #: the partitioned source; set inside parallel workers only.
        self.morsel_range: Optional[Tuple[int, int]] = None
        #: The SCAN node the morsel restriction applies to (identity).
        self.morsel_scan = None
        #: The owning Database's parallel runtime (worker-pool manager);
        #: None means Exchange operators execute their child inline.
        self.parallel = None
        #: The ``op`` spans of this execution
        #: (:class:`repro.obs.spans.OpSpans`), set when the request trace
        #: asks for operator detail; None — the default — means every
        #: dispatch site skips the instrumentation wrappers entirely.
        self.ops = None
        #: The request-scoped :class:`repro.obs.spans.RequestTrace` this
        #: execution runs under; None — the default — means the parallel
        #: runtime neither requests nor merges worker span fragments.
        self.trace = None

    def bind_subplans(self, bindings) -> None:
        for binding in bindings:
            self.subplan_bindings[binding.quantifier] = binding

    def unbind_subplans(self, bindings) -> None:
        for binding in bindings:
            self.subplan_bindings.pop(binding.quantifier, None)
