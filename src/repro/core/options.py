"""Compile-time configuration: the one declaration of every compile knob.

Rewrite on/off and strategy, the optimizer's search-strategy switches
(the paper's section 6 knobs), the execution backend, parallelism and
plan-cache use are all fields of :class:`CompileOptions`, and nowhere
else.  A value is immutable: assigning a field raises, and
:meth:`CompileOptions.replace` makes a changed copy.  Its plan-cache key
is computed once, at construction, as :attr:`CompileOptions.key`.

One value is passed to :func:`repro.core.pipeline.compile_statement`
(and through ``Database.execute`` / ``Database.compile``) without
mutating the database; ``db.settings`` is a mutable handle on the
database's default value.  The optimizer, its STARs and the rewrite
search's cost estimator read their fields from the same value.  The
differential test harness compiles the same statement under many values
and checks that every configuration computes the same answer.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Legal values for :attr:`CompileOptions.forced_join_method`.
JOIN_METHODS = ("nl", "merge", "hash")

#: Legal values for :attr:`CompileOptions.join_enumeration`.
ENUMERATION_STRATEGIES = ("dp", "greedy")

#: Legal values for :attr:`CompileOptions.execution_mode`.  ``auto``
#: runs every fusable subtree on the pipeline-fusion codegen backend and
#: the rest on the tuple interpreter; ``tuple`` runs the interpreter
#: alone.
EXECUTION_MODES = ("tuple", "auto")

#: Legal values for :attr:`CompileOptions.parallelism`.  ``off`` never
#: splices Exchanges; ``auto`` parallelizes only when the cost model says
#: the scanned rows amortize worker startup; ``on`` bypasses the cost gate
#: (used by tests and the differential matrix on small tables).
PARALLELISM_MODES = ("off", "auto", "on")

#: Legal values for :attr:`CompileOptions.rewrite_strategy`.  ``default``
#: is the single forward-chaining pass; ``search`` explores alternative
#: rule-firing sequences under the engine budget and keeps the variant
#: with the lowest optimizer-estimated cost.
REWRITE_STRATEGIES = ("default", "search")

#: Every field of :class:`CompileOptions`, in constructor order.
FIELDS = ("rewrite_enabled", "rewrite_strategy", "rewrite_only_rules",
          "allow_bushy", "allow_cartesian", "rank_cutoff", "sort_by_rank",
          "naive_recursion", "forced_join_method", "join_enumeration",
          "execution_mode", "batch_size", "parallelism", "dop",
          "plan_cache", "constant_parameterization", "label")

#: Fields left out of :attr:`CompileOptions.key`: ``label`` (cosmetic),
#: ``plan_cache`` (whether to consult the cache, not what to compile)
#: and ``constant_parameterization`` (already folded into the statement
#: fingerprint, so an explicitly parameterized query and an
#: auto-parameterized one share a plan).
UNKEYED_FIELDS = frozenset(("label", "plan_cache",
                            "constant_parameterization"))


class CompileOptions:
    """One compilation's worth of pipeline configuration (immutable).

    - ``rewrite_enabled`` — rewrite "may be bypassed for faster query
      compilation" (Fig. 1); ``rewrite_strategy`` — see
      :data:`REWRITE_STRATEGIES`; ``rewrite_only_rules`` — fire only the
      named rules (the rulecheck harness's forced-fire switch).
    - The optimizer's search strategy (section 6): ``allow_bushy``,
      ``allow_cartesian``, ``join_enumeration`` (``dp`` or ``greedy``),
      ``rank_cutoff`` / ``sort_by_rank`` (STAR alternatives), and
      ``forced_join_method`` (nested loops stays the fallback where the
      forced method is inapplicable); ``naive_recursion`` evaluates
      recursive views naively instead of semi-naively.
    - ``execution_mode`` — see :data:`EXECUTION_MODES`; ``batch_size`` —
      rows per fused-pipeline morsel; ``parallelism`` / ``dop`` — see
      :data:`PARALLELISM_MODES` (needs the fork start method).
    - ``plan_cache`` — serve repeated statements from the plan cache;
      ``constant_parameterization`` — lift top-level comparison literals
      to parameters, so ``id = 7`` and ``id = 9`` share one plan.
    - ``label`` names the value in :meth:`describe`.

    ``key``, computed here once, is the plan-cache key contribution:
    every field but :data:`UNKEYED_FIELDS`.
    """

    __slots__ = FIELDS + ("key",)

    def __init__(self,
                 rewrite_enabled: bool = True,
                 rewrite_strategy: str = "default",
                 rewrite_only_rules: Optional[Sequence[str]] = None,
                 allow_bushy: bool = False,
                 allow_cartesian: bool = False,
                 rank_cutoff: float = 100.0,
                 sort_by_rank: bool = True,
                 naive_recursion: bool = False,
                 forced_join_method: Optional[str] = None,
                 join_enumeration: str = "dp",
                 execution_mode: str = "auto",
                 batch_size: int = 1024,
                 parallelism: str = "off",
                 dop: int = 4,
                 plan_cache: bool = True,
                 constant_parameterization: bool = False,
                 label: Optional[str] = None):
        if rewrite_strategy not in REWRITE_STRATEGIES:
            raise ValueError(
                "rewrite_strategy must be one of %r, got %r"
                % (REWRITE_STRATEGIES, rewrite_strategy))
        if forced_join_method is not None \
                and forced_join_method not in JOIN_METHODS:
            raise ValueError(
                "forced_join_method must be one of %r, got %r"
                % (JOIN_METHODS, forced_join_method))
        if join_enumeration not in ENUMERATION_STRATEGIES:
            raise ValueError(
                "join_enumeration must be one of %r, got %r"
                % (ENUMERATION_STRATEGIES, join_enumeration))
        if execution_mode not in EXECUTION_MODES:
            raise ValueError(
                "execution_mode must be one of %r, got %r"
                % (EXECUTION_MODES, execution_mode))
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1, got %r" % (batch_size,))
        if parallelism not in PARALLELISM_MODES:
            raise ValueError(
                "parallelism must be one of %r, got %r"
                % (PARALLELISM_MODES, parallelism))
        if dop < 1:
            raise ValueError("dop must be >= 1, got %r" % (dop,))
        if rewrite_only_rules is not None:
            rewrite_only_rules = tuple(rewrite_only_rules)
        values = (rewrite_enabled, rewrite_strategy, rewrite_only_rules,
                  allow_bushy, allow_cartesian, rank_cutoff, sort_by_rank,
                  naive_recursion, forced_join_method, join_enumeration,
                  execution_mode, batch_size, parallelism, dop,
                  plan_cache, constant_parameterization, label)
        for name, value in zip(FIELDS, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "key", tuple(
            value for name, value in zip(FIELDS, values)
            if name not in UNKEYED_FIELDS))

    def __setattr__(self, name, value):
        raise AttributeError(
            "CompileOptions is immutable: use replace(%s=...)" % name)

    def __delattr__(self, name):
        raise AttributeError("CompileOptions is immutable")

    def __reduce__(self):
        # Snapshot reads and morsel tasks ship options to worker
        # processes; rebuilding through __init__ recomputes ``key``.
        return CompileOptions, tuple(getattr(self, name) for name in FIELDS)

    def replace(self, **overrides) -> "CompileOptions":
        """A validated copy with some fields replaced."""
        values = {name: getattr(self, name) for name in FIELDS}
        values.update(overrides)
        return CompileOptions(**values)

    def optimizer_settings(self) -> "CompileOptions":
        """These options themselves: the optimizer reads its fields here.

        Kept only for the benchmark suite's compile-phase probes
        (``benchmarks/suite/layers.py``), which still call it; delete it
        once they pass the options value itself.
        """
        return self

    def describe(self) -> str:
        """A short human-readable tag (used by the differential harness)."""
        if self.label:
            return self.label
        parts = []
        if not self.rewrite_enabled:
            parts.append("no-rewrite")
        if self.rewrite_strategy != "default":
            parts.append("rw-%s" % self.rewrite_strategy)
        if self.rewrite_only_rules is not None:
            parts.append("only[%s]" % ",".join(self.rewrite_only_rules))
        if self.forced_join_method:
            parts.append("force-%s" % self.forced_join_method)
        if self.join_enumeration != "dp":
            parts.append(self.join_enumeration)
        if self.allow_bushy:
            parts.append("bushy")
        if self.allow_cartesian:
            parts.append("cartesian")
        if self.execution_mode != "tuple":
            parts.append(self.execution_mode)
            if self.batch_size != 1024:
                parts.append("bs%d" % self.batch_size)
        if self.parallelism != "off":
            parts.append("parallel" if self.parallelism == "on"
                         else "parallel-auto")
            parts.append("dop%d" % self.dop)
        if not self.plan_cache:
            parts.append("no-plancache")
        if self.constant_parameterization:
            parts.append("constparam")
        return "+".join(parts) if parts else "default"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<CompileOptions %s>" % self.describe()
