"""Compile-time configuration as one first-class object.

Every knob the pipeline used to read ad-hoc from ``db.settings`` —
rewrite on/off, QGM validation, and the optimizer search-strategy
switches — lives here as a single immutable-by-convention
value that can be passed to :func:`repro.core.pipeline.compile_statement`
(and through ``Database.execute`` / ``Database.compile``) without mutating
the database.  The differential test harness compiles the same statement
under many ``CompileOptions`` and checks that every configuration computes
the same answer.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.optimizer.boxopt import OptimizerSettings

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


class CompileOptions:
    """One compilation's worth of pipeline configuration."""

    __slots__ = ("rewrite_enabled", "rewrite_strategy", "rewrite_only_rules",
                 "validate_qgm",
                 "allow_bushy", "allow_cartesian", "rank_cutoff",
                 "sort_by_rank", "naive_recursion", "forced_join_method",
                 "join_enumeration", "execution_mode", "batch_size",
                 "parallelism", "dop",
                 "plan_cache", "constant_parameterization", "label")

    def __init__(self,
                 rewrite_enabled: bool = True,
                 rewrite_strategy: str = "default",
                 rewrite_only_rules: Optional[Sequence[str]] = None,
                 validate_qgm: bool = True,
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
        self.rewrite_enabled = rewrite_enabled
        #: "default" (one forward-chaining pass) or "search" (budgeted
        #: cost-driven exploration of alternative firing sequences).
        self.rewrite_strategy = rewrite_strategy
        #: Restrict rewrite to the named rules regardless of class
        #: enabling — the rulecheck harness's forced-fire switch.
        self.rewrite_only_rules = (tuple(rewrite_only_rules)
                                   if rewrite_only_rules is not None
                                   else None)
        self.validate_qgm = validate_qgm
        self.allow_bushy = allow_bushy
        self.allow_cartesian = allow_cartesian
        self.rank_cutoff = rank_cutoff
        self.sort_by_rank = sort_by_rank
        self.naive_recursion = naive_recursion
        self.forced_join_method = forced_join_method
        self.join_enumeration = join_enumeration
        self.execution_mode = execution_mode
        #: Rows per fused-pipeline morsel: the record batches a fused
        #: scan decodes at a time, and the chunks a pipeline pulls from
        #: a tuple leaf.
        self.batch_size = batch_size
        #: Intra-query parallelism mode ("off" / "auto" / "on"); the glue
        #: phase splices Exchange LOLEPOPs when not "off".
        self.parallelism = parallelism
        #: Target degree of parallelism for spliced Exchanges.
        self.dop = dop
        #: Serve repeated statements from the database's plan cache
        #: (compile-once-execute-many); off forces a fresh compile.
        self.plan_cache = plan_cache
        #: Replace top-level comparison literals with synthetic parameters
        #: at fingerprint time, so ``WHERE id = 7`` and ``WHERE id = 9``
        #: share one cached plan.  Only meaningful with ``plan_cache``.
        self.constant_parameterization = constant_parameterization
        self.label = label

    @classmethod
    def from_settings(cls, settings) -> "CompileOptions":
        """Snapshot a database's ``Settings`` into one options value."""
        optimizer = settings.optimizer
        return cls(
            rewrite_enabled=settings.rewrite_enabled,
            rewrite_strategy=settings.rewrite_strategy,
            validate_qgm=settings.validate_qgm,
            allow_bushy=optimizer.allow_bushy,
            allow_cartesian=optimizer.allow_cartesian,
            rank_cutoff=optimizer.rank_cutoff,
            sort_by_rank=optimizer.sort_by_rank,
            naive_recursion=optimizer.naive_recursion,
            forced_join_method=optimizer.forced_join_method,
            join_enumeration=optimizer.join_enumeration,
            execution_mode=settings.execution_mode,
            batch_size=settings.batch_size,
            parallelism=settings.parallelism,
            dop=settings.dop,
            plan_cache=settings.plan_cache_enabled,
            constant_parameterization=settings.constant_parameterization,
        )

    def optimizer_settings(self) -> OptimizerSettings:
        """The optimizer's view of these options."""
        return OptimizerSettings(
            allow_bushy=self.allow_bushy,
            allow_cartesian=self.allow_cartesian,
            rank_cutoff=self.rank_cutoff,
            sort_by_rank=self.sort_by_rank,
            naive_recursion=self.naive_recursion,
            forced_join_method=self.forced_join_method,
            join_enumeration=self.join_enumeration,
        )

    def replace(self, **overrides) -> "CompileOptions":
        """A copy with some fields replaced."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(overrides)
        return CompileOptions(**values)

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

    def cache_key(self) -> tuple:
        """The canonical plan-cache key contribution of these options.

        Excludes ``label`` (cosmetic), ``plan_cache`` (whether to consult
        the cache, not what to compile), ``constant_parameterization``
        (already folded into the statement fingerprint, so an explicitly
        parameterized query and an auto-parameterized one share a plan).
        """
        return tuple(
            getattr(self, name) for name in self.__slots__
            if name not in ("label", "plan_cache",
                            "constant_parameterization"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<CompileOptions %s>" % self.describe()
