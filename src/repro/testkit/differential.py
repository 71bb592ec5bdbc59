"""The differential runner: engine-vs-oracle under a configuration matrix.

One :func:`run_seed` call is the whole loop: seed → schema → data →
queries → for each query, execute it through the real pipeline under every
:class:`Config` in the matrix and through the naive oracle, and compare.

Comparison semantics:

- results are compared as *bags* (row multisets).  The comparison is
  type-aware — ``1`` (INTEGER) and ``1.0`` (DOUBLE) are different answers
  even though Python considers them equal — because backend-vs-backend
  type drift is exactly the kind of bug this harness exists to catch,
- when the query has an ORDER BY, the sequence of values in the ordered
  positions must also match (ties may appear in any order, so only the
  ordered columns are sequence-compared),
- an engine error on a query the oracle answered is a divergence; an
  oracle error on a query the engine answered is too (oracle
  ``unsupported`` errors skip the query instead).

On a mismatch the shrinker walks :meth:`QuerySpec.simplifications` to a
fixpoint, then minimizes table data row-by-row and drops unreferenced
tables, keeping each candidate only if it still diverges.  The result is a
:class:`Divergence` whose :meth:`~Divergence.repro` is a ready-to-paste
failing pytest: seed, DDL + INSERTs, query, config, EXPLAIN output and
both result sets.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.options import CompileOptions
from repro.errors import DivisionByZeroError, ReproError
from repro.obs.spans import RequestTrace
from repro.testkit.datagen import (SchemaSpec, build_database,
                                   generate_schema, sharded_variant)
from repro.testkit.oracle import OracleError, ReferenceOracle, sort_rows
from repro.testkit.querygen import QueryGenerator, QuerySpec


class Config:
    """One named point in the configuration matrix.

    ``repeat`` > 1 executes every query that many times through the
    shared database; executions after the first must be served from the
    plan cache (checked via the cache's hit counter).  With
    ``byte_identical`` the rows are additionally compared — in order —
    against a reference execution: a fresh ``plan_cache=False`` compile
    of the same options by default, or a run under ``reference`` options
    when given (the parallel configs reference the serial dop=1 plan,
    proving morsel-parallel execution is byte-identical to serial).
    ``operators`` runs every execution under a request trace with
    operator detail on (what EXPLAIN ANALYZE records).
    """

    __slots__ = ("name", "options", "repeat", "byte_identical",
                 "reference", "sharded", "operators")

    def __init__(self, name: str, options: CompileOptions,
                 repeat: int = 1, byte_identical: bool = False,
                 reference: Optional[CompileOptions] = None,
                 sharded: bool = False, operators: bool = False):
        self.name = name
        self.options = options
        self.repeat = repeat
        self.byte_identical = byte_identical
        self.reference = reference
        #: Execute against the hash-sharded twin database (same rows,
        #: every eligible table PARTITION BY HASH) instead of the
        #: primary one.
        self.sharded = sharded
        self.operators = operators

    def tracer(self) -> Optional[RequestTrace]:
        """A fresh trace for one execution under this config."""
        return RequestTrace(self.name, operators=True) \
            if self.operators else None


def default_matrix() -> List[Config]:
    """Every engine configuration a query must agree with the oracle on."""
    base = CompileOptions()
    tuple_mode = base.replace(execution_mode="tuple")
    parallel_fused = base.replace(parallelism="on", dop=4)
    return [
        # The shipped default fuses every fusable region: it must be
        # byte-identical — in row order — to the tuple interpreter, the
        # reference of every byte-identical backend config.
        Config("default", base, byte_identical=True, reference=tuple_mode),
        Config("tuple", tuple_mode),
        Config("no-rewrite", base.replace(rewrite_enabled=False)),
        # Cost-driven rewrite search must compute the same bag of rows
        # as the sequential pass, but not necessarily in the same order:
        # when the optimizer proves a variant firing sequence strictly
        # cheaper the adopted plan can differ structurally (e.g. keep a
        # SUBQJOIN where the fixpoint merges the subquery into a join),
        # and without ORDER BY a different plan may emit rows in a
        # different order (seed 349 is the pinned counterexample).
        Config("rewrite-search", base.replace(rewrite_strategy="search")),
        Config("force-nl", base.replace(forced_join_method="nl")),
        Config("force-hash", base.replace(forced_join_method="hash")),
        Config("force-merge", base.replace(forced_join_method="merge")),
        Config("greedy", base.replace(join_enumeration="greedy")),
        Config("bushy-cartesian",
               base.replace(allow_bushy=True, allow_cartesian=True)),
        # Plan-cache serving path: run twice through the shared
        # database; the second execution must be a cache hit and must
        # return byte-for-byte what a cache-off compile returns.
        Config("plancache", base, repeat=2, byte_identical=True),
        # Auto-parameterized constants share one plan per query shape.
        Config("constparam",
               base.replace(constant_parameterization=True), repeat=2),
        # Morsel-parallel execution must be byte-identical — in row
        # order, not just as a bag — to the serial dop=1 run.
        Config("parallel", tuple_mode.replace(parallelism="on", dop=4),
               byte_identical=True, reference=tuple_mode),
        # Observability must never change answers: run with per-operator
        # spans on, over the heaviest config (parallel + fused, so every
        # wrapper, the fused regions' analyze variants and the worker
        # op-span grafts are live), and require byte-identical rows vs
        # the uninstrumented run.
        Config("analyze", parallel_fused, byte_identical=True,
               operators=True),
        # Fused regions at batch_size=1 (one-row morsels: every
        # per-morsel edge and tuple<->fused adapter, per row) must be
        # byte-identical to the tuple interpreter, and under the
        # parallel glue to the serial default run.
        Config("compiled-1", base.replace(batch_size=1),
               byte_identical=True, reference=tuple_mode),
        Config("compiled-parallel", parallel_fused, byte_identical=True,
               reference=base),
        # Hash-sharded storage: same rows in partitioned heap segments.
        # Scan order is partition-grouped, so only the oracle bag (and
        # ORDER BY sequences) must match.  The parallel run gathers
        # scans, group-bys and broadcast hash joins over the sharded
        # twin's morsels, and must be byte-identical to a serial run on
        # the same twin.
        Config("sharded", base, sharded=True),
        Config("sharded-parallel",
               tuple_mode.replace(parallelism="on", dop=3),
               byte_identical=True, reference=tuple_mode, sharded=True),
    ]


def _canon(row: Sequence[Any]) -> Tuple:
    """A type-aware bag key: 1, 1.0 and TRUE are three different values."""
    out = []
    for value in row:
        if value is None:
            out.append(("null", None))
        elif isinstance(value, bool):
            out.append(("bool", value))
        elif isinstance(value, int):
            out.append(("int", value))
        elif isinstance(value, float):
            out.append(("float", value))
        else:
            out.append(("str", value))
    return tuple(out)


def _bag(rows: Sequence[Sequence[Any]]) -> Counter:
    return Counter(_canon(row) for row in rows)


def format_rows(rows: Sequence[Sequence[Any]], limit: int = 20) -> str:
    shown = [repr(tuple(row)) for row in list(rows)[:limit]]
    if len(rows) > limit:
        shown.append("... (%d rows total)" % len(rows))
    return "\n".join("    " + line for line in shown) or "    (no rows)"


class Divergence:
    """One confirmed engine/oracle disagreement, possibly shrunk."""

    def __init__(self, seed: int, schema: SchemaSpec, spec: QuerySpec,
                 config: Config, detail: str,
                 expected: Optional[List[Tuple]],
                 actual: Optional[List[Tuple]],
                 setup=None):
        self.seed = seed
        self.schema = schema
        self.spec = spec
        self.config = config
        self.detail = detail
        self.expected = expected
        self.actual = actual
        #: Optional database mutation hook (see DifferentialRunner); the
        #: shrinker re-applies it so injected bugs stay reproducible.
        self.setup = setup

    @property
    def sql(self) -> str:
        return self.spec.render()

    def summary(self) -> str:
        return "seed=%d config=%s: %s\n  query: %s" % (
            self.seed, self.config.name, self.detail, self.sql)

    def repro(self) -> str:
        """A ready-to-paste failing pytest function."""
        explain = ""
        try:
            db = build_database(self.schema)
            explain = db.explain(self.sql, options=self.config.options)
        except ReproError as exc:
            explain = "EXPLAIN failed: %s" % exc
        option_overrides = self._option_overrides()
        lines = [
            "# Differential harness counterexample (seed %d, config %s)."
            % (self.seed, self.config.name),
            "# %s" % self.detail,
            "# Reproduce the hunt with:"
            " PYTHONPATH=src python -m repro.testkit --seed %d" % self.seed,
            "def test_differential_seed_%d_%s():"
            % (self.seed, self.config.name.replace("-", "_")),
            "    from repro import CompileOptions, Database",
            "    db = Database()",
            "    db.enable_operation('left_outer_join')",
        ]
        for statement in self.schema.statements():
            lines.append("    db.execute(%r)" % statement)
        lines.append("    db.analyze()")
        lines.append("    options = CompileOptions(%s)" % option_overrides)
        tracer = ""
        if self.config.operators:
            lines.append("    from repro.obs import RequestTrace")
            tracer = ", tracer=RequestTrace('repro', operators=True)"
        lines.append("    result = db.execute(%r, options=options%s)"
                     % (self.sql, tracer))
        expected = self.expected if self.expected is not None else []
        lines.append("    expected = %r" % [tuple(r) for r in expected])
        lines.append("    assert sorted(map(repr, result.rows)) == "
                     "sorted(map(repr, expected))")
        lines.append("")
        lines.append("# EXPLAIN under config %r:" % self.config.name)
        for explain_line in explain.splitlines():
            lines.append("#   " + explain_line)
        lines.append("# oracle (expected) rows:")
        lines.append("\n".join("#" + line
                               for line in format_rows(expected)
                               .splitlines()))
        lines.append("# engine (actual) rows:")
        actual = self.actual if self.actual is not None else []
        lines.append("\n".join("#" + line
                               for line in format_rows(actual)
                               .splitlines()))
        return "\n".join(lines)

    def _option_overrides(self) -> str:
        defaults = CompileOptions()
        parts = []
        for slot in CompileOptions.__slots__:
            if slot == "label":
                continue
            value = getattr(self.config.options, slot)
            if value != getattr(defaults, slot):
                parts.append("%s=%r" % (slot, value))
        return ", ".join(parts)


class DifferentialRunner:
    """Executes generated queries against one database + oracle pair."""

    def __init__(self, schema: SchemaSpec, seed: int,
                 configs: Optional[Sequence[Config]] = None,
                 setup=None):
        self.schema = schema
        self.seed = seed
        self.configs = list(configs) if configs is not None \
            else default_matrix()
        self.db = build_database(schema)
        #: ``setup(db)`` runs after every database build — the mutation
        #: smoke-check uses it to inject a deliberately broken rewrite
        #: rule and prove the harness catches it.
        self.setup = setup
        if setup is not None:
            setup(self.db)
        self.oracle = ReferenceOracle(self.db)
        #: Twin database with hash-sharded tables, built only when a
        #: config asks for it.
        self.sharded_db = None
        if any(config.sharded for config in self.configs):
            self.sharded_db = build_database(sharded_variant(schema))
            if setup is not None:
                setup(self.sharded_db)
        self.queries_checked = 0
        self.queries_skipped = 0

    def _db_for(self, config: Config):
        return self.sharded_db if config.sharded else self.db

    def close(self) -> None:
        self.db.close()
        if self.sharded_db is not None:
            self.sharded_db.close()

    def check_sql(self, spec: QuerySpec) -> Optional[Divergence]:
        """None when every config agrees with the oracle."""
        sql = spec.render()
        try:
            expected = self.oracle.execute(sql)
        except OracleError as exc:
            if exc.unsupported:
                self.queries_skipped += 1
                return None
            expected = exc
        except ReproError as exc:
            expected = exc
        if isinstance(expected, ReproError):
            # The oracle hit a genuine runtime error (e.g. a scalar
            # subquery with two rows): the engine must fail too.  Typed
            # error classes (division by zero) must match exactly —
            # "some error happened" would hide an engine that fails for
            # the wrong reason.
            expected_type = (DivisionByZeroError
                             if isinstance(expected, DivisionByZeroError)
                             else ReproError)
            for config in self.configs:
                # Repeated runs must fail identically: a cached plan
                # that errors differently from its cold compile is a
                # serving-path bug (no hit check here — error paths may
                # legitimately bail before reaching the cache).
                db = self._db_for(config)
                for attempt in range(config.repeat):
                    suffix = (" (on plan-cache re-execution)"
                              if attempt > 0 else "")
                    try:
                        db.execute(sql, options=config.options,
                                   tracer=config.tracer())
                    except expected_type:
                        continue
                    except ReproError as exc:
                        return Divergence(
                            self.seed, self.schema, spec, config,
                            "oracle raised %s but the engine raised %s: "
                            "%s%s"
                            % (type(expected).__name__,
                               type(exc).__name__, exc, suffix),
                            None, None, setup=self.setup)
                    except Exception as exc:  # bare exception = bug
                        return Divergence(
                            self.seed, self.schema, spec, config,
                            "engine raised untyped %s: %s%s"
                            % (type(exc).__name__, exc, suffix),
                            None, None, setup=self.setup)
                    return Divergence(
                        self.seed, self.schema, spec, config,
                        "oracle raised %s but the engine returned rows%s"
                        % (type(expected).__name__, suffix), None, None,
                        setup=self.setup)
            self.queries_checked += 1
            return None
        for config in self.configs:
            db = self._db_for(config)
            reference_rows = None
            if config.byte_identical:
                reference_options = (
                    config.reference if config.reference is not None
                    else config.options.replace(plan_cache=False))
                try:
                    reference_rows = db.execute(
                        sql, options=reference_options).rows
                except ReproError as exc:
                    return Divergence(
                        self.seed, self.schema, spec, config,
                        "reference execution raised %s: %s "
                        "(oracle returned %d rows)"
                        % (type(exc).__name__, exc, len(expected.rows)),
                        expected.rows, None, setup=self.setup)
            for attempt in range(config.repeat):
                cached_run = attempt > 0
                suffix = " (on plan-cache re-execution)" \
                    if cached_run else ""
                hits_before = db.plan_cache.hits
                try:
                    result = db.execute(sql, options=config.options,
                                        tracer=config.tracer())
                except ReproError as exc:
                    return Divergence(
                        self.seed, self.schema, spec, config,
                        "engine raised %s: %s (oracle returned %d "
                        "rows)%s" % (type(exc).__name__, exc,
                                     len(expected.rows), suffix),
                        expected.rows, None, setup=self.setup)
                except Exception as exc:  # bare exception = engine bug
                    return Divergence(
                        self.seed, self.schema, spec, config,
                        "engine raised untyped %s: %s (oracle returned "
                        "%d rows)%s" % (type(exc).__name__, exc,
                                        len(expected.rows), suffix),
                        expected.rows, None, setup=self.setup)
                if cached_run and db.plan_cache.hits <= hits_before:
                    return Divergence(
                        self.seed, self.schema, spec, config,
                        "repeated execution was not served from the "
                        "plan cache", expected.rows, result.rows,
                        setup=self.setup)
                mismatch = self._compare(expected, result.rows)
                if mismatch is not None:
                    return Divergence(
                        self.seed, self.schema, spec, config,
                        mismatch + suffix, expected.rows, result.rows,
                        setup=self.setup)
                if reference_rows is not None and \
                        [_canon(r) for r in result.rows] != \
                        [_canon(r) for r in reference_rows]:
                    return Divergence(
                        self.seed, self.schema, spec, config,
                        "rows are not byte-identical to the reference "
                        "execution%s" % suffix,
                        reference_rows, result.rows, setup=self.setup)
        self.queries_checked += 1
        return None

    @staticmethod
    def _compare(expected, actual_rows) -> Optional[str]:
        expected_bag = _bag(expected.rows)
        actual_bag = _bag(actual_rows)
        if expected_bag != actual_bag:
            missing = expected_bag - actual_bag
            extra = actual_bag - expected_bag
            return ("result bags differ: %d row(s) missing, %d spurious"
                    % (sum(missing.values()), sum(extra.values())))
        if expected.order_by:
            positions = [pos for pos, _asc in expected.order_by]
            expected_keys = [tuple(row[pos] for pos in positions)
                             for row in expected.rows]
            actual_keys = [tuple(row[pos] for pos in positions)
                           for row in actual_rows]
            if expected_keys != actual_keys:
                return "ORDER BY produced a different row order"
        return None


def run_seed(seed: int, queries: int = 4,
             configs: Optional[Sequence[Config]] = None,
             shrink: bool = True,
             setup=None) -> Tuple[Optional[Divergence], int, int, dict]:
    """Fuzz one seed.

    Returns ``(divergence-or-None, checked, skipped, cache_stats)``
    where ``cache_stats`` is the shared database's plan-cache totals
    after the run (hit/miss/invalidation counters).
    """
    rng = random.Random(seed)
    schema = generate_schema(rng)
    runner = DifferentialRunner(schema, seed, configs, setup=setup)
    generator = QueryGenerator(rng, schema)
    try:
        for _ in range(queries):
            spec = generator.generate()
            divergence = runner.check_sql(spec)
            if divergence is not None:
                if shrink:
                    divergence = shrink_case(divergence)
                return divergence, runner.queries_checked, \
                    runner.queries_skipped, runner.db.cache_stats()
        return None, runner.queries_checked, runner.queries_skipped, \
            runner.db.cache_stats()
    finally:
        # Release the parallel worker pools (if any config forked one);
        # a 500-seed sweep must not accumulate idle forked children.
        runner.close()


# -- shrinking ----------------------------------------------------------------------


def _diverges(schema: SchemaSpec, spec: QuerySpec, seed: int,
              configs: Sequence[Config],
              setup=None) -> Optional[Divergence]:
    """Re-runs one (schema, query) pair on a fresh database."""
    try:
        runner = DifferentialRunner(schema, seed, configs, setup=setup)
    except ReproError:
        return None  # candidate schema itself is broken; reject it
    try:
        return runner.check_sql(spec)
    except (ReproError, RecursionError):
        return None
    finally:
        runner.close()


def shrink_case(divergence: Divergence,
                max_steps: int = 400) -> Divergence:
    """Greedy fixpoint reduction of query, then data, then schema."""
    seed = divergence.seed
    configs = [divergence.config]
    setup = divergence.setup
    current = divergence
    steps = 0

    # 1. structurally shrink the query.
    changed = True
    while changed and steps < max_steps:
        changed = False
        for candidate in current.spec.simplifications():
            steps += 1
            if steps >= max_steps:
                break
            smaller = _diverges(current.schema, candidate, seed, configs,
                                setup=setup)
            if smaller is not None:
                current = smaller
                changed = True
                break

    # 2. drop unreferenced relations.
    referenced = current.spec.referenced_relations()
    restricted = current.schema.restrict_to(referenced)
    if len(restricted.tables) < len(current.schema.tables):
        smaller = _diverges(restricted, current.spec, seed, configs,
                            setup=setup)
        if smaller is not None:
            current = smaller

    # 3. remove table rows one at a time (greedy ddmin pass).
    for table in list(current.schema.tables):
        index = 0
        while index < len(current.schema.table(table.name).rows):
            if steps >= max_steps:
                break
            steps += 1
            live = current.schema.table(table.name)
            rows = live.rows[:index] + live.rows[index + 1:]
            candidate_schema = current.schema.replace_table(
                live.with_rows(rows))
            smaller = _diverges(candidate_schema, current.spec, seed,
                                configs, setup=setup)
            if smaller is not None:
                current = smaller
            else:
                index += 1
    return current
