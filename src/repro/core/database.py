"""The Database facade: Corona + Core wired together.

Creates the registries for every extension point the paper names:

- data types (``register_type``),
- scalar / aggregate / table / set-predicate functions,
- storage managers and access methods (Core's attachment architecture),
- table operations (e.g. enabling LEFT OUTER JOIN),
- query rewrite rules and rule classes,
- STARs / plan-generator alternatives,
- join kinds for the execution system.

``execute`` runs one Hydrogen statement (autocommit unless a transaction is
supplied); ``compile`` returns a reusable compiled statement; ``explain``
renders QGM (before/after rewrite) and the chosen plan.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.access.attachment import Attachment
from repro.catalog.catalog import Catalog
from repro.catalog.schema import ColumnDef, IndexDef, TableDef, ViewDef
from repro.datatypes.registry import TypeRegistry
from repro.datatypes.types import DataType
from repro.errors import ExecutionError, ExtensionError, SemanticError
from repro.executor.context import ExecutionContext
from repro.executor.kinds import default_join_kinds
from repro.executor.run import execute_plan
from repro.functions.builtins import register_builtins
from repro.functions.registry import (
    AggregateFunction,
    FunctionRegistry,
    ScalarFunction,
    SetPredicateFunction,
    TableFunction,
)
from repro.language import ast
from repro.language.parser import parse_statement
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import OpSpans, RequestTrace
from repro.optimizer.boxopt import OptimizerSettings
from repro.optimizer.stars import STAR, Alternative, default_star_array
from repro.core.options import CompileOptions
from repro.core.pipeline import CompiledStatement, compile_statement
from repro.core.plancache import (
    Fingerprint,
    PlanCache,
    Prepared,
    fingerprint_statement,
    prepare_statement,
)
from repro.errors import LexerError
from repro.storage.engine import StorageEngine


class Settings:
    """Per-database behaviour switches."""

    def __init__(self):
        #: Query rewrite can be "bypassed for faster query compilation at
        #: the expense of potentially lower runtime performance" (Fig. 1).
        self.rewrite_enabled = True
        #: "default" (one forward-chaining pass) or "search" (budgeted
        #: cost-driven exploration of alternative firing sequences).
        self.rewrite_strategy = "default"
        self.optimizer = OptimizerSettings()
        #: Validate QGM after parse and rewrite (debug aid; cheap).
        self.validate_qgm = True
        #: Execution backend: "auto" (pipeline-fusion codegen wherever
        #: fusable, the stream interpreter elsewhere) or "tuple" (the
        #: stream interpreter alone).
        self.execution_mode = "auto"
        #: Rows per fused-pipeline morsel (scan record batches, and the
        #: chunks a pipeline pulls from a tuple leaf).
        self.batch_size = 1024
        #: Serve repeated statements from the plan cache ("the result of
        #: the compilation stage can be stored for future use").
        self.plan_cache_enabled = True
        #: Auto-parameterize top-level comparison literals at fingerprint
        #: time (off by default: ad-hoc queries keep literal-aware plans).
        self.constant_parameterization = False
        #: Intra-query parallelism: "off", "auto" (cost-gated) or "on"
        #: (parallelize every eligible subtree).  Requires the fork start
        #: method; degrades to serial execution elsewhere.
        self.parallelism = "off"
        #: Degree of parallelism for Exchange operators.
        self.dop = 4

    def compile_options(self) -> CompileOptions:
        """Snapshot these settings as a :class:`CompileOptions` value."""
        return CompileOptions.from_settings(self)


class Result:
    """The outcome of one statement."""

    def __init__(self, columns: Sequence[str],
                 rows: List[Tuple[Any, ...]],
                 rowcount: Optional[int] = None,
                 timings=None, stats=None):
        self.columns = list(columns)
        self.rows = rows
        self.rowcount = rowcount if rowcount is not None else len(rows)
        self.timings = timings
        self.stats = stats

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ExecutionError(
                "scalar() needs exactly one row and one column, got %dx%d"
                % (len(self.rows), len(self.columns)))
        return self.rows[0][0]

    def first(self) -> Optional[Tuple[Any, ...]]:
        return self.rows[0] if self.rows else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Result %d row(s), columns=%s>" % (len(self.rows),
                                                   self.columns)


class Database:
    """One Starburst-reproduction database instance."""

    def __init__(self, pool_capacity: int = 256):
        self.catalog = Catalog()
        self.types = TypeRegistry.with_builtins()
        self.functions = register_builtins(FunctionRegistry())
        self.engine = StorageEngine(self.catalog, pool_capacity=pool_capacity)
        self.join_kinds = default_join_kinds()
        #: Enabled table operations (DBC extensions, e.g. left_outer_join).
        self.operations: set = set()
        self.settings = Settings()
        self.plan_cache = PlanCache()
        self.stars = default_star_array()
        # The rewrite engine is attached lazily to avoid a hard dependency
        # cycle; repro.rewrite installs the default rule set.
        from repro.rewrite.engine import RewriteEngine
        from repro.rewrite.rules import install_default_rules

        self.rewrite_engine = RewriteEngine(self)
        install_default_rules(self.rewrite_engine)
        #: Lazily created morsel-parallel worker-pool manager.
        self._parallel_runtime = None
        self._parallel_runtime_lock = threading.Lock()
        #: Process-level metrics fed by the execute/serve paths; scrape
        #: with :meth:`metrics_snapshot` or ``metrics.exposition()``.
        self.metrics = MetricsRegistry(prefix="repro_")
        self._m_statements = self.metrics.counter(
            "statements_total", "Statements executed")
        self._m_rows = self.metrics.counter(
            "rows_returned_total", "Rows returned to clients")
        self._m_cache_hits = self.metrics.counter(
            "plan_cache_hits_total", "Plan-cache lookups served")
        self._m_cache_misses = self.metrics.counter(
            "plan_cache_misses_total", "Plan-cache lookups compiled fresh")
        self._m_parallel_fallbacks = self.metrics.counter(
            "parallel_fallbacks_total",
            "Exchanges degraded to serial execution")
        self._m_compile_ms = self.metrics.histogram(
            "compile_ms", "Compile phases wall time (ms)")
        self._m_execute_ms = self.metrics.histogram(
            "execute_ms", "Statement execution wall time (ms)")
        self._m_cache_entries = self.metrics.gauge(
            "plan_cache_entries", "Plans currently cached")
        from repro.executor.parallel import available_cores

        self.metrics.gauge(
            "worker_cores",
            "CPUs available to the parallel worker pool "
            "(sched_getaffinity)").set(available_cores())

    def parallel_runtime(self):
        """The per-database parallel runtime (created on first use)."""
        if self._parallel_runtime is None:
            from repro.executor.parallel import ParallelRuntime

            with self._parallel_runtime_lock:
                if self._parallel_runtime is None:
                    self._parallel_runtime = ParallelRuntime(self)
        return self._parallel_runtime

    def close(self) -> None:
        """Release external resources (the parallel worker pool)."""
        if self._parallel_runtime is not None:
            self._parallel_runtime.close()

    def reinit_locks_after_fork(self) -> None:
        """Replace every lock this instance owns with a fresh one.

        Called by every forked worker at boot
        (``repro.executor.workerpool``): any parent *thread* could have
        held one of these locks at fork time, and the child inherits it
        locked with no owner to release it.  The child is single-threaded
        at this point so swapping the locks is safe.
        """
        self._parallel_runtime_lock = threading.Lock()
        self.metrics.reinit_locks()
        self.catalog.reinit_locks()
        self.plan_cache.reinit_locks()
        self.engine.pool.reinit_locks()
        self.engine.log.reinit_locks()
        self.engine.locks.reinit_locks()
        from repro.core import plancache
        from repro.executor import exprgen

        plancache.reinit_locks()
        exprgen.reinit_locks()

    # ==== metrics ===============================================================

    def metrics_snapshot(self) -> dict:
        """Every metric's current value (gauges refreshed first)."""
        self._m_cache_entries.set(len(self.plan_cache))
        return self.metrics.snapshot()

    def metrics_reset(self) -> None:
        """Zero all metrics, keeping registrations."""
        self.metrics.reset()

    # ==== statement execution ===================================================

    def execute(self, sql: str, params: Sequence[Any] = (),
                txn=None,
                options: Optional[CompileOptions] = None,
                tracer=None) -> Result:
        """Parse, compile and run one Hydrogen statement.

        ``options`` overrides the database's settings for this statement
        only (the differential harness compiles one query many ways).
        ``tracer`` is an optional :class:`repro.obs.spans.RequestTrace`;
        when present the cache lookup, compile phases and execution each
        record a span (every site guards ``tracer is not None``).
        """
        stripped = sql.strip()
        if options is None:
            options = self.settings.compile_options()
        if options.plan_cache:
            fingerprint = self._fingerprint(stripped, options)
            if fingerprint is not None and fingerprint.cacheable:
                return self._serve(stripped, fingerprint, options, params,
                                   txn, tracer=tracer)
        statement = parse_statement(stripped)
        if isinstance(statement, ast.ExplainStmt):
            return self._explain_text(stripped, statement=statement,
                                      options=options, tracer=tracer)
        if isinstance(statement, (ast.CreateTableStmt, ast.CreateIndexStmt,
                                  ast.CreateViewStmt, ast.DropStmt)):
            if tracer is not None:
                with tracer.span("ddl", statement=type(statement).__name__):
                    return self._execute_ddl(statement)
            return self._execute_ddl(statement)
        compiled = self._timed_compile(stripped, options, tracer=tracer)
        return self.run_compiled(compiled, params, txn, tracer=tracer)

    def _fingerprint(self, sql: str,
                     options: CompileOptions) -> Optional[Fingerprint]:
        try:
            return fingerprint_statement(
                sql,
                parameterize_constants=options.constant_parameterization)
        except LexerError:
            # Unscannable text: let the ordinary compile path raise the
            # error through the usual channel.
            return None

    def _serve(self, sql: str, fingerprint: Fingerprint,
               options: CompileOptions, params: Sequence[Any],
               txn, tracer=None) -> Result:
        """The compile-once-execute-many path shared by ``execute`` (on a
        cacheable statement) and :class:`Prepared`."""
        compiled = self._cached_compile(sql, fingerprint, options, tracer)
        return self.run_compiled(compiled, fingerprint.recipe.bind(params),
                                 txn, tracer=tracer)

    def _cached_compile(self, sql: str, fingerprint: Fingerprint,
                        options: CompileOptions,
                        tracer=None) -> CompiledStatement:
        """The cached plan for ``sql``, or a fresh compile admitted to
        the plan cache."""
        key = (fingerprint.key, options.cache_key())
        if tracer is not None:
            with tracer.span("plancache.lookup",
                             fingerprint=fingerprint.key[:12]) as span:
                entry = self.plan_cache.lookup(self.catalog, key)
                span.set(hit=entry is not None)
        else:
            entry = self.plan_cache.lookup(self.catalog, key)
        if entry is not None:
            self._m_cache_hits.inc()
            entry.compiled.timings.pipeline = "cached"
            return entry.compiled
        self._m_cache_misses.inc()
        if fingerprint.rewritten:
            # Validate the original text before compiling the
            # parameterized form: lifted literals become untyped
            # parameters, so errors that depend on a literal's type
            # (VARCHAR column < 3) would otherwise go undetected.
            # The type class is part of the fingerprint, so every
            # statement sharing this key validates identically.
            if tracer is not None:
                with tracer.span("compile.validate"):
                    compile_statement(self, sql, options=options)
            else:
                compile_statement(self, sql, options=options)
        compiled = self._timed_compile(fingerprint.compile_text(sql),
                                       options, tracer=tracer)
        compiled.timings.pipeline = "compiled"
        # Cost-aware admission: one-off bulk DML executes uncached.
        self.plan_cache.admit(self.catalog, key, compiled)
        return compiled

    def prepare(self, sql: str,
                options: Optional[CompileOptions] = None) -> Prepared:
        """Prepare a statement for repeated execution.

            ready = db.prepare("SELECT * FROM parts WHERE partno = ?")
            ready.execute([7])
            ready.execute([9])   # same plan, zero compile phases

        Compilation happens once (eagerly); later ``execute`` calls only
        revalidate the catalog epochs the plan was compiled under.
        """
        if options is None:
            options = self.settings.compile_options()
        return prepare_statement(self, sql.strip(), options)

    def cache_stats(self) -> dict:
        """Plan-cache counters plus per-entry hit/invalidation detail.

        Includes the cross-statement generated-code cache under
        ``codegen``: generated fused-pipeline functions are keyed by
        their source text (a structural fingerprint), so ``hits`` counts
        functions that reused a code object compiled for structurally
        identical code — possibly from a different statement.
        """
        stats = self.plan_cache.stats(self.catalog)
        from repro.executor.exprgen import codegen_cache_stats

        stats["codegen"] = codegen_cache_stats()
        return stats

    def compile(self, sql: str,
                options: Optional[CompileOptions] = None,
                trace=None) -> CompiledStatement:
        """Compile without executing (compilation is storable/reusable).

        ``trace`` is an optional :class:`repro.obs.RequestTrace`; the
        compile records a ``compile`` span in it whose children are the
        phases, each carrying the rewrite firings and optimizer decisions
        it made as events.
        """
        return self._timed_compile(sql.strip(), options, tracer=trace)

    def _timed_compile(self, sql: str,
                       options: Optional[CompileOptions],
                       tracer=None) -> CompiledStatement:
        if tracer is not None:
            with tracer.span("compile"):
                compiled = compile_statement(self, sql, options=options,
                                             trace=tracer)
        else:
            compiled = compile_statement(self, sql, options=options)
        self._m_compile_ms.observe(compiled.timings.compile_total() * 1e3)
        return compiled

    def run_compiled(self, compiled: CompiledStatement,
                     params: Sequence[Any] = (), txn=None,
                     tracer=None) -> Result:
        """Execute a compiled statement.

        ``tracer`` is an optional :class:`repro.obs.spans.RequestTrace`;
        the run records an ``execute`` span in it, and under a trace with
        operator detail (``tracer.operators``, as EXPLAIN ANALYZE sets)
        one ``op`` span per executed plan node below that.
        """
        started = time.perf_counter()
        ctx = ExecutionContext(self.engine, self.functions, params, txn)
        ctx.join_kinds = self.join_kinds
        ctx.compiled = compiled
        if compiled.options is not None:
            ctx.batch_size = compiled.options.batch_size
            if compiled.options.parallelism != "off":
                from repro.executor.parallel import (
                    available_cores, disabled_reason, fork_available)

                if fork_available():
                    ctx.parallel = self.parallel_runtime()
                    cores = available_cores()
                    if compiled.options.dop > cores:
                        # Informational, not a fallback: the pool runs,
                        # sized down to the affinity mask.
                        ctx.stats.parallel_reasons.append(
                            "requested dop=%d exceeds %d available "
                            "core(s); pool clamped to %d"
                            % (compiled.options.dop, cores, cores))
                else:
                    ctx.stats.parallel_fallbacks += 1
                    ctx.stats.parallel_reasons.append(disabled_reason())
        exec_span = None
        if tracer is not None:
            ctx.trace = tracer
            exec_span = tracer.begin("execute")
            if tracer.operators and compiled.plan is not None:
                ctx.ops = OpSpans(exec_span, compiled.plan)
        own_txn = None
        if txn is None and not compiled.is_query:
            own_txn = self.engine.begin()
            ctx.txn = own_txn
        try:
            rows = list(execute_plan(compiled.plan, ctx))
        except BaseException:
            if own_txn is not None:
                self.engine.abort(own_txn)
            if exec_span is not None:
                exec_span.set(error=True)
                tracer.end(exec_span)
            raise
        if own_txn is not None:
            self.engine.commit(own_txn)
        compiled.timings.execute = time.perf_counter() - started
        if exec_span is not None:
            exec_span.set(rows=len(rows))
            tracer.end(exec_span)
        visible = compiled.qgm.visible_columns if compiled.qgm else None
        if visible is not None:
            rows = [row[:visible] for row in rows]
        self._m_statements.inc()
        self._m_rows.inc(len(rows))
        self._m_execute_ms.observe(compiled.timings.execute * 1e3)
        if ctx.stats.parallel_fallbacks:
            self._m_parallel_fallbacks.inc(ctx.stats.parallel_fallbacks)
        return Result(compiled.output_columns(), rows,
                      rowcount=ctx.rowcount, timings=compiled.timings,
                      stats=ctx.stats)

    def begin(self):
        """Start an explicit transaction (pass it to execute)."""
        return self.engine.begin()

    def commit(self, txn) -> None:
        self.engine.commit(txn)

    def rollback(self, txn) -> None:
        self.engine.abort(txn)

    # ==== EXPLAIN ==================================================================

    def explain(self, sql: str,
                options: Optional[CompileOptions] = None,
                analyze: bool = False,
                trace: bool = False,
                tracer=None) -> str:
        """QGM before/after rewrite plus the chosen plan, as text.

        ``options`` (e.g. a non-default ``execution_mode``) flows through
        the whole pipeline, so the rendered plan shows exactly what that
        configuration would run — including per-node backend marks.

        ``analyze`` executes the statement and renders the plan annotated
        with actual per-operator rows and time (est-vs-actual).
        ``trace`` appends the structured compile trace (rewrite firings,
        optimizer decisions); with ``analyze`` it also forces a fresh
        compile, since a cache hit has no compile phases to trace.
        """
        from repro.qgm.display import render_qgm

        if analyze:
            return self._explain_analyze(sql, options, trace,
                                         tracer=tracer)

        tree = RequestTrace("explain", name="explain") if trace else None
        compiled = self.compile(sql, options=options, trace=tree)
        parts = []
        if compiled.qgm_before_rewrite:
            parts.append("=== QGM (before rewrite) ===")
            parts.append(compiled.qgm_before_rewrite.rstrip())
        parts.append("=== QGM ===")
        parts.append(render_qgm(compiled.qgm).rstrip())
        if compiled.rewrite_report is not None:
            parts.append("=== rewrite: %s ===" % compiled.rewrite_report)
        parts.append("=== plan ===")
        parts.append(compiled.plan.explain())
        parts.append(self._cache_status_line(sql.strip(),
                                             compiled.options))
        if tree is not None:
            parts.append(_trace_section(tree))
        return "\n".join(parts) + "\n"

    def _explain_analyze(self, sql: str,
                         options: Optional[CompileOptions],
                         trace: bool, tracer=None) -> str:
        from repro.executor.parallel import available_cores
        from repro.obs.render import render_analyze

        sql = sql.strip()
        if options is None:
            options = self.settings.compile_options()
        # One tree: the caller's request trace when there is one, so the
        # op spans land in it, else a local one.
        tree = tracer if tracer is not None \
            else RequestTrace("explain", name="explain")
        params: Sequence[Any] = ()
        fingerprint = (self._fingerprint(sql, options)
                       if options.plan_cache and not trace else None)
        if fingerprint is not None and fingerprint.cacheable:
            # Cache-aware, so EXPLAIN ANALYZE of a cached statement
            # reports this run's actuals.
            compiled = self._cached_compile(sql, fingerprint, options,
                                            tracer)
            params = fingerprint.recipe.bind(())
        else:
            # ``trace`` compiles afresh: a cache hit has no compile
            # phases to trace.
            compiled = self._timed_compile(
                sql, options, tracer=tree if trace else tracer)
        if compiled.plan is None:
            raise SemanticError(
                "EXPLAIN ANALYZE needs a plan-producing statement")
        operators, tree.operators = tree.operators, True
        try:
            result = self.run_compiled(compiled, params, tracer=tree)
        finally:
            tree.operators = operators
        text = render_analyze(
            compiled.plan, tree.root.find_all("execute")[-1],
            result.timings, result.stats, options=options,
            cores=available_cores(),
            trace_id=tree.trace_id if trace or tracer is not None
            else None)
        if trace:
            text += "\n" + _trace_section(tree)
        return text + "\n"

    def _cache_status_line(self, sql: str, options: CompileOptions) -> str:
        """One line of plan-cache status, so EXPLAIN output (and the
        differential repros that embed it) discloses whether an execution
        of this statement would reuse a cached plan."""
        epochs = "schema_epoch=%d, stats_epoch=%d" % (
            self.catalog.schema_epoch, self.catalog.stats_epoch)
        if options is None or not options.plan_cache:
            return "plan: cache off, %s" % epochs
        fingerprint = self._fingerprint(sql, options)
        if fingerprint is None or not fingerprint.cacheable:
            return "plan: not cacheable, %s" % epochs
        entry = self.plan_cache.peek(
            self.catalog, (fingerprint.key, options.cache_key()))
        if entry is None:
            return "plan: not cached, %s" % epochs
        return "plan: cached, epoch=%d, hits=%d, %s" % (
            entry.schema_epoch, entry.hits, epochs)

    def _explain_text(self, sql: str, statement=None,
                      options: Optional[CompileOptions] = None,
                      tracer=None) -> Result:
        inner = sql.strip()
        # strip the leading EXPLAIN keyword (and ANALYZE when present)
        inner = inner[len("explain"):].lstrip()
        analyze = statement is not None and statement.analyze
        if analyze and inner[:len("analyze")].lower() == "analyze":
            inner = inner[len("analyze"):].lstrip()
        text = self.explain(inner, options=options, analyze=analyze,
                            tracer=tracer)
        rows = [(line,) for line in text.rstrip("\n").split("\n")]
        return Result(["plan"], rows)

    # ==== DDL =========================================================================

    def _execute_ddl(self, statement: ast.Statement) -> Result:
        if isinstance(statement, ast.CreateTableStmt):
            self._create_table(statement)
        elif isinstance(statement, ast.CreateIndexStmt):
            self.engine.create_index(IndexDef(
                statement.name, statement.table_name, statement.column_names,
                kind=statement.kind, unique=statement.unique))
        elif isinstance(statement, ast.CreateViewStmt):
            self._create_view(statement)
        elif isinstance(statement, ast.DropStmt):
            if statement.kind == "table":
                self.engine.drop_table(statement.name)
            elif statement.kind == "view":
                self.catalog.drop_view(statement.name)
            else:
                self.engine.drop_index(statement.name)
        return Result([], [], rowcount=0)

    def _create_table(self, statement: ast.CreateTableStmt) -> None:
        columns = []
        primary_key = list(statement.primary_key or [])
        for spec in statement.columns:
            dtype = self.types.lookup(spec.type_name, spec.type_length)
            columns.append(ColumnDef(spec.name, dtype,
                                     nullable=not spec.not_null))
            if spec.primary_key:
                primary_key.append(spec.name)
        table = TableDef(statement.name, columns,
                         storage_manager=statement.storage_manager or "heap",
                         site=statement.site or "local",
                         primary_key=primary_key or None,
                         partition_by=statement.partition_by,
                         partitions=statement.partitions or 0)
        self.engine.create_table(table)
        if primary_key:
            self.engine.create_index(IndexDef(
                "pk_%s" % table.name, table.name, primary_key,
                kind="btree", unique=True))
        for index, check in enumerate(statement.checks +
                                      [s.check for s in statement.columns
                                       if s.check is not None]):
            self._attach_check(table, check, index)

    def _attach_check(self, table: TableDef, check_ast: ast.Expr,
                      number: int) -> None:
        """Compile a CHECK expression into a constraint attachment."""
        from repro.access.constraints import CheckConstraint
        from repro.executor.compiled import closure
        from repro.language.translator import Scope, SourceBinding, Translator
        from repro.qgm.model import QGM as QGMGraph

        translator = Translator(self)
        translator.qgm = QGMGraph()
        base = translator.qgm.base_table(table)
        quantifier = translator.qgm.new_quantifier("F", base,
                                                   name=table.name)
        scope = Scope()
        scope.define(table.name, SourceBinding(quantifier))
        expr = translator._translate_expr(check_ast, None, scope,
                                          allow_aggregates=False)

        check = closure(expr, self.functions, True)
        ctx = ExecutionContext(self.engine, self.functions)
        names = [c.name for c in table.columns]

        def predicate(named_row: dict) -> Optional[bool]:
            row = tuple([named_row[name] for name in names])
            return check({quantifier: row}, ctx)

        self.engine.add_constraint(
            table.name,
            CheckConstraint(table, predicate,
                            name="check_%s_%d" % (table.name, number)))

    def _create_view(self, statement: ast.CreateViewStmt) -> None:
        # Validate the view body now (names, types) by translating it once.
        from repro.language.translator import translate

        translate(statement.query, self)
        self.catalog.create_view(ViewDef(
            statement.name, statement.text, ast=statement.query,
            column_names=statement.column_names))

    # ==== DBC extension API ==============================================================

    def register_type(self, dtype: DataType, replace: bool = False) -> DataType:
        """Externally defined column type."""
        registered = self.types.register(dtype, replace=replace)
        self.catalog.bump_schema_epoch()
        return registered

    def register_scalar_function(self, name: str, fn, return_type,
                                 arity: Optional[int] = None,
                                 min_arity: Optional[int] = None,
                                 max_arity: Optional[int] = None,
                                 handles_null: bool = False) -> ScalarFunction:
        function = self.functions.register_scalar(ScalarFunction(
            name, fn, return_type, arity=arity, min_arity=min_arity,
            max_arity=max_arity, handles_null=handles_null))
        self.catalog.bump_schema_epoch()
        return function

    def register_aggregate_function(self, name: str, factory,
                                    return_type) -> AggregateFunction:
        function = self.functions.register_aggregate(
            AggregateFunction(name, factory, return_type))
        self.catalog.bump_schema_epoch()
        return function

    def register_table_function(self, name: str, fn,
                                table_inputs: int = 1) -> TableFunction:
        function = self.functions.register_table_function(
            TableFunction(name, fn, table_inputs=table_inputs))
        self.catalog.bump_schema_epoch()
        return function

    def register_set_predicate(self, name: str, combine,
                               quantifier_type: Optional[str] = None
                               ) -> SetPredicateFunction:
        function = self.functions.register_set_predicate(
            SetPredicateFunction(name, combine,
                                 quantifier_type=quantifier_type))
        self.catalog.bump_schema_epoch()
        return function

    def register_storage_manager(self, name: str, factory,
                                 replace: bool = False) -> None:
        self.engine.storage_managers.register(name, factory, replace=replace)
        self.catalog.bump_schema_epoch()

    def register_access_method(self, kind: str, factory,
                               replace: bool = False) -> None:
        self.engine.access_methods_registry.register(kind, factory,
                                                     replace=replace)
        self.catalog.bump_schema_epoch()

    def add_constraint(self, table_name: str,
                       constraint: Attachment) -> Attachment:
        return self.engine.add_constraint(table_name, constraint)

    def enable_operation(self, name: str) -> None:
        """Enable a DBC table operation (e.g. 'left_outer_join')."""
        self.operations.add(name)
        self.catalog.bump_schema_epoch()

    def register_rewrite_rule(self, rule, rule_class: str = "user") -> None:
        self.rewrite_engine.add_rule(rule, rule_class)
        self.catalog.bump_schema_epoch()

    def register_star(self, star: STAR, replace: bool = False) -> None:
        if star.name in self.stars and not replace:
            raise SemanticError("STAR %s already defined" % star.name)
        self.stars[star.name] = star
        self.catalog.bump_schema_epoch()

    def add_star_alternative(self, star_name: str,
                             alternative: Alternative) -> None:
        star = self.stars.get(star_name)
        if star is None:
            raise ExtensionError("no STAR named %s" % star_name)
        star.alternatives.append(alternative)
        self.catalog.bump_schema_epoch()

    def register_join_kind(self, kind, replace: bool = False) -> None:
        self.join_kinds.register(kind, replace=replace)
        self.catalog.bump_schema_epoch()

    # ==== maintenance ====================================================================

    def analyze(self, table_name: Optional[str] = None) -> None:
        """Recompute exact statistics (RUNSTATS)."""
        if table_name is not None:
            self.engine.recompute_statistics(table_name)
            return
        for table in self.catalog.tables():
            self.engine.recompute_statistics(table.name)


def _trace_section(tree: RequestTrace) -> str:
    """EXPLAIN's ``=== trace ===`` section: the span tree, its compile
    phases carrying their events."""
    return "=== trace (%d event(s)) ===\n%s" % (tree.events,
                                               tree.render_text())
