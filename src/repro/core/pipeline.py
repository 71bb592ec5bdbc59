"""The compile pipeline: the phases of Figure 1.

    query text → tokens → parse (+ semantic analysis) → QGM
               → query rewrite → plan optimization → plan refinement
               → execution

Compilation and execution are separate stages: a
:class:`CompiledStatement` can be kept and executed many times with
different parameters ("the result of the compilation stage can be stored
for future use").  ``PhaseTimings`` records per-phase wall-clock time so
benchmark F1 can regenerate the figure as a measured table.
"""

from __future__ import annotations

from time import monotonic_ns
from typing import List, Optional

from repro.core.options import CompileOptions
from repro.errors import SemanticError
from repro.executor.compiled import refine_plan
from repro.language import ast
from repro.language.parser import parse_statement
from repro.language.translator import translate
from repro.optimizer.boxopt import Optimizer
from repro.optimizer.plans import PlanOp
from repro.qgm.model import QGM
from repro.qgm.validate import validate_qgm


class PhaseTimings:
    """Seconds spent in each compile phase (Figure 1 reproduction)."""

    __slots__ = ("parse", "rewrite", "optimize", "refine", "codegen",
                 "execute", "pipeline")

    def __init__(self):
        self.parse = 0.0
        self.rewrite = 0.0
        self.optimize = 0.0
        self.refine = 0.0
        #: Code generation (every execution_mode but "tuple"): emitting
        #: and ``compile()``ing the fused per-pipeline functions.  Paid
        #: once per cached plan.
        self.codegen = 0.0
        self.execute = 0.0
        #: How the plan reached the executor: "compiled" for a fresh run
        #: of the Figure-1 phases, "cached" when the plan cache served it
        #: (EXPLAIN and benchmarks render the latter as ``(cached)``).
        self.pipeline = "compiled"

    def compile_total(self) -> float:
        return (self.parse + self.rewrite + self.optimize + self.refine
                + self.codegen)

    def as_dict(self) -> dict:
        return {
            "parse": self.parse,
            "rewrite": self.rewrite,
            "optimize": self.optimize,
            "refine": self.refine,
            "codegen": self.codegen,
            "execute": self.execute,
            "pipeline": self.pipeline,
        }


class CompiledStatement:
    """A compiled query: QGM snapshots, the plan, and phase timings."""

    def __init__(self, text: str, statement: ast.Statement,
                 qgm: Optional[QGM], plan: Optional[PlanOp],
                 timings: PhaseTimings,
                 qgm_before_rewrite: Optional[str] = None,
                 rewrite_report=None):
        self.text = text
        self.statement = statement
        self.qgm = qgm
        self.plan = plan
        self.timings = timings
        self.qgm_before_rewrite = qgm_before_rewrite
        self.rewrite_report = rewrite_report
        self.options: Optional[CompileOptions] = None
        self.refiner = None
        #: Relation names (base tables and expanded views) this statement
        #: ranges over — the plan cache's invalidation dependency set.
        self.dependencies: frozenset = frozenset()

    @property
    def is_query(self) -> bool:
        from repro.qgm.model import DeleteBox, InsertBox, UpdateBox

        if self.qgm is None or self.qgm.root is None:
            return False
        return not isinstance(self.qgm.root,
                              (InsertBox, UpdateBox, DeleteBox))

    def output_columns(self) -> List[str]:
        if self.qgm is None or self.qgm.root is None:
            return []
        names = self.qgm.root.head.column_names()
        if self.qgm.visible_columns is not None:
            names = names[: self.qgm.visible_columns]
        return names


def compile_statement(db, text: str,
                      options: Optional[CompileOptions] = None,
                      trace=None) -> CompiledStatement:
    """Run the compile-time phases against a database's registries.

    ``options`` carries the whole pipeline configuration; when omitted it
    is snapshotted from ``db.settings``.  ``trace`` is an optional
    :class:`repro.obs.RequestTrace`: each phase then records a span under
    its current span, and the rewrite firings and optimizer decisions
    the phase makes nest under it as events.
    """
    from repro.qgm.display import render_qgm

    if options is None:
        options = CompileOptions.from_settings(db.settings)

    timings = PhaseTimings()

    started = _begin(trace, "parse")
    statement = parse_statement(text)
    if isinstance(statement, ast.ExplainStmt):
        raise SemanticError("EXPLAIN must be handled by Database.execute")
    if _is_ddl(statement):
        timings.parse = _end(trace, started)
        return CompiledStatement(text, statement, None, None, timings)
    qgm = translate(statement, db)
    if options.validate_qgm:
        validate_qgm(qgm)
    # Dependency extraction happens before rewrite: view merging may erase
    # range edges, and a superset of the post-rewrite dependencies is the
    # conservative (correct) invalidation set.
    dependencies = _qgm_dependencies(qgm)
    timings.parse = _end(trace, started)

    qgm_before = None
    rewrite_report = None
    started = _begin(trace, "rewrite")
    if options.rewrite_enabled and db.rewrite_engine is not None:
        qgm_before = render_qgm(qgm)
        rewrite_report = db.rewrite_engine.run(
            qgm, trace=trace,
            only_rules=options.rewrite_only_rules,
            strategy=options.rewrite_strategy,
            optimizer_settings=options.optimizer_settings())
        if options.validate_qgm:
            validate_qgm(qgm)
    timings.rewrite = _end(trace, started, fired=(
        rewrite_report.fired if rewrite_report is not None else 0))

    started = _begin(trace, "optimize")
    optimizer = Optimizer(db.catalog, engine=db.engine,
                          settings=options.optimizer_settings(),
                          functions=db.functions,
                          stars=db.stars,
                          trace=trace)
    plan = optimizer.optimize(qgm)
    timings.optimize = _end(trace, started)

    # Plan refinement (QEP → executable QEP): verify every operator has an
    # interpreter, settle backends and parallel glue, then compile every
    # expression of the final tree to closures (the [FREY86] compilation
    # the paper points at).
    started = _begin(trace, "refine")
    _refine_check(plan)
    if options.execution_mode != "tuple":
        # Backend selection is a refinement too: the ExecBackend STAR
        # marks each node tuple or compiled (fused) from
        # structural checks alone; code is generated below, once the
        # parallel glue has settled the plan's shape.
        from repro.executor.selection import select_backends

        select_backends(plan, optimizer.generator, db.functions,
                        db.join_kinds)
    if options.parallelism != "off":
        # Parallel glue: the Parallelism STAR splices Exchange LOLEPOPs
        # over eligible subtrees (morsel-parallel scan pyramids).
        from repro.optimizer.stars import parallelize_plan

        plan = parallelize_plan(plan, optimizer.generator, options)
    refiner = refine_plan(plan, db.functions)
    timings.refine = _end(trace, started)

    if options.execution_mode != "tuple" and plan is not None:
        # Code generation runs after the parallel glue: exchange splices
        # reshape the tree, and a region root they leave unparseable
        # demotes to the tuple interpreter here rather than fusing a
        # stale shape.
        from repro.executor.codegen import generate_programs

        started = _begin(trace, "codegen")
        pipelines = generate_programs(plan, db.functions, db.join_kinds,
                                      trace=trace)
        timings.codegen = _end(trace, started, pipelines=pipelines)

    compiled = CompiledStatement(text, statement, qgm, plan, timings,
                                 qgm_before, rewrite_report)
    compiled._optimizer = optimizer  # for EXPLAIN / benchmarks
    compiled.options = options
    compiled.refiner = refiner
    compiled.dependencies = dependencies
    return compiled


def _begin(trace, name: str) -> int:
    """The start of compile phase ``name`` in monotonic ns.  Traced, the
    phase's span opens at that instant and becomes the current span, so
    every event the phase emits nests under it."""
    if trace is None:
        return monotonic_ns()
    return trace.begin(name).start_ns


def _end(trace, started: int, **attrs) -> float:
    """Seconds since ``started``.  Traced, the same clock read closes the
    phase's span (carrying ``attrs``), so the span and the
    :class:`PhaseTimings` field cannot disagree."""
    ended = monotonic_ns()
    if trace is not None:
        span = trace.current()
        span.end_ns = ended
        trace.end(span.set(**attrs))
    return (ended - started) / 1e9


def _qgm_dependencies(qgm: QGM) -> frozenset:
    """Relation names the query ranges over, read off the QGM range edges:
    base-table boxes, DML target tables, and expanded view names (the
    translator annotates the box it built for each view reference)."""
    names = set()
    for box in qgm.boxes:
        table = getattr(box, "table", None)
        if table is not None:
            names.add(table.name)
        view_name = box.annotations.get("view")
        if view_name:
            names.add(view_name)
    return frozenset(names)


def _refine_check(plan: PlanOp) -> None:
    """Verify every operator in the plan has an interpreter (QEP → QEP)."""
    from repro.executor.run import _ENV_OPS, _ROW_OPS

    for node in plan.walk():
        if type(node) not in _ROW_OPS and type(node) not in _ENV_OPS:
            raise SemanticError(
                "plan operator %s has no interpreter" % node.op_name)


def _is_ddl(statement: ast.Statement) -> bool:
    return isinstance(statement, (ast.CreateTableStmt, ast.CreateIndexStmt,
                                  ast.CreateViewStmt, ast.DropStmt))
