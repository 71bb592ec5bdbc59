"""Pipeline-fusion code generation: the third execution backend.

Section 7 of the paper notes the algebraic QEP interface "can also serve
as the input specification to a component that compiles QEPs into
iterative programs [FREY86]".  :mod:`repro.executor.vectorized`
amortizes operator dispatch per batch — but the batch engine still walks
an operator tree and re-resolves columns for every batch.  This module
goes the rest of
the way, the way raco emits one specialized template per pipeline: it
splits the plan at pipeline breakers (hash build, group-by, sort,
exchanges, Temp), and for each pipeline emits **one specialized Python
function** — the whole scan→filter→probe→sink chain fused into a single
loop with pre-resolved column offsets and the predicates, join keys and
head expressions inlined as Python source.  The generated function is
``compile()``d once (and cached by its source text, so structurally
identical pipelines in *different* statements share one code object) and
driven by the storage layer's ``scan_batches``/``page_range`` morsels.

**Region grammar.**  A fusable *region* is a maximal ``compiled``-marked
subtree of this shape::

    region := postop* core
    postop := DISTINCT | LIMIT | ORDERBY        (run by the driver)
    core   := PROJECT(chain)                    (no subquery streams)
            | GROUPBY(chain)
            | PROJECT(ACCESS(GROUPBY(chain)))   (grouped: driver-level
                                                 HAVING + head project)
    chain  := SCAN | FILTER(chain) | HASHJOIN(chain, chain)
            | ACCESS(PROJECT(chain))            (folded by substitution)

``ACCESS(PROJECT(...))`` pairs — how the optimizer binds a derived box's
rows to a quantifier — are *folded away*: references to the access
quantifier are substituted with the project's head expressions, so the
indirection costs nothing at run time.  Every HASHJOIN inner input
becomes its own *build* pipeline (emitting a key → payload-rows hash
table); the final pipeline runs the probe chain and the sink.  Nested
joins nest naturally: a build chain may itself contain probes.

**Fallback contract.**  The selection pass
(:mod:`repro.executor.selection`) offers ``compiled`` only to nodes that
are batch-capable *and* fusable (:func:`fuse_reason`), so a ``compiled``
mark can always be demoted to ``batch``.  Regions that fail validation —
including regions broken up *after* selection by the parallel glue's
exchange splices — demote wholesale to the batch engine, recorded per
node in ``plan.codegen_fallbacks`` and counted at runtime in
``stats.fallbacks`` exactly like the batch→tuple boundaries.
:func:`generate_programs` runs last and generates code only for what
was selected: a :class:`Program` per fused region, the batch functions
of every batch-marked node, nothing for tuple nodes.

**Semantics.**  Predicates, join keys and head expressions are emitted
by :class:`~repro.executor.exprgen.ExprGen` — the same generator the
batch engine uses — so a fused pipeline is row-for-row and
error-for-error identical to the other backends; the driver-level
post-operators and the group-by tail are the shared ones in
:mod:`repro.executor.rowops`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.executor import rowops, vectorized
from repro.executor.compiled import closures
from repro.executor.context import ExecutionContext
from repro.executor.exprgen import (
    ExprGen,
    Unsupported,
    codegen_cache_stats,  # noqa: F401  (re-exported: the cache moved)
    materialize,
    reject_reason,
)
from repro.executor.run import scan_partition
from repro.optimizer import plans as pl
from repro.qgm import expressions as qe


# ---------------------------------------------------------------------------
# Region parsing and validation
# ---------------------------------------------------------------------------

_POSTOP_TYPES = (pl.Distinct, pl.LimitOp, pl.TopSort)


def _parse_region(root: pl.PlanOp):
    """Split a compiled-marked region into driver-level post-operators,
    an optional grouped wrap ``(project, access)`` over the core, and the
    pipeline core; raises :class:`Unsupported` on any shape the generator
    does not fuse."""
    postops: List[pl.PlanOp] = []
    node = root
    while isinstance(node, _POSTOP_TYPES):
        postops.append(node)
        node = node.children[0]
        if node.exec_backend != "compiled":
            raise Unsupported("%s over non-fused input"
                              % postops[-1].op_name)
    wrap = None
    if isinstance(node, pl.Project):
        if node.subplans:
            raise Unsupported("subquery expressions")
        child = node.children[0]
        if isinstance(child, pl.DerivedScan) \
                and isinstance(child.children[0], pl.GroupBy):
            # The grouped shape: the head PROJECT (and any HAVING preds
            # on the ACCESS) evaluates per *group*, driver-side.
            if child.exec_backend != "compiled" \
                    or child.children[0].exec_backend != "compiled":
                raise Unsupported("grouped core not fused")
            wrap = (node, child)
            node = child.children[0]
    elif not isinstance(node, pl.GroupBy):
        raise Unsupported("region root %s is not a pipeline sink"
                          % node.op_name)
    _check_chain(node.children[0])
    return postops, wrap, node


def _check_chain(node: pl.PlanOp) -> None:
    if node.exec_backend != "compiled":
        raise Unsupported("pipeline input %s not fused" % node.op_name)
    if isinstance(node, pl.TableScan):
        return
    if isinstance(node, pl.Filter):
        _check_chain(node.children[0])
        return
    if isinstance(node, pl.HashJoin):
        _check_chain(node.children[1])
        _check_chain(node.children[0])
        return
    if isinstance(node, pl.DerivedScan):
        inner = node.children[0]
        if not isinstance(inner, pl.Project) or inner.subplans:
            raise Unsupported("ACCESS over %s" % inner.op_name)
        if inner.exec_backend != "compiled":
            raise Unsupported("pipeline input %s not fused" % inner.op_name)
        _check_chain(inner.children[0])
        return
    raise Unsupported("unsupported operator %s in pipeline" % node.op_name)


def _demote_region(node: pl.PlanOp) -> None:
    """Downgrade a contiguous compiled region to the batch engine.

    Always safe: the selection pass only offers ``compiled`` to nodes the
    batch engine is capable of."""
    if node.exec_backend != "compiled":
        return
    node.exec_backend = "batch"
    for child in node.children:
        _demote_region(child)


def _linearize(chain_top: pl.PlanOp):
    """The chain's SCAN leaf, its steps in execution (bottom-up) order —
    ``("filter", node)`` (Filter or a predicated ACCESS) or
    ``("probe", node)`` — and the substitution mapping that folds each
    spine ``ACCESS(PROJECT(...))`` pair away (access quantifier → the
    project's head expressions)."""
    steps: List[Tuple] = []
    mapping: Dict[Any, list] = {}
    node = chain_top
    while True:
        if isinstance(node, pl.TableScan):
            return node, list(reversed(steps)), mapping
        if isinstance(node, pl.Filter):
            steps.append(("filter", node))
            node = node.children[0]
        elif isinstance(node, pl.HashJoin):
            steps.append(("probe", node))
            node = node.children[0]
        elif isinstance(node, pl.DerivedScan):
            inner = node.children[0]
            if not isinstance(inner, pl.Project) or inner.subplans:
                raise Unsupported("ACCESS over %s" % inner.op_name)
            mapping[node.quantifier] = inner.exprs
            if node.preds:
                steps.append(("filter", node))
            node = inner.children[0]
        else:
            raise Unsupported("unsupported operator %s in pipeline"
                              % node.op_name)


def _subst(expr: qe.QExpr, mapping: Dict[Any, list]) -> qe.QExpr:
    """Recursively replace references to folded access quantifiers with
    the defining projection expressions."""
    if not mapping:
        return expr

    def visit(ref: qe.ColRef) -> Optional[qe.QExpr]:
        exprs = mapping.get(ref.quantifier)
        if exprs is None:
            return None
        position = ref.quantifier.input.head.index_of(ref.column)
        return _subst(exprs[position], mapping)

    return qe.substitute_colrefs(expr, visit)


# ---------------------------------------------------------------------------
# Fusability (selection-time structural check)
# ---------------------------------------------------------------------------


def fuse_reason(node: pl.PlanOp, kinds, functions) -> Optional[str]:
    """None when this (batch-capable) node can take part in a fused
    pipeline, otherwise why it cannot."""
    node_type = type(node)
    if node_type in (pl.TableScan, pl.Filter, pl.DerivedScan):
        exprs = [p.expr for p in node.preds]
    elif node_type is pl.HashJoin:
        if kinds.get(node.kind, functions).preserves_outer:
            return "outer-join padding"
        exprs = (list(node.outer_keys) + list(node.inner_keys)
                 + [p.expr for p in node.residual])
    elif node_type is pl.Project:
        if node.subplans:
            return "subquery expressions"
        exprs = node.exprs
    elif node_type is pl.GroupBy:
        for agg in node.aggregates:
            if functions.aggregate(agg.name) is None:
                # The interpreters raise at runtime; demoting to batch
                # preserves that error exactly.
                return "unknown aggregate %s" % agg.name
        exprs = list(node.group_exprs) + [
            agg.arg for agg in node.aggregates if agg.arg is not None]
    elif node_type in _POSTOP_TYPES:
        exprs = []
    else:
        return "unsupported operator %s" % node.op_name
    for expr in exprs:
        reason = reject_reason(expr, functions)
        if reason is not None:
            return reason
    return None


# ---------------------------------------------------------------------------
# Program generation
# ---------------------------------------------------------------------------


class _Runtime:
    """Identity-bearing values one generated pipeline needs at run time
    (everything structural is baked into its source)."""

    __slots__ = ("scan", "hoisted", "aggs")

    def __init__(self, scan, hoisted, aggs):
        self.scan = scan
        #: The expression generator's hoisted values (``_hN``).
        self.hoisted = hoisted
        self.aggs = aggs


class _Pipeline:
    __slots__ = ("fn", "rt", "consumes", "shared", "source", "table")

    def __init__(self, fn, rt, consumes, shared, source, table):
        self.fn = fn
        self.rt = rt
        #: Program-level indices of the build tables this pipeline's
        #: probes consume, in probe order.
        self.consumes = consumes
        #: True when the code object came from the cross-statement cache.
        self.shared = shared
        self.source = source
        self.table = table


class Program:
    """One fused region: build pipelines, the final pipeline, the
    driver-level post-operators, and — for grouped regions — the
    per-group HAVING predicates and head projection (scalar closures;
    they run once per group, not per row)."""

    __slots__ = ("pipelines", "final_kind", "core", "postops",
                 "n_pipelines", "agg_functions", "source",
                 "wrap_quantifier", "wrap_preds", "wrap_exprs")

    def __init__(self, pipelines, final_kind, core, postops, agg_functions,
                 wrap_quantifier=None, wrap_preds=(), wrap_exprs=None):
        self.pipelines = pipelines
        self.final_kind = final_kind
        self.core = core
        self.postops = postops
        self.n_pipelines = len(pipelines)
        self.agg_functions = agg_functions
        self.source = "\n\n".join(p.source for p in pipelines)
        self.wrap_quantifier = wrap_quantifier
        self.wrap_preds = wrap_preds
        self.wrap_exprs = wrap_exprs


def generate_programs(plan: pl.PlanOp, functions, options,
                      trace=None) -> int:
    """Generate code for what the selection pass chose: a
    :class:`Program` on every valid compiled region root — regions
    invalidated since selection (exchange splices reshape the tree)
    demote to batch — then the batch functions of every batch-marked
    node.  Returns the total pipeline count."""
    if plan is None:
        return 0
    fallbacks = getattr(plan, "codegen_fallbacks", None)
    if fallbacks is None:
        fallbacks = plan.codegen_fallbacks = []
    total = 0

    def visit(node: pl.PlanOp, parent_backend: str) -> None:
        nonlocal total
        if node.exec_backend == "compiled" and parent_backend != "compiled":
            try:
                program = _generate(node, functions)
            except Unsupported as exc:
                fallbacks.append((node.op_name, str(exc)))
                _demote_region(node)
            else:
                node.codegen_program = program
                total += program.n_pipelines
                if trace is not None:
                    for index, pipe in enumerate(program.pipelines):
                        trace.event(
                            "codegen.pipeline", region=node.describe(),
                            pipeline=index, table=pipe.table,
                            role=("sink" if pipe is program.pipelines[-1]
                                  else "build"),
                            shared=pipe.shared,
                            source_lines=pipe.source.count("\n") + 1)
        for child in node.children:
            visit(child, node.exec_backend)
        for binding in getattr(node, "subplans", []):
            visit(binding.plan, "tuple")

    visit(plan, "tuple")
    for node in plan.walk():
        if node.exec_backend == "batch":
            vectorized.attach_functions(node, functions)
    return total


def _generate(root: pl.PlanOp, functions) -> Program:
    postops, wrap, core = _parse_region(root)
    if isinstance(core, pl.GroupBy):
        final_kind = "groupby"
        agg_functions = tuple(
            rowops.aggregate_functions(core.aggregates, functions))
    else:
        final_kind = "project"
        agg_functions = ()

    wrap_quantifier = None
    wrap_preds: list = []
    wrap_exprs = None
    if wrap is not None:
        # HAVING predicates and head expressions over the group rows:
        # scalar closures (ExprCompiler semantics), run once per group.
        project, access = wrap
        wrap_quantifier = access.quantifier
        wrap_preds = closures(access.preds, functions)
        wrap_exprs = closures(project.exprs, functions, True)

    pipelines: List[_Pipeline] = []
    _emit_pipeline(core.children[0], final_kind, core, None, None,
                   pipelines, agg_functions, functions)
    return Program(pipelines, final_kind, core, postops, agg_functions,
                   wrap_quantifier, tuple(wrap_preds), wrap_exprs)


def _emit_pipeline(chain_top, sink_kind, sink_node, payload, keys,
                   pipelines, agg_functions, functions) -> int:
    """Emit one pipeline (recursively emitting its builds first); appends
    a :class:`_Pipeline` and returns its program-level index."""
    scan, steps, mapping = _linearize(chain_top)

    # Fold the spine's ACCESS(PROJECT(...)) indirections away up front:
    # every expression the pipeline evaluates is substituted down to the
    # scan's and the probes' quantifiers.
    scan_preds = [_subst(p.expr, mapping) for p in scan.preds]
    step_exprs = []
    for step_kind, node in steps:
        if step_kind == "filter":
            step_exprs.append([_subst(p.expr, mapping)
                               for p in node.preds])
        else:
            step_exprs.append((
                [_subst(e, mapping) for e in node.outer_keys],
                [_subst(p.expr, mapping) for p in node.residual]))
    if sink_kind == "project":
        sink_exprs = [_subst(e, mapping) for e in sink_node.exprs]
        agg_args: list = []
    elif sink_kind == "groupby":
        sink_exprs = [_subst(e, mapping) for e in sink_node.group_exprs]
        agg_args = [None if agg.arg is None else _subst(agg.arg, mapping)
                    for agg in sink_node.aggregates]
    else:  # build: the inner keys plus the consumer's payload refs —
        # refs to a folded quantifier become the defining expressions.
        sink_exprs = [_subst(e, mapping) for e in keys]
        agg_args = []
        payload_exprs = [
            _subst(mapping[q][position], mapping) if q in mapping else None
            for (q, position) in payload]

    # Every (quantifier, position) the pipeline touches, in
    # first-encounter order over a fixed structural traversal — the
    # order is part of the structural fingerprint, so it must not depend
    # on object identities.
    refs: Dict[Tuple[Any, int], None] = {}

    def note(expr):
        for node in qe.walk(expr):
            if isinstance(node, qe.ColRef):
                position = node.quantifier.input.head.index_of(node.column)
                refs.setdefault((node.quantifier, position))

    for expr in scan_preds:
        note(expr)
    for (step_kind, _node), exprs in zip(steps, step_exprs):
        if step_kind == "filter":
            for expr in exprs:
                note(expr)
        else:
            for expr in exprs[0]:
                note(expr)
            for expr in exprs[1]:
                note(expr)
    for expr in sink_exprs:
        note(expr)
    for expr in agg_args:
        if expr is not None:
            note(expr)
    if sink_kind == "build":
        for ref, expr in zip(payload, payload_exprs):
            if expr is None:
                refs.setdefault(ref)
            else:
                note(expr)

    # Resolve every reference to a source: the scan's decoded columns, or
    # a slot of some probe's payload rows.
    colmap: Dict[Tuple[Any, int], str] = {}
    scan_positions = sorted(
        {pos for (q, pos) in refs if q is scan.quantifier})
    for position in scan_positions:
        colmap[(scan.quantifier, position)] = "_x%d" % position

    probes = [node for step_kind, node in steps if step_kind == "probe"]
    probe_payloads: List[List[Tuple[Any, int]]] = []
    for k, probe in enumerate(probes):
        inner_q = probe.children[1].props.quantifiers
        pay = [ref for ref in refs if ref[0] in inner_q]
        for slot, ref in enumerate(pay):
            colmap[ref] = "_r%d[%d]" % (k, slot)
        probe_payloads.append(pay)
    for ref in refs:
        if ref not in colmap:
            raise Unsupported("column %s.%s not produced in this pipeline"
                            % (ref[0].name, ref[1]))

    # Builds first (post-order): their tables must exist before the probe
    # pipeline runs; ``consumes`` records their program-level indices.
    consumes = [
        _emit_pipeline(probe.children[1], "build", probe,
                       probe_payloads[k], probe.inner_keys,
                       pipelines, agg_functions, functions)
        for k, probe in enumerate(probes)]

    def column(quantifier, position: int) -> str:
        return colmap[(quantifier, position)]  # every ref was resolved

    gen = ExprGen(column, functions)
    body: List[Tuple[int, str]] = []
    indent = 0
    for expr in scan_preds:
        body.append((indent, "if not %s: continue" % gen.cond(expr)))
    probe_no = 0
    for (step_kind, _node), exprs in zip(steps, step_exprs):
        if step_kind == "filter":
            for expr in exprs:
                body.append((indent, "if not %s: continue"
                             % gen.cond(expr)))
            continue
        k = probe_no
        probe_no += 1
        comps = []
        for m, expr in enumerate(exprs[0]):
            name = "_k%d_%d" % (k, m)
            body.append((indent, "%s = %s" % (name, gen.value(expr))))
            comps.append(name)
        if comps:
            body.append((indent, "if %s: continue"
                         % " or ".join("%s is None" % c for c in comps)))
        body.append((indent, "for _r%d in _ht%d((%s%s), _E):"
                     % (k, k, ", ".join(comps), "," if comps else "")))
        indent += 1
        for expr in exprs[1]:
            body.append((indent, "if not %s: continue" % gen.cond(expr)))

    prologue: List[str] = []
    morsel_prologue: List[str] = []
    morsel_epilogue: List[str] = []
    epilogue: List[str] = []
    if sink_kind == "project":
        morsel_prologue = ["_out = []", "_oapp = _out.append"]
        body.append((indent, "_oapp(%s)" % gen.tuple_of(sink_exprs)))
        morsel_epilogue = ["stats.rows_emitted += len(_out)", "yield _out"]
    elif sink_kind == "build":
        prologue = ["_tab = {}", "_tget = _tab.get"]
        comps = []
        for m, expr in enumerate(sink_exprs):
            name = "_bk%d" % m
            body.append((indent, "%s = %s" % (name, gen.value(expr))))
            comps.append(name)
        if comps:
            body.append((indent, "if %s: continue"
                         % " or ".join("%s is None" % c for c in comps)))
        body.append((indent, "_kt = (%s%s)"
                     % (", ".join(comps), "," if comps else "")))
        body.append((indent, "_lst = _tget(_kt)"))
        body.append((indent, "if _lst is None:"))
        body.append((indent + 1, "_lst = []"))
        body.append((indent + 1, "_tab[_kt] = _lst"))
        pay_values = [colmap[ref] if expr is None else gen.value(expr)
                      for ref, expr in zip(payload, payload_exprs)]
        body.append((indent, "_lst.append((%s%s))"
                     % (", ".join(pay_values), "," if pay_values else "")))
        epilogue = ["return _tab"]
    else:  # groupby
        prologue = ["_groups = {}", "_gget = _groups.get",
                    "_afs = rt.aggs"]
        if any(agg.distinct for agg in sink_node.aggregates):
            prologue.append("_dseen = {}")
        body.append((indent, "_kt = %s" % gen.tuple_of(sink_exprs)))
        body.append((indent, "_accs = _gget(_kt)"))
        body.append((indent, "if _accs is None:"))
        body.append((indent + 1, "_accs = [_f.factory() for _f in _afs]"))
        body.append((indent + 1, "_groups[_kt] = _accs"))
        for i, agg in enumerate(sink_node.aggregates):
            _emit_agg_step(body, indent, gen, i, agg, agg_args[i],
                           agg_functions[i])
        epilogue = ["return _groups"]

    source = _assemble(scan, scan_positions, consumes, gen, prologue,
                       morsel_prologue, body, morsel_epilogue, epilogue)
    fn, shared = materialize(source, Source=vectorized._RecordSource,
                             scan_partition=scan_partition)
    rt = _Runtime(scan, tuple(gen.hoisted),
                  agg_functions if sink_kind == "groupby" else ())
    index = len(pipelines)
    pipelines.append(_Pipeline(fn, rt, consumes, shared, source,
                               scan.table.name))
    return index


def _emit_agg_step(body, indent, gen, i, agg, arg, function) -> None:
    """One aggregate's per-row accumulation, mirroring the batch
    group-by: COUNT(*) steps 1, NULL args skip unless the function
    handles them, DISTINCT dedups per (group, aggregate).  The
    handles_null shape is baked into the source — a registry whose
    function differs produces different source, hence a different cache
    entry, so sharing stays sound."""
    if arg is None:
        value = "1"
    else:
        value = "_v%d" % i
        body.append((indent, "%s = %s" % (value, gen.value(arg))))
        if not function.handles_null:
            body.append((indent, "if %s is not None:" % value))
            indent += 1
    if agg.distinct:
        seen = "_sd%d" % i
        body.append((indent, "%s = _dseen.get((_kt, %d))" % (seen, i)))
        body.append((indent, "if %s is None:" % seen))
        body.append((indent + 1, "%s = set()" % seen))
        body.append((indent + 1, "_dseen[(_kt, %d)] = %s" % (i, seen)))
        body.append((indent, "if %s not in %s:" % (value, seen)))
        body.append((indent + 1, "%s.add(%s)" % (seen, value)))
        body.append((indent + 1, "_accs[%d].step(%s)" % (i, value)))
    else:
        body.append((indent, "_accs[%d].step(%s)" % (i, value)))


def _assemble(scan, scan_positions, consumes, gen, prologue,
              morsel_prologue, body, morsel_epilogue, epilogue) -> str:
    lines: List[str] = []
    out = lines.append
    out("def _p(ctx, params, rt, tables):")
    out("    stats = ctx.stats")
    out("    _engine = ctx.engine")
    out("    _ser = _engine.serializer(%r)" % scan.table.name)
    if scan_positions:
        out("    _dec = _ser.combined_decoder((%s,))"
            % ", ".join(str(p) for p in scan_positions))
    for k in range(len(consumes)):
        out("    _ht%d = tables[%d].get" % (k, k))
    for line in gen.bind_params() + gen.bind_hoisted("rt.hoisted"):
        out("    " + line)
    for line in prologue:
        out("    " + line)
    out("    _scan = rt.scan")
    out("    _pr = ctx.morsel_range if _scan is ctx.morsel_scan else None")
    # Fused regions are uncorrelated: the scan's shard needs no outer env.
    out("    for _mk, _recs in _engine.scan_batches("
        "ctx.txn, %r, ctx.batch_size, _pr, "
        "partition=scan_partition(_scan, ctx, {})):" % scan.table.name)
    out("        _n = len(_recs)")
    out("        stats.rows_scanned += _n")
    if scan_positions:
        # One pass over the records when the layout allows (a single
        # pre-resolved struct unpack per record), else per-column decode.
        out("        if _dec is not None:")
        out("            _rows = _dec(_recs)")
        out("        else:")
        out("            _src = Source(_recs, _ser)")
        out("            _rows = zip(%s)"
            % ", ".join("_src.column(%d)" % p for p in scan_positions))
    for line in morsel_prologue:
        out("        " + line)
    if scan_positions:
        names = ", ".join("_x%d" % p for p in scan_positions)
        out("        for %s%s in _rows:"
            % (names, "," if len(scan_positions) == 1 else ""))
    else:
        out("        for _i in range(_n):")
    for depth, line in body:
        out("    " * (3 + depth) + line)
    for line in morsel_epilogue:
        out("        " + line)
    for line in epilogue:
        out("    " + line)
    out("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Drivers (run-time entry points)
# ---------------------------------------------------------------------------


def rows_from_compiled(plan: pl.PlanOp, ctx: ExecutionContext, env,
                       count_fallback: bool = True
                       ) -> Iterator[Tuple[Any, ...]]:
    """Row stream of a compiled region root (``rows_iter`` and the
    plan-root boundary route here)."""
    if count_fallback:
        ctx.stats.fallbacks += 1
    if ctx.profile is not None:
        return ctx.profile.iter_stream(plan, _run_program, ctx, env)
    return _run_program(plan, ctx, env)


def _run_program(plan: pl.PlanOp, ctx: ExecutionContext,
                 env) -> Iterator[Tuple[Any, ...]]:
    program = plan.codegen_program
    ctx.stats.codegen_pipelines += program.n_pipelines
    rows = _sink_rows(program, ctx)
    for node in reversed(program.postops):
        if isinstance(node, pl.Distinct):
            rows = rowops.distinct_rows(rows)
        elif isinstance(node, pl.LimitOp):
            rows = rowops.limit_rows(rows, node.limit)
        else:
            rows = _topsort_rows(node, rows, ctx)
    return rows


def _sink_rows(program: Program,
               ctx: ExecutionContext) -> Iterator[Tuple[Any, ...]]:
    # A generator so the builds run lazily on first pull — the same
    # open-time laziness as the interpreters (LIMIT 0 never builds).
    params = ctx.params
    results: List[Any] = []
    for pipe in program.pipelines[:-1]:
        tables = tuple(results[i] for i in pipe.consumes)
        results.append(pipe.fn(ctx, params, pipe.rt, tables))
    final = program.pipelines[-1]
    tables = tuple(results[i] for i in final.consumes)
    if program.final_kind == "groupby":
        rows = rowops.finish_groups(
            final.fn(ctx, params, final.rt, tables),
            bool(program.core.group_exprs), lambda: program.agg_functions)
        if program.wrap_exprs is None:
            yield from rows
            return
        # Grouped wrap: HAVING + head projection, once per group.
        quantifier = program.wrap_quantifier
        preds = program.wrap_preds
        exprs = program.wrap_exprs
        for row in rows:
            env = {quantifier: row}
            if any(fn(env, ctx) is not True for fn in preds):
                continue
            ctx.stats.rows_emitted += 1
            yield tuple(fn(env, ctx) for fn in exprs)
        return
    for out in final.fn(ctx, params, final.rt, tables):
        if out:
            yield from out


def _topsort_rows(node: pl.TopSort, rows,
                  ctx: ExecutionContext) -> Iterator[Tuple[Any, ...]]:
    # A generator, so the sort (like the builds) runs on first pull.
    data = list(rows)
    ctx.stats.sorts += 1
    rowops.sort_rows(data, node.positions)
    yield from data
