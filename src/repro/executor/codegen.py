"""Pipeline-fusion code generation: the fast execution backend.

Section 7 of the paper notes the algebraic QEP interface "can also serve
as the input specification to a component that compiles QEPs into
iterative programs [FREY86]".  This module is that component, the way
raco emits one specialized template per pipeline: it splits the plan at
pipeline breakers (hash build, group-by, sort, exchanges, Temp), and for
each pipeline emits **one specialized Python function** — the whole
source→filter→probe→sink chain fused into a single loop with
pre-resolved column offsets and the predicates, join keys and head
expressions inlined as Python source.  The generated function is
``compile()``d once (and cached by its source text, so structurally
identical pipelines in *different* statements share one code object).

**Region grammar.**  A fusable *region* is a ``compiled``-marked subtree
of this shape::

    region := postop* core
    postop := DISTINCT | LIMIT | ORDERBY        (run by the driver)
    core   := PROJECT(chain)                    (no subquery streams)
            | GROUPBY(chain)
            | PROJECT(ACCESS(GROUPBY(chain)))   (grouped: driver-level
                                                 HAVING + head project)
            | SORT(chain)                       (keys generated, sorted
                                                 by the driver)
            | chain                             (hands bindings to its
                                                 tuple parent)
    chain  := source | FILTER(chain) | HASHJOIN(chain, chain)
            | ACCESS(PROJECT(chain))            (folded by substitution)
    source := SCAN                              (page spans, decoded in place)
            | ISCAN                             (fetched rows of its probe
                                                 or range)
            | any non-fused binding node        (its bindings, pulled
                                                 from the interpreter)
            | ACCESS(any other row node)        (its rows, likewise)

``ACCESS(PROJECT(...))`` pairs — how the optimizer binds a derived box's
rows to a quantifier — are *folded away*: references to the access
quantifier are substituted with the project's head expressions, so the
indirection costs nothing at run time.  Every HASHJOIN inner input
becomes its own *build* pipeline (emitting a key → payload-rows hash
table); the final pipeline runs the probe chain and the sink.  A
preserving (left outer) probe pads unmatched outer rows with NULLs in
the probe step itself.

**Leaves.**  A non-fused source is a *leaf*: the driver pulls it through
:func:`~repro.executor.run.env_iter` / :func:`~repro.executor.run.
rows_iter` with the region's own environment, so correlation below it
still resolves, and ``ctx.batch_size`` rows at a time become one
morsel.  A leaf may itself be a fused region (an ACCESS over a grouped
region); it is generated as a region of its own.

**Selection and demotion.**  :mod:`repro.executor.selection` marks nodes
``compiled`` from :func:`fuse_reason` alone.  :func:`generate_programs`
runs after the parallel glue and generates a :class:`Program` for every
region root; a root whose region does not parse — the glue's exchange
splices reshape the tree — goes to ``tuple`` (reason recorded in
``plan.codegen_fallbacks``) and its children are tried as regions of
their own.  An adapter sits on every tuple boundary, counted at run time
in ``stats.fallbacks``.

**Semantics.**  Predicates, join keys and head expressions are emitted
by :class:`~repro.executor.exprgen.ExprGen`, which reproduces the tuple
interpreter's scalar closures operator for operator, so a fused
pipeline is row-for-row and error-for-error identical to the tuple
backend; the driver-level post-operators are the shared ones in
:mod:`repro.executor.rowops`.  The group-by sink steps the stock
aggregates inline and finishes its groups itself; single-column group
and join keys are bare values.

**EXPLAIN ANALYZE.**  Under ``ctx.ops`` each region runs its *analyze
variant*: the same pipelines generated with one row counter per step
(source, filter, probe, sink), credited to the ``op`` spans of the plan
nodes that step stands for.  Time is measured for the region as a
whole.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import SubqueryError
from repro.executor import rowops
from repro.executor.compiled import closures, plan_expressions
from repro.executor.context import ExecutionContext
from repro.executor.exprgen import (
    ExprGen,
    Unsupported,
    materialize,
    reject_reason,
)
from repro.executor.run import (
    env_iter,
    index_rids,
    rows_iter,
    scan_partition,
)
from repro.functions.builtins import _Avg, _Count, _Max, _Min, _Sum
from repro.optimizer import plans as pl
from repro.qgm import expressions as qe


# ---------------------------------------------------------------------------
# Pipeline inputs
# ---------------------------------------------------------------------------


def _index_chunks(plan: pl.IndexScan, ctx: ExecutionContext,
                  env) -> Iterator[list]:
    """A fused ISCAN's rows, ``ctx.batch_size`` fetches at a time.  The
    probe or range expressions evaluate once, against the region's
    (possibly correlated) environment."""
    fetch = ctx.engine.fetch
    txn = ctx.txn
    name = plan.table.name
    size = ctx.batch_size
    pairs = iter(index_rids(plan, ctx, env))
    while True:
        chunk = list(itertools.islice(pairs, size))
        if not chunk:
            return
        ctx.stats.rows_scanned += len(chunk)
        yield [fetch(txn, name, rid) for _key, rid in chunk]


def _chunks(stream, ctx: ExecutionContext) -> Iterator[list]:
    """A leaf's interpreter stream as ``ctx.batch_size``-item morsels
    (one tuple→fused boundary crossing)."""
    ctx.stats.fallbacks += 1
    size = ctx.batch_size
    while True:
        chunk = list(itertools.islice(stream, size))
        if not chunk:
            return
        yield chunk


# ---------------------------------------------------------------------------
# Fusability (selection-time structural check)
# ---------------------------------------------------------------------------

_POSTOP_TYPES = (pl.Distinct, pl.LimitOp, pl.TopSort)
_SCAN_TYPES = (pl.TableScan, pl.IndexScan, pl.DerivedScan)
_CHAIN_TYPES = _SCAN_TYPES + (pl.Filter, pl.HashJoin)


def fuse_reason(node: pl.PlanOp, kinds, functions) -> Optional[str]:
    """None when this node can take part in a fused pipeline, otherwise
    why it cannot.  Expressions must be generatable and self-contained:
    every quantifier they reference is bound inside the node's subtree
    (correlated fragments stay on the interpreter)."""
    if getattr(node, "subplans", None):
        return "subquery expressions"
    node_type = type(node)
    if node_type in _SCAN_TYPES:
        # An index scan's probe or range expressions stay closures: they
        # evaluate once per open, against the outer environment.
        exprs = [p.expr for p in node.preds]
        scope = {node.quantifier}
    elif node_type in (pl.Filter, pl.Project, pl.GroupBy, pl.Sort):
        scope = node.children[0].props.quantifiers
        if node_type is pl.Filter:
            exprs = [p.expr for p in node.preds]
        elif node_type is pl.Project:
            exprs = node.exprs
        elif node_type is pl.Sort:
            exprs = [expr for expr, _ascending in node.keys]
        else:
            for agg in node.aggregates:
                if functions.aggregate(agg.name) is None:
                    # The interpreter raises at run time; staying on it
                    # preserves that error exactly.
                    return "unknown aggregate %s" % agg.name
            exprs = list(node.group_exprs) + [
                agg.arg for agg in node.aggregates if agg.arg is not None]
    elif node_type is pl.HashJoin:
        try:
            kind = kinds.get(node.kind, functions)
        except SubqueryError:
            return "unknown join kind %s" % node.kind
        # The probe step implements the binding kinds (regular, and
        # left-outer padding); semijoin and scalar kinds keep the
        # interpreter.
        if not kind.binds_inner or kind.scalar or kind.combine is not None:
            return "join kind %s" % node.kind
        exprs = (list(node.outer_keys) + list(node.inner_keys)
                 + [p.expr for p in node.residual])
        scope = (node.children[0].props.quantifiers
                 | node.children[1].props.quantifiers)
    elif node_type in _POSTOP_TYPES:
        return None
    else:
        return "unsupported operator %s" % node.op_name
    for expr in exprs:
        if not qe.quantifiers_in(expr) <= scope:
            return "correlated expression"
        reason = reject_reason(expr, functions)
        if reason is not None:
            return reason
    return None


# ---------------------------------------------------------------------------
# Region parsing
# ---------------------------------------------------------------------------


def _compiled(node: pl.PlanOp) -> bool:
    return node.exec_backend == "compiled"


def _parse_region(root: pl.PlanOp):
    """Split a region into driver-level post-operators, an optional
    grouped wrap ``(project, access)``, the core, the sink kind
    (``project``, ``groupby`` or ``envs``) and the top of the input
    chain; raises :class:`Unsupported` on any other shape."""
    postops: List[pl.PlanOp] = []
    node = root
    while isinstance(node, _POSTOP_TYPES):
        postops.append(node)
        node = node.children[0]
        if not _compiled(node):
            raise Unsupported("%s over non-fused input"
                              % postops[-1].op_name)
    wrap = None
    if isinstance(node, pl.Project):
        if node.subplans:
            raise Unsupported("subquery expressions")
        child = node.children[0]
        if isinstance(child, pl.DerivedScan) and _compiled(child) \
                and isinstance(child.children[0], pl.GroupBy) \
                and _compiled(child.children[0]):
            # The grouped shape: the head PROJECT (and any HAVING preds
            # on the ACCESS) evaluates per *group*, driver-side.
            wrap = (node, child)
            node = child.children[0]
            sink = "groupby"
        else:
            sink = "project"
        chain = node.children[0]
    elif isinstance(node, (pl.GroupBy, pl.Sort)):
        sink = "groupby" if isinstance(node, pl.GroupBy) else "sort"
        chain = node.children[0]
    elif isinstance(node, _CHAIN_TYPES):
        sink = "envs"
        chain = node
    else:
        raise Unsupported("region root %s is not a pipeline sink"
                          % node.op_name)
    return postops, wrap, node, sink, chain


class _Chain:
    """One pipeline's input chain, in execution order.

    ``kind`` is the source's: ``scan`` (a fused SCAN's records),
    ``iscan`` (a fused ISCAN's fetched rows), ``envs`` (a non-fused
    binding node, pulled from the interpreter) or ``rows`` (an ACCESS
    over a non-fused row node).  ``steps`` are
    ``("filter", node)`` and ``("probe", node)``; ``credits[0]`` lists
    the plan nodes whose output the source stands for and
    ``credits[i + 1]`` those of step ``i`` — the rows a step passes are
    the rows those nodes produce (EXPLAIN ANALYZE).  ``mapping`` folds
    each spine ``ACCESS(PROJECT(...))`` pair away (access quantifier →
    the project's head expressions)."""

    __slots__ = ("kind", "source", "steps", "credits", "mapping")

    def __init__(self, top: pl.PlanOp):
        entries: List[Tuple] = []  # top-down
        self.mapping: Dict[Any, list] = {}
        node = top
        while True:
            if not (_compiled(node) and isinstance(node, _CHAIN_TYPES)):
                # A tuple node, or the root of a region of its own.
                self.kind = "envs"
                break
            if isinstance(node, pl.TableScan):
                self.kind = "scan"
                break
            if isinstance(node, pl.IndexScan):
                self.kind = "iscan"
                break
            if isinstance(node, (pl.Filter, pl.HashJoin)):
                entries.append(("filter" if isinstance(node, pl.Filter)
                                else "probe", node))
                node = node.children[0]
                continue
            if node.preds:
                entries.append(("filter", node))
            inner = node.children[0]
            if not (isinstance(inner, pl.Project) and _compiled(inner)):
                self.kind = "rows"
                break
            self.mapping[node.quantifier] = inner.exprs
            entries.append(("fold", inner) if node.preds
                           else ("fold", inner, node))
            node = inner.children[0]
        self.source = node
        passes = self.kind in ("scan", "iscan") or (self.kind == "rows"
                                                    and not node.preds)
        self.credits: List[List[pl.PlanOp]] = [[node] if passes else []]
        self.steps: List[Tuple[str, pl.PlanOp]] = []
        for entry in reversed(entries):
            if entry[0] == "fold":
                self.credits[-1].extend(entry[1:])
            else:
                self.steps.append(entry)
                self.credits.append([entry[1]])

    @property
    def leaf(self) -> Optional[pl.PlanOp]:
        """The node the driver pulls through the interpreter, if any."""
        if self.kind == "envs":
            return self.source
        if self.kind == "rows":
            return self.source.children[0]
        return None


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


def _tuple_source(items) -> str:
    items = list(items)
    return "(%s%s)" % (", ".join(items), "," if items else "")


def _key_source(items) -> str:
    """A hash key: the bare value of a single column, a tuple otherwise
    (``1 == 1.0 == True`` is one key either way)."""
    items = list(items)
    return items[0] if len(items) == 1 else _tuple_source(items)


def _arity(quantifier) -> int:
    return len(quantifier.input.head.columns)


def _by_uid(quantifiers) -> list:
    return sorted(quantifiers, key=lambda q: q.uid)


# ---------------------------------------------------------------------------
# Program generation
# ---------------------------------------------------------------------------


class _Runtime:
    """Identity-bearing values one generated pipeline needs at run time
    (everything structural is baked into its source)."""

    __slots__ = ("source", "hoisted", "aggs")

    def __init__(self, source, hoisted, aggs):
        #: The chain's source node (a SCAN, a leaf, or a leaf's ACCESS).
        self.source = source
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
        #: What the pipeline reads: a table name, or the leaf's operator.
        self.table = table


class Program:
    """One fused region: build pipelines, the final pipeline, the
    driver-level post-operators, and — for grouped regions — the
    per-group HAVING predicates and head projection (scalar closures;
    they run once per group, not per row)."""

    __slots__ = ("root", "pipelines", "final_kind", "core", "postops",
                 "n_pipelines", "source",
                 "wrap_quantifier", "wrap_preds", "wrap_exprs", "leaves",
                 "counter_nodes", "stages", "functions", "kinds",
                 "needed", "_analyzed")

    def __init__(self, root, emitter, final_kind, core, postops,
                 wrap_quantifier=None, wrap_preds=(), wrap_exprs=None):
        self.root = root
        self.pipelines = emitter.pipelines
        self.final_kind = final_kind
        self.core = core
        self.postops = postops
        self.n_pipelines = len(self.pipelines)
        self.source = "\n\n".join(p.source for p in self.pipelines)
        self.wrap_quantifier = wrap_quantifier
        self.wrap_preds = wrap_preds
        self.wrap_exprs = wrap_exprs
        #: The nodes the driver pulls through the interpreter.
        self.leaves = emitter.leaves
        #: Analyze variant only: the plan nodes each row counter credits,
        #: and the counter of each driver-level stage.
        self.counter_nodes = emitter.counter_nodes
        self.stages: Dict[Any, int] = {}
        self.functions = emitter.functions
        self.kinds = emitter.kinds
        self.needed = emitter.needed
        self._analyzed: Optional[Program] = None

    def analyzed(self) -> "Program":
        """This region with one row counter per step (generated on first
        use: EXPLAIN ANALYZE may run a plan compiled without it)."""
        if self._analyzed is None:
            self._analyzed = _generate(self.root, self.functions,
                                       self.kinds, self.needed,
                                       analyze=True)
        return self._analyzed


def generate_programs(plan: pl.PlanOp, functions, kinds,
                      trace=None) -> int:
    """Generate a :class:`Program` on every compiled region root, top
    down; a root whose region does not parse goes to ``tuple`` and its
    children become region roots.  A region that is a lone
    predicate-free source under a tuple operator also goes to
    ``tuple``: with nothing to evaluate the adapter is pure overhead,
    paid again on every re-open when it is a join inner.  Tuple nodes a
    region pulls from are marked ``fallback=tuple`` for EXPLAIN.
    Returns the total pipeline count."""
    if plan is None:
        return 0
    # Set by the selection pass, unless the parallel glue has since put
    # an Exchange at the root.
    fallbacks = getattr(plan, "codegen_fallbacks", None)
    if fallbacks is None:
        fallbacks = plan.codegen_fallbacks = []
    needed = _NeededColumns(plan)
    total = 0

    def visit(node: pl.PlanOp, parent: str) -> None:
        nonlocal total
        if _compiled(node):
            if parent == "tuple" and _idle(node):
                node.exec_backend = "tuple"
            else:
                try:
                    program = _generate(node, functions, kinds, needed)
                except Unsupported as exc:
                    fallbacks.append((node.op_name, str(exc)))
                    node.exec_backend = "tuple"
                else:
                    node.codegen_program = program
                    total += program.n_pipelines
                    if trace is not None:
                        _trace_program(trace, node, program)
                    for leaf in program.leaves:
                        visit(leaf, "compiled")
                    return
        if parent == "compiled" and not getattr(node, "fallback_mark", None):
            node.fallback_mark = "tuple"
        for child in node.children:
            visit(child, "tuple")
        for binding in getattr(node, "subplans", []):
            visit(binding.plan, "tuple")

    visit(plan, "tuple")
    return total


#: Where the built-in LOLEPOPs live; a plan with any other node type (a
#: DBC-built operator) may read whole rows, so bindings keep them.
_BUILTIN_PLAN_MODULES = (pl.__name__, "repro.optimizer.boxopt")


class _NeededColumns:
    """Per quantifier, the column positions any expression of the plan
    (subquery plans and correlation references included) reads.  A
    region handing bindings to the interpreter decodes and fills only
    those, None elsewhere; when the plan holds a DBC-built operator,
    every binding carries its whole row.  Computed on first use: most
    regions hand over no bindings."""

    def __init__(self, plan: pl.PlanOp):
        self.plan = plan
        self._needed: Optional[Dict[Any, set]] = None
        self._whole = False

    def kept(self, quantifier) -> List[int]:
        if self._needed is None:
            self._collect()
        if self._whole:
            return list(range(_arity(quantifier)))
        return sorted(self._needed.get(quantifier, ()))

    def _collect(self) -> None:
        self._needed = {}
        for node in self.plan.walk():
            if type(node).__module__ not in _BUILTIN_PLAN_MODULES:
                self._whole = True
                return
            for expr, _boolean in plan_expressions(node):
                for ref in qe.walk(expr):
                    if isinstance(ref, qe.ColRef):
                        self._needed.setdefault(ref.quantifier, set()).add(
                            ref.quantifier.input.head.index_of(ref.column))


def _idle(node: pl.PlanOp) -> bool:
    """A predicate-free SCAN, ISCAN or ACCESS that would only turn its
    input into bindings (no project to fold)."""
    if not isinstance(node, _SCAN_TYPES) or node.preds:
        return False
    return not any(isinstance(child, pl.Project) and _compiled(child)
                   for child in node.children)


def _trace_program(trace, node: pl.PlanOp, program: Program) -> None:
    for index, pipe in enumerate(program.pipelines):
        trace.event(
            "codegen.pipeline", region=node.describe(), pipeline=index,
            table=pipe.table,
            role="sink" if pipe is program.pipelines[-1] else "build",
            shared=pipe.shared, source_lines=pipe.source.count("\n") + 1)


def _generate(root: pl.PlanOp, functions, kinds, needed,
              analyze: bool = False) -> Program:
    postops, wrap, core, sink, chain = _parse_region(root)
    if sink == "groupby":
        agg_functions = tuple(
            rowops.aggregate_functions(core.aggregates, functions))
    else:
        agg_functions = ()

    emitter = _Emitter(functions, kinds, needed, analyze, agg_functions)
    emitter.pipeline(chain, sink, core)

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
    program = Program(root, emitter, sink, core, postops, wrap_quantifier,
                      tuple(wrap_preds), wrap_exprs)
    if analyze:
        # Driver-level stages count the rows they pass on, too.
        stages = [(postop, [postop]) for postop in postops]
        if sink == "groupby":
            stages.append((core, [core]))
            if wrap is not None:
                stages.append(("wrap", [wrap[1], wrap[0]]))
        for key, credited in stages:
            program.stages[key] = len(program.counter_nodes)
            program.counter_nodes.append(credited)
    return program


class _Emitter:
    """The pipelines of one region, emitted post-order (builds before
    the pipelines probing them)."""

    def __init__(self, functions, kinds, needed, analyze: bool,
                 agg_functions):
        self.functions = functions
        self.kinds = kinds
        self.needed = needed
        self.analyze = analyze
        self.agg_functions = agg_functions
        self.pipelines: List[_Pipeline] = []
        self.leaves: List[pl.PlanOp] = []
        self.counter_nodes: List[List[pl.PlanOp]] = []

    def pipeline(self, chain_top, sink_kind, sink_node, payload=None,
                 keys=None) -> int:
        """Emit one pipeline (recursively emitting its builds first);
        appends a :class:`_Pipeline` and returns its index."""
        chain = _Chain(chain_top)
        if chain.leaf is not None:
            self.leaves.append(chain.leaf)
        mapping = chain.mapping
        source = chain.source
        kind = chain.kind

        def sub(expr):
            return _subst(expr, mapping)

        # Fold the spine's ACCESS(PROJECT(...)) indirections away up
        # front: every expression the pipeline evaluates is substituted
        # down to the source's and the probes' quantifiers.
        source_preds = ([sub(p.expr) for p in source.preds]
                        if kind in ("scan", "iscan") else [])
        step_exprs = []
        for step_kind, node in chain.steps:
            if step_kind == "filter":
                step_exprs.append([sub(p.expr) for p in node.preds])
            else:
                step_exprs.append((
                    [sub(e) for e in node.outer_keys],
                    [sub(p.expr) for p in node.residual]))
        agg_args: list = []
        whole: List[Any] = []  # quantifiers whose row is output
        if sink_kind == "project":
            sink_exprs = [sub(e) for e in sink_node.exprs]
            chain.credits[-1].append(sink_node)
        elif sink_kind == "groupby":
            sink_exprs = [sub(e) for e in sink_node.group_exprs]
            agg_args = [None if agg.arg is None else sub(agg.arg)
                        for agg in sink_node.aggregates]
        elif sink_kind == "build":
            sink_exprs = [sub(e) for e in keys]
        else:  # envs/sort: every quantifier the leaf's bindings lack
            sink_exprs = ([sub(e) for e, _ascending in sink_node.keys]
                          if sink_kind == "sort" else [])
            own = (source.props.quantifiers if kind == "envs"
                   else frozenset())
            whole = [q for q in _by_uid(sink_node.props.quantifiers)
                     if q not in own]

        # Every (quantifier, position) the pipeline touches — position
        # None for a whole row — in first-encounter order over a fixed
        # structural traversal: the order is part of the structural
        # fingerprint, so it must not depend on object identities.
        refs: Dict[Tuple[Any, Optional[int]], None] = {}
        pruned = False  # the scan's row is rebuilt from kept columns

        def note(expr):
            for node in qe.walk(expr):
                if isinstance(node, qe.ColRef):
                    position = node.quantifier.input.head.index_of(
                        node.column)
                    refs.setdefault((node.quantifier, position))

        def note_ref(ref):
            nonlocal pruned
            quantifier, position = ref
            if position is not None:
                if quantifier in mapping:
                    note(sub(mapping[quantifier][position]))
                else:
                    refs.setdefault(ref)
            elif quantifier in mapping:
                for pos in self.needed.kept(quantifier):
                    note(sub(mapping[quantifier][pos]))
            elif kind == "scan" and quantifier is source.quantifier:
                kept = self.needed.kept(quantifier)
                if len(kept) < _arity(quantifier):
                    pruned = True
                    for pos in kept:
                        refs.setdefault((quantifier, pos))
                else:
                    refs.setdefault(ref)
            else:
                refs.setdefault(ref)

        for expr in source_preds:
            note(expr)
        for (step_kind, _node), exprs in zip(chain.steps, step_exprs):
            for expr in (exprs if step_kind == "filter"
                         else exprs[0] + exprs[1]):
                note(expr)
        for expr in sink_exprs:
            note(expr)
        for expr in agg_args:
            if expr is not None:
                note(expr)
        for ref in payload or ():
            note_ref(ref)
        for quantifier in whole:
            note_ref((quantifier, None))

        gen = ExprGen(lambda q, position: colmap[(q, position)],
                      self.functions)
        colmap: Dict[Tuple[Any, Optional[int]], str] = {}
        head: List[str] = []  # per-row lines ahead of the body
        prologue: List[str] = []
        positions: Tuple[int, ...] = ()
        whole_scan = False
        if kind == "scan":
            quantifier = source.quantifier
            whole_scan = (quantifier, None) in refs
            if whole_scan:
                positions = tuple(range(source.table.arity))
            else:
                positions = tuple(sorted(
                    {pos for (q, pos) in refs if q is quantifier}))
            for pos in positions:
                colmap[(quantifier, pos)] = ("_row[%d]" % pos if whole_scan
                                             else "_x%d" % pos)
            colmap[(quantifier, None)] = "_row"
            if pruned:
                kept = self.needed.kept(quantifier)
                colmap[(quantifier, None)] = _tuple_source(
                    "_x%d" % pos if pos in kept else "None"
                    for pos in range(_arity(quantifier)))
        elif kind in ("iscan", "rows"):
            quantifier = source.quantifier
            for pos in range(_arity(quantifier)):
                colmap[(quantifier, pos)] = "_row[%d]" % pos
            colmap[(quantifier, None)] = "_row"
        else:
            for k, quantifier in enumerate(
                    _by_uid(source.props.quantifiers)):
                hoisted = gen.hoist(quantifier)
                colmap[(quantifier, None)] = "_e[%s]" % hoisted
                used = [pos for (q, pos) in refs
                        if q is quantifier and pos is not None]
                if not used:
                    continue
                # A NULL-padded binding reads as a row of NULLs.
                prologue.append("_N%d = (None,) * %d"
                                % (k, _arity(quantifier)))
                head.append("_l%d = _e[%s]" % (k, hoisted))
                head.append("if _l%d is None: _l%d = _N%d" % (k, k, k))
                for pos in used:
                    colmap[(quantifier, pos)] = "_l%d[%d]" % (k, pos)

        probes = [node for step_kind, node in chain.steps
                  if step_kind == "probe"]
        probe_payloads: List[List[Tuple[Any, Optional[int]]]] = []
        for k, probe in enumerate(probes):
            inner = probe.children[1].props.quantifiers
            pay = [ref for ref in refs if ref[0] in inner]
            for slot, ref in enumerate(pay):
                colmap[ref] = "_r%d[%d]" % (k, slot)
            probe_payloads.append(pay)
        for ref in refs:
            if ref not in colmap:
                raise Unsupported("column %s.%s not produced in this "
                                  "pipeline" % (ref[0].name, ref[1]))

        # Builds first (post-order): their tables must exist before the
        # probe pipeline runs; ``consumes`` records their indices.
        consumes = [
            self.pipeline(probe.children[1], "build", probe,
                          probe_payloads[k], probe.inner_keys)
            for k, probe in enumerate(probes)]

        def ref_value(ref) -> str:
            quantifier, position = ref
            if quantifier not in mapping:
                return colmap[ref]
            exprs = mapping[quantifier]
            if position is None:
                kept = self.needed.kept(quantifier)
                return _tuple_source(
                    gen.value(sub(exprs[pos])) if pos in kept else "None"
                    for pos in range(len(exprs)))
            return gen.value(sub(exprs[position]))

        body: List[Tuple[int, str]] = [(0, line) for line in head]
        indent = 0

        def count(index: int) -> None:
            credited = chain.credits[index]
            if self.analyze and credited:
                body.append((indent, "cn[%d] += 1"
                             % len(self.counter_nodes)))
                self.counter_nodes.append(credited)

        for expr in source_preds:
            body.append((indent, "if not %s: continue" % gen.cond(expr)))
        count(0)
        probe_no = 0
        for index, ((step_kind, node), exprs) in enumerate(
                zip(chain.steps, step_exprs)):
            if step_kind == "filter":
                for expr in exprs:
                    body.append((indent, "if not %s: continue"
                                 % gen.cond(expr)))
                count(index + 1)
                continue
            k = probe_no
            probe_no += 1
            comps = []
            for m, expr in enumerate(exprs[0]):
                name = "_k%d_%d" % (k, m)
                body.append((indent, "%s = %s" % (name, gen.value(expr))))
                comps.append(name)
            key = _key_source(comps)
            null_key = " or ".join("%s is None" % c for c in comps)
            residual = [gen.cond(expr) for expr in exprs[1]]
            join_kind = self.kinds.get(node.kind, self.functions)
            if not join_kind.binds_inner or join_kind.scalar \
                    or join_kind.combine is not None:
                raise Unsupported("join kind %s" % node.kind)
            if join_kind.preserves_outer:
                # Left outer: the candidates surviving the residual, or
                # one all-NULL payload row when none does.
                prologue.append("_P%d = ((None,) * %d,)"
                                % (k, len(probe_payloads[k])))
                lookup = "_c%d = _ht%d(%s, ())" % (k, k, key)
                if comps:
                    body.append((indent, "if %s: _c%d = _P%d"
                                 % (null_key, k, k)))
                    body.append((indent, "else:"))
                    body.append((indent + 1, lookup))
                else:
                    body.append((indent, lookup))
                if residual:
                    body.append((indent, "_c%d = [_r%d for _r%d in _c%d "
                                 "if %s]" % (k, k, k, k,
                                             " and ".join(residual))))
                body.append((indent, "if not _c%d: _c%d = _P%d"
                             % (k, k, k)))
                body.append((indent, "for _r%d in _c%d:" % (k, k)))
                indent += 1
            else:
                if comps:
                    body.append((indent, "if %s: continue" % null_key))
                body.append((indent, "for _r%d in _ht%d(%s, ()):"
                             % (k, k, key)))
                indent += 1
                for cond in residual:
                    body.append((indent, "if not %s: continue" % cond))
            count(index + 1)

        morsel_prologue: List[str] = []
        morsel_epilogue: List[str] = []
        epilogue: List[str] = []
        if sink_kind in ("project", "envs", "sort"):
            morsel_prologue = ["_out = []", "_oapp = _out.append"]
            if sink_kind == "project":
                body.append((indent, "_oapp(%s)" % gen.tuple_of(sink_exprs)))
                morsel_epilogue = ["stats.rows_emitted += len(_out)"]
            else:
                # The binding: the region's environment (or the leaf's,
                # which includes it) plus every row the chain produced.
                base = "_e" if kind == "envs" else "env"
                items = ", ".join(
                    "%s: %s" % (gen.hoist(q), ref_value((q, None)))
                    for q in whole)
                binding = "{**%s, %s}" % (base, items) if items else base
                if sink_kind == "sort":
                    binding = "(%s, %s)" % (gen.tuple_of(sink_exprs),
                                            binding)
                body.append((indent, "_oapp(%s)" % binding))
            morsel_epilogue.append("yield _out")
        elif sink_kind == "build":
            prologue += ["_tab = {}", "_tget = _tab.get"]
            comps = []
            for m, expr in enumerate(sink_exprs):
                name = "_bk%d" % m
                body.append((indent, "%s = %s" % (name, gen.value(expr))))
                comps.append(name)
            if comps:
                body.append((indent, "if %s: continue"
                             % " or ".join("%s is None" % c for c in comps)))
            body.append((indent, "_kt = %s" % _key_source(comps)))
            body.append((indent, "_lst = _tget(_kt)"))
            body.append((indent, "if _lst is None:"))
            body.append((indent + 1, "_lst = []"))
            body.append((indent + 1, "_tab[_kt] = _lst"))
            body.append((indent, "_lst.append(%s)" % _tuple_source(
                ref_value(ref) for ref in payload)))
            epilogue = ["return _tab"]
        else:  # groupby
            epilogue = _emit_aggregation(
                prologue, body, indent, gen, sink_exprs,
                sink_node.aggregates, agg_args, self.agg_functions)

        if kind == "scan":
            loop = _scan_loop(source, positions, whole_scan)
        elif kind == "iscan":
            loop = ["for _rows in index_chunks(rt.source, ctx, env):",
                    "for _row in _rows:"]
        elif kind == "envs":
            loop = ["for _rows in chunks(env_iter(rt.source, ctx, env), "
                    "ctx):", "for _e in _rows:"]
        else:
            loop = ["for _rows in chunks(rows_iter(rt.source.children[0], "
                    "ctx, env), ctx):", "for _row in _rows:"]
        source_text = _assemble(source if kind == "scan" else None,
                                positions, consumes, gen, prologue, loop,
                                morsel_prologue, body, morsel_epilogue,
                                epilogue)
        fn, shared = materialize(source_text, scan_partition=scan_partition,
                                 env_iter=env_iter, rows_iter=rows_iter,
                                 chunks=_chunks, index_chunks=_index_chunks)
        rt = _Runtime(source, tuple(gen.hoisted),
                      self.agg_functions if sink_kind == "groupby" else ())
        table = (source.table.name if kind in ("scan", "iscan")
                 else chain.leaf.op_name)
        self.pipelines.append(_Pipeline(fn, rt, consumes, shared,
                                        source_text, table))
        return len(self.pipelines) - 1


#: Source templates ``(init, step, final)`` of the stock accumulators
#: of :mod:`repro.functions.builtins`, keyed by the exact class (a
#: subclass may override ``step``): ``{0}``/``{1}`` are the aggregate's
#: state slots, ``{v}`` the value stepped.  Each mirrors its class —
#: SUM stays None until its first value, MIN/MAX compare strictly, AVG
#: totals from ``0.0`` and is None over no rows.
_INLINE_AGGREGATES = {
    _Count: (("0",), ("{0} += 1",), "{0}"),
    _Sum: (("None",), ("{0} = {v} if {0} is None else {0} + {v}",), "{0}"),
    _Avg: (("0.0", "0"), ("{0} += {v}", "{1} += 1"),
           "({0} / {1} if {1} else None)"),
    _Min: (("None",), ("if {0} is None or {v} < {0}: {0} = {v}",), "{0}"),
    _Max: (("None",), ("if {0} is None or {v} > {0}: {0} = {v}",), "{0}"),
}


def _emit_aggregation(prologue, body, indent, gen, key_exprs, aggregates,
                      args, functions) -> List[str]:
    """The group-by sink, mirroring the tuple group-by; returns the
    epilogue, which hands back the finished rows (one per group in
    first-seen order, or the single row of an ungrouped aggregation —
    over no input too).  A grouped sink keeps one flat state list per
    group, keyed by the bare value of a single group column; an
    ungrouped one keeps its state in locals.  The stock aggregates step
    inline (:data:`_INLINE_AGGREGATES`); any other — DBC-registered, or
    a builtin name re-registered — keeps its accumulator object in its
    slot and is called through ``step``/``final``.  COUNT(*) steps 1,
    NULL arguments skip unless the function handles them, and DISTINCT
    dedups per (group, aggregate).  Which functions are inlined and the
    handles_null shape are baked into the source, so a registry whose
    functions differ produces a different cache entry."""
    grouped = bool(key_exprs)
    inits: List[str] = []
    finals: List[str] = []
    steps: List[Tuple[Tuple[str, ...], List[str]]] = []
    templates = [_INLINE_AGGREGATES.get(f.factory) for f in functions]
    if None in templates:
        prologue.append("_afs = rt.aggs")
    for i, template in enumerate(templates):
        init, step, final = template or (
            ("_afs[%d].factory()" % i,), ("{0}.step({v})",), "{0}.final()")
        slots = [("_a[%d]" if grouped else "_s%d") % (len(inits) + n)
                 for n in range(len(init))]
        inits.extend(init)
        finals.append(final.format(*slots))
        steps.append((step, slots))
    if grouped:
        prologue += ["_groups = {}", "_gget = _groups.get"]
        if any(agg.distinct for agg in aggregates):
            prologue.append("_dseen = {}")
        key = _key_source(gen.value(expr) for expr in key_exprs)
        if not key.isidentifier():
            body.append((indent, "_kt = %s" % key))
            key = "_kt"
        body.append((indent, "_a = _gget(%s)" % key))
        body.append((indent, "if _a is None:"))
        body.append((indent + 1, "_a = _groups[%s] = [%s]"
                     % (key, ", ".join(inits))))
    else:
        prologue += ["_s%d = %s" % (n, init) for n, init in enumerate(inits)]
    for i, agg in enumerate(aggregates):
        level = indent
        if args[i] is None:
            value = "1"
        else:
            value = gen.value(args[i])
            if not value.isidentifier():
                body.append((level, "_v%d = %s" % (i, value)))
                value = "_v%d" % i
            if not functions[i].handles_null:
                body.append((level, "if %s is not None:" % value))
                level += 1
        if agg.distinct:
            seen = "_sd%d" % i
            if grouped:
                body.append((level, "%s = _dseen.get((%s, %d))"
                             % (seen, key, i)))
                body.append((level, "if %s is None:" % seen))
                body.append((level + 1, "%s = _dseen[(%s, %d)] = set()"
                             % (seen, key, i)))
            else:
                prologue.append("%s = set()" % seen)
            body.append((level, "if %s not in %s:" % (value, seen)))
            body.append((level + 1, "%s.add(%s)" % (seen, value)))
            level += 1
        step, slots = steps[i]
        for line in step:
            body.append((level, line.format(*slots, v=value)))
    if not grouped:
        return ["return [%s]" % _tuple_source(finals)]
    key = "_k" if len(key_exprs) == 1 else "*_k"
    return ["return [%s for _k, _a in _groups.items()]"
            % _tuple_source([key] + finals)]


def _scan_loop(scan: pl.TableScan, positions, whole_scan: bool) -> List[str]:
    """The morsel loop of a fused SCAN: storage-order page spans, their
    records decoded in place in one pass (``combined_decoder``)."""
    lines = [
        "_scan = rt.source",
        "_pr = ctx.morsel_range if _scan is ctx.morsel_scan else None",
        "for _n, _spans in _engine.scan_batches(ctx.txn, %r, "
        "ctx.batch_size, _pr, partition=scan_partition(_scan, ctx, env)):"
        % scan.table.name,
        "    stats.rows_scanned += _n"]
    if positions:
        lines.append("    _rows = _dec(_spans)")
    if whole_scan:
        lines.append("for _row in _rows:")
    elif positions:
        lines.append("for %s%s in _rows:" % (
            ", ".join("_x%d" % p for p in positions),
            "," if len(positions) == 1 else ""))
    else:
        lines.append("for _i in range(_n):")
    return lines


def _assemble(scan, positions, consumes, gen, prologue, loop,
              morsel_prologue, body, morsel_epilogue, epilogue) -> str:
    lines: List[str] = []
    out = lines.append
    out("def _p(ctx, params, rt, tables, env, cn):")
    out("    stats = ctx.stats")
    if scan is not None:
        out("    _engine = ctx.engine")
        out("    _ser = _engine.serializer(%r)" % scan.table.name)
        if positions:
            out("    _dec = _ser.combined_decoder((%s,))"
                % ", ".join(str(p) for p in positions))
    for k in range(len(consumes)):
        out("    _ht%d = tables[%d].get" % (k, k))
    for line in gen.bind_params() + gen.bind_hoisted("rt.hoisted"):
        out("    " + line)
    for line in prologue:
        out("    " + line)
    for line in loop[:-1]:
        out("    " + line)
    for line in morsel_prologue:
        out("        " + line)
    out("        " + loop[-1])
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


def stream_compiled(plan: pl.PlanOp, ctx: ExecutionContext, env,
                    count_fallback: bool = True) -> Iterator[Any]:
    """The output of a region root — rows, or bindings for a chain
    root.  ``rows_iter``/``env_iter`` and the plan-root boundary route
    here."""
    if count_fallback:
        ctx.stats.fallbacks += 1
    if ctx.ops is not None:
        return ctx.ops.iter_stream(plan, _run_program, ctx, env)
    return _run_program(plan, ctx, env)


def _run_program(plan: pl.PlanOp, ctx: ExecutionContext,
                 env) -> Iterator[Any]:
    program = plan.codegen_program
    cn = None
    if ctx.ops is not None:
        program = program.analyzed()
        cn = [0] * len(program.counter_nodes)
    ctx.stats.codegen_pipelines += program.n_pipelines
    rows = _sink_rows(program, ctx, env, cn)
    for node in reversed(program.postops):
        if isinstance(node, pl.Distinct):
            rows = rowops.distinct_rows(rows)
        elif isinstance(node, pl.LimitOp):
            rows = rowops.limit_rows(rows, node.limit)
        else:
            rows = _topsort_rows(node, rows, ctx)
        if cn is not None:
            rows = _tally(rows, cn, program.stages[node])
    if cn is not None:
        rows = _credit(rows, program, ctx.ops, cn)
    return rows


def _sink_rows(program: Program, ctx: ExecutionContext, env,
               cn) -> Iterator[Any]:
    # A generator so the builds run lazily on first pull — the same
    # open-time laziness as the interpreter (LIMIT 0 never builds).
    params = ctx.params
    results: List[Any] = []
    for pipe in program.pipelines[:-1]:
        tables = tuple(results[i] for i in pipe.consumes)
        results.append(pipe.fn(ctx, params, pipe.rt, tables, env, cn))
    final = program.pipelines[-1]
    tables = tuple(results[i] for i in final.consumes)
    if program.final_kind == "groupby":
        # The finished rows: the pipeline's epilogue ran the aggregates'
        # finals.
        rows = final.fn(ctx, params, final.rt, tables, env, cn)
        if cn is not None:
            rows = _tally(rows, cn, program.stages[program.core])
        if program.wrap_exprs is None:
            yield from rows
            return
        # Grouped wrap: HAVING + head projection, once per group.
        quantifier = program.wrap_quantifier
        preds = program.wrap_preds
        exprs = program.wrap_exprs
        for row in rows:
            group_env = {quantifier: row}
            if any(fn(group_env, ctx) is not True for fn in preds):
                continue
            if cn is not None:
                cn[program.stages["wrap"]] += 1
            ctx.stats.rows_emitted += 1
            yield tuple(fn(group_env, ctx) for fn in exprs)
        return
    if program.final_kind == "sort":
        # Keys were generated in the pipeline; the sort itself is the
        # interpreter's (stable, NULLs last).
        keyed = []
        for out in final.fn(ctx, params, final.rt, tables, env, cn):
            keyed.extend(out)
        ctx.stats.sorts += 1
        positions = [(index, ascending) for index, (_expr, ascending)
                     in enumerate(program.core.keys)]
        keyed.sort(key=lambda pair: rowops.null_last_key(pair[0],
                                                         positions))
        for _key, binding in keyed:
            yield binding
        return
    for out in final.fn(ctx, params, final.rt, tables, env, cn):
        yield from out


def _tally(rows, cn: List[int], index: int) -> Iterator[Any]:
    for row in rows:
        cn[index] += 1
        yield row


def _credit(rows, program: Program, ops, cn: List[int]
            ) -> Iterator[Any]:
    """Hand the region's row counters to the nodes' ``op`` spans once it
    is done (the root's own span counts what the region yields)."""
    try:
        yield from rows
    finally:
        for credited, count in zip(program.counter_nodes, cn):
            for node in credited:
                if node is not program.root:
                    ops.credit(node, count)


def _topsort_rows(node: pl.TopSort, rows,
                  ctx: ExecutionContext) -> Iterator[Tuple[Any, ...]]:
    # A generator, so the sort (like the builds) runs on first pull.
    data = list(rows)
    ctx.stats.sorts += 1
    rowops.sort_rows(data, node.positions)
    yield from data
