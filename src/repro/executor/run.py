"""Operator interpreters: lazy streams over plan trees.

Two mutually recursive generators drive execution:

- :func:`env_iter` — binding streams (environments {quantifier: row}),
- :func:`rows_iter` — row streams (plain tuples).

Every produced environment *includes* the base environment it was opened
with, so correlated references into enclosing queries resolve naturally and
nested-loop re-evaluation is just re-opening the inner stream with the
current outer environment.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.executor import rowops
from repro.executor.compiled import (
    Env,
    closure,
    closures,
    kleene_and,
    scalar_subquery_row,
    subquery_rows,
)
from repro.executor.context import ExecutionContext
from repro.executor.kinds import JoinKindRegistry, default_join_kinds
from repro.optimizer import plans as pl

#: Registry used when the context does not carry its own.
_DEFAULT_KINDS = default_join_kinds()


def _kinds(ctx: ExecutionContext) -> JoinKindRegistry:
    return getattr(ctx, "join_kinds", None) or _DEFAULT_KINDS


def execute_plan(plan: pl.PlanOp, ctx: ExecutionContext
                 ) -> Iterator[Tuple[Any, ...]]:
    """Run a complete (row-producing) plan."""
    if plan.exec_backend == "compiled":
        from repro.executor import codegen

        # The plan root always hands rows to the caller, so this
        # adaptation is the contract, not a fallback.
        return codegen.stream_compiled(plan, ctx, {}, count_fallback=False)
    return rows_iter(plan, ctx, {})


# ---------------------------------------------------------------------------
# Row streams
# ---------------------------------------------------------------------------


def rows_iter(plan: pl.PlanOp, ctx: ExecutionContext,
              env: Env) -> Iterator[Tuple[Any, ...]]:
    if plan.exec_backend == "compiled":
        from repro.executor import codegen

        return codegen.stream_compiled(plan, ctx, env)
    handler = _ROW_OPS.get(type(plan))
    if handler is None:
        raise ExecutionError("no interpreter for %s" % plan.op_name)
    if ctx.ops is not None:
        return ctx.ops.iter_stream(plan, handler, ctx, env)
    return handler(plan, ctx, env)


def _run_project(plan: pl.Project, ctx: ExecutionContext,
                 env: Env) -> Iterator[Tuple[Any, ...]]:
    exprs = closures(plan.exprs, ctx.functions, True)
    ctx.bind_subplans(plan.subplans)
    try:
        for binding_env in env_iter(plan.children[0], ctx, env):
            row = tuple([fn(binding_env, ctx) for fn in exprs])
            ctx.stats.rows_emitted += 1
            yield row
    finally:
        ctx.unbind_subplans(plan.subplans)


def _run_distinct(plan: pl.Distinct, ctx: ExecutionContext,
                  env: Env) -> Iterator[Tuple[Any, ...]]:
    return rowops.distinct_rows(rows_iter(plan.children[0], ctx, env))


def _run_limit(plan: pl.LimitOp, ctx: ExecutionContext,
               env: Env) -> Iterator[Tuple[Any, ...]]:
    return rowops.limit_rows(rows_iter(plan.children[0], ctx, env),
                             plan.limit)


def _run_topsort(plan: pl.TopSort, ctx: ExecutionContext,
                 env: Env) -> Iterator[Tuple[Any, ...]]:
    rows = list(rows_iter(plan.children[0], ctx, env))
    ctx.stats.sorts += 1
    rowops.sort_rows(rows, plan.positions)
    return iter(rows)


def _run_setop(plan: pl.SetOpPlan, ctx: ExecutionContext,
               env: Env) -> Iterator[Tuple[Any, ...]]:
    return rowops.setop_rows(
        plan.op, plan.all_rows,
        (rows_iter(child, ctx, env) for child in plan.children))


def _run_groupby(plan: pl.GroupBy, ctx: ExecutionContext,
                 env: Env) -> Iterator[Tuple[Any, ...]]:
    groups: Dict[Tuple, List[Any]] = {}
    distinct_seen: Dict[Tuple[Tuple, int], set] = {}
    aggregates = plan.aggregates
    keys = closures(plan.group_exprs, ctx.functions)
    # COUNT(*) has no argument: it steps on a constant.
    args = [None if agg.arg is None else closure(agg.arg, ctx.functions)
            for agg in aggregates]

    def resolve() -> List[Any]:
        return rowops.aggregate_functions(aggregates, ctx.functions)

    functions: Optional[List[Any]] = None
    for binding_env in env_iter(plan.children[0], ctx, env):
        if functions is None:
            functions = resolve()
        key = tuple([fn(binding_env, ctx) for fn in keys])
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = groups[key] = [f.factory() for f in functions]
        for index, agg in enumerate(aggregates):
            arg = args[index]
            if arg is None:
                value: Any = 1
            else:
                value = arg(binding_env, ctx)
                if value is None and not functions[index].handles_null:
                    continue
            if agg.distinct:
                seen = distinct_seen.setdefault((key, index), set())
                if value in seen:
                    continue
                seen.add(value)
            accumulators[index].step(value)
    yield from rowops.finish_groups(groups, bool(plan.group_exprs), resolve)


def _run_table_function(plan: pl.TableFunctionPlan, ctx: ExecutionContext,
                        env: Env) -> Iterator[Tuple[Any, ...]]:
    function = ctx.functions.table_function(plan.function_name)
    if function is None:
        raise ExecutionError(
            "unknown table function %s" % plan.function_name)
    args = [fn(env, ctx)
            for fn in closures(plan.scalar_args, ctx.functions)]
    inputs = []
    for child, quantifier in zip(plan.children, plan.box.quantifiers):
        head = quantifier.input.head
        inputs.append((head.column_names(),
                       [c.dtype for c in head.columns],
                       list(rows_iter(child, ctx, env))))
    try:
        _names, _types, rows = function.invoke(args, inputs)
    except ExecutionError:
        raise
    except Exception as exc:
        raise ExecutionError(
            "table function %s failed: %s" % (plan.function_name, exc)
        ) from exc
    arity = len(plan.box.head.columns)
    for row in rows:
        row = tuple(row)
        if len(row) != arity:
            raise ExecutionError(
                "table function %s produced a %d-column row, expected %d"
                % (plan.function_name, len(row), arity))
        yield row


def _run_recurse(plan: pl.Recurse, ctx: ExecutionContext,
                 env: Env) -> Iterator[Tuple[Any, ...]]:
    """Fixpoint evaluation with set semantics (guarantees termination)."""
    total = set()
    delta: List[Tuple[Any, ...]] = []
    for base in plan.base_plans:
        for row in rows_iter(base, ctx, env):
            if row not in total:
                total.add(row)
                delta.append(row)
                yield row
    max_iterations = 100_000
    while delta:
        max_iterations -= 1
        if max_iterations <= 0:
            raise ExecutionError(
                "recursive query exceeded the iteration bound")
        ctx.stats.recursion_iterations += 1
        ctx.recursion_deltas[plan.box] = (sorted(total) if plan.naive
                                          else delta)
        produced: List[Tuple[Any, ...]] = []
        for recursive in plan.recursive_plans:
            produced.extend(rows_iter(recursive, ctx, env))
        delta = []
        for row in produced:
            if row not in total:
                total.add(row)
                delta.append(row)
                yield row
    ctx.recursion_deltas.pop(plan.box, None)


def _run_temp_rows(plan: pl.Temp, ctx: ExecutionContext,
                   env: Env) -> Iterator:
    if plan.produces_rows:
        return iter(list(rows_iter(plan.children[0], ctx, env)))
    return iter(list(env_iter(plan.children[0], ctx, env)))


# -- DML ------------------------------------------------------------------------


def _run_insert(plan: pl.InsertPlan, ctx: ExecutionContext,
                env: Env) -> Iterator[Tuple[Any, ...]]:
    if ctx.txn is None:
        raise ExecutionError("DML requires a transaction")
    if plan.literal_rows is not None:
        source_rows = [
            tuple([fn(env, ctx) for fn in closures(row, ctx.functions)])
            for row in plan.literal_rows]
    else:
        source_rows = list(rows_iter(plan.children[0], ctx, env))
    count = 0
    arity = plan.table.arity
    for values in source_rows:
        full: List[Any] = [None] * arity
        for position, value in zip(plan.column_positions, values):
            full[position] = value
        ctx.engine.insert(ctx.txn, plan.table.name, tuple(full))
        count += 1
    ctx.rowcount = count
    return iter(())


def _run_update(plan: pl.UpdatePlan, ctx: ExecutionContext,
                env: Env) -> Iterator[Tuple[Any, ...]]:
    if ctx.txn is None:
        raise ExecutionError("DML requires a transaction")
    quantifier = plan.target_quantifier
    assignments = [
        (plan.table.column_index(name), closure(expr, ctx.functions))
        for name, expr in plan.assignments]
    ctx.bind_subplans(plan.subplans)
    try:
        pending: List[Tuple[Any, Tuple[Any, ...]]] = []
        for binding_env in env_iter(plan.children[0], ctx, env):
            rid = binding_env.get(("rid", quantifier))
            if rid is None:
                raise ExecutionError("UPDATE target has no RID")
            current = binding_env[quantifier]
            new_row = list(current)
            for position, fn in assignments:
                new_row[position] = fn(binding_env, ctx)
            pending.append((rid, tuple(new_row)))
        for rid, new_row in pending:
            ctx.engine.update(ctx.txn, plan.table.name, rid, new_row)
        ctx.rowcount = len(pending)
    finally:
        ctx.unbind_subplans(plan.subplans)
    return iter(())


def _run_delete(plan: pl.DeletePlan, ctx: ExecutionContext,
                env: Env) -> Iterator[Tuple[Any, ...]]:
    if ctx.txn is None:
        raise ExecutionError("DML requires a transaction")
    quantifier = plan.target_quantifier
    pending = []
    for binding_env in env_iter(plan.children[0], ctx, env):
        rid = binding_env.get(("rid", quantifier))
        if rid is None:
            raise ExecutionError("DELETE target has no RID")
        pending.append(rid)
    for rid in pending:
        ctx.engine.delete(ctx.txn, plan.table.name, rid)
    ctx.rowcount = len(pending)
    return iter(())


# ---------------------------------------------------------------------------
# Binding streams
# ---------------------------------------------------------------------------


def env_iter(plan: pl.PlanOp, ctx: ExecutionContext,
             env: Env) -> Iterator[Env]:
    if plan.exec_backend == "compiled":
        from repro.executor import codegen

        # A fused region rooted at a chain hands its bindings over.
        return codegen.stream_compiled(plan, ctx, env)
    handler = _ENV_OPS.get(type(plan))
    if handler is None:
        raise ExecutionError("no binding interpreter for %s" % plan.op_name)
    if ctx.ops is not None:
        return ctx.ops.iter_stream(plan, handler, ctx, env)
    return handler(plan, ctx, env)


def _scan_preds_ok(preds, env: Env, ctx: ExecutionContext) -> bool:
    """Whether every predicate closure in ``preds`` is SQL TRUE."""
    for fn in preds:
        if fn(env, ctx) is not True:
            return False
    return True


def _pruned_partition(plan: pl.TableScan, env: Env,
                      ctx: ExecutionContext) -> Optional[int]:
    """Equality-predicate partition pruning on a sharded table scan.

    ``q.part_col = const`` routes every qualifying row to one shard, so
    the scan can skip the others (row order within the shard equals the
    global scan order restricted to it, so results are byte-identical).
    """
    table = plan.table
    for fn in closures(plan.prune_exprs, ctx.functions):
        try:
            value = fn(env, ctx)
        except Exception:
            continue  # unbound correlation etc. — no pruning
        ctx.stats.partitions_pruned += table.partitions - 1
        return ctx.engine.partition_for(table.name, value)
    return None


def scan_partition(plan: pl.TableScan, ctx: ExecutionContext,
                   env: Env) -> Optional[int]:
    """The one shard a table scan reads under equality pruning, or None
    for all of them.  The tuple and fused scans both open through
    here."""
    if plan.prune_exprs:
        return _pruned_partition(plan, env, ctx)
    return None


def _run_table_scan(plan: pl.TableScan, ctx: ExecutionContext,
                    env: Env) -> Iterator[Env]:
    preds = closures(plan.preds, ctx.functions)
    quantifier = plan.quantifier
    page_range = ctx.morsel_range if plan is ctx.morsel_scan else None
    for rid, row in ctx.engine.scan(ctx.txn, plan.table.name, page_range,
                                    partition=scan_partition(plan, ctx, env)):
        ctx.stats.rows_scanned += 1
        out = dict(env)
        out[quantifier] = row
        out[("rid", quantifier)] = rid
        if _scan_preds_ok(preds, out, ctx):
            yield out


def index_rids(plan: pl.IndexScan, ctx: ExecutionContext, env: Env):
    """Open an index scan: the ``(key, rid)`` stream of its probe or
    range.  The eq/range expressions evaluate once, against the
    (possibly correlated) outer environment."""
    access = ctx.engine.access_method(plan.index.name)
    eq_values = tuple(
        [fn(env, ctx) for fn in closures(plan.eq_exprs, ctx.functions)])
    ctx.stats.index_probes += 1

    if (plan.range_bounds is None
            and len(eq_values) == len(plan.index.column_names)):
        return ((eq_values, rid) for rid in access.probe(eq_values))
    if plan.range_bounds is not None:
        low_expr, low_inc, high_expr, high_inc = plan.range_bounds
        low = list(eq_values)
        high = list(eq_values)
        if low_expr is not None:
            low.append(closure(low_expr, ctx.functions)(env, ctx))
        if high_expr is not None:
            high.append(closure(high_expr, ctx.functions)(env, ctx))
        return access.range_scan(
            tuple(low) if low else None,
            tuple(high) if high else None,
            low_inclusive=low_inc, high_inclusive=high_inc)
    if eq_values:
        return access.range_scan(eq_values, eq_values)
    return access.range_scan(None, None)


def _run_index_scan(plan: pl.IndexScan, ctx: ExecutionContext,
                    env: Env) -> Iterator[Env]:
    preds = closures(plan.preds, ctx.functions)
    quantifier = plan.quantifier
    table_name = plan.table.name
    for _key, rid in index_rids(plan, ctx, env):
        ctx.stats.rows_scanned += 1
        row = ctx.engine.fetch(ctx.txn, table_name, rid)
        out = dict(env)
        out[quantifier] = row
        out[("rid", quantifier)] = rid
        if _scan_preds_ok(preds, out, ctx):
            yield out


def _run_derived_scan(plan: pl.DerivedScan, ctx: ExecutionContext,
                      env: Env) -> Iterator[Env]:
    preds = closures(plan.preds, ctx.functions)
    quantifier = plan.quantifier
    for row in rows_iter(plan.children[0], ctx, env):
        out = dict(env)
        out[quantifier] = row
        if _scan_preds_ok(preds, out, ctx):
            yield out


def _run_delta_scan(plan: pl.DeltaScan, ctx: ExecutionContext,
                    env: Env) -> Iterator[Env]:
    rows = ctx.recursion_deltas.get(plan.box)
    if rows is None:
        raise ExecutionError(
            "DELTA scan outside a recursive fixpoint (%s)"
            % plan.box.label())
    quantifier = plan.quantifier
    for row in rows:
        ctx.stats.rows_scanned += 1
        out = dict(env)
        out[quantifier] = row
        yield out


def _run_singleton(plan, ctx: ExecutionContext, env: Env) -> Iterator[Env]:
    yield dict(env)


def _run_filter(plan, ctx: ExecutionContext, env: Env) -> Iterator[Env]:
    """FILTER, and — with subquery plans in scope — the OR operator:
    predicates over subquery streams, short-circuited."""
    preds = closures(plan.preds, ctx.functions)
    subplans = getattr(plan, "subplans", ())
    ctx.bind_subplans(subplans)
    try:
        for binding_env in env_iter(plan.children[0], ctx, env):
            if _scan_preds_ok(preds, binding_env, ctx):
                yield binding_env
    finally:
        ctx.unbind_subplans(subplans)


def _run_sort(plan: pl.Sort, ctx: ExecutionContext,
              env: Env) -> Iterator[Env]:
    envs = list(env_iter(plan.children[0], ctx, env))
    ctx.stats.sorts += 1

    keys = closures([expr for expr, _asc in plan.keys], ctx.functions)
    positions = [(index, ascending)
                 for index, (_expr, ascending) in enumerate(plan.keys)]

    def key_of(binding_env: Env):
        return rowops.null_last_key(
            [fn(binding_env, ctx) for fn in keys], positions)

    envs.sort(key=key_of)
    return iter(envs)


def _inner_quantifiers(plan: pl.PlanOp) -> List:
    return sorted(plan.props.quantifiers, key=lambda q: q.uid)


def _pad_nulls(env: Env, quantifiers) -> Env:
    out = dict(env)
    for quantifier in quantifiers:
        out[quantifier] = None
    return out


def _run_nl_join(plan: pl.NLJoin, ctx: ExecutionContext,
                 env: Env) -> Iterator[Env]:
    preds = closures(plan.preds, ctx.functions)
    kind = _kinds(ctx).get(plan.kind, ctx.functions)
    outer_plan, inner_plan = plan.children
    inner_cached: Optional[List[Env]] = None
    if isinstance(inner_plan, pl.Temp):
        inner_cached = list(env_iter(inner_plan.children[0], ctx, env))
    inner_pad = _inner_quantifiers(inner_plan)

    for outer_env in env_iter(outer_plan, ctx, env):
        matched = False
        if inner_cached is not None:
            inner_stream: Iterator[Env] = (
                {**outer_env, **cached} for cached in inner_cached)
        else:
            inner_stream = env_iter(inner_plan, ctx, outer_env)
        for merged in inner_stream:
            if _scan_preds_ok(preds, merged, ctx):
                matched = True
                yield merged
        if not matched and kind.preserves_outer:
            yield _pad_nulls(outer_env, inner_pad)


def _join_key(keys, env: Env, ctx: ExecutionContext) -> Optional[Tuple]:
    """The values of the key closures, or None when any is NULL."""
    values = []
    for fn in keys:
        value = fn(env, ctx)
        if value is None:
            return None  # SQL join keys never match on NULL
        values.append(value)
    return tuple(values)


def _run_hash_join(plan: pl.HashJoin, ctx: ExecutionContext,
                   env: Env) -> Iterator[Env]:
    outer_keys = closures(plan.outer_keys, ctx.functions)
    inner_keys = closures(plan.inner_keys, ctx.functions)
    residual = closures(plan.residual, ctx.functions)
    kind = _kinds(ctx).get(plan.kind, ctx.functions)
    outer_plan, inner_plan = plan.children
    table: Dict[Tuple, List[Env]] = {}
    for inner_env in env_iter(inner_plan, ctx, env):
        key = _join_key(inner_keys, inner_env, ctx)
        if key is not None:
            table.setdefault(key, []).append(inner_env)
    inner_pad = _inner_quantifiers(inner_plan)

    for outer_env in env_iter(outer_plan, ctx, env):
        key = _join_key(outer_keys, outer_env, ctx)
        matched = False
        if key is not None:
            for inner_env in table.get(key, ()):
                merged = {**outer_env, **inner_env}
                if _scan_preds_ok(residual, merged, ctx):
                    matched = True
                    yield merged
        if not matched and kind.preserves_outer:
            yield _pad_nulls(outer_env, inner_pad)


def _run_merge_join(plan: pl.MergeJoin, ctx: ExecutionContext,
                    env: Env) -> Iterator[Env]:
    """Merge join over a streamed outer and a (sorted) materialized inner.

    Matching groups are located with binary search on the sorted inner —
    semantically a merge, robust to unsorted-looking duplicates.
    """
    import bisect

    outer_keys = closures(plan.outer_keys, ctx.functions)
    inner_keys = closures(plan.inner_keys, ctx.functions)
    residual = closures(plan.residual, ctx.functions)
    kind = _kinds(ctx).get(plan.kind, ctx.functions)
    outer_plan, inner_plan = plan.children
    inner: List[Tuple[Tuple, Env]] = []
    for inner_env in env_iter(inner_plan, ctx, env):
        key = _join_key(inner_keys, inner_env, ctx)
        if key is not None:
            inner.append((key, inner_env))
    inner.sort(key=lambda pair: pair[0])
    keys_only = [pair[0] for pair in inner]
    inner_pad = _inner_quantifiers(inner_plan)

    for outer_env in env_iter(outer_plan, ctx, env):
        key = _join_key(outer_keys, outer_env, ctx)
        matched = False
        if key is not None:
            start = bisect.bisect_left(keys_only, key)
            index = start
            while index < len(inner) and inner[index][0] == key:
                merged = {**outer_env, **inner[index][1]}
                if _scan_preds_ok(residual, merged, ctx):
                    matched = True
                    yield merged
                index += 1
        if not matched and kind.preserves_outer:
            yield _pad_nulls(outer_env, inner_pad)


def _run_subquery_join(plan: pl.SubqueryJoin, ctx: ExecutionContext,
                       env: Env) -> Iterator[Env]:
    preds = closures(plan.preds, ctx.functions)
    kind = _kinds(ctx).get(plan.kind, ctx.functions)
    binding = plan.binding
    quantifier = binding.quantifier

    for outer_env in env_iter(plan.children[0], ctx, env):
        if kind.scalar:
            out = dict(outer_env)
            out[quantifier] = scalar_subquery_row(binding, outer_env, ctx)
            if _scan_preds_ok(preds, out, ctx):
                yield out
            continue
        if kind.combine is None:
            raise ExecutionError(
                "join kind %s cannot drive a subquery join" % kind.name)
        rows = subquery_rows(binding, outer_env, ctx)

        def outcomes():
            for row in rows:
                inner_env = dict(outer_env)
                inner_env[quantifier] = row
                verdict: Optional[bool] = True
                for fn in preds:
                    verdict = kleene_and(verdict, fn(inner_env, ctx))
                    if verdict is False:
                        break
                yield verdict

        if kind.combine(outcomes()) is True:
            yield outer_env


def _run_temp_env(plan: pl.Temp, ctx: ExecutionContext,
                  env: Env) -> Iterator[Env]:
    return iter(list(env_iter(plan.children[0], ctx, env)))


# ---------------------------------------------------------------------------
# Glue operators: SHIP and the Exchange family
# ---------------------------------------------------------------------------


def _run_exchange_rows(plan, ctx: ExecutionContext,
                       env: Env) -> Iterator[Tuple[Any, ...]]:
    """Run a Gather/MergeGather through the database's parallel runtime:
    morsels fanned out to forked workers.  The runtime degrades to the
    child inline at dop=1 — always byte-identical to the parallel path —
    and records why in ``stats.parallel_reasons``.
    """
    runtime = ctx.parallel
    if runtime is None:
        # No runtime attached (serial serve, EXPLAIN, inside a worker):
        # the child runs inline at dop=1.
        return rows_iter(plan.children[0], ctx, env)
    return runtime.run(plan, ctx, env)


def _run_ship_rows(plan: pl.Ship, ctx: ExecutionContext,
                   env: Env) -> Iterator[Tuple[Any, ...]]:
    """Row-position SHIP: the simulated sites share this process, so
    SHIP (which only reconciles the ``site`` property) runs its child
    in place."""
    return rows_iter(plan.children[0], ctx, env)


def _run_passthrough_env(plan, ctx: ExecutionContext,
                         env: Env) -> Iterator[Env]:
    """Binding-stream SHIP (or a DBC-built binding Exchange): a
    transparent pass-through of its child."""
    return env_iter(plan.children[0], ctx, env)


# ---------------------------------------------------------------------------
# Dispatch tables
# ---------------------------------------------------------------------------

from repro.optimizer.boxopt import _SingletonPlan  # noqa: E402

_ROW_OPS = {
    pl.Project: _run_project,
    pl.Distinct: _run_distinct,
    pl.LimitOp: _run_limit,
    pl.TopSort: _run_topsort,
    pl.SetOpPlan: _run_setop,
    pl.GroupBy: _run_groupby,
    pl.TableFunctionPlan: _run_table_function,
    pl.Recurse: _run_recurse,
    pl.Temp: _run_temp_rows,
    pl.Ship: _run_ship_rows,
    pl.InsertPlan: _run_insert,
    pl.UpdatePlan: _run_update,
    pl.DeletePlan: _run_delete,
    pl.Exchange: _run_exchange_rows,
    pl.Gather: _run_exchange_rows,
    pl.MergeGather: _run_exchange_rows,
}

_ENV_OPS = {
    pl.TableScan: _run_table_scan,
    pl.IndexScan: _run_index_scan,
    pl.DerivedScan: _run_derived_scan,
    pl.DeltaScan: _run_delta_scan,
    pl.Filter: _run_filter,
    pl.QuantifiedFilter: _run_filter,
    pl.Sort: _run_sort,
    pl.NLJoin: _run_nl_join,
    pl.HashJoin: _run_hash_join,
    pl.MergeJoin: _run_merge_join,
    pl.SubqueryJoin: _run_subquery_join,
    pl.Temp: _run_temp_env,
    pl.Ship: _run_passthrough_env,
    pl.Exchange: _run_passthrough_env,
    pl.Gather: _run_passthrough_env,
    pl.MergeGather: _run_passthrough_env,
    _SingletonPlan: _run_singleton,
}


def register_row_operator(plan_class, handler) -> None:
    """DBC extension point: interpreter for a new row-producing LOLEPOP."""
    _ROW_OPS[plan_class] = handler


def register_env_operator(plan_class, handler) -> None:
    """DBC extension point: interpreter for a new binding-stream LOLEPOP."""
    _ENV_OPS[plan_class] = handler
