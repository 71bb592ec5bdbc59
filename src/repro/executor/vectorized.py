"""Batch-at-a-time (vectorized) execution engine.

Section 7's algebraic QEP interface "can also serve as the input
specification to a component that compiles QEPs into iterative programs
[FREY86]".  Instead of the stream interpreter's one-environment-per-row
dispatch, operators here move **batches** of rows and evaluate each
node's expressions over a whole batch in one generated comprehension
(the source comes from :mod:`repro.executor.exprgen`, the generator the
fused-pipeline backend uses too).

Two batch containers mirror the interpreter's two stream flavours:

- :class:`EnvBatch` — a *binding* batch: columns keyed by
  ``(quantifier, position)`` (plus ``("rid", q)`` and an optional
  ``("present", q)`` mask for NULL-padded outer-join rows) and a
  selection vector,
- :class:`RowBatch` — a *row* batch: a list of output tuples.

Columns may be lazy (thunks): a table scan registers one decode thunk per
column, so only the columns an expression actually touches are ever
deserialized (column pruning — the main source of the scan speedup).

**Fallback boundaries.**  Not every LOLEPOP has a batch form (on-demand
E/A/S subqueries, lateral-correlated setformers, DBC join kinds,
recursion, DML); :func:`batch_reason` is the structural check the
selection pass asks.  Adapters convert between batch and tuple streams
at every boundary, so an unsupported fragment falls back **per subtree,
never per query**.  ``ctx.stats.batches`` counts produced batches and
``ctx.stats.fallbacks`` counts boundary crossings, so EXPLAIN-style
inspection and benchmarks can show what actually ran.

**Error equivalence.**  A generated function evaluates row by row in the
scalar closures' order — a node's predicates left to right, stopping at
the first that is not True, and head expressions only on surviving rows
— so the first error a batch raises is the one the tuple backend would
raise for that batch.  Blocking row operators are the shared ones in
:mod:`repro.executor.rowops`.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ExecutionError, SubqueryError
from repro.executor import rowops
from repro.executor.context import ExecutionContext
from repro.executor.compiled import Env, scalar_subquery_row
from repro.executor.exprgen import ExprGen, materialize, reject_reason
from repro.executor.run import (
    _inner_quantifiers,
    _kinds,
    env_iter,
    index_rids,
    rows_iter,
    scan_partition,
)
from repro.optimizer import plans as pl
from repro.qgm import expressions as qe


# ---------------------------------------------------------------------------
# Batch containers
# ---------------------------------------------------------------------------


class EnvBatch:
    """A batch of binding-stream rows, stored column-wise.

    ``cols``/``lazy`` map keys to full-length (physical) columns:

    - ``(quantifier, position)`` — one column of one iterator's rows,
    - ``("rid", quantifier)`` — record ids (table/index scans),
    - ``("present", quantifier)`` — False where an outer join padded the
      quantifier's row with NULLs (absent = all rows present).

    ``sel`` is the selection vector: the physical row indices that are
    logically alive, in order (None = all of ``range(n)``).  Filters
    narrow ``sel`` instead of copying columns.
    """

    __slots__ = ("n", "sel", "cols", "lazy", "arity")

    def __init__(self, n: int, arity: Optional[Dict] = None):
        self.n = n
        self.sel: Optional[List[int]] = None
        self.cols: Dict[Any, Any] = {}
        self.lazy: Dict[Any, Any] = {}
        #: quantifier -> number of columns in its rows.
        self.arity: Dict[Any, int] = dict(arity) if arity else {}

    def column(self, key):
        """The full-length column under ``key``, decoded on first use
        (the generated functions' accessor)."""
        col = self.cols.get(key)
        if col is None:
            thunk = self.lazy.pop(key, None)
            if thunk is None:
                raise ExecutionError("batch has no column %r" % (key,))
            col = thunk()
            self.cols[key] = col
        return col

    def has(self, key) -> bool:
        return key in self.cols or key in self.lazy

    def keys(self):
        out = set(self.cols)
        out.update(self.lazy)
        return out

    def indices(self) -> List[int]:
        return self.sel if self.sel is not None else list(range(self.n))

    def take(self, indices: List[int]) -> "EnvBatch":
        """A new batch gathering the given physical rows (lazily)."""
        out = EnvBatch(len(indices), self.arity)
        for key in self.keys():
            out.lazy[key] = _gather_thunk(self, key, indices)
        return out

    def compact(self) -> "EnvBatch":
        if self.sel is None:
            return self
        return self.take(self.sel)

    def envs(self, base_env: Env) -> Iterator[Env]:
        """Reconstruct tuple-interpreter environments (the batch → tuple
        adapter).  Padded rows come back as ``env[q] = None`` exactly as
        ``_pad_nulls`` produces them."""
        per_quantifier = []
        for quantifier in sorted(self.arity, key=lambda q: q.uid):
            cols = [self.column((quantifier, position))
                    for position in range(self.arity[quantifier])]
            present = (self.column(("present", quantifier))
                       if self.has(("present", quantifier)) else None)
            rid = (self.column(("rid", quantifier))
                   if self.has(("rid", quantifier)) else None)
            per_quantifier.append((quantifier, cols, present, rid))
        for i in self.indices():
            env = dict(base_env)
            for quantifier, cols, present, rid in per_quantifier:
                if present is not None and not present[i]:
                    env[quantifier] = None
                else:
                    env[quantifier] = tuple(col[i] for col in cols)
                if rid is not None and rid[i] is not None:
                    env[("rid", quantifier)] = rid[i]
            yield env


class RowBatch:
    """A batch of plain output rows."""

    __slots__ = ("rows", "n")
    #: Row batches carry no selection vector (the profiler reads it).
    sel = None

    def __init__(self, rows: List[Tuple[Any, ...]]):
        self.rows = rows
        self.n = len(rows)


def _gather_thunk(batch: EnvBatch, key, indices: List[int]):
    def thunk():
        col = batch.column(key)
        return [col[i] for i in indices]
    return thunk


def _pad_gather_thunk(batch: EnvBatch, key, indices: List[int]):
    """Like :func:`_gather_thunk` but index -1 yields None (outer-join
    padding)."""
    def thunk():
        col = batch.column(key)
        return [col[i] if i >= 0 else None for i in indices]
    return thunk


class _RecordSource:
    """Shared lazy decode state for one scan batch: per-column decoding
    with one NULL-bitmap screening pass (and at most one whole-row decode
    when a column has no static offset)."""

    __slots__ = ("records", "serializer", "_dirty", "_rows")

    def __init__(self, records, serializer):
        self.records = records
        self.serializer = serializer
        self._dirty: Optional[List[int]] = None
        self._rows: Optional[List[Tuple[Any, ...]]] = None

    def column(self, position: int) -> List[Any]:
        serializer = self.serializer
        decoder = serializer.column_decoder(position)
        if decoder is None:
            if self._rows is None:
                deserialize = serializer.deserialize
                self._rows = [deserialize(rec) for rec in self.records]
            return [row[position] for row in self._rows]
        col = decoder(self.records)
        if self._dirty is None:
            self._dirty = serializer.null_rows(self.records)
        if self._dirty:
            byte, bit = position // 8, 1 << (position % 8)
            records = self.records
            for i in self._dirty:
                if records[i][byte] & bit:
                    col[i] = None
        return col


def _source_thunk(source: _RecordSource, position: int):
    return lambda: source.column(position)


# ---------------------------------------------------------------------------
# Predicate application
# ---------------------------------------------------------------------------


def _narrow(batch: EnvBatch, select, params) -> bool:
    """Narrow the batch's selection vector to the rows passing a node's
    generated predicate function; False when no row survives."""
    if select is not None:
        sel = select(batch, batch.indices(), params)
        if not sel:
            return False
        batch.sel = sel
    return True


# ---------------------------------------------------------------------------
# Stream adapters (the fallback boundaries)
# ---------------------------------------------------------------------------


def _chunked(rows, size: int) -> Iterator[RowBatch]:
    rows = iter(rows)
    while True:
        chunk = list(itertools.islice(rows, size))
        if not chunk:
            return
        yield RowBatch(chunk)


def _env_batches(plan: pl.PlanOp, ctx: ExecutionContext,
                 env: Env) -> Iterator[EnvBatch]:
    """Binding batches of a child plan: native when the child is
    batch-marked, otherwise adapted from the tuple interpreter (counted
    as a fallback)."""
    if plan.exec_backend == "batch":
        handler = _BATCH_ENV_OPS[type(plan)]
        stream = handler(plan, ctx, env)
        if ctx.profile is not None:
            stream = ctx.profile.iter_batches(plan, stream)
        for batch in stream:
            ctx.stats.batches += 1
            yield batch
        return
    ctx.stats.fallbacks += 1
    quantifiers = sorted(plan.props.quantifiers, key=lambda q: q.uid)
    stream = env_iter(plan, ctx, env)
    batch_size = ctx.batch_size
    while True:
        chunk = list(itertools.islice(stream, batch_size))
        if not chunk:
            return
        ctx.stats.batches += 1
        yield _envs_to_batch(chunk, quantifiers)


def _envs_to_batch(chunk: List[Env], quantifiers) -> EnvBatch:
    batch = EnvBatch(len(chunk))
    for quantifier in quantifiers:
        arity = len(quantifier.input.head.columns)
        batch.arity[quantifier] = arity
        rows = [env[quantifier] for env in chunk]
        if any(row is None for row in rows):
            batch.cols[("present", quantifier)] = [
                row is not None for row in rows]
            for position in range(arity):
                batch.cols[(quantifier, position)] = [
                    None if row is None else row[position] for row in rows]
        else:
            cols = list(zip(*rows)) if rows else []
            for position in range(arity):
                batch.cols[(quantifier, position)] = cols[position]
        rid_key = ("rid", quantifier)
        if any(rid_key in env for env in chunk):
            batch.cols[rid_key] = [env.get(rid_key) for env in chunk]
    return batch


def _row_batches(plan: pl.PlanOp, ctx: ExecutionContext,
                 env: Env) -> Iterator[RowBatch]:
    """Row batches of a child plan; adapts tuple children like
    :func:`_env_batches`."""
    if plan.exec_backend == "batch":
        handler = _BATCH_ROW_OPS[type(plan)]
        stream = handler(plan, ctx, env)
        if ctx.profile is not None:
            stream = ctx.profile.iter_batches(plan, stream)
    else:
        ctx.stats.fallbacks += 1
        stream = _chunked(rows_iter(plan, ctx, env), ctx.batch_size)
    for batch in stream:
        ctx.stats.batches += 1
        yield batch


def _child_rows(plan: pl.PlanOp, ctx: ExecutionContext,
                env: Env) -> Iterator[Tuple[Any, ...]]:
    """The rows of a child's batches, flattened (what the shared blocking
    row operators consume)."""
    for batch in _row_batches(plan, ctx, env):
        yield from batch.rows


def envs_from_batches(plan: pl.PlanOp, ctx: ExecutionContext, env: Env,
                      count_fallback: bool = True) -> Iterator[Env]:
    """Tuple-side adapter: a batch-marked binding subtree consumed by a
    tuple parent (``env_iter`` routes here)."""
    if count_fallback:
        ctx.stats.fallbacks += 1
    handler = _BATCH_ENV_OPS[type(plan)]
    stream = handler(plan, ctx, env)
    if ctx.profile is not None:
        stream = ctx.profile.iter_batches(plan, stream)
    for batch in stream:
        ctx.stats.batches += 1
        yield from batch.envs(env)


def rows_from_batches(plan: pl.PlanOp, ctx: ExecutionContext, env: Env,
                      count_fallback: bool = True
                      ) -> Iterator[Tuple[Any, ...]]:
    """Tuple-side adapter: a batch-marked row subtree consumed by a tuple
    parent (``rows_iter`` routes here; also the plan-root boundary)."""
    if count_fallback:
        ctx.stats.fallbacks += 1
    handler = _BATCH_ROW_OPS[type(plan)]
    stream = handler(plan, ctx, env)
    if ctx.profile is not None:
        stream = ctx.profile.iter_batches(plan, stream)
    for batch in stream:
        ctx.stats.batches += 1
        yield from batch.rows


# ---------------------------------------------------------------------------
# Batch operators — binding streams
# ---------------------------------------------------------------------------


def _b_table_scan(plan: pl.TableScan, ctx: ExecutionContext,
                  env: Env) -> Iterator[EnvBatch]:
    quantifier = plan.quantifier
    table_name = plan.table.name
    serializer = ctx.engine.serializer(table_name)
    arity = {quantifier: plan.table.arity}
    select = plan.batch_preds
    params = ctx.params
    page_range = ctx.morsel_range if plan is ctx.morsel_scan else None
    for make_rids, records in ctx.engine.scan_batches(
            ctx.txn, table_name, ctx.batch_size, page_range,
            partition=scan_partition(plan, ctx, env)):
        n = len(records)
        ctx.stats.rows_scanned += n
        source = _RecordSource(records, serializer)
        batch = EnvBatch(n, arity)
        for position in range(plan.table.arity):
            batch.lazy[(quantifier, position)] = _source_thunk(
                source, position)
        batch.lazy[("rid", quantifier)] = make_rids
        if _narrow(batch, select, params):
            yield batch


def _b_index_scan(plan: pl.IndexScan, ctx: ExecutionContext,
                  env: Env) -> Iterator[EnvBatch]:
    quantifier = plan.quantifier
    table_name = plan.table.name
    arity = {quantifier: plan.table.arity}
    select = plan.batch_preds
    params = ctx.params
    rid_stream = iter(index_rids(plan, ctx, env))
    while True:
        pairs = list(itertools.islice(rid_stream, ctx.batch_size))
        if not pairs:
            return
        ctx.stats.rows_scanned += len(pairs)
        rows = [ctx.engine.fetch(ctx.txn, table_name, rid)
                for _key, rid in pairs]
        batch = EnvBatch(len(rows), arity)
        cols = list(zip(*rows))
        for position in range(plan.table.arity):
            batch.cols[(quantifier, position)] = cols[position]
        batch.cols[("rid", quantifier)] = [rid for _key, rid in pairs]
        if _narrow(batch, select, params):
            yield batch


def _b_derived_scan(plan: pl.DerivedScan, ctx: ExecutionContext,
                    env: Env) -> Iterator[EnvBatch]:
    quantifier = plan.quantifier
    arity = {quantifier: len(quantifier.input.head.columns)}
    select = plan.batch_preds
    params = ctx.params
    for rbatch in _row_batches(plan.children[0], ctx, env):
        if not rbatch.n:
            continue
        batch = EnvBatch(rbatch.n, arity)
        for position, col in enumerate(zip(*rbatch.rows)):
            batch.cols[(quantifier, position)] = col
        if _narrow(batch, select, params):
            yield batch


def _b_filter(plan: pl.Filter, ctx: ExecutionContext,
              env: Env) -> Iterator[EnvBatch]:
    select = plan.batch_preds
    params = ctx.params
    for batch in _env_batches(plan.children[0], ctx, env):
        if _narrow(batch, select, params):
            yield batch


def _b_sort(plan: pl.Sort, ctx: ExecutionContext,
            env: Env) -> Iterator[EnvBatch]:
    batches = list(_env_batches(plan.children[0], ctx, env))
    ctx.stats.sorts += 1
    if not batches:
        return
    whole = _concat_env(batches)
    idx = whole.indices()
    keys = plan.batch_keys(whole, idx, ctx.params)
    positions = [(index, ascending)
                 for index, (_expr, ascending) in enumerate(plan.keys)]
    order = sorted(range(len(idx)),
                   key=lambda p: rowops.null_last_key(keys[p], positions))
    whole.sel = [idx[p] for p in order]
    yield whole


def _concat_env(batches: List[EnvBatch]) -> EnvBatch:
    """One compacted batch holding every row of ``batches`` in order."""
    compacted = [batch.compact() for batch in batches]
    if len(compacted) == 1:
        return compacted[0]
    keys = set()
    arity: Dict[Any, int] = {}
    for batch in compacted:
        keys.update(batch.keys())
        arity.update(batch.arity)
    out = EnvBatch(sum(batch.n for batch in compacted), arity)
    for key in keys:
        # A key can be missing from some batches (rid columns on padded
        # chunks, present masks on pad-free chunks): fill the identity.
        fill = True if key[0] == "present" else None
        out.lazy[key] = _concat_thunk(compacted, key, fill)
    return out


def _concat_thunk(batches: List[EnvBatch], key, fill):
    def thunk():
        col: List[Any] = []
        for batch in batches:
            if batch.has(key):
                col.extend(batch.column(key))
            else:
                col.extend([fill] * batch.n)
        return col
    return thunk


def _empty_inner(inner_pad) -> EnvBatch:
    """Zero-row inner with every value column materialized, so the join
    tail can still NULL-pad preserved outer rows against it."""
    arity = _quantifier_arity(inner_pad)
    batch = EnvBatch(0, arity)
    for quantifier, width in arity.items():
        for position in range(width):
            batch.cols[(quantifier, position)] = []
    return batch


def _b_hash_join(plan: pl.HashJoin, ctx: ExecutionContext,
                 env: Env) -> Iterator[EnvBatch]:
    kind = _kinds(ctx).get(plan.kind, ctx.functions)
    outer_plan, inner_plan = plan.children
    params = ctx.params
    preserves_outer = kind.preserves_outer
    inner_pad = _inner_quantifiers(inner_plan)

    # Build: materialize + compact the inner, hash its key columns.
    inner_batches = list(_env_batches(inner_plan, ctx, env))
    inner = (_concat_env(inner_batches) if inner_batches
             else _empty_inner(inner_pad))
    build_idx = inner.indices()
    table: Dict[Tuple, List[int]] = {}
    if build_idx:
        keys = plan.batch_inner_keys(inner, build_idx, params)
        for key, bi in zip(keys, build_idx):
            if None not in key:  # SQL join keys never match on NULL
                table.setdefault(key, []).append(bi)
    inner_keys = inner.keys()
    residual = plan.batch_residual

    for obatch in _env_batches(outer_plan, ctx, env):
        oidx = obatch.indices()
        if not oidx:
            continue
        okeys = plan.batch_outer_keys(obatch, oidx, params)
        pairs_outer: List[int] = []
        pairs_inner: List[int] = []
        bounds: List[Tuple[int, int]] = []
        for key, oi in zip(okeys, oidx):
            start = len(pairs_outer)
            if None not in key:
                for j in table.get(key, ()):
                    pairs_outer.append(oi)
                    pairs_inner.append(j)
            bounds.append((start, len(pairs_outer)))

        result = _emit_pairs(obatch, oidx, inner, inner_keys, inner_pad,
                             pairs_outer, pairs_inner, bounds, residual,
                             preserves_outer, params)
        if result is not None:
            yield result


def _emit_pairs(obatch: EnvBatch, oidx: List[int], inner: EnvBatch,
                inner_keys, inner_pad, pairs_outer: List[int],
                pairs_inner: List[int], bounds: List[Tuple[int, int]],
                residual, preserves_outer: bool,
                params) -> Optional[EnvBatch]:
    """Shared join tail: residual predicates narrow the candidate pairs,
    survivors interleave with NULL padding in outer-row order."""
    arity = dict(obatch.arity)
    arity.update(inner.arity)
    if residual and pairs_outer:
        merged = EnvBatch(len(pairs_outer), arity)
        for key in obatch.keys():
            merged.lazy[key] = _gather_thunk(obatch, key, pairs_outer)
        for key in inner_keys:
            merged.lazy[key] = _gather_thunk(inner, key, pairs_inner)
        surviving = residual(merged, merged.indices(), params)
    else:
        surviving = list(range(len(pairs_outer)))

    out_outer: List[int] = []
    out_inner: List[int] = []  # -1 = NULL-padded inner row
    any_pad = False
    si = 0
    total = len(surviving)
    for p, oi in enumerate(oidx):
        _start, end = bounds[p]
        matched = False
        while si < total and surviving[si] < end:
            out_outer.append(oi)
            out_inner.append(pairs_inner[surviving[si]])
            matched = True
            si += 1
        if not matched and preserves_outer:
            out_outer.append(oi)
            out_inner.append(-1)
            any_pad = True
    if not out_outer:
        return None

    result = EnvBatch(len(out_outer), arity)
    for key in obatch.keys():
        result.lazy[key] = _gather_thunk(obatch, key, out_outer)
    for key in inner_keys:
        result.lazy[key] = _pad_gather_thunk(inner, key, out_inner)
    if any_pad:
        for quantifier in inner_pad:
            present_key = ("present", quantifier)
            if inner.has(present_key):
                base = inner.column(present_key)
                col = [j >= 0 and bool(base[j]) for j in out_inner]
            else:
                col = [j >= 0 for j in out_inner]
            result.lazy.pop(present_key, None)
            result.cols[present_key] = col
    return result


def _b_nl_join(plan: pl.NLJoin, ctx: ExecutionContext,
               env: Env) -> Iterator[EnvBatch]:
    """Batch nested-loop join over a Temp-materialized (uncorrelated)
    inner: the cross product of each outer batch with the cached inner,
    narrowed by the join predicates.  Lateral inners (re-opened with
    outer bindings per row) stay on the tuple interpreter."""
    kind = _kinds(ctx).get(plan.kind, ctx.functions)
    outer_plan, inner_plan = plan.children
    params = ctx.params
    preserves_outer = kind.preserves_outer
    inner_pad = _inner_quantifiers(inner_plan)

    inner_batches = list(_env_batches(inner_plan, ctx, env))
    inner = (_concat_env(inner_batches) if inner_batches
             else _empty_inner(inner_pad))
    iidx = inner.indices()
    n_inner = len(iidx)
    inner_keys = inner.keys()
    preds = plan.batch_preds

    for obatch in _env_batches(outer_plan, ctx, env):
        oidx = obatch.indices()
        if not oidx:
            continue
        pairs_outer: List[int] = []
        pairs_inner: List[int] = []
        bounds: List[Tuple[int, int]] = []
        for oi in oidx:
            start = len(pairs_outer)
            pairs_outer.extend([oi] * n_inner)
            pairs_inner.extend(iidx)
            bounds.append((start, len(pairs_outer)))
        result = _emit_pairs(obatch, oidx, inner, inner_keys, inner_pad,
                             pairs_outer, pairs_inner, bounds, preds,
                             preserves_outer, params)
        if result is not None:
            yield result


def _b_merge_join(plan: pl.MergeJoin, ctx: ExecutionContext,
                  env: Env) -> Iterator[EnvBatch]:
    """Batch merge join: the inner materializes once and sorts by key;
    each outer row's matching group is located by binary search (the
    same semantic merge as the interpreter, so duplicate groups come
    back in identical order)."""
    kind = _kinds(ctx).get(plan.kind, ctx.functions)
    outer_plan, inner_plan = plan.children
    params = ctx.params
    preserves_outer = kind.preserves_outer
    inner_pad = _inner_quantifiers(inner_plan)

    inner_batches = list(_env_batches(inner_plan, ctx, env))
    inner = (_concat_env(inner_batches) if inner_batches
             else _empty_inner(inner_pad))
    build_idx = inner.indices()
    sorted_pairs: List[Tuple[Tuple, int]] = []
    if build_idx:
        keys = plan.batch_inner_keys(inner, build_idx, params)
        # SQL join keys never match on NULL.
        sorted_pairs = [pair for pair in zip(keys, build_idx)
                        if None not in pair[0]]
        sorted_pairs.sort(key=lambda pair: pair[0])
    keys_only = [pair[0] for pair in sorted_pairs]
    inner_keys = inner.keys()
    residual = plan.batch_residual

    for obatch in _env_batches(outer_plan, ctx, env):
        oidx = obatch.indices()
        if not oidx:
            continue
        okeys = plan.batch_outer_keys(obatch, oidx, params)
        pairs_outer: List[int] = []
        pairs_inner: List[int] = []
        bounds: List[Tuple[int, int]] = []
        for key, oi in zip(okeys, oidx):
            start = len(pairs_outer)
            if None not in key:
                index = bisect.bisect_left(keys_only, key)
                while index < len(sorted_pairs) \
                        and sorted_pairs[index][0] == key:
                    pairs_outer.append(oi)
                    pairs_inner.append(sorted_pairs[index][1])
                    index += 1
            bounds.append((start, len(pairs_outer)))
        result = _emit_pairs(obatch, oidx, inner, inner_keys, inner_pad,
                             pairs_outer, pairs_inner, bounds, residual,
                             preserves_outer, params)
        if result is not None:
            yield result


def _b_temp(plan: pl.Temp, ctx: ExecutionContext,
            env: Env) -> Iterator[EnvBatch]:
    """TEMP passes batches through; batch parents that replay (the NL
    join) materialize the stream themselves."""
    yield from _env_batches(plan.children[0], ctx, env)


def _quantifier_arity(quantifiers) -> Dict[Any, int]:
    return {q: len(q.input.head.columns) for q in quantifiers}


# ---------------------------------------------------------------------------
# Batch operators — row streams
# ---------------------------------------------------------------------------


class _PendingSubquery:
    """Placeholder in an uncorrelated scalar subquery's result cell.

    ``_b_project`` seeds each cell with one of these at stream open; the
    first generated expression that actually reads the cell swaps it for
    the subquery's single row (or None when it returns no rows).
    Keeping the fill inside the *read* preserves the tuple evaluator's
    evaluate-on-demand laziness: a subquery behind a short-circuited
    operand (``FALSE AND (SELECT ...)``) is never run, so an error it
    would raise — a multi-row result, a division by zero inside it —
    stays masked exactly as on the scalar path.
    """

    __slots__ = ("binding", "ctx", "env")

    def __init__(self, binding, ctx: ExecutionContext, env: Env):
        self.binding = binding
        self.ctx = ctx
        self.env = env

    def fill(self) -> Optional[Tuple[Any, ...]]:
        return scalar_subquery_row(self.binding, self.env, self.ctx)


def _cell_reader(cell: List[Any], position: int):
    """The column-map entry of a scalar subquery reference: reads (and
    on first use fills) the quantifier's result cell."""
    def read():
        row = cell[0]
        if type(row) is _PendingSubquery:
            row = cell[0] = row.fill()
        return None if row is None else row[position]
    return read


def _b_project(plan: pl.Project, ctx: ExecutionContext,
               env: Env) -> Iterator[RowBatch]:
    params = ctx.params
    head = plan.batch_exprs
    # Uncorrelated scalar subqueries: bind for the evaluator, seed each
    # result cell lazily, and clear on close so a cached plan's next
    # execution re-evaluates against its own context.
    cells = getattr(plan, "batch_subquery_cells", ())
    ctx.bind_subplans(plan.subplans)
    try:
        for binding, cell in cells:
            cell[0] = _PendingSubquery(binding, ctx, env)
        for batch in _env_batches(plan.children[0], ctx, env):
            idx = batch.indices()
            if not idx:
                continue
            rows = head(batch, idx, params)
            ctx.stats.rows_emitted += len(rows)
            yield RowBatch(rows)
    finally:
        ctx.unbind_subplans(plan.subplans)
        for _binding, cell in cells:
            cell[0] = None


def _b_distinct(plan: pl.Distinct, ctx: ExecutionContext,
                env: Env) -> Iterator[RowBatch]:
    return _chunked(
        rowops.distinct_rows(_child_rows(plan.children[0], ctx, env)),
        ctx.batch_size)


def _b_limit(plan: pl.LimitOp, ctx: ExecutionContext,
             env: Env) -> Iterator[RowBatch]:
    remaining = plan.limit
    if remaining <= 0:
        return
    for rbatch in _row_batches(plan.children[0], ctx, env):
        if rbatch.n >= remaining:
            yield RowBatch(rbatch.rows[:remaining])
            return
        remaining -= rbatch.n
        yield rbatch


def _b_topsort(plan: pl.TopSort, ctx: ExecutionContext,
               env: Env) -> Iterator[RowBatch]:
    rows = list(_child_rows(plan.children[0], ctx, env))
    ctx.stats.sorts += 1
    rowops.sort_rows(rows, plan.positions)
    if rows:
        yield RowBatch(rows)


def _b_setop(plan: pl.SetOpPlan, ctx: ExecutionContext,
             env: Env) -> Iterator[RowBatch]:
    return _chunked(
        rowops.setop_rows(plan.op, plan.all_rows,
                          (_child_rows(child, ctx, env)
                           for child in plan.children)),
        ctx.batch_size)


def _b_groupby(plan: pl.GroupBy, ctx: ExecutionContext,
               env: Env) -> Iterator[RowBatch]:
    params = ctx.params
    groups: Dict[Tuple, List[Any]] = {}
    distinct_seen: Dict[Tuple[Tuple, int], set] = {}
    aggregates = plan.aggregates

    def resolve() -> List[Any]:
        return rowops.aggregate_functions(aggregates, ctx.functions)

    functions: Optional[List[Any]] = None
    for batch in _env_batches(plan.children[0], ctx, env):
        idx = batch.indices()
        if not idx:
            continue
        if functions is None:
            functions = resolve()
        keys = plan.batch_group_exprs(batch, idx, params)
        args = plan.batch_agg_args(batch, idx, params)
        for key, values in zip(keys, args):
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = groups[key] = [f.factory() for f in functions]
            for index, agg in enumerate(aggregates):
                value = values[index]  # COUNT(*) steps the constant 1
                if value is None and not functions[index].handles_null:
                    continue
                if agg.distinct:
                    seen = distinct_seen.setdefault((key, index), set())
                    if value in seen:
                        continue
                    seen.add(value)
                accumulators[index].step(value)
    rows = list(rowops.finish_groups(groups, bool(plan.group_exprs), resolve))
    if rows:
        yield RowBatch(rows)


# ---------------------------------------------------------------------------
# Dispatch tables
# ---------------------------------------------------------------------------


_BATCH_ENV_OPS = {
    pl.TableScan: _b_table_scan,
    pl.IndexScan: _b_index_scan,
    pl.DerivedScan: _b_derived_scan,
    pl.Filter: _b_filter,
    pl.Sort: _b_sort,
    pl.HashJoin: _b_hash_join,
    pl.NLJoin: _b_nl_join,
    pl.MergeJoin: _b_merge_join,
    pl.Temp: _b_temp,
}

_BATCH_ROW_OPS = {
    pl.Project: _b_project,
    pl.Distinct: _b_distinct,
    pl.LimitOp: _b_limit,
    pl.TopSort: _b_topsort,
    pl.SetOpPlan: _b_setop,
    pl.GroupBy: _b_groupby,
}


# ---------------------------------------------------------------------------
# Capability and function generation (refinement phase)
# ---------------------------------------------------------------------------

_ONE = qe.Const(1)
_JOINS = (pl.HashJoin, pl.MergeJoin, pl.NLJoin)


def _expr_groups(node: pl.PlanOp):
    """What a node evaluates batch-wise, one entry per generated
    function: ``(attribute, shape, expressions, quantifiers in scope)``.
    None for operators without a batch form."""
    node_type = type(node)
    if node_type in (pl.TableScan, pl.IndexScan, pl.DerivedScan):
        # An index scan's eq/range probe expressions stay scalar (they
        # evaluate against the outer environment once per open).
        return [("batch_preds", "select", [p.expr for p in node.preds],
                 {node.quantifier})]
    if node_type in (pl.Temp, pl.Distinct, pl.LimitOp, pl.TopSort,
                     pl.SetOpPlan):
        return []  # pure row-shufflers: no expressions
    scope = node.children[0].props.quantifiers if node.children else None
    if node_type is pl.Filter:
        return [("batch_preds", "select", [p.expr for p in node.preds],
                 scope)]
    if node_type in (pl.HashJoin, pl.MergeJoin):
        inner = node.children[1].props.quantifiers
        return [("batch_outer_keys", "rows", node.outer_keys, scope),
                ("batch_inner_keys", "rows", node.inner_keys, inner),
                ("batch_residual", "select",
                 [p.expr for p in node.residual], scope | inner)]
    if node_type is pl.NLJoin:
        return [("batch_preds", "select", [p.expr for p in node.preds],
                 scope | node.children[1].props.quantifiers)]
    if node_type is pl.Sort:
        return [("batch_keys", "rows", [expr for expr, _asc in node.keys],
                 scope)]
    if node_type is pl.Project:
        cells = {binding.quantifier for binding in node.subplans}
        return [("batch_exprs", "rows", node.exprs, scope | cells)]
    if node_type is pl.GroupBy:
        return [("batch_group_exprs", "rows", node.group_exprs, scope),
                ("batch_agg_args", "rows",
                 [_ONE if agg.arg is None else agg.arg
                  for agg in node.aggregates], scope)]
    return None


def batch_reason(node: pl.PlanOp, kinds, functions) -> Optional[str]:
    """None when the batch engine can run this node, otherwise why not —
    a structural check: nothing is generated until a backend is chosen.

    Expressions must be generatable and *self-contained*: every
    referenced quantifier is bound inside the subtree, which is what
    excludes lateral-correlated setformers.
    """
    groups = _expr_groups(node)
    if groups is None:
        return "no batch operator %s" % node.op_name
    if isinstance(node, _JOINS):
        try:
            kind = kinds.get(node.kind, functions)
        except SubqueryError:
            return "unknown join kind %s" % node.kind
        # The batch joins implement exactly the binding semantics
        # (regular/left_outer-shaped kinds); combine-driven semijoins
        # and scalar kinds keep the interpreter.
        if not kind.binds_inner or kind.scalar or kind.combine is not None:
            return "join kind %s" % node.kind
        # Only Temp'd (uncorrelated, materialized-once) NL inners: a
        # lateral inner re-opens with each outer row's bindings, which
        # is exactly the per-row dispatch batching cannot express.
        if isinstance(node, pl.NLJoin) \
                and not isinstance(node.children[1], pl.Temp):
            return "lateral inner"
    cells = set()
    for binding in getattr(node, "subplans", ()):
        # An uncorrelated scalar subquery is still evaluated by the
        # tuple machinery (once, on demand); its single row feeds the
        # generated head through a cell.  Correlation would need per-row
        # re-evaluation — that stays on the tuple interpreter.
        if binding.correlation or binding.quantifier.qtype != "S":
            return "subquery expressions"
        cells.add(binding.quantifier)
    for _attr, _shape, exprs, scope in groups:
        for expr in exprs:
            if not qe.quantifiers_in(expr) <= scope:
                return "correlated expression"
            reason = reject_reason(expr, functions, cells)
            if reason is not None:
                return reason
    return None


def attach_functions(node: pl.PlanOp, functions) -> None:
    """Generate the batch functions of a node the batch engine was
    selected for (:func:`batch_reason` returned None)."""
    cells = {binding.quantifier: [None]
             for binding in getattr(node, "subplans", ())}
    for attr, shape, exprs, _scope in _expr_groups(node):
        setattr(node, attr, _generate(shape, exprs, functions, cells))
    if cells:
        node.batch_subquery_cells = [
            (binding, cells[binding.quantifier])
            for binding in node.subplans]


def _generate(shape: str, exprs, functions, cells):
    """One batch function ``f(batch, idx, params) -> list`` over
    ``exprs``, a single comprehension over the live row indices:

    - ``"select"`` — the indices where every predicate is True, tested
      left to right (None when there are no predicates),
    - ``"rows"`` — one tuple of the expressions' values per index.
    """
    if shape == "select" and not exprs:
        return None
    slots: Dict[Tuple[Any, int], int] = {}

    def column(quantifier, position: int) -> str:
        cell = cells.get(quantifier)
        if cell is not None:
            return gen.hoist(_cell_reader(cell, position)) + "()"
        slot = slots.setdefault((quantifier, position), len(slots))
        return "_c%d[_i]" % slot

    gen = ExprGen(column, functions, volatile=cells)
    if shape == "select":
        result = "[_i for _i in idx if %s]" % " and ".join(
            gen.cond(expr) for expr in exprs)
    else:
        result = "[%s for _i in idx]" % gen.tuple_of(exprs)
    lines = ["def _p(H, K):"]
    lines.extend("    " + line for line in gen.bind_hoisted("H"))
    lines.append("    def f(batch, idx, params):")
    lines.extend("        _c%d = batch.column(K[%d])" % (slot, slot)
                 for slot in range(len(slots)))
    lines.extend("        " + line for line in gen.bind_params())
    lines.append("        return " + result)
    lines.append("    return f")
    factory, _shared = materialize("\n".join(lines) + "\n")
    return factory(tuple(gen.hoisted), tuple(slots))
