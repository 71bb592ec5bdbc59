"""Backend selection: the one refinement pass that marks ``exec_backend``.

Every non-``tuple`` ``execution_mode`` runs :func:`select_backends` once.
Per plan node, bottom-up, it asks the two structural questions — can the
batch engine run this node (:func:`~repro.executor.vectorized.
batch_reason`), can it join a fused pipeline (:func:`~repro.executor.
codegen.fuse_reason`) — and lets the ExecBackend STAR decide; ``batch``
mode is the same pass with ``compiled`` never offered.  Nothing is
generated here: code generation runs after the parallel glue, only for
the backend each node ended up on (:func:`~repro.executor.codegen.
generate_programs`).

**Demotion contract.**  ``compiled`` is only offered to batch-capable
nodes and ``batch`` only to nodes with a tuple interpreter (all of
them), so a mark can always be lowered one step.  Three demotions happen
after the bottom-up pass, once parents are known:

- a ``compiled`` region that does not parse against the region grammar
  drops to ``batch`` (reason recorded in ``plan.codegen_fallbacks``),
- a ``compiled`` fragment under a batch parent merges into that batch
  region, so no batch operator consumes a fused child through adapters,
- under ``auto``, a batch region that is only a predicate-free leaf
  under a tuple operator drops to ``tuple``: with nothing to evaluate
  column-wise the batch→tuple adapter is pure overhead, paid again on
  every re-open when the leaf is a join inner.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.executor.codegen import (
    Unsupported,
    _demote_region,
    _parse_region,
    fuse_reason,
)
from repro.executor.kinds import default_join_kinds
from repro.executor.vectorized import batch_reason
from repro.optimizer import plans as pl

#: Auto mode only batches subtrees whose leaf scans *read* at least this
#: many rows; below it, batch setup overhead beats per-row dispatch.
AUTO_MIN_ROWS = 32.0

#: Auto mode escalates to codegen only for scans at least this large;
#: between AUTO_MIN_ROWS and this the batch engine already wins and
#: codegen's per-statement generation cost is not worth paying.
AUTO_COMPILED_MIN_ROWS = 4096.0


def _leaf_reads(node: pl.PlanOp, threshold: float) -> bool:
    """Auto-mode heuristic: does this leaf *read* enough rows?

    Scans record their ``TableStatistics``-driven input cardinality
    (table row count for SCAN, matched-range size for ISCAN) at plan
    time; that — not the post-predicate output estimate in
    ``props.card`` — is the work a faster backend amortizes, so a
    large-table scan behind a selective filter still qualifies.
    Inner nodes inherit the decision from their leaves.
    """
    if node.children:
        return True
    rows = getattr(node, "input_rows", None)
    if rows is None:
        rows = node.props.card
    return rows >= threshold


def select_backends(plan: pl.PlanOp, generator, functions, join_kinds,
                    options) -> None:
    """Mark each node's ``exec_backend`` via the ExecBackend STAR.

    Walks children only: subplan bindings always run on the tuple
    interpreter — they are the evaluate-on-demand machinery.  In
    ``batch``/``compiled`` mode every capable node is marked; in ``auto``
    mode only contiguous capable subtrees over enough rows are, which
    keeps adapter crossings at the genuinely unsupported boundaries.
    """
    kinds = join_kinds if join_kinds is not None else default_join_kinds()
    mode = options.execution_mode
    fallbacks: List[Tuple[str, str]] = []

    def decide(node: pl.PlanOp) -> None:
        for child in node.children:
            decide(child)
        capable = batch_reason(node, kinds, functions) is None
        eligible = (capable and _leaf_reads(node, AUTO_MIN_ROWS)
                    and all(child.exec_backend != "tuple"
                            for child in node.children))
        wants = False
        if mode != "batch":
            reason = (fuse_reason(node, kinds, functions) if capable
                      else "not batch-capable")
            if reason is None and any(child.exec_backend != "compiled"
                                      for child in node.children):
                reason = "input not fused"
            elif reason is not None and mode == "compiled":
                fallbacks.append((node.op_name, reason))
            wants = reason is None and (
                mode == "compiled"
                or (eligible and _leaf_reads(node, AUTO_COMPILED_MIN_ROWS)))
        generator.evaluate("ExecBackend", plan=node, capable=capable,
                           mode=mode, eligible=eligible, compiled=wants)

    decide(plan)
    plan.codegen_fallbacks = fallbacks
    _settle(plan, "tuple", mode == "auto", fallbacks)


def _settle(node: pl.PlanOp, parent: str, auto: bool, fallbacks) -> None:
    """Top-down, once parents are known: apply the demotion contract and
    leave the EXPLAIN boundary marks (an adapter sits on every marked
    edge at run time)."""
    backend = node.exec_backend
    if backend == "compiled" and parent != "compiled":
        demote = parent == "batch"
        if not demote:
            try:
                _parse_region(node)
            except Unsupported as exc:
                fallbacks.append((node.op_name, str(exc)))
                demote = True
        if demote:
            _demote_region(node)
    elif (auto and backend == "batch" and parent == "tuple"
            and not node.children and not node.preds):
        node.exec_backend = "tuple"
    if parent != "tuple" and node.exec_backend == "tuple":
        node.fallback_mark = "tuple"
    elif parent == "compiled" and node.exec_backend == "batch":
        node.fallback_mark = "batch"
    for child in node.children:
        _settle(child, node.exec_backend, auto, fallbacks)
