"""Backend selection: the one refinement pass that marks ``exec_backend``.

Every non-``tuple`` ``execution_mode`` runs :func:`select_backends` once.
Per plan node, bottom-up, it asks one structural question — can the node
join a fused pipeline (:func:`~repro.executor.codegen.fuse_reason`) —
and lets the ExecBackend STAR decide between ``compiled`` and ``tuple``:

- under ``compiled``, every fusable node goes ``compiled``;
- under ``auto``, a fusable node goes ``compiled`` when it processes at
  least :data:`AUTO_MIN_ROWS` rows; below that, pipeline setup costs
  more than per-row dispatch saves.

Nothing is generated here: code generation runs after the parallel glue
(:func:`~repro.executor.codegen.generate_programs`), and that is where a
region that does not parse demotes straight to ``tuple`` and, under
``auto``, a lone predicate-free source under a tuple operator does too.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.executor.codegen import _POSTOP_TYPES, fuse_reason
from repro.executor.kinds import default_join_kinds
from repro.optimizer import plans as pl

#: Auto mode only fuses nodes that process at least this many rows.
AUTO_MIN_ROWS = 32.0

#: DML operators whose inputs must carry record ids: fused bindings do
#: not, so their inputs stay on the interpreter.
_RID_CONSUMERS = (pl.UpdatePlan, pl.DeletePlan)


def _rows_read(node: pl.PlanOp) -> float:
    """The rows a leaf reads: scans record their ``TableStatistics``-
    driven input cardinality (table row count for SCAN, matched-range
    size for ISCAN) at plan time; that — not the post-predicate output
    estimate in ``props.card`` — is the work a pipeline amortizes, so a
    large-table scan behind a selective filter still qualifies."""
    rows = getattr(node, "input_rows", None)
    return node.props.card if rows is None else rows


def select_backends(plan: pl.PlanOp, generator, functions, join_kinds,
                    options) -> None:
    """Mark each node's ``exec_backend`` via the ExecBackend STAR.

    Walks children only: subplan bindings always run on the tuple
    interpreter — they are the evaluate-on-demand machinery.  A node's
    volume is what flows into it: a fused child's own volume, or a tuple
    child's estimated output (the rows a pipeline would pull from it).
    Under ``compiled`` every unfusable node's reason is kept in
    ``plan.codegen_fallbacks``.
    """
    kinds = join_kinds if join_kinds is not None else default_join_kinds()
    mode = options.execution_mode
    fallbacks: List[Tuple[str, str]] = []

    def decide(node: pl.PlanOp, allowed: bool) -> float:
        below = allowed and not isinstance(node, _RID_CONSUMERS)
        volumes = [decide(child, below) for child in node.children]
        if not node.children:
            rows = _rows_read(node)
        else:
            rows = max(volume if child.exec_backend == "compiled"
                       else child.props.card
                       for child, volume in zip(node.children, volumes))
        reason = (fuse_reason(node, kinds, functions) if allowed
                  else "UPDATE/DELETE input")
        if reason is None and isinstance(node, _POSTOP_TYPES) \
                and node.children[0].exec_backend != "compiled":
            reason = "input not fused"
        if reason is not None and mode == "compiled":
            fallbacks.append((node.op_name, reason))
        eligible = rows >= AUTO_MIN_ROWS
        generator.evaluate(
            "ExecBackend", plan=node, capable=reason is None, mode=mode,
            eligible=eligible,
            compiled=reason is None and (mode == "compiled" or eligible))
        return rows

    decide(plan, True)
    plan.codegen_fallbacks = fallbacks
