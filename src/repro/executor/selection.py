"""Backend selection: the one refinement pass that marks ``exec_backend``.

Under ``execution_mode="auto"`` (every mode but ``tuple``) the pipeline
runs :func:`select_backends` once.  Per plan node, bottom-up, it asks
one structural question — can the node join a fused pipeline
(:func:`~repro.executor.codegen.fuse_reason`) — and lets the
ExecBackend STAR decide between ``compiled`` and ``tuple``; every
fusable node goes ``compiled``.

Nothing is generated here: code generation runs after the parallel glue
(:func:`~repro.executor.codegen.generate_programs`), and that is where a
region that does not parse demotes straight to ``tuple``, and so does a
lone predicate-free source under a tuple operator.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.executor.codegen import _POSTOP_TYPES, fuse_reason
from repro.executor.kinds import default_join_kinds
from repro.optimizer import plans as pl

#: DML operators whose inputs must carry record ids: fused bindings do
#: not, so their inputs stay on the interpreter.
_RID_CONSUMERS = (pl.UpdatePlan, pl.DeletePlan)


def select_backends(plan: pl.PlanOp, generator, functions,
                    join_kinds) -> None:
    """Mark each node's ``exec_backend`` via the ExecBackend STAR.

    Walks children only: subplan bindings always run on the tuple
    interpreter — they are the evaluate-on-demand machinery.  Every
    unfusable node's reason is kept in ``plan.codegen_fallbacks``.
    """
    kinds = join_kinds if join_kinds is not None else default_join_kinds()
    fallbacks: List[Tuple[str, str]] = []

    def decide(node: pl.PlanOp, allowed: bool) -> None:
        below = allowed and not isinstance(node, _RID_CONSUMERS)
        for child in node.children:
            decide(child, below)
        reason = (fuse_reason(node, kinds, functions) if allowed
                  else "UPDATE/DELETE input")
        if reason is None and isinstance(node, _POSTOP_TYPES) \
                and node.children[0].exec_backend != "compiled":
            reason = "input not fused"
        if reason is not None:
            fallbacks.append((node.op_name, reason))
        generator.evaluate("ExecBackend", plan=node, capable=reason is None)

    decide(plan, True)
    plan.codegen_fallbacks = fallbacks
