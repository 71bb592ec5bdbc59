"""The DBC-facing handle on expression evaluation.

An operator a database customizer registers (``register_env_operator``)
evaluates its expressions through ``Evaluator(ctx)``.  The handle holds
no semantics of its own: every method calls the expression's closure
(:mod:`repro.executor.compiled`), compiled on first use and kept on the
expression, so an extension sees exactly the three-valued logic, NULL
rules and evaluate-on-demand subqueries the built-in operators see.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.executor.compiled import (  # noqa: F401 - re-exported
    Env,
    closure,
    kleene_and,
    kleene_not,
    kleene_or,
    subquery_rows,
)
from repro.qgm import expressions as qe


class Evaluator:
    """Evaluates QGM expressions against environments."""

    def __init__(self, ctx):
        self.ctx = ctx

    def eval(self, expr: qe.QExpr, env: Env) -> Any:
        """``expr`` as a value."""
        return closure(expr, self.ctx.functions)(env, self.ctx)

    def eval_bool(self, expr: qe.QExpr, env: Env) -> Optional[bool]:
        """Three-valued evaluation with quantified combination."""
        return closure(expr, self.ctx.functions, True)(env, self.ctx)

    def eval_predicate(self, expr: qe.QExpr, env: Env) -> bool:
        """True only when the predicate evaluates to SQL TRUE."""
        return self.eval_bool(expr, env) is True

    def subquery_rows(self, binding, env: Env) -> List[Tuple[Any, ...]]:
        """Evaluate-on-demand with correlation caching (section 7)."""
        return subquery_rows(binding, env, self.ctx)
