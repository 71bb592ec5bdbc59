"""Plan optimization (section 6 of the paper).

Starburst's optimizer is characterized by three orthogonal, independently
extensible aspects:

1. **plan generation** — a constructive, grammar-like rule system: STARs
   (strategy alternative rules) expand into LOLEPOPs (low-level plan
   operators) or other STARs; "glue" STARs enforce required properties by
   adding SORT/SHIP operators,
2. **plan costing** — every table (base or intermediate) has relational,
   operational (order, site) and estimated (cost, cardinality) properties;
   each LOLEPOP has a property function describing its effect,
3. **search strategy** — the join enumerator builds larger iterator sets
   from smaller ones (System-R-style dynamic programming) with knobs for
   composite inners (bushy trees), Cartesian products and rank pruning.

Modules: :mod:`plans` (LOLEPOPs), :mod:`properties`, :mod:`cost`,
:mod:`stars` (rule engine + default rule array), :mod:`enumerator`,
:mod:`boxopt` (bottom-up per-QGM-box optimization).
"""

from repro.optimizer.properties import PlanProperties, order_key
from repro.optimizer.plans import PlanOp
from repro.optimizer.cost import CostModel
from repro.optimizer.stars import STAR, Alternative, PlanGenerator, default_star_array
from repro.optimizer.enumerator import JoinEnumerator
from repro.optimizer.boxopt import Optimizer

__all__ = [
    "PlanProperties",
    "order_key",
    "PlanOp",
    "CostModel",
    "STAR",
    "Alternative",
    "PlanGenerator",
    "default_star_array",
    "JoinEnumerator",
    "Optimizer",
]
