"""Re-run a test module's classes on every shipped execution stack.

A module's ``Test*`` classes run as written on the shipped default
(``execution_mode="auto"``: fused wherever fusable, no parallelism).
:func:`stack_variants` derives one subclass per other stack — the fused
pipelines at one-row morsels, where every morsel edge and tuple↔fused
adapter runs per row, and forced parallelism, which gathers scans,
group-bys and hash joins — and the ``_execution_stack`` fixture in
``tests/conftest.py`` applies the stack to every Database the test
builds.
"""

from __future__ import annotations

#: Settings each extra stack overrides on a fresh Database.
STACKS = {
    "Compiled": {"batch_size": 1},
    "Parallel": {"parallelism": "on", "dop": 2},
}

#: ``CompileOptions`` overrides for tests parametrized over backends:
#: the interpreter alone, the shipped default, and the default's fused
#: pipelines at one-row morsels (the ``Compiled`` stack).
MODES = {
    "tuple": {"execution_mode": "tuple"},
    "auto": {},
    "compiled": STACKS["Compiled"],
}


def stack_variants(namespace: dict) -> dict:
    """``TestFoo`` → ``TestFooOnCompiled`` and ``TestFooOnParallel``:
    merge the result into the module's globals to collect them."""
    variants = {}
    for name, cls in list(namespace.items()):
        if name.startswith("Test") and isinstance(cls, type):
            for stack in STACKS:
                variant = "%sOn%s" % (name, stack)
                variants[variant] = type(variant, (cls,), {"stack": stack})
    return variants
