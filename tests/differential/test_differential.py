"""Differential oracle suite: engine vs. naive reference interpreter.

Every seed drives the whole loop — random schema + data, random Hydrogen
queries, execution under the full configuration matrix (rewrite on/off,
forced join methods, DP vs. greedy enumeration, bushy/Cartesian, the
three execution backends) — and the result of each run must
match the deliberately naive oracle in ``repro.testkit.oracle``.

The tier-1 portion checks a fixed block of seeds and is deterministic;
a failure prints the shrunk counterexample (paste-ready pytest) so it can
be pinned in ``tests/unit/test_differential_regressions.py``.  The wide
sweep is opt-in: ``pytest -m sweep``.
"""

from __future__ import annotations

import pytest

from repro.testkit import default_matrix, run_seed

TIER1_SEEDS = range(0, 50)
SWEEP_SEEDS = range(50, 550)


def _check_seed_block(seeds, queries=4):
    configs = default_matrix()
    checked = 0
    for seed in seeds:
        divergence, seed_checked, _skipped, _cache = run_seed(
            seed, queries=queries, configs=configs)
        if divergence is not None:
            pytest.fail("differential divergence:\n%s\n\n%s"
                        % (divergence.summary(), divergence.repro()))
        checked += seed_checked
    return checked


@pytest.mark.parametrize("block", [
    range(0, 10), range(10, 20), range(20, 30), range(30, 40),
    range(40, 50),
])
def test_tier1_seed_block(block):
    """50 deterministic seeds, 4 queries each, full config matrix."""
    assert _check_seed_block(block) > 0


@pytest.mark.sweep
@pytest.mark.parametrize("block", [
    range(start, start + 25) for start in range(50, 550, 25)
])
def test_sweep_seed_block(block):
    """Wider sweep (500 seeds); run with ``pytest -m sweep``."""
    assert _check_seed_block(block) > 0
