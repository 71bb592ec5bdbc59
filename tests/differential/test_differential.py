"""Differential oracle suite: engine vs. naive reference interpreter.

Every seed drives the whole loop — random schema + data, random Hydrogen
queries, execution under the full configuration matrix (rewrite on/off,
forced join methods, DP vs. greedy enumeration, bushy/Cartesian, the
fused default and the tuple interpreter) — and the result of each run
must match the deliberately naive oracle in ``repro.testkit.oracle``.

The tier-1 portion checks a fixed block of seeds and is deterministic;
a failure prints the shrunk counterexample (paste-ready pytest) so it can
be pinned in ``tests/unit/test_differential_regressions.py``.  The wide
sweep is opt-in: ``pytest -m sweep``.
"""

from __future__ import annotations

import random

import pytest

from repro import CompileOptions
from repro.errors import ReproError
from repro.testkit import ReferenceOracle, default_matrix, run_seed
from repro.testkit.datagen import build_database, generate_schema
from repro.testkit.querygen import QueryGenerator

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


def _corpus(seeds, queries=4):
    """``(db, sql)`` for every statement the generator emits on
    ``seeds``, in order; each seed's database is closed after its
    statements."""
    for seed in seeds:
        rng = random.Random(seed)
        schema = generate_schema(rng)
        db = build_database(schema)
        generator = QueryGenerator(rng, schema)
        try:
            for _ in range(queries):
                yield db, generator.generate().render()
        finally:
            db.close()


def test_default_fuses_most_corpus_plan_nodes():
    """The ``default`` config checks the fused backend, not the
    interpreter: the shipped options run at least 75 % of the corpus's
    plan nodes (subquery plans included) fused."""
    fused = total = 0
    for db, sql in _corpus(range(0, 20)):
        try:
            plan = db.compile(sql, options=CompileOptions()).plan
        except ReproError:
            continue
        for node in plan.walk():
            total += 1
            fused += node.exec_backend == "compiled"
    assert total > 500
    assert fused >= 0.75 * total, (fused, total)


@pytest.mark.parametrize("seed", [138, 189])
def test_having_constants_match_the_aggregate_kind(seed):
    """A HAVING over MIN/MAX of a VARCHAR column compares it with a
    string: every statement of these seeds runs to rows on the oracle."""
    having = 0
    for db, sql in _corpus([seed]):
        ReferenceOracle(db).execute(sql)  # raises on a type error
        having += "HAVING" in sql
    assert having


@pytest.mark.sweep
@pytest.mark.parametrize("block", [
    range(start, start + 25) for start in range(50, 550, 25)
])
def test_sweep_seed_block(block):
    """Wider sweep (500 seeds); run with ``pytest -m sweep``."""
    assert _check_seed_block(block) > 0
