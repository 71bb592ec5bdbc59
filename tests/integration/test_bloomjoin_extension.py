"""The Bloom-join contrib extension (§6's filtration methods claim)."""

import pytest

from repro.extensions.bloomjoin import (
    BloomFilter,
    BloomJoin,
    install_bloom_join,
)
from tests.stacks import stack_variants


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(bits=1024, hashes=3)
        keys = [(i,) for i in range(200)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(k) for k in keys)

    def test_mostly_rejects_absent_keys(self):
        bloom = BloomFilter(bits=8192, hashes=3)
        for i in range(200):
            bloom.add((i,))
        false_positives = sum(
            1 for i in range(10_000, 11_000) if bloom.might_contain((i,)))
        assert false_positives < 50  # < 5% at this fill

    def test_fp_rate_estimate(self):
        bloom = BloomFilter(bits=1024, hashes=3)
        assert bloom.false_positive_rate() == 0.0
        for i in range(100):
            bloom.add((i,))
        assert 0.0 < bloom.false_positive_rate() < 0.5


class TestBloomJoinExtension:
    SQL = ("SELECT e.name, d.budget FROM emp e, dept d "
           "WHERE e.dept = d.dname AND d.budget > 600")

    def force_bloom(self, db):
        """Remove the competing methods so the Bloom alternative wins."""
        install_bloom_join(db)
        for star, name in (("NLJoinAlt", "NL"), ("MergeJoinAlt", "Merge"),
                           ("HashJoinAlt", "Hash")):
            db.stars[star].alternatives = [
                a for a in db.stars[star].alternatives if a.name != name]

    def test_installs_additively(self, emp_db):
        before = sum(len(s.alternatives) for s in emp_db.stars.values())
        install_bloom_join(emp_db)
        after = sum(len(s.alternatives) for s in emp_db.stars.values())
        assert after == before + 1
        install_bloom_join(emp_db)  # idempotent
        assert sum(len(s.alternatives)
                   for s in emp_db.stars.values()) == after

    def test_generated_and_correct(self, emp_db):
        baseline = sorted(emp_db.execute(self.SQL).rows)
        self.force_bloom(emp_db)
        compiled = emp_db.compile(self.SQL)
        assert any(isinstance(n, BloomJoin) for n in compiled.plan.walk())
        rows = sorted(emp_db.run_compiled(compiled).rows)
        assert rows == baseline == [("alice", 1000.0), ("bob", 1000.0),
                                    ("carol", 1000.0), ("grace", 1000.0)]

    def test_filters_non_matching_outer_rows(self, emp_db):
        self.force_bloom(emp_db)
        compiled = emp_db.compile(self.SQL)
        result = emp_db.run_compiled(compiled)
        # 4 non-eng employees can never match the budget>600 inner side.
        assert result.stats.__dict__.get("bloom_filtered", 0) >= 4

    def test_coexists_with_base_methods(self, emp_db):
        """Independent extensions must not conflict (§8): with everything
        installed, the optimizer still picks freely and answers match."""
        baseline = sorted(emp_db.execute(self.SQL).rows)
        install_bloom_join(emp_db)
        assert sorted(emp_db.execute(self.SQL).rows) == baseline

    def test_composes_with_outer_join_extension(self, emp_db):
        install_bloom_join(emp_db)
        emp_db.enable_operation("left_outer_join")
        rows = emp_db.execute(
            "SELECT e.name, d.budget FROM emp e LEFT OUTER JOIN dept d "
            "ON e.dept = d.dname AND d.budget > 600").rows
        assert len(rows) == 8  # all employees preserved


# The same cases on the fused codegen backend and under forced
# parallelism: the extensions must hold on every shipped stack.
globals().update(stack_variants(globals()))
