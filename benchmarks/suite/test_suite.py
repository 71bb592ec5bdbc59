"""Unit tests of the suite's own arithmetic, on synthetic inputs.

Not collected by the tier-1 run (``testpaths = tests``); run directly:

    python -m pytest benchmarks/suite/test_suite.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for _path in (os.path.join(_REPO, "src"), _REPO):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.suite import compare, spans, stats  # noqa: E402
from benchmarks.suite.spans import Span  # noqa: E402


# -- span self-time arithmetic ------------------------------------------

def _span(name, start, end, parent=None, statement=1):
    span = Span(name, start, parent, statement)
    span.end = end
    return span


def test_self_time_subtracts_children():
    tree = [_span("statement", 0.0, 10.0),
            _span("compile", 1.0, 4.0, parent=0),
            _span("parse", 1.5, 2.5, parent=1),
            _span("run", 5.0, 9.0, parent=0)]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    # Children that ran on other threads may overlap each other and
    # stick out of the parent: only the covered part of the parent's
    # own interval is subtracted.
    tree = [_span("parent", 0.0, 10.0),
            _span("a", 2.0, 6.0, parent=0),
            _span("b", 4.0, 8.0, parent=0),
            _span("late", 9.0, 12.0, parent=0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_links_parent_and_statement():
    recorder = spans.SpanRecorder()
    recorder.next_statement()
    with recorder.span("statement"):
        with recorder.span("inner"):
            pass
    recorder.next_statement()
    with recorder.span("statement"):
        pass
    assert [s.parent for s in recorder.spans] == [None, 0, None]
    assert [s.statement for s in recorder.spans] == [1, 1, 2]
    assert all(s.end >= s.start for s in recorder.spans)


def test_by_name_groups_values():
    tree = [_span("x", 0, 1), _span("y", 0, 2), _span("x", 0, 3)]
    assert spans.by_name(tree, [1.0, 2.0, 3.0]) == {"x": [1.0, 3.0],
                                                   "y": [2.0]}


# -- the percentile and sample-count rule -------------------------------

def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile([0, 10], 25) == pytest.approx(2.5)


@pytest.mark.parametrize("n, expected", [
    (9, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_p95_refused_below_200_samples():
    with pytest.raises(stats.TooFewSamples):
        stats.guarded_percentile(list(range(199)), 95)
    assert stats.guarded_percentile(list(range(200)), 95) == pytest.approx(
        189.05)


def test_describe_prints_n_beside_the_timing():
    line = stats.describe("point", "ms", [float(i) for i in range(250)])
    assert "n=250" in line and "p50" in line and "p95" in line
    assert stats.describe("scan", "ms", [1.0] * 12).count("p") == 1


def test_spread_is_interquartile_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert stats.spread(values) == pytest.approx((13.5 - 10.5) / 12.0)
    assert stats.spread([1.0, 2.0, 3.0]) is None


# -- compare verdicts ---------------------------------------------------

TIGHT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def _scaled(values, factor):
    return [value * factor for value in values]


def test_same_commit_is_within():
    found, facts = compare.verdict(TIGHT, list(reversed(TIGHT)), "lower",
                                   0.10)
    assert found == "within"
    assert facts["ratio"] == pytest.approx(1.0)


def test_worse_beyond_the_bound_in_either_direction():
    assert compare.verdict(TIGHT, _scaled(TIGHT, 1.15), "lower",
                           0.10)[0] == "worse"
    assert compare.verdict(TIGHT, _scaled(TIGHT, 0.85), "higher",
                           0.10)[0] == "worse"


def test_better_needs_more_than_the_parents_own_spread():
    assert compare.verdict(TIGHT, _scaled(TIGHT, 0.95), "lower",
                           0.10)[0] == "better"
    assert compare.verdict(TIGHT, _scaled(TIGHT, 1.05), "higher",
                           0.10)[0] == "better"
    # 0.1% better is inside A's interquartile distance: not a gain.
    assert compare.verdict(TIGHT, _scaled(TIGHT, 0.999), "lower",
                           0.10)[0] == "within"


def test_worse_inside_the_bound_is_within():
    assert compare.verdict(TIGHT, _scaled(TIGHT, 1.05), "lower",
                           0.10)[0] == "within"


def test_noisy_side_is_unresolved_not_unchanged():
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0, 130.0, 75.0, 110.0]
    assert compare.verdict(noisy, TIGHT, "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(TIGHT, noisy, "lower", 0.10)[0] == "unresolved"


def test_too_few_runs_is_unresolved():
    assert compare.verdict([1.0, 1.0, 1.0], TIGHT, "lower",
                           0.10)[0] == "unresolved"


def _result(cores, factor=1.0):
    return {"host": {"cores": cores, "commit": "c"},
            "runs": [{"workload": name, "trace": 0,
                      "metrics": {"stmt_per_s": {"value": value * factor}}}
                     for name in ("analytic_scan", "analytic_parallel")
                     for value in TIGHT]}


def test_rows_mark_two_core_workloads_unresolved_on_one_core():
    spec = {"workloads": [{"name": "analytic_scan"},
                          {"name": "analytic_parallel"}],
            "end_to_end": [{"name": "stmt_per_s", "unit": "1/s",
                            "better": "higher", "bound": 0.1}]}
    verdicts = {row["workload"]: row["verdict"]
                for row in compare.rows(_result(1), _result(1), spec)}
    assert verdicts == {"analytic_scan": "within",
                        "analytic_parallel": "unresolved"}
    table = compare.rows(_result(2), _result(2, 1.2), spec)
    assert [row["verdict"] for row in table] == ["better", "better"]
    assert "B/A=1.200 (A=100 1/s)" in compare.render(table)
