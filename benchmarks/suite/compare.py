"""``compare A.json B.json`` — one row per workload x end-to-end metric.

Each row gives both sides' medians, the ratio B/A *with its base*, the
bound from ``BENCHMARK.json``, and a verdict:

- ``unresolved`` — a side has fewer than four runs, or the spread
  between a side's own runs (interquartile distance / median) exceeds
  the bound, or the workload needs two cores and the host had one:
  the data cannot tell a regression from noise, and says so;
- ``worse`` — B's median is worse than A's by more than the bound;
- ``better`` — B's median is better than A's by more than the distance
  between A's own quartiles;
- ``within`` — anything else.

Comparing two result files of the same commit is the benchmark's
self-agreement check: it must show no ``worse`` and no ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from benchmarks.suite import stats
from benchmarks.suite.sweep import NEEDS_TWO_CORES

MIN_RUNS = 4


def verdict(a: List[float], b: List[float], better: str, bound: float
            ) -> Tuple[str, Dict[str, Optional[float]]]:
    """Verdict for one cell, plus the numbers it rests on."""
    facts: Dict[str, Optional[float]] = {
        "a_median": statistics.median(a) if a else None,
        "b_median": statistics.median(b) if b else None,
        "a_spread": stats.spread(a), "b_spread": stats.spread(b),
        "ratio": None}
    if len(a) < MIN_RUNS or len(b) < MIN_RUNS:
        return "unresolved", facts
    base = facts["a_median"]
    if base:
        facts["ratio"] = facts["b_median"] / base
    if facts["a_spread"] > bound or facts["b_spread"] > bound or not base:
        return "unresolved", facts
    gain = facts["b_median"] - base
    if better == "lower":
        gain = -gain
    if -gain > bound * abs(base):
        return "worse", facts
    q1, _q2, q3 = statistics.quantiles(a, n=4)
    if gain > q3 - q1:
        return "better", facts
    return "within", facts


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def values(result: dict, workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in result["runs"]
            if run["workload"] == workload and not run["trace"]
            and metric in run["metrics"]]


def rows(a: dict, b: dict, spec: dict) -> List[dict]:
    one_core = min(a["host"]["cores"], b["host"]["cores"]) < 2
    out = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            found, facts = verdict(
                values(a, workload, metric["name"]),
                values(b, workload, metric["name"]),
                metric["better"], metric["bound"])
            if one_core and workload in NEEDS_TWO_CORES:
                found = "unresolved"
            out.append(dict(facts, workload=workload, metric=metric["name"],
                            unit=metric["unit"], bound=metric["bound"],
                            verdict=found))
    return out


def _number(value: Optional[float]) -> str:
    return "-" if value is None else "%.4g" % value


def render(table: List[dict]) -> str:
    lines = ["%-18s %-13s %11s %11s  %-24s %6s %8s %8s  %s"
             % ("workload", "metric", "A median", "B median",
                "ratio (base)", "bound", "A spread", "B spread",
                "verdict")]
    for row in table:
        ratio = "-"
        if row["ratio"] is not None:
            ratio = "B/A=%.3f (A=%s %s)" % (
                row["ratio"], _number(row["a_median"]), row["unit"])
        lines.append("%-18s %-13s %11s %11s  %-24s %6.2f %8s %8s  %s" % (
            row["workload"], row["metric"], _number(row["a_median"]),
            _number(row["b_median"]), ratio, row["bound"],
            _number(row["a_spread"]), _number(row["b_spread"]),
            row["verdict"]))
    return "\n".join(lines)


def main(argv: List[str], spec: dict) -> int:
    if len(argv) != 2:
        print("usage: compare A.json B.json", file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    table = rows(a, b, spec)
    print("A: %s  commit %s  cores %d" % (argv[0], a["host"]["commit"][:12],
                                         a["host"]["cores"]))
    print("B: %s  commit %s  cores %d" % (argv[1], b["host"]["commit"][:12],
                                         b["host"]["cores"]))
    print(render(table))
    bad = [row for row in table if row["verdict"] in ("worse", "unresolved")]
    print("%d cell(s): %d worse, %d unresolved" % (
        len(table), sum(r["verdict"] == "worse" for r in bad),
        sum(r["verdict"] == "unresolved" for r in bad)))
    return 1 if bad else 0
