"""All five workloads from one command, and the result file.

Every run is a process of its own — the same command the driver uses —
so ``peak_rss_mb`` and every module-level cache start clean for each
workload; the numbers here are the numbers the driver sees.  Host facts
are recorded once per result file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import List

from benchmarks.suite import stats
from benchmarks.suite.workloads import WORKLOADS
from benchmarks.suite.workloads.base import cores

#: Workloads that need a second core to mean anything: forked workers
#: on one core only time-slice it.
NEEDS_TWO_CORES = ("analytic_parallel", "serve_mixed")


def commit(repo: str) -> str:
    """The commit measured, or "unknown" outside a git checkout."""
    try:
        found = subprocess.run(
            ["git", "-C", repo, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def host_facts(repo: str, seed: int, seconds: float) -> dict:
    return {
        "cores": cores(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(repo),
        "seed": seed,
        "seconds": seconds,
        "op_counts": {name: cls().op_counts()
                      for name, cls in WORKLOADS.items()},
    }


def one_run(script: str, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    """Run the single-workload command; its last stdout line is the
    result."""
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    result.update(workload=workload, seed=seed, trace=trace,
                  exit_code=done.returncode,
                  wall_s=time.perf_counter() - began,
                  report=lines[:-1], stderr=done.stderr[-2000:])
    return result


def main(args, names: List[str], script: str, suite_dir: str) -> int:
    repo = os.path.dirname(os.path.dirname(suite_dir))
    facts = host_facts(repo, args.seed, args.seconds)
    runs = []
    status = 0
    for workload in names:
        for offset in range(args.runs):
            result = one_run(script, workload, args.seed + offset,
                             args.seconds, args.trace)
            runs.append(result)
            print("\n".join(result["report"]))
            if result["exit_code"] != 0:
                status = 1
                print("  ! exit code %d\n%s" % (result["exit_code"],
                                               result["stderr"]))
        if facts["cores"] < 2 and workload in NEEDS_TWO_CORES:
            print("  ! %s measured on 1 core: unresolved, not a result"
                  % workload)
    if args.runs >= 4:
        print("\nspread over %d runs (interquartile / median)" % args.runs)
        for workload in names:
            mine = [run for run in runs if run["workload"] == workload
                    and run["metrics"]]
            for metric in (mine[0]["metrics"] if mine else ()):
                values = [run["metrics"][metric]["value"] for run in mine]
                print("  %-18s %-22s median %12.4f  spread %.4f"
                      % (workload, metric,
                         statistics.median(values),
                         stats.spread(values)))
    out = args.out or os.path.join(
        suite_dir, "out", "result-%d.json" % args.seed)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump({"host": facts, "runs": runs}, handle, indent=1)
        handle.write("\n")
    print("\nwrote %s" % out)
    return status
