"""Command line of the benchmark suite.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload (the driver's contract).  The last line
        of standard output is one JSON object: correct, attempted,
        failed, and the end-to-end (--trace 0) or per-layer (--trace 1)
        metrics.

    python3 benchmarks/suite/run.py --seed N [--runs R] [--trace 1] [--out F]
        All five workloads, R runs each on seeds N..N+R-1, every run in
        a process of its own; prints every metric and writes a result
        file with the host facts.

    python3 benchmarks/suite/run.py compare A.json B.json
        One row per workload x end-to-end metric with a verdict.

``python -m benchmarks.suite`` is the same program.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(SUITE_DIR))


def _bootstrap() -> None:
    """Make ``benchmarks.suite`` and the engine under ``src/``
    importable from a bare checkout, whatever the working directory.
    The engine is run from source; there is nothing to build."""
    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        sys.exit("benchmarks/suite: no engine under %s — this "
                 "benchmark measures the repository it sits in"
                 % os.path.join(REPO, "src"))
    for path in (os.path.join(REPO, "src"), REPO):
        if path not in sys.path:
            sys.path.insert(0, path)


def benchmark_spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_one(args, spec: dict) -> int:
    from benchmarks.suite import harness, layers
    from benchmarks.suite.calibration import Calibration
    from benchmarks.suite.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    data = workload.generate(args.seed)
    calibration = Calibration()
    state, setups = harness.repeated_setup(workload, data, calibration)
    try:
        if args.trace:
            units = {metric["name"]: metric["unit"]
                     for metric in spec["per_layer"]}
            runs, metrics = layers.traced_run(
                workload, data, state, args.seed, args.seconds,
                calibration, units, os.path.join(SUITE_DIR, "out"))
        else:
            runs = harness.run_clients(
                workload, data, state, args.seed, "window", calibration,
                lambda run, conn, rounds, sampler: harness.drive(
                    run, conn, rounds, args.seconds, False, sampler))
        checked, wrong, notes = harness.verify(workload, data, state, runs)
    finally:
        workload.teardown(state)
    calibration.sample()
    if not args.trace:
        # After teardown, so reaped pool and snapshot workers count.
        metrics, counts = harness.end_to_end(setups, runs, calibration)
        harness.report(workload, runs, metrics, counts, calibration,
                       checked, wrong, notes)
    else:
        layers.report(workload, metrics, checked, wrong, notes)
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.errors for run in runs) + wrong
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    _bootstrap()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from benchmarks.suite import compare

        return compare.main(argv[1:], benchmark_spec())
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="benchmarks.suite",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload when running all five")
    parser.add_argument("--out", help="result file (all-workload mode)")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, spec)
    from benchmarks.suite import sweep

    return sweep.main(args, names, os.path.abspath(__file__), SUITE_DIR)


if __name__ == "__main__":
    raise SystemExit(main())
