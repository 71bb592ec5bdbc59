"""Run one workload: repeated set-up, the time-boxed closed loop, the
answer check, and the end-to-end metrics.

The untraced loop here is the only source of end-to-end numbers.  The
traced pass (``layers.py``) reuses :func:`run_clients` for its counter
pass and brings its own loop for the span pass.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import sys
import threading
from time import perf_counter, sleep
from typing import Callable, Dict, List, Optional, Tuple

from benchmarks.suite import stats
from benchmarks.suite.calibration import Calibration
from benchmarks.suite.workloads.base import CLASSES, Op, Workload, canon

#: Times the set-up is repeated in one run; ``setup_s`` is the median.
SETUPS = 3
#: Results up to this many rows are kept for checking on every
#: execution; larger ones on the first execution of each distinct
#: statement, with only the row count compared afterwards (holding
#: every 30k-row result would be the benchmark's own memory, not the
#: engine's).
SMALL_RESULT = 256
#: The window runs past ``--seconds`` until point_ms_p95 has its 200
#: samples, but never past this multiple of it.
OVERRUN_CAP = 3.0

#: Result.stats fields summed in the counter pass.
STAT_FIELDS = ("rows_scanned", "index_probes", "parallel_exchanges",
               "parallel_fallbacks", "exchange_bytes", "morsels",
               "partitions_pruned", "codegen_pipelines", "fallbacks")


class ClientRun:
    """What one client's loop observed."""

    def __init__(self, client: int, wire: bool):
        self.client = client
        self.wire = wire
        #: Per class, (start, seconds) of every statement.
        self.latency: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name in CLASSES + ("adhoc",)}
        self.started = 0.0
        self.attempted = 0
        self.errors = 0
        self.error_notes: List[str] = []
        #: (op, rows) or (op, row count) for every checked statement.
        self.kept: List[Tuple[Op, object]] = []
        self._seen: set = set()
        #: Statements and seconds up to the last completed round.
        self.round_statements = 0
        self.round_seconds = 0.0
        self.rounds = 0
        #: Statements the first round attempted (the traced pass sums
        #: its exactly-repeating counts over these).
        self.first_statements = 0
        #: Result.stats sums: over the first round, and over the pass.
        self.first_round: Dict[str, int] = {}
        self.totals: Dict[str, int] = dict.fromkeys(STAT_FIELDS, 0)
        self.writes = 0

    def keep(self, op: Op, rows) -> None:
        if op.expect is None:
            return
        if len(rows) > SMALL_RESULT:
            key = (op.sql, op.params)
            if key in self._seen:
                self.kept.append((op, len(rows)))
                return
            self._seen.add(key)
        self.kept.append((op, rows))

    def absorb(self, result) -> None:
        found = getattr(result, "stats", None)
        if found is not None:
            for name in STAT_FIELDS:
                self.totals[name] += getattr(found, name, 0)


def drive(run: ClientRun, conn, rounds, seconds: float,
          collect: bool, sampler: Calibration) -> None:
    """The closed loop: next statement only after the previous answer.

    Runs whole rounds until ``seconds`` have passed (and, for the p95,
    a client that issues point reads has its minimum sample of them),
    so every run measures the
    same statement mix; throughput is read at the last round boundary.
    ``sampler`` times the calibration kernel between statements.
    """
    need_points = stats.min_samples(95)
    start = run.started = perf_counter()
    deadline = start + seconds
    cap = start + seconds * OVERRUN_CAP
    for ops in rounds:
        for op in ops:
            run.attempted += 1
            if op.pause:
                sleep(op.pause)
            sampler.maybe_sample(perf_counter())
            began = perf_counter()
            try:
                result = conn.execute(op)
            except Exception as exc:  # boundary: count it, keep going
                run.errors += 1
                if len(run.error_notes) < 3:
                    run.error_notes.append("%s: %r" % (op.sql[:80], exc))
                continue
            elapsed = perf_counter() - began
            if op.kind is not None:
                run.latency[op.kind].append((began, elapsed))
            if op.fresh:
                run.latency["adhoc"].append((began, elapsed))
            if op.kind == "write":
                run.writes += 1
            run.keep(op, result.rows)
            if collect:
                run.absorb(result)
        now = perf_counter()
        run.rounds += 1
        run.round_statements = run.attempted - run.errors
        run.round_seconds = now - start
        if run.rounds == 1:
            run.first_statements = run.attempted
            run.first_round = dict(run.totals)
        points = len(run.latency["point"])
        if now >= deadline and (points == 0 or points >= need_points
                                or now >= cap):
            break


def run_clients(workload: Workload, data, state, seed: int, tag: str,
                calibration: Calibration,
                body: Callable[[ClientRun, object, object, Calibration],
                               None]
                ) -> List[ClientRun]:
    """Give every client a connection and its own seeded round stream,
    release them together, and wait for all of them.  ``tag`` separates
    the streams of different passes of one run.

    Clients sample the calibration kernel between their own statements
    (with several clients, whichever notices a sample is due)."""
    runs: List[ClientRun] = []
    failures: List[BaseException] = []
    barrier = threading.Barrier(workload.clients)

    def client(index: int) -> None:
        conn = workload.connect(state, index)
        run = ClientRun(index, conn.wire)
        runs.append(run)
        rng = random.Random("%d/%s/%d" % (seed, tag, index))
        try:
            barrier.wait()
            body(run, conn, workload.rounds(data, state, index, rng),
                 calibration)
        except BaseException as exc:  # surfaced by the caller
            failures.append(exc)
            barrier.abort()
        finally:
            conn.close()

    calibration.sample()
    if workload.clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(workload.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    calibration.sample()
    if failures:
        raise failures[0]
    return sorted(runs, key=lambda run: run.client)


def repeated_setup(workload: Workload, data, calibration: Calibration):
    """Set up SETUPS times, keeping the last; returns the state and the
    (start, end) of each set-up.  A set-up cannot be interrupted to
    sample the kernel inside, so it is sampled before each one (after
    the previous teardown, when nothing runs); what closes the last
    set-up is the sample that opens the window."""
    spans = []
    state = None
    for attempt in range(SETUPS):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        calibration.sample()
        began = perf_counter()
        state = workload.setup(data)
        spans.append((began, perf_counter()))
    return state, spans


def verify(workload: Workload, data, state,
           runs: List[ClientRun]) -> Tuple[int, int, List[str]]:
    """Check kept answers against the workload's expectation, outside
    the timed window.  Returns (checked, wrong, notes)."""
    from repro import ReproError

    checked = wrong = 0
    notes: List[str] = []
    for run in runs:
        for op, got in run.kept:
            checked += 1
            try:
                want = workload.expected(data, state, op)
            except ReproError as exc:
                wrong += 1
                notes.append("no reference answer for %s: %r"
                             % (op.sql[:80], exc))
                continue
            if isinstance(got, int):
                good = got == len(want)
            else:
                good = canon(got, run.wire) == canon(want, run.wire)
            if not good:
                wrong += 1
                if len(notes) < 5:
                    notes.append("wrong answer: %s %r" % (op.sql[:100],
                                                          op.params))
    extra_checked, extra_wrong, extra_notes = workload.verify_extra(
        data, state)
    return (checked + extra_checked, wrong + extra_wrong,
            notes + extra_notes)


def peak_rss_mb() -> float:
    """High-water resident set of this process plus the largest reaped
    child (fork pools, snapshot workers), in MB (Linux reports KB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def merged_latency(runs: List[ClientRun],
                   calibration: Optional[Calibration] = None
                   ) -> Dict[str, List[float]]:
    """Per-class latencies of all clients, in milliseconds: at
    reference host speed when given the run's calibration, raw if not."""
    def ms(began: float, elapsed: float) -> float:
        if calibration is None:
            return elapsed * 1e3
        return calibration.scaled(began, began + elapsed) * 1e3

    return {name: [ms(*sample) for run in runs
                   for sample in run.latency[name]]
            for name in CLASSES + ("adhoc",)}


def throughput(runs: List[ClientRun],
               calibration: Optional[Calibration] = None) -> float:
    """Correct statements per second: each client's rate over its own
    completed rounds, summed (closed loop, one rate per client)."""
    def seconds(run: ClientRun) -> float:
        if calibration is None:
            return run.round_seconds
        return calibration.scaled(run.started,
                                  run.started + run.round_seconds)

    return sum(run.round_statements / seconds(run)
               for run in runs if run.round_seconds > 0)


def end_to_end(setups: List[Tuple[float, float]], runs: List[ClientRun],
               calibration: Calibration
               ) -> Tuple[Dict[str, dict], Dict[str, int]]:
    """The ten end-to-end metrics, and the sample count of each.  Every
    time is at reference host speed (see ``calibration.py``)."""
    latency = merged_latency(runs, calibration)
    setup_times = [calibration.scaled(*span) for span in setups]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "stmt_per_s": (throughput(runs, calibration), "1/s"),
        "adhoc_ms_p50": (statistics.median(latency["adhoc"]), "ms"),
        "point_ms_p95": (stats.guarded_percentile(latency["point"], 95),
                         "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    counts = {"setup_s": len(setup_times),
              "stmt_per_s": sum(run.round_statements for run in runs),
              "adhoc_ms_p50": len(latency["adhoc"]),
              "point_ms_p95": len(latency["point"]), "peak_rss_mb": 1}
    for name in CLASSES:
        metrics["%s_ms_p50" % name] = (statistics.median(latency[name]),
                                       "ms")
        counts["%s_ms_p50" % name] = len(latency[name])
    return ({name: {"value": value, "unit": unit}
             for name, (value, unit) in metrics.items()}, counts)


def report(workload: Workload, runs: List[ClientRun], metrics, counts,
           calibration: Calibration, checked: int, wrong: int,
           notes: List[str], out=sys.stdout) -> None:
    """The human-readable part: every metric by name with its unit and
    sample count, each timing's supported tail, and the raw medians."""
    print("workload %s: %d client(s), %d round(s), host speed %.3f of "
          "reference (%d kernel samples)"
          % (workload.name, workload.clients,
             sum(run.rounds for run in runs), calibration.speed(),
             len(calibration.kernel_ms)), file=out)
    for name, entry in metrics.items():
        print("  %-14s %12.4f %-4s n=%d" % (name, entry["value"],
                                            entry["unit"], counts[name]),
              file=out)
    print("  at reference host speed:", file=out)
    for name, samples in merged_latency(runs, calibration).items():
        print("    " + stats.describe(name, "ms", samples), file=out)
    print("  raw: stmt_per_s %.4f 1/s" % throughput(runs), file=out)
    for name, samples in merged_latency(runs).items():
        print("    " + stats.describe(name, "ms", samples), file=out)
    errors = sum(run.errors for run in runs)
    print("  answers checked %d, wrong %d, errors %d"
          % (checked, wrong, errors), file=out)
    for note in notes + [note for run in runs for note in run.error_notes]:
        print("  ! " + note, file=out)
