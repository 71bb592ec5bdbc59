"""The traced pass: per-layer attribution, taken from outside.

No probe lives under ``src/``: the benchmark times its own calls into
each layer's public functions.  One traced run has three parts.

1. *Counter pass* (40% of the window): the untraced loop, with the
   engine's own counters read before and after — plan cache, buffer
   pool, WAL length, the server's ``GET /metrics`` — and
   ``Result.stats`` summed per statement.
2. *Span pass* (60%): the same workload with every statement driven
   through the layers one call at a time, each call inside a span.
   A never-seen statement is compiled phase by phase (parse, translate,
   rewrite, optimize), then by ``Database.compile`` as a whole, then run
   with ``run_compiled``; a cached read is run through
   ``Database.execute`` *and* ``run_compiled`` so the difference is the
   plan-cache path.  Wire statements have one span: the client call.
3. *Probes*, single-threaded, after the load: the primary-key access
   method's lookup, and on the server the onion — the same warm point
   read through ``WireClient``, ``Session`` and ``Database``.

Timings are medians at reference host speed (``calibration.py``), like
the end-to-end ones; counts named *first round* are sums over the first
round of a pass, which holds the same statements for a given seed
however fast the host is, so they repeat exactly.  End-to-end numbers
never come from this pass.

The engine's internals may change under a frozen benchmark, so each
probe group degrades to zeros with a note on stderr when the entry
points it calls are gone.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from benchmarks.suite import harness, spans
from benchmarks.suite.calibration import Calibration
from benchmarks.suite.stats import median_or_zero
from benchmarks.suite.workloads.base import CLASSES, Op, Workload

COUNTER_SHARE = 0.4
PROBE_REPEATS = 200
INDEX_PROBES = 2000
_MISSING = (ImportError, AttributeError, TypeError, KeyError)

_warned: set = set()


def _degraded(group: str, exc: BaseException) -> None:
    if group not in _warned:
        _warned.add(group)
        print("layers: %s probes unavailable (%r); reporting zeros"
              % (group, exc), file=sys.stderr)


# -- counters read at the boundaries of the counter pass ----------------

def _serve_counters(state) -> Dict[str, float]:
    from repro.serve.client import fetch_metrics

    found = {}
    for line in fetch_metrics(*state.tcp.address(), timeout=5).splitlines():
        if line.startswith("#") or "{" in line:
            continue
        name, _, value = line.rpartition(" ")
        found[name] = float(value)
    return found


def counters(state) -> Dict[str, float]:
    out: Dict[str, float] = {}
    try:
        cache = state.db.cache_stats()
        pool = state.db.engine.pool.stats
        out.update(cache_hits=cache["hits"], cache_misses=cache["misses"],
                   cache_evictions=cache["evictions"], pool_hits=pool.hits,
                   pool_misses=pool.misses, pool_evictions=pool.evictions,
                   wal=len(state.db.engine.log))
    except _MISSING as exc:
        _degraded("counter", exc)
    if state.tcp is not None:
        try:
            out.update(_serve_counters(state))
        except _MISSING + (OSError,) as exc:  # a scrape can time out
            _degraded("serve-counter", exc)
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- the span pass ------------------------------------------------------

class TracedLocal:
    """An in-process connection that runs each statement layer by layer
    under spans, and remembers what the layers reported."""

    wire = False

    def __init__(self, db, recorder: spans.SpanRecorder):
        self.db = db
        self.rec = recorder
        self.held: dict = {}
        #: Per statement, in order: the counts its compile reported.
        self.compile_counts: List[Dict[str, int]] = []
        #: Per never-seen statement: the Database.compile span and the
        #: four phase spans (refine = the first minus the rest).
        self.compiles: List[Tuple[spans.Span, List[spans.Span]]] = []
        #: (Database.execute, run_compiled) spans of warm point reads.
        self.cache_pairs: List[Tuple[spans.Span, spans.Span]] = []
        self.rows_scanned = 0
        self.run_spans: List[spans.Span] = []
        self._write_flip = False

    def close(self) -> None:
        pass

    def _phases(self, sql: str) -> Tuple[Dict[str, int], List[spans.Span]]:
        """Drive one compile phase by phase through the public entry
        points; returns the counts and the four phase spans."""
        from repro.language.parser import parse_statement
        from repro.language.translator import translate
        from repro.optimizer.boxopt import Optimizer

        db, rec = self.db, self.rec
        options = db.settings.compile_options()
        with rec.span("language.parse") as parse:
            statement = parse_statement(sql)
        with rec.span("language.translate") as trans:
            qgm = translate(statement, db)
        before = len(qgm.boxes)
        with rec.span("rewrite.run") as rewrite:
            report = db.rewrite_engine.run(
                qgm, only_rules=options.rewrite_only_rules,
                strategy=options.rewrite_strategy,
                optimizer_settings=options.optimizer_settings())
        after = len(qgm.boxes)
        optimizer = Optimizer(db.catalog, engine=db.engine,
                              settings=options.optimizer_settings(),
                              functions=db.functions, stars=db.stars)
        with rec.span("optimizer.optimize") as optimize:
            optimizer.optimize(qgm)
        counts = {"rules_fired": report.fired,
                  "conditions_checked": report.conditions_checked,
                  "boxes_before": before, "boxes_after": after,
                  "plans_generated": optimizer.generator.stats
                  .plans_generated}
        return counts, [parse, trans, rewrite, optimize]

    def _run(self, compiled, op: Op):
        with self.rec.span("executor.run.%s" % (op.kind or "other")) as span:
            result = self.db.run_compiled(compiled, op.params)
        self.run_spans.append(span)
        self.rows_scanned += getattr(result.stats, "rows_scanned", 0)
        return result, span

    def execute(self, op: Op):
        from repro.core.plancache import fingerprint_statement

        rec, db = self.rec, self.db
        rec.next_statement()
        counts: Dict[str, int] = {}
        with rec.span("statement"):
            try:
                with rec.span("plancache.fingerprint"):
                    fingerprint_statement(op.sql)
            except _MISSING as exc:
                _degraded("fingerprint", exc)
            if op.fresh:
                phases = None
                try:
                    counts, phases = self._phases(op.sql)
                except _MISSING as exc:
                    _degraded("compile-phase", exc)
                with rec.span("core.compile") as whole:
                    compiled = db.compile(op.sql)
                if phases is not None:
                    self.compiles.append((whole, phases))
                result, _ = self._run(compiled, op)
            else:
                compiled = self.held.get(op.sql)
                if compiled is None:
                    with rec.span("core.compile.held"):
                        compiled = self.held[op.sql] = db.compile(op.sql)
                if op.kind == "write":
                    # A write must happen once: alternate the two paths.
                    self._write_flip = not self._write_flip
                    if self._write_flip:
                        with rec.span("core.execute"):
                            result = db.execute(op.sql, op.params)
                    else:
                        result, _ = self._run(compiled, op)
                else:
                    with rec.span("core.execute") as cached:
                        result = db.execute(op.sql, op.params)
                    _again, ran = self._run(compiled, op)
                    if op.kind == "point":
                        self.cache_pairs.append((cached, ran))
        self.compile_counts.append(counts)
        return result


class TracedWire:
    """A wire connection: the client call is the only span the
    benchmark can take from outside the server."""

    wire = True

    def __init__(self, conn, recorder: spans.SpanRecorder):
        self.conn = conn
        self.rec = recorder

    def close(self) -> None:
        self.conn.close()

    def execute(self, op: Op):
        self.rec.next_statement()
        with self.rec.span("statement"):
            with self.rec.span("serve.wire"):
                return self.conn.execute(op)


# -- single-threaded probes ---------------------------------------------

def _timed(call: Callable[[], object], repeats: int,
           calibration: Calibration) -> List[float]:
    """Milliseconds of each of ``repeats`` calls, at reference speed."""
    out = []
    for _ in range(repeats):
        calibration.maybe_sample(perf_counter())
        began = perf_counter()
        call()
        out.append((began, perf_counter()))
    calibration.sample()
    return [calibration.scaled(*span) * 1e3 for span in out]


def index_probe_us(state, seed: int, calibration: Calibration) -> float:
    """Mean microseconds of the primary-key access method's lookup."""
    try:
        access = state.db.engine.access_method(state.pk_index)
        rng = random.Random(seed)
        keys = [(rng.randrange(state.pk_keys),) for _ in range(INDEX_PROBES)]

        def lookups() -> None:
            for key in keys:
                access.probe(key)

        return _timed(lookups, 1, calibration)[0] / len(keys) * 1e3
    except _MISSING as exc:
        _degraded("index", exc)
        return 0.0


def serve_onion(workload: Workload, data, state,
                calibration: Calibration) -> Dict[str, float]:
    """The same warm point read through each shell of the server: what
    ``WireClient`` adds to ``Session``, ``Session`` to ``Database``, and
    ``Database.execute`` to ``run_compiled``."""
    out = {"serve.wire_overhead_ms": 0.0, "serve.session_overhead_ms": 0.0,
           "serve.encode_ms": 0.0}
    op = workload.probe_point(data)
    if state.server is None or op is None:
        return out
    try:
        from repro.serve.wire import encode_result

        db = state.db
        conn = workload.connect(state, 0)
        session = state.server.session()
        try:
            compiled = db.compile(op.sql)
            result = db.execute(op.sql)
            shells = {
                "wire": lambda: conn.execute(op),
                "session": lambda: session.execute(op.sql),
                "database": lambda: db.execute(op.sql),
                "executor": lambda: db.run_compiled(compiled),
                "encode": lambda: encode_result(result),
            }
            for call in shells.values():  # warm every path once
                call()
            took = {name: statistics.median(
                        _timed(call, PROBE_REPEATS, calibration))
                    for name, call in shells.items()}
        finally:
            session.close()
            conn.close()
        out.update(("onion.%s_ms" % name, ms) for name, ms in took.items())
        out["serve.wire_overhead_ms"] = took["wire"] - took["session"]
        out["serve.session_overhead_ms"] = (took["session"]
                                            - took["database"])
        out["serve.encode_ms"] = took["encode"]
        out["plancache.overhead_ms"] = took["database"] - took["executor"]
        out["executor.point_run_ms"] = took["executor"]
    except _MISSING as exc:
        _degraded("serve-onion", exc)
    return out


# -- putting the pass together ------------------------------------------

def _first_round_sum(tracers: List[TracedLocal], runs, name: str) -> int:
    return sum(counts.get(name, 0)
               for tracer, run in zip(tracers, runs)
               for counts in tracer.compile_counts[:run.first_statements])


def traced_run(workload: Workload, data, state, seed: int, seconds: float,
               calibration: Calibration, units: Dict[str, str],
               out_dir: str):
    """Returns (every ClientRun of both passes, the per-layer metrics).
    ``units`` names the metrics to report (``BENCHMARK.json``'s
    ``per_layer``) and their units."""
    def scaled_ms(span: spans.Span) -> float:
        return calibration.scaled(span.start, span.end) * 1e3

    before = counters(state)
    counted = harness.run_clients(
        workload, data, state, seed, "counter", calibration,
        lambda run, conn, rounds, sampler: harness.drive(
            run, conn, rounds, seconds * COUNTER_SHARE, True, sampler))
    after = counters(state)
    delta = {name: after[name] - before[name] for name in after
             if name in before}

    recorders: List[spans.SpanRecorder] = []
    tracers: List[TracedLocal] = []

    def span_body(run, conn, rounds, sampler) -> None:
        recorder = spans.SpanRecorder(run.client)
        recorders.append(recorder)
        if conn.wire:
            traced = TracedWire(conn, recorder)
        else:
            traced = TracedLocal(conn.db, recorder)
            tracers.append(traced)
        harness.drive(run, traced, rounds, seconds * (1 - COUNTER_SHARE),
                      False, sampler)

    spanned = harness.run_clients(workload, data, state, seed, "span",
                                  calibration, span_body)
    tracers.sort(key=lambda tracer: tracer.rec.client)

    durations: Dict[str, List[float]] = {}
    self_ms: Dict[str, List[float]] = {}
    for recorder in recorders:
        # Self time keeps each span's own share of its compensated
        # duration: the raw self/duration ratio times the scaled span.
        scaled = [scaled_ms(span) for span in recorder.spans]
        own = [mine * whole / span.duration if span.duration else 0.0
               for mine, whole, span in zip(
                   spans.self_times(recorder.spans), scaled, recorder.spans)]
        for name, values in spans.by_name(recorder.spans, scaled).items():
            durations.setdefault(name, []).extend(values)
        for name, values in spans.by_name(recorder.spans, own).items():
            self_ms.setdefault(name, []).extend(values)

    def median(name: str) -> float:
        return median_or_zero(durations.get(name, []))

    first = {name: sum(run.first_round.get(name, 0) for run in counted)
             for name in harness.STAT_FIELDS}
    writes = sum(run.writes for run in counted)
    pairs = [pair for tracer in tracers for pair in tracer.cache_pairs]
    run_seconds = sum(scaled_ms(span) for tracer in tracers
                      for span in tracer.run_spans) / 1e3
    metrics = {
        "language.parse_ms": median("language.parse"),
        "language.translate_ms": median("language.translate"),
        "qgm.boxes_before": _first_round_sum(tracers, spanned,
                                             "boxes_before"),
        "qgm.boxes_after": _first_round_sum(tracers, spanned, "boxes_after"),
        "rewrite.run_ms": median("rewrite.run"),
        "rewrite.rules_fired": _first_round_sum(tracers, spanned,
                                                "rules_fired"),
        "rewrite.conditions_checked": _first_round_sum(
            tracers, spanned, "conditions_checked"),
        "optimizer.optimize_ms": median("optimizer.optimize"),
        "optimizer.plans_generated": _first_round_sum(
            tracers, spanned, "plans_generated"),
        "core.compile_ms": median("core.compile"),
        "core.refine_ms": median_or_zero(
            [scaled_ms(whole) - sum(scaled_ms(phase) for phase in phases)
             for tracer in tracers for whole, phases in tracer.compiles]),
        "plancache.fingerprint_ms": median("plancache.fingerprint"),
        "plancache.overhead_ms": median_or_zero(
            [scaled_ms(cached) - scaled_ms(ran) for cached, ran in pairs]),
        "plancache.hit_ratio": _ratio(
            delta.get("cache_hits", 0),
            delta.get("cache_hits", 0) + delta.get("cache_misses", 0)),
        "plancache.evictions": delta.get("cache_evictions", 0),
        "executor.rows_scanned": first["rows_scanned"],
        "executor.rows_per_s": _ratio(
            sum(tracer.rows_scanned for tracer in tracers), run_seconds),
        "storage.load_rows_per_s": _ratio(state.load_rows,
                                          state.load_seconds),
        "storage.buffer_hit_ratio": _ratio(
            delta.get("pool_hits", 0),
            delta.get("pool_hits", 0) + delta.get("pool_misses", 0)),
        "storage.buffer_evictions": delta.get("pool_evictions", 0),
        "storage.wal_records_per_write": _ratio(delta.get("wal", 0), writes),
        "access.index_probe_us": index_probe_us(state, seed, calibration),
        "serve.snapshot_reads": delta.get(
            "repro_serve_snapshot_reads_total", 0),
        "serve.live_reads": delta.get("repro_serve_live_reads_total", 0),
        "serve.snapshot_forks": delta.get(
            "repro_serve_snapshot_forks_total", 0),
        "serve.fork_ms": _ratio(
            delta.get("repro_serve_snapshot_fork_ms_sum", 0),
            delta.get("repro_serve_snapshot_fork_ms_count", 0)),
        "serve.queue_wait_ms": _ratio(
            delta.get("repro_serve_queue_wait_ms_sum", 0),
            delta.get("repro_serve_queue_wait_ms_count", 0)),
        "serve.shed": delta.get("repro_serve_shed_total", 0),
        "obs.trace_overhead_ratio": _ratio(
            harness.throughput(spanned, calibration),
            harness.throughput(counted, calibration)),
    }
    for name in CLASSES:
        metrics["executor.%s_run_ms" % name] = median(
            "executor.run.%s" % name)
    for name in harness.STAT_FIELDS:
        if name != "rows_scanned":
            metrics["executor.%s" % name] = first[name]
    metrics.update(serve_onion(workload, data, state, calibration))

    onion = {name: ms for name, ms in metrics.items()
             if name.startswith("onion.")}
    metrics = {name: {"value": metrics[name], "unit": unit}
               for name, unit in units.items()}
    summary = {
        "workload": workload.name, "seed": seed, "metrics": metrics,
        "onion_ms": onion,
        "spans": {name: {"n": len(values),
                         "median_ms": statistics.median(values),
                         "median_self_ms": statistics.median(self_ms[name])}
                  for name, values in sorted(durations.items())},
    }
    os.makedirs(out_dir, exist_ok=True)
    spans.dump(os.path.join(out_dir, "trace-%s.json" % workload.name),
               recorders, summary)
    return counted + spanned, metrics


def report(workload: Workload, metrics, checked: int, wrong: int,
           notes: List[str], out=sys.stdout) -> None:
    print("workload %s: traced pass" % workload.name, file=out)
    for name, entry in metrics.items():
        print("  %-32s %14.4f %s" % (name, entry["value"], entry["unit"]),
              file=out)
    print("  answers checked %d, wrong %d" % (checked, wrong), file=out)
    for note in notes:
        print("  ! " + note, file=out)
