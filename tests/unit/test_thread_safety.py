"""Hammer tests for the shared substrate under threads.

The serving layer multiplexes sessions over threads, so the pieces
every statement touches — plan cache, metrics registry, catalog
epochs — must tolerate concurrent mutation without lost updates or
corrupted stats.  These tests drive them from 8 threads and assert
exact counts afterwards.
"""

from __future__ import annotations

import threading

from repro.core.database import Database
from repro.core.plancache import PlanCache
from repro.obs.metrics import MetricsRegistry
from repro.storage.lock import LockManager, LockMode

THREADS = 8
PER_THREAD = 200


def hammer(worker) -> None:
    """Run ``worker(thread_index)`` on THREADS threads, re-raising any
    worker exception in the test thread."""
    failures = []

    def run(index):
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "worker deadlocked"
    if failures:
        raise failures[0]


class TestMetricsRegistry:
    def test_counter_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammered_total", "test counter")

        def worker(_index):
            for _ in range(PER_THREAD):
                counter.inc()

        hammer(worker)
        assert counter.value == THREADS * PER_THREAD

    def test_histogram_observation_count_is_exact(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("hammered_seconds", "test hist")

        def worker(index):
            for i in range(PER_THREAD):
                histogram.observe(0.001 * (index + 1) + 0.000001 * i)

        hammer(worker)
        snap = histogram.snapshot()
        assert snap["count"] == THREADS * PER_THREAD
        # Bucket counts are internally consistent with the total
        # (cumulative buckets + overflow == observations).
        bucketed = max(snap["buckets"].values()) if snap["buckets"] else 0
        assert bucketed + histogram.overflow == THREADS * PER_THREAD

    def test_concurrent_registration_dedupes(self):
        registry = MetricsRegistry()
        seen = []
        seen_lock = threading.Lock()

        def worker(_index):
            for _ in range(PER_THREAD):
                metric = registry.counter("shared_total", "one")
                with seen_lock:
                    seen.append(metric)

        hammer(worker)
        first = seen[0]
        assert all(metric is first for metric in seen)

    def test_exposition_during_mutation_does_not_deadlock(self):
        registry = MetricsRegistry()
        counter = registry.counter("spin_total", "test")
        registry.histogram("spin_seconds", "test").observe(0.1)

        def worker(index):
            for _ in range(PER_THREAD):
                if index % 2:
                    counter.inc()
                else:
                    text = registry.exposition()
                    assert "spin_total" in text

        hammer(worker)
        assert counter.value == (THREADS // 2) * PER_THREAD


class _FakeCompiled:
    """Just enough of a compiled statement for PlanCache bookkeeping."""

    def __init__(self, text):
        self.text = text
        self.dependencies = frozenset()
        self.is_query = True
        self.plan = None
        self.options = None


class TestPlanCacheHammer:
    def test_insert_lookup_hammer_keeps_capacity_and_stats(self):
        db = Database()
        catalog = db.catalog
        db.close()
        cache = PlanCache(capacity=32)

        def worker(index):
            for i in range(PER_THREAD):
                key = ("q%04d" % ((index * 7 + i) % 64), "default")
                if cache.lookup(catalog, key) is None:
                    cache.insert(catalog, key, _FakeCompiled(key[0]))

        hammer(worker)
        stats = cache.stats()
        assert len(cache) <= 32
        # Every lookup was counted exactly once, hit or miss.
        assert stats["hits"] + stats["misses"] == THREADS * PER_THREAD
        # The OrderedDict survived: all remaining entries are readable.
        assert len(stats["per_entry"]) == len(cache)

    def test_eviction_counter_is_consistent(self):
        db = Database()
        catalog = db.catalog
        db.close()
        cache = PlanCache(capacity=4)

        def worker(index):
            for i in range(PER_THREAD):
                key = ("e%04d" % (index * PER_THREAD + i), "default")
                cache.insert(catalog, key, _FakeCompiled(key[0]))

        hammer(worker)
        stats = cache.stats()
        assert len(cache) <= 4
        # inserts - evictions = residents (no entry lost or duplicated)
        assert THREADS * PER_THREAD - stats["evictions"] == len(cache)


class TestLockManagerStaleState:
    def test_waiter_survives_state_garbage_collection(self):
        """Regression: release_all() garbage-collects lock states nobody
        holds or waits on.  A sleeping waiter used to be invisible to
        that check, so its state could be deleted and replaced while it
        slept — it then watched an orphaned object forever (hang) or
        granted itself a lock inside it (lost mutual exclusion)."""
        locks = LockManager(timeout=30.0)
        resource = ("table", "r")
        locks.acquire(1, resource, LockMode.EXCLUSIVE)
        waiter_holds = threading.Event()

        def waiter():
            locks.acquire(2, resource, LockMode.EXCLUSIVE)
            waiter_holds.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        # Wait until txn 2 is registered as a sleeping waiter.
        for _ in range(1000):
            with locks._mutex:
                if locks._locks.get(resource) is not None and \
                        locks._locks[resource].waiters:
                    break
            threading.Event().wait(0.005)
        # Txn 1 releases; pre-fix the state was deleted here (holders
        # empty, waiters not maintained) and txn 3 would recreate it.
        locks.release_all(1)
        with locks._mutex:
            assert resource in locks._locks, \
                "state with a sleeping waiter was garbage-collected"
        # The waiter gets the lock, and exclusively.
        assert waiter_holds.wait(timeout=10), "waiter never woke"
        assert locks.mode_held(2, resource) is LockMode.EXCLUSIVE
        locks.release_all(2)


class TestDatabaseUnderThreads:
    def test_prepare_execute_hammer_no_lost_updates(self):
        """8 threads preparing and executing against one Database: every
        insert lands, every read completes, plan-cache stats add up."""
        db = Database()
        db.execute("CREATE TABLE h (tid INTEGER, seq INTEGER)")
        reads_done = [0] * THREADS

        def worker(index):
            insert = db.prepare("INSERT INTO h VALUES (?, ?)")
            count = db.prepare("SELECT count(*) FROM h WHERE tid = ?")
            for i in range(40):
                txn = db.begin()
                try:
                    insert.execute((index, i), txn=txn)
                    db.commit(txn)
                except BaseException:
                    db.rollback(txn)
                    raise
                # Own writes are visible, at least, plus any racing ones.
                assert count.execute((index,)).scalar() >= i + 1
                reads_done[index] += 1

        try:
            hammer(worker)
            total = db.execute("SELECT count(*) FROM h").scalar()
        finally:
            db.close()
        assert reads_done == [40] * THREADS
        assert total == THREADS * 40

    def test_plan_cache_stats_add_up_after_hammer(self):
        db = Database()
        db.execute("CREATE TABLE s (a INTEGER)")
        db.execute("INSERT INTO s VALUES (1)")

        def worker(_index):
            for _ in range(60):
                assert db.execute("SELECT count(*) FROM s").scalar() == 1

        try:
            hammer(worker)
            stats = db.plan_cache.stats(db.catalog)
        finally:
            db.close()
        # One compiled entry serves every thread; the counters saw each
        # probe exactly once (no lost hits under contention).
        assert stats["hits"] + stats["misses"] >= THREADS * 60

    def test_catalog_epoch_bumps_are_not_lost(self):
        db = Database()
        db.execute("CREATE TABLE e (a INTEGER)")
        catalog = db.catalog
        start_stats = catalog.stats_epoch
        start_clock = catalog.dml_clock

        def worker(_index):
            for _ in range(PER_THREAD):
                catalog.bump_stats_epoch("e")
                catalog.note_mutation()

        try:
            hammer(worker)
        finally:
            db.close()
        assert catalog.stats_epoch == start_stats + THREADS * PER_THREAD
        assert catalog.dml_clock == start_clock + THREADS * PER_THREAD


class TestParallelRuntimeUnderThreads:
    def test_readers_finish_while_a_writer_forces_reforks(self):
        """4 readers run parallel scans while a writer keeps moving the
        data version, so every other statement swaps the worker pool.
        The swap is locked and the old pool's terminate() waits for the
        statements still inside it; before that, a reader could block
        forever in a pool another thread had just torn down."""
        from repro import CompileOptions
        from repro.executor import parallel

        if not parallel.fork_available():
            return
        initial = 20000
        db = Database(pool_capacity=512)
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        txn = db.begin()
        for i in range(initial):
            db.engine.insert(txn, "t", (i, 3))
        db.commit(txn)
        db.analyze()
        assert db.engine.table_page_count("t") >= 2
        options = CompileOptions.from_settings(db.settings).replace(
            parallelism="on", dop=2)
        results = [[] for _ in range(4)]
        stop = threading.Event()

        def reader(index):
            for _ in range(30):
                results[index].append(db.execute(
                    "SELECT a, b FROM t WHERE b = 3", options=options))

        def writer():
            extra = initial
            while not stop.wait(0.02):
                db.execute("INSERT INTO t VALUES (?, 3)", (extra,))
                extra += 1

        threads = [threading.Thread(target=reader, args=(i,), daemon=True)
                   for i in range(4)]
        writing = threading.Thread(target=writer, daemon=True)
        try:
            writing.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            hung = [t.name for t in threads if t.is_alive()]
        finally:
            stop.set()
            writing.join(timeout=30)
            db.close()
        assert not hung, "readers stuck in a torn-down pool: %s" % hung
        for per_reader in results:
            assert len(per_reader) == 30
            for result in per_reader:
                assert len(result.rows) >= initial
                for reason in result.stats.parallel_reasons:
                    assert "NoneType" not in reason
                    assert "Pool is still running" not in reason
