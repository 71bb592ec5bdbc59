"""The forked worker pool, driven directly.

Morsels, SHIP and snapshot reads all run on
``repro.executor.workerpool.WorkerPool``; what has to be right about a
fork pool exactly once — reply order, error replies, leases, deferred
terminate, death, post-fork locks — is pinned here rather than once per
user.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import Database
from repro.errors import DivisionByZeroError, ExecutionError
from repro.executor import parallel
from repro.executor.workerpool import (
    WorkerPool,
    WorkerPoolError,
    data_version,
)

pytestmark = pytest.mark.skipif(not parallel.fork_available(),
                                reason="fork() unavailable")


# Handlers run in the forked workers as ``handler(db, payload)``.

def _echo_after(db, payload):
    delay, value = payload
    time.sleep(delay)
    return value, os.getpid()


def _fail(db, message):
    raise DivisionByZeroError(message)


def _count(db, table):
    return db.execute("SELECT count(*) FROM %s" % table).scalar()


def _small_db(rows: int = 30) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER)")
    txn = db.begin()
    for i in range(rows):
        db.engine.insert(txn, "t", (i,))
    db.commit(txn)
    return db


@pytest.fixture
def db():
    database = _small_db()
    yield database
    database.close()


def _in_thread(target):
    """Run ``target()`` on a thread; returns (thread, outcome dict)."""
    outcome = {}

    def run():
        try:
            outcome["value"] = target()
        except BaseException as exc:  # noqa: BLE001 - asserted by caller
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def test_map_returns_payload_order_when_the_first_is_slowest(db):
    pool = WorkerPool(db, 2)
    try:
        payloads = [(0.3, "slow")] + [(0.0, i) for i in range(5)]
        values = pool.map(_echo_after, payloads)
        assert [value for value, _pid in values] == \
            ["slow", 0, 1, 2, 3, 4]
        # The other worker took the rest while the first one slept.
        assert len({pid for _value, pid in values[1:]}) == 1
        assert values[0][1] != values[1][1]
        assert pool.map(_echo_after, []) == []
    finally:
        pool.terminate()


def test_lease_is_lifo_so_a_lone_caller_keeps_its_worker(db):
    """The most recently released worker is leased next: consecutive
    calls from one caller reuse the worker whose caches they warmed."""
    pool = WorkerPool(db, 3)
    try:
        pids = [pool.call(_echo_after, (0.0, i))[1][1] for i in range(4)]
        assert len(set(pids)) == 1
        # A map spreads over free workers and still answers in order.
        values = pool.map(_echo_after, [(0.05, i) for i in range(6)])
        assert [value for value, _pid in values] == list(range(6))
        assert pool.call(_echo_after, (0.0, None))[1][1] in \
            {pid for _value, pid in values}
    finally:
        pool.terminate()


def test_error_reply_does_not_poison_the_worker(db):
    pool = WorkerPool(db, 1)
    try:
        assert pool.call(_fail, "boom") == \
            ("err", "DivisionByZeroError", "boom")
        assert pool.call(_count, "t") == ("ok", 30)
        # map re-raises the named engine error and hands out no more.
        with pytest.raises(DivisionByZeroError, match="boom"):
            pool.map(_fail, ["boom", "never sent"])
        assert pool.map(_count, ["t", "t"]) == [30, 30]
        assert pool.healthy
    finally:
        pool.terminate()


def test_request_the_worker_cannot_unpickle_gets_an_error_reply(db):
    """A function that exists only in the parent — bound after the
    fork — pickles by reference there and fails to unpickle in the
    worker: the worker answers with an error reply and keeps serving."""
    import sys

    pool = WorkerPool(db, 1)
    module = sys.modules[__name__]

    def late(db, payload):
        return payload

    late.__qualname__ = late.__name__ = "_bound_after_fork"
    module._bound_after_fork = late
    try:
        status, class_name, _message = pool.call(late, "x")
        assert (status, class_name) == ("err", "AttributeError")
        with pytest.raises(ExecutionError, match="AttributeError"):
            pool.map(late, ["x"])
        assert pool.call(_count, "t") == ("ok", 30)
        assert pool.healthy
    finally:
        del module._bound_after_fork
        pool.terminate()


def test_worker_killed_mid_call_is_never_leased_again(db):
    pool = WorkerPool(db, 2)
    try:
        assert pool.healthy and pool.version == data_version(db)
        reader, outcome = _in_thread(
            lambda: pool.call(_echo_after, (30.0, None)))
        time.sleep(0.2)
        (leased,) = [w for w in pool._workers if w not in pool._free]
        victim = leased.process.pid
        leased.process.kill()
        reader.join(10)
        assert not reader.is_alive(), "reader hung on a dead worker"
        assert isinstance(outcome["error"], WorkerPoolError)
        assert "worker died" in str(outcome["error"])
        assert not pool.healthy
        survivors = {pool.call(_echo_after, (0.0, None))[1][1]
                     for _ in range(6)}
        assert len(survivors) == 1 and victim not in survivors
    finally:
        pool.terminate()


def test_pool_with_no_worker_left_raises_instead_of_blocking(db):
    pool = WorkerPool(db, 2)
    try:
        for worker in pool._workers:
            worker.process.kill()
            worker.process.join(5)
        assert not pool.healthy  # seen before anybody drew a dead worker
        for _ in range(3):  # two draws bury the dead, the third finds none
            with pytest.raises(WorkerPoolError, match="worker died"):
                pool.call(_count, "t")
    finally:
        pool.terminate()


def test_terminate_under_a_blocked_reader_is_deferred(db):
    pool = WorkerPool(db, 1)
    reader, outcome = _in_thread(
        lambda: pool.call(_echo_after, (0.5, "late")))
    time.sleep(0.1)
    started = time.monotonic()
    pool.terminate()
    assert time.monotonic() - started < 0.3, "terminate waited for reader"
    assert not pool.closed
    with pytest.raises(WorkerPoolError, match="retired"):
        pool.call(_count, "t")
    reader.join(10)
    assert not reader.is_alive()
    assert outcome["value"][1][0] == "late"
    pool.reaper.join(10)  # the reaper stops the workers once it left
    assert pool.closed
    assert not any(w.process.is_alive() for w in pool._workers)


def test_reader_inside_a_terminated_pool_never_runs_the_reap(
        db, monkeypatch):
    """The kill + join of a retired pool's workers is not the last
    reader's to pay: with a reader leased across ``terminate()``, the
    reap runs on the pool's reaper thread, after the reader left."""
    stoppers = []
    real_shutdown = WorkerPool._shutdown

    def recording_shutdown(pool):
        stoppers.append(threading.current_thread())
        real_shutdown(pool)

    monkeypatch.setattr(WorkerPool, "_shutdown", recording_shutdown)
    pool = WorkerPool(db, 2)
    reader, outcome = _in_thread(
        lambda: pool.call(_echo_after, (0.3, "late")))
    time.sleep(0.1)
    pool.terminate()
    assert stoppers == []  # the caller of terminate() did not wait
    reader.join(10)
    assert outcome["value"][1][0] == "late"
    pool.reaper.join(10)
    assert stoppers == [pool.reaper]
    assert reader not in stoppers
    assert pool.closed
    # An idle pool is stopped by whoever terminates it.
    idle = WorkerPool(db, 1)
    idle.terminate()
    assert stoppers[-1] is threading.current_thread()
    assert idle.closed and idle.reaper is None


def test_fork_while_a_thread_holds_the_buffer_pool_lock(db):
    """The child inherits the lock held by a thread that does not exist
    in it; without the boot-time lock swap its first page read blocks
    forever."""
    held, release = threading.Event(), threading.Event()

    def hold_pool_lock():
        with db.engine.pool._lock:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold_pool_lock, daemon=True)
    holder.start()
    pool = None
    try:
        assert held.wait(5)
        pool = WorkerPool(db, 1)  # fork under the lock
        release.set()
        holder.join(5)
        reader, outcome = _in_thread(lambda: pool.call(_count, "t"))
        reader.join(30)
        assert not reader.is_alive(), "worker hung on an inherited lock"
        assert outcome["value"] == ("ok", 30)
    finally:
        release.set()
        if pool is not None:
            pool.terminate()


def test_two_databases_map_through_their_own_pools_concurrently():
    """Nothing about a pool lives in module state, so two Databases in
    one process cannot reach each other's workers (PR 8's shuffle-queue
    clobber)."""
    first, second = _small_db(30), _small_db(70)
    pools = [WorkerPool(first, 2), WorkerPool(second, 2)]
    try:
        threads = [_in_thread(lambda pool=pool: [
            pool.map(_count, ["t"] * 4) for _ in range(10)])
            for pool in pools]
        for thread, _outcome in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert threads[0][1]["value"] == [[30] * 4] * 10
        assert threads[1][1]["value"] == [[70] * 4] * 10
    finally:
        for pool in pools:
            pool.terminate()
        first.close()
        second.close()


def test_many_threads_share_a_small_pool(db):
    """More callers than workers: a worker belongs to one caller while
    leased, so no reply reaches the wrong thread."""
    pool = WorkerPool(db, 2)
    try:
        threads = [_in_thread(lambda tag=tag: [
            pool.map(_echo_after, [(0.0, (tag, i)) for i in range(3)])
            for _ in range(20)]) for tag in range(6)]
        for tag, (thread, outcome) in enumerate(threads):
            thread.join(60)
            assert not thread.is_alive(), "caller deadlocked"
            for values in outcome["value"]:
                assert [value for value, _pid in values] == \
                    [(tag, i) for i in range(3)]
    finally:
        pool.terminate()
        assert pool.closed
