"""One forked worker pool: the substrate under morsels and snapshot
reads.

``fork()`` is how this engine gets a consistent read image without
storage-level MVCC: a child inherits the open in-memory database
copy-on-write, frozen at the moment of the fork.  A :class:`WorkerPool`
is N such children plus everything that has to be right about them
exactly once:

- **fork point** — the calling thread forks the workers; the database
  rides in ``Process(args=...)``, which under the fork start method is
  plain inherited memory, so no module global is staged beforehand.
  Whoever needs the image quiesced (the server's fork gate) holds that
  around the constructor.
- **child boot** — a parent *thread* may hold any of the database's
  locks at fork time and does not exist in the child, so the child
  first swaps in fresh locks (``Database.reinit_locks_after_fork``) and
  drops the inherited parallel runtime (the handle is the parent's;
  workers run exchanges inline).
- **framing** — a request is ``(function, payload)`` over the worker's
  own pipe, run as ``function(db, payload)``; the reply is ``("ok",
  value)`` or ``("err", class_name, message)``.  An error reply leaves
  the worker serving — also for a request the worker cannot unpickle.
- **lease** — a worker belongs to exactly one caller between request
  and reply, so any number of threads may share a pool.  Free workers
  form a stack: a caller gets the most recently released one, so a
  lone client keeps landing on the worker whose plan cache it warmed.
- **retirement** — a retired pool refuses new callers at once but
  stops its workers only after the callers inside have left: nobody
  closes a pipe under a blocked reader.  The stop (kill + join of every
  worker) never runs on a caller's thread: :meth:`WorkerPool.retire`
  leaves it to a reaper thread that waits for the last lease, and
  :meth:`WorkerPool.terminate` runs it on its own thread when the pool
  is idle.
- **health** — a worker whose pipe broke is killed and never leased
  again; nothing is respawned.  The pool keeps serving on the workers
  it has left and reports itself unhealthy; its owner replaces it the
  way it replaces a stale one.
- **version** — the pool is stamped with :func:`data_version`, the one
  ``(schema_epoch, stats_epoch, dml_clock)`` triple, read just before
  the fork (the image is never older than its stamp).
"""

from __future__ import annotations

import multiprocessing
import threading
from multiprocessing.connection import wait
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError, rebuild_error


class WorkerPoolError(ReproError):
    """The pool could not carry a request: it is retired, or the worker
    died.  Callers degrade (live read, inline dop=1) — the statement
    itself is not at fault."""


def data_version(db) -> Tuple[int, int, int]:
    """The triple that says whether a forked image of ``db`` is stale."""
    catalog = db.catalog
    return (catalog.schema_epoch, catalog.stats_epoch, catalog.dml_clock)


def _serve(db, conn) -> None:
    """A worker's whole life: boot once, then answer requests."""
    db.reinit_locks_after_fork()
    db._parallel_runtime = None
    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break  # the parent is gone
            except Exception as exc:
                # Read in full but not unpickled — say, a function this
                # fork never inherited: answer it, keep serving.
                conn.send(("err", type(exc).__name__, str(exc)))
                continue
            if request is None:
                break
            function, payload = request
            try:
                conn.send(("ok", function(db, payload)))
            except Exception as exc:  # ship the error, keep serving
                conn.send(("err", type(exc).__name__, str(exc)))
    except (EOFError, OSError):
        pass  # the parent is gone; nothing left to answer
    finally:
        conn.close()


class _Worker:
    __slots__ = ("process", "conn", "alive")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.alive = True


class WorkerPool:
    """``size`` forked workers serving one frozen image of ``db``."""

    def __init__(self, db, size: int):
        self.size = max(1, size)
        self.version = data_version(db)
        self.closed = False
        self._workers: List[_Worker] = []
        #: Guards the free stack, the live count, the callers-inside
        #: count and the retirement flag; waited on for a free worker.
        self._cond = threading.Condition()
        self._leases = 0
        self._terminating = False
        #: The thread stopping the workers of a retired pool that was
        #: not idle (None until then).
        self.reaper: Optional[threading.Thread] = None
        context = multiprocessing.get_context("fork")
        try:
            for _ in range(self.size):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_serve, args=(db, child_conn), daemon=True)
                process.start()
                child_conn.close()
                self._workers.append(_Worker(process, parent_conn))
        except BaseException:
            self._shutdown()  # a half-forked pool leaves no strays
            raise
        self._free = list(self._workers)
        self._alive = self.size

    @property
    def healthy(self) -> bool:
        """True while every worker is running and no pipe has broken."""
        return self._alive == self.size and all(
            worker.process.is_alive() for worker in self._workers)

    # -- the calling surface -------------------------------------------------

    def call(self, function: Callable, payload: Any) -> Tuple:
        """Run ``function(db, payload)`` in one worker and return its
        reply tuple — ``("ok", value)`` or ``("err", class_name,
        message)``.  Raises :class:`WorkerPoolError` if the pool is
        retired or the worker died."""
        return self._run(function, [payload])[0]

    def map(self, function: Callable, payloads: Sequence[Any]) -> List[Any]:
        """Run ``function(db, payload)`` for every payload on as many
        workers as are free right now (at least one), handing the next
        payload to whichever worker replies first.  Returns the values
        in payload order; the first error reply is re-raised as the
        engine error it names."""
        values = []
        for reply in self._run(function, payloads):
            if reply[0] != "ok":
                raise rebuild_error(reply[1], reply[2])
            values.append(reply[1])
        return values

    def terminate(self) -> None:
        """Retire the pool and stop the workers on this thread if no
        caller is inside; otherwise as :meth:`retire`."""
        with self._cond:
            idle = not self._terminating and not self._leases
            self._terminating = self._terminating or idle
        if idle:
            self._shutdown()
        else:
            self.retire()

    def retire(self) -> None:
        """Refuse new callers now; a reaper thread stops the workers
        once the callers already inside have their replies."""
        with self._cond:
            if self._terminating:
                return
            self._terminating = True
        self.reaper = threading.Thread(
            target=self._reap, name="pool-reaper", daemon=True)
        self.reaper.start()

    # -- internals -----------------------------------------------------------

    def _run(self, function, payloads) -> List[Tuple]:
        """Replies in payload order.  After an error reply or a death no
        further payload is handed out, but every request already sent
        is read back first: a worker with an unread reply in its pipe
        must not reach the next caller."""
        replies: List[Any] = [None] * len(payloads)
        if not payloads:
            return replies
        todo = list(enumerate(payloads))
        todo.reverse()
        workers = self._lease(len(payloads))
        idle = list(workers)
        busy: dict = {}
        died = None
        try:
            while True:
                while idle and todo:
                    worker = idle.pop()
                    index, payload = todo.pop()
                    try:
                        worker.conn.send((function, payload))
                    except OSError as exc:
                        # repr, not exc: its traceback holds this frame.
                        died = repr(exc)
                        self._bury(worker)
                        todo.clear()
                    else:
                        busy[worker.conn] = (worker, index)
                if not busy:
                    break
                ready = wait(list(busy)) if len(busy) > 1 else list(busy)
                for conn in ready:
                    worker, index = busy[conn]
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError) as exc:
                        died = repr(exc)
                        self._bury(worker)
                        todo.clear()
                    else:
                        replies[index] = reply
                        idle.append(worker)
                        if reply[0] != "ok":
                            todo.clear()
                    del busy[conn]
        finally:
            for worker, _index in busy.values():
                self._bury(worker)  # left mid-request by an exception
            self._release(workers)
        if died is not None:
            raise WorkerPoolError("worker died: %s" % died)
        return replies

    def _lease(self, want: int) -> List[_Worker]:
        """Enter the pool and take 1..``want`` free workers, blocking
        for the first only: two callers each holding one worker and
        waiting for a second would never finish."""
        with self._cond:
            if self._terminating:
                raise WorkerPoolError("pool is retired")
            self._leases += 1
            while not self._free and self._alive:
                self._cond.wait()
            taken = self._free[-want:]
            del self._free[-want:]
        if not taken:
            self._release(taken)
            raise WorkerPoolError("worker died: none left in the pool")
        return taken

    def _release(self, workers: List[_Worker]) -> None:
        with self._cond:
            self._free.extend(w for w in workers if w.alive)
            self._leases -= 1
            self._cond.notify_all()

    def _reap(self) -> None:
        with self._cond:
            while self._leases:
                self._cond.wait()
        self._shutdown()

    def _bury(self, worker: _Worker) -> None:
        with self._cond:
            if worker.alive:
                worker.alive = False
                self._alive -= 1
                self._cond.notify_all()
        worker.process.kill()
        worker.conn.close()

    def _shutdown(self) -> None:
        # The image is read-only and nobody is mid-request: nothing to
        # flush, so the workers are simply killed and reaped.
        for worker in self._workers:
            worker.process.kill()
        for worker in self._workers:
            worker.process.join()
            worker.conn.close()
        self.closed = True
