"""Lock manager: strict two-phase locking with deadlock detection.

Resources are hashable keys — the engine uses ``("table", name)`` and
``("row", name, rid)`` — with shared (S) and exclusive (X) modes and lock
upgrade.  Requests that conflict block on a condition variable; before
blocking, the requester adds edges to the waits-for graph and aborts with
:class:`DeadlockError` if that closes a cycle (the requester is the victim).
A timeout bounds pathological waits.
"""

from __future__ import annotations

import enum
import threading
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.errors import DeadlockError, LockTimeoutError


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


class _LockState:
    """Holders and waiters for one resource."""

    __slots__ = ("holders", "waiters")

    def __init__(self):
        self.holders: Dict[int, LockMode] = {}
        self.waiters: List[Tuple[int, LockMode]] = []


class LockManager:
    """Strict 2PL lock table for the whole engine."""

    def __init__(self, timeout: float = 5.0):
        self._mutex = threading.Lock()
        self._condition = threading.Condition(self._mutex)
        self._locks: Dict[Hashable, _LockState] = {}
        self._held_by_txn: Dict[int, Set[Hashable]] = {}
        self._waits_for: Dict[int, Set[int]] = {}
        self.timeout = timeout

    def reinit_locks(self) -> None:
        """Fresh mutex/condition after ``fork()``: a parent thread may
        have held the mutex at fork time, and the lock table is only
        meaningful for this process's transactions anyway."""
        self._mutex = threading.Lock()
        self._condition = threading.Condition(self._mutex)
        self._locks = {}
        self._held_by_txn = {}
        self._waits_for = {}

    # -- deadlock detection ---------------------------------------------------

    def _would_deadlock(self, waiter: int) -> bool:
        """DFS over the waits-for graph looking for a cycle through waiter."""
        stack = list(self._waits_for.get(waiter, ()))
        seen: Set[int] = set()
        while stack:
            txn = stack.pop()
            if txn == waiter:
                return True
            if txn in seen:
                continue
            seen.add(txn)
            stack.extend(self._waits_for.get(txn, ()))
        return False

    def _blockers(self, state: _LockState, txn_id: int,
                  mode: LockMode) -> Set[int]:
        blockers = set()
        for holder, held in state.holders.items():
            if holder == txn_id:
                continue
            if mode is LockMode.EXCLUSIVE or held is LockMode.EXCLUSIVE:
                blockers.add(holder)
        return blockers

    # -- public API -------------------------------------------------------------

    def acquire(self, txn_id: int, resource: Hashable,
                mode: LockMode) -> None:
        """Acquire (or upgrade to) ``mode`` on ``resource`` for ``txn_id``.

        The state is re-fetched on every pass and the waiter registers
        itself in ``state.waiters`` around the wait: ``release_all``
        garbage-collects states nobody holds *or waits on*, so a sleeping
        waiter must be visible or its state could be deleted and replaced
        underneath it — it would then watch (and mutate) an orphaned
        object while new acquirers use a fresh one, losing mutual
        exclusion and hanging on holders that already released.
        """
        with self._condition:
            while True:
                state = self._locks.setdefault(resource, _LockState())
                held = state.holders.get(txn_id)
                if held is LockMode.EXCLUSIVE or held is mode:
                    return  # already strong enough
                blockers = self._blockers(state, txn_id, mode)
                if not blockers:
                    state.holders[txn_id] = mode
                    self._held_by_txn.setdefault(txn_id, set()).add(resource)
                    self._waits_for.pop(txn_id, None)
                    return
                self._waits_for[txn_id] = blockers
                if self._would_deadlock(txn_id):
                    self._waits_for.pop(txn_id, None)
                    raise DeadlockError(
                        "transaction %d deadlocked waiting for %r" %
                        (txn_id, resource)
                    )
                entry = (txn_id, mode)
                state.waiters.append(entry)
                try:
                    notified = self._condition.wait(self.timeout)
                finally:
                    state.waiters.remove(entry)
                if not notified:
                    self._waits_for.pop(txn_id, None)
                    raise LockTimeoutError(
                        "transaction %d timed out waiting for %r" %
                        (txn_id, resource)
                    )

    def release_all(self, txn_id: int) -> None:
        """Release every lock held by a transaction (commit/abort)."""
        with self._condition:
            for resource in self._held_by_txn.pop(txn_id, set()):
                state = self._locks.get(resource)
                if state is not None:
                    state.holders.pop(txn_id, None)
                    if not state.holders and not state.waiters:
                        del self._locks[resource]
            self._waits_for.pop(txn_id, None)
            self._condition.notify_all()

    def holding(self, txn_id: int) -> Set[Hashable]:
        with self._mutex:
            return set(self._held_by_txn.get(txn_id, set()))

    def mode_held(self, txn_id: int, resource: Hashable) -> Optional[LockMode]:
        with self._mutex:
            state = self._locks.get(resource)
            if state is None:
                return None
            return state.holders.get(txn_id)
