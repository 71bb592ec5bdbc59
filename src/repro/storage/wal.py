"""Write-ahead log.

The log is logical (table name + RID + record images) rather than physical,
which makes replay independent of page layout and storage manager.  Records
carry the usual ARIES-style fields: LSN, transaction id, a backward pointer
to the transaction's previous record (for undo), and for compensation
records (CLRs) the LSN being undone.
"""

from __future__ import annotations

import enum
import threading
from typing import Dict, Iterator, List, Optional

from repro.errors import RecoveryError
from repro.storage.record import RID


class LogRecordType(enum.Enum):
    BEGIN = "begin"
    COMMIT = "commit"
    ABORT = "abort"
    INSERT = "insert"
    DELETE = "delete"
    UPDATE = "update"
    CLR = "clr"            # compensation: records that an undo was applied
    CHECKPOINT = "checkpoint"


class LogRecord:
    """One WAL entry."""

    __slots__ = ("lsn", "txn_id", "type", "prev_lsn", "table", "rid",
                 "new_rid", "before", "after", "undo_of", "active_txns")

    def __init__(self, lsn: int, txn_id: int, record_type: LogRecordType,
                 prev_lsn: int = -1, table: Optional[str] = None,
                 rid: Optional[RID] = None, before: Optional[bytes] = None,
                 after: Optional[bytes] = None, undo_of: int = -1,
                 active_txns: Optional[List[int]] = None):
        self.lsn = lsn
        self.txn_id = txn_id
        self.type = record_type
        self.prev_lsn = prev_lsn
        self.table = table
        self.rid = rid
        #: For UPDATE records: where the record lives after the operation
        #: (differs from ``rid`` when the storage manager relocated it).
        self.new_rid = rid
        self.before = before
        self.after = after
        self.undo_of = undo_of
        self.active_txns = active_txns or []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Log %d txn=%d %s %s %s>" % (
            self.lsn, self.txn_id, self.type.value, self.table or "",
            self.rid if self.rid is not None else "")


class LogManager:
    """Appends and reads log records; tracks each transaction's last LSN."""

    def __init__(self):
        self._records: List[LogRecord] = []
        self._last_lsn: Dict[int, int] = {}
        self.flushed_lsn = -1
        #: LSN assignment reads ``len(self._records)`` then appends; two
        #: concurrent serving-layer writers would mint the same LSN
        #: without this lock.
        self._lock = threading.Lock()

    def reinit_locks(self) -> None:
        """Fresh lock after ``fork()`` (a parent thread may have held the
        old one at fork time)."""
        self._lock = threading.Lock()

    def append(self, txn_id: int, record_type: LogRecordType,
               table: Optional[str] = None, rid: Optional[RID] = None,
               before: Optional[bytes] = None, after: Optional[bytes] = None,
               undo_of: int = -1,
               active_txns: Optional[List[int]] = None) -> LogRecord:
        with self._lock:
            lsn = len(self._records)
            record = LogRecord(
                lsn=lsn,
                txn_id=txn_id,
                record_type=record_type,
                prev_lsn=self._last_lsn.get(txn_id, -1),
                table=table,
                rid=rid,
                before=before,
                after=after,
                undo_of=undo_of,
                active_txns=active_txns,
            )
            self._records.append(record)
            self._last_lsn[txn_id] = lsn
            return record

    def flush(self) -> None:
        """Force the log to stable storage (a marker in this simulation)."""
        with self._lock:
            self.flushed_lsn = len(self._records) - 1

    def record(self, lsn: int) -> LogRecord:
        try:
            return self._records[lsn]
        except IndexError:
            raise RecoveryError("no log record with LSN %d" % lsn) from None

    def records(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def records_for(self, txn_id: int) -> List[LogRecord]:
        """A transaction's records, newest first (undo order)."""
        chain: List[LogRecord] = []
        lsn = self._last_lsn.get(txn_id, -1)
        while lsn >= 0:
            record = self._records[lsn]
            chain.append(record)
            lsn = record.prev_lsn
        return chain

    def last_lsn(self, txn_id: int) -> int:
        return self._last_lsn.get(txn_id, -1)

    def __len__(self) -> int:
        return len(self._records)
