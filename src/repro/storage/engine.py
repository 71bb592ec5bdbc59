"""Storage engine: the runtime face of Core.

Ties together the catalog, buffer pool, storage managers, attachments
(access methods + constraints), the WAL and the lock manager.  All DML runs
through here: validation → integrity hooks → table lock → log → storage
manager → access-method maintenance → statistics.

The engine exposes the low-level ``apply_*`` primitives used by abort/undo
and recovery: they bypass locking and logging but still keep attachments and
statistics consistent.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.access.attachment import (
    AccessMethod,
    AccessMethodRegistry,
    Attachment,
    default_access_registry,
)
from repro.catalog.catalog import Catalog
from repro.catalog.schema import IndexDef, TableDef
from repro.datatypes.types import DataType
from repro.errors import DataTypeError, StorageError
from repro.storage.buffer import BufferPool, DiskManager
from repro.storage.lock import LockManager, LockMode
from repro.storage.record import RID, RecordSerializer
from repro.storage.storage_manager import (
    StorageManagerRegistry,
    TableStorage,
    default_registry,
)
from repro.storage.transaction import Transaction, TransactionManager
from repro.storage.wal import LogManager, LogRecordType


class StorageEngine:
    """One database instance's data manager."""

    def __init__(self, catalog: Catalog,
                 sm_registry: Optional[StorageManagerRegistry] = None,
                 access_registry: Optional[AccessMethodRegistry] = None,
                 pool_capacity: int = 64):
        self.catalog = catalog
        self.disk = DiskManager()
        self.pool = BufferPool(self.disk, capacity=pool_capacity)
        self.log = LogManager()
        self.locks = LockManager()
        self.transactions = TransactionManager(self.log, self.locks)
        self.storage_managers = sm_registry or default_registry()
        self.access_methods_registry = access_registry or default_access_registry()
        self._storage: Dict[str, TableStorage] = {}
        self._serializers: Dict[str, RecordSerializer] = {}
        self._attachments: Dict[str, List[Attachment]] = {}

    # -- DDL ----------------------------------------------------------------------

    def create_table(self, table: TableDef) -> TableDef:
        self.catalog.create_table(table)
        serializer = RecordSerializer([c.dtype for c in table.columns])
        self._serializers[table.name] = serializer
        if table.partition_by:
            # PARTITION BY HASH: N heap segments behind one directory.
            # TableDef validation already pinned storage_manager to "heap".
            from repro.storage.heap import ShardedHeapStorage

            self._storage[table.name] = ShardedHeapStorage(
                table, self.pool, serializer)
        else:
            self._storage[table.name] = self.storage_managers.create(
                table, self.pool, serializer
            )
        self._attachments[table.name] = []
        return table

    def drop_table(self, name: str) -> None:
        table = self.catalog.table(name)
        self._storage[table.name].truncate()
        del self._storage[table.name]
        del self._serializers[table.name]
        del self._attachments[table.name]
        self.catalog.drop_table(table.name)

    def create_index(self, index: IndexDef, **kwargs) -> AccessMethod:
        """Create an access-method attachment and build it from a scan."""
        table = self.catalog.table(index.table_name)
        self.catalog.create_index(index)
        try:
            if kwargs:
                factory = self.access_methods_registry._factories[
                    index.kind.lower()]
                access = factory(table, index, **kwargs)
            else:
                access = self.access_methods_registry.create(table, index)
            access.rebuild(self._scan_rows(table.name))
        except Exception:
            self.catalog.drop_index(index.name)
            raise
        self._attachments[table.name].append(access)
        return access

    def drop_index(self, name: str) -> None:
        index = self.catalog.index(name)
        self.catalog.drop_index(name)
        self._attachments[index.table_name] = [
            a for a in self._attachments[index.table_name]
            if not (isinstance(a, AccessMethod) and a.index.name == index.name)
        ]

    def add_constraint(self, table_name: str, constraint: Attachment) -> Attachment:
        """Attach an integrity constraint, validating existing rows."""
        table = self.catalog.table(table_name)
        for rid, row in self._scan_rows(table.name):
            constraint.before_insert(row)
            constraint.on_insert(rid, row)
        self._attachments[table.name].append(constraint)
        self.catalog.bump_schema_epoch(table.name)
        return constraint

    # -- lookups ---------------------------------------------------------------------

    def storage(self, table_name: str) -> TableStorage:
        try:
            return self._storage[table_name.lower()]
        except KeyError:
            raise StorageError("no storage for table %s" % table_name) from None

    def serializer(self, table_name: str) -> RecordSerializer:
        return self._serializers[table_name.lower()]

    def attachments(self, table_name: str) -> List[Attachment]:
        return list(self._attachments.get(table_name.lower(), []))

    def access_methods(self, table_name: str) -> List[AccessMethod]:
        return [a for a in self.attachments(table_name)
                if isinstance(a, AccessMethod)]

    def access_method(self, index_name: str) -> AccessMethod:
        index = self.catalog.index(index_name)
        for access in self.access_methods(index.table_name):
            if access.index.name == index.name:
                return access
        raise StorageError("index %s has no attachment" % index_name)

    # -- transactions --------------------------------------------------------------------

    def begin(self) -> Transaction:
        return self.transactions.begin()

    def commit(self, txn: Transaction) -> None:
        self.transactions.commit(txn)

    def abort(self, txn: Transaction) -> None:
        self.transactions.abort(txn, _UndoAdapter(self))

    # -- row preparation --------------------------------------------------------------------

    def prepare_row(self, table: TableDef,
                    row: Sequence[Any]) -> Tuple[Any, ...]:
        """Validate and coerce a row against the table schema."""
        if len(row) != table.arity:
            raise DataTypeError(
                "table %s expects %d values, got %d"
                % (table.name, table.arity, len(row))
            )
        prepared: List[Any] = []
        for value, column in zip(row, table.columns):
            if value is None:
                if not column.nullable:
                    raise DataTypeError(
                        "column %s.%s is NOT NULL" % (table.name, column.name)
                    )
                prepared.append(None)
                continue
            if column.dtype.validate(value):
                prepared.append(value)
                continue
            coerced = self._try_coerce(value, column.dtype)
            if coerced is None:
                raise DataTypeError(
                    "value %r is not valid for column %s.%s (%s)"
                    % (value, table.name, column.name, column.dtype.name)
                )
            prepared.append(coerced)
        return tuple(prepared)

    @staticmethod
    def _try_coerce(value: Any, target: DataType) -> Optional[Any]:
        from repro.datatypes.types import DoubleType, IntegerType

        if isinstance(target, DoubleType) and isinstance(value, int) \
                and not isinstance(value, bool):
            return float(value)
        if isinstance(target, IntegerType) and isinstance(value, float) \
                and value.is_integer():
            return int(value)
        return None

    # -- DML ------------------------------------------------------------------------------

    def insert(self, txn: Transaction, table_name: str,
               row: Sequence[Any]) -> RID:
        table = self.catalog.table(table_name)
        prepared = self.prepare_row(table, row)
        self.locks.acquire(txn.txn_id, ("table", table.name), LockMode.EXCLUSIVE)
        for attachment in self._attachments[table.name]:
            attachment.before_insert(prepared)
        record = self._serializers[table.name].serialize(prepared)
        self.log.append(txn.txn_id, LogRecordType.INSERT,
                        table=table.name, after=record)
        rid = self._storage[table.name].insert(record)
        # Patch the log record with the RID the storage manager picked.
        self.log.record(self.log.last_lsn(txn.txn_id)).rid = rid
        for attachment in self._attachments[table.name]:
            attachment.on_insert(rid, prepared)
        stats = self.catalog.statistics(table.name)
        stats.on_insert(dict(zip(table.column_names(), prepared)))
        stats.page_count = max(1, self._storage[table.name].page_count)
        self.catalog.note_dml(table.name)
        return rid

    def delete(self, txn: Transaction, table_name: str, rid: RID) -> None:
        table = self.catalog.table(table_name)
        self.locks.acquire(txn.txn_id, ("table", table.name), LockMode.EXCLUSIVE)
        storage = self._storage[table.name]
        record = storage.read(rid)
        row = self._serializers[table.name].deserialize(record)
        for attachment in self._attachments[table.name]:
            attachment.before_delete(rid, row)
        self.log.append(txn.txn_id, LogRecordType.DELETE,
                        table=table.name, rid=rid, before=record)
        storage.delete(rid)
        for attachment in self._attachments[table.name]:
            attachment.on_delete(rid, row)
        self.catalog.statistics(table.name).on_delete()
        self.catalog.note_dml(table.name)

    def update(self, txn: Transaction, table_name: str, rid: RID,
               new_row: Sequence[Any]) -> RID:
        table = self.catalog.table(table_name)
        prepared = self.prepare_row(table, new_row)
        self.locks.acquire(txn.txn_id, ("table", table.name), LockMode.EXCLUSIVE)
        storage = self._storage[table.name]
        serializer = self._serializers[table.name]
        old_record = storage.read(rid)
        old_row = serializer.deserialize(old_record)
        for attachment in self._attachments[table.name]:
            attachment.before_update(rid, old_row, prepared)
        new_record = serializer.serialize(prepared)
        self.log.append(txn.txn_id, LogRecordType.UPDATE, table=table.name,
                        rid=rid, before=old_record, after=new_record)
        new_rid = storage.update(rid, new_record)
        # Record where the row ended up, so undo/redo can find it even when
        # the storage manager relocated it.
        self.log.record(self.log.last_lsn(txn.txn_id)).new_rid = new_rid
        for attachment in self._attachments[table.name]:
            attachment.on_update(rid, new_rid, old_row, prepared)
        self.catalog.note_mutation()
        return new_rid

    def scan(self, txn: Optional[Transaction], table_name: str,
             page_range: Optional[Tuple[int, int]] = None,
             partition: Optional[int] = None
             ) -> Iterator[Tuple[RID, Tuple[Any, ...]]]:
        """Full scan; takes a shared table lock when run inside a txn.

        ``page_range`` — a (lo, hi) page-number morsel — restricts heap
        tables to a slice of their pages (the parallel runtime's unit of
        work); ``partition`` restricts hash-sharded tables to one shard;
        None scans everything.
        """
        table = self.catalog.table(table_name)
        if txn is not None:
            self.locks.acquire(txn.txn_id, ("table", table.name), LockMode.SHARED)
        return self._scan_rows(table.name, page_range, partition)

    def _scan_rows(self, table_name: str,
                   page_range: Optional[Tuple[int, int]] = None,
                   partition: Optional[int] = None
                   ) -> Iterator[Tuple[RID, Tuple[Any, ...]]]:
        serializer = self._serializers[table_name]
        storage = self._storage[table_name]
        if partition is not None:
            records = storage.scan(page_range=page_range, partition=partition)
        elif page_range is not None:
            records = storage.scan(page_range=page_range)
        else:
            records = storage.scan()
        for rid, record in records:
            yield rid, serializer.deserialize(record)

    def scan_batches(self, txn: Optional[Transaction], table_name: str,
                     batch_size: int,
                     page_range: Optional[Tuple[int, int]] = None,
                     partition: Optional[int] = None):
        """Batched full scan for the fused pipelines' scans.

        Yields ``(count, spans)`` morsels — page images plus their
        live-record offsets (see ``TableStorage.scan_batches``); callers
        decode the columns they need in place via the table's
        ``RecordSerializer.combined_decoder``.  Takes the same shared table
        lock as :meth:`scan`; ``page_range`` restricts heap tables to a
        page-number morsel, ``partition`` sharded tables to one shard.
        """
        table = self.catalog.table(table_name)
        if txn is not None:
            self.locks.acquire(txn.txn_id, ("table", table.name), LockMode.SHARED)
        storage = self._storage[table.name]
        if partition is not None:
            return storage.scan_batches(batch_size, page_range=page_range,
                                        partition=partition)
        if page_range is not None:
            return storage.scan_batches(batch_size, page_range=page_range)
        return storage.scan_batches(batch_size)

    def table_page_count(self, table_name: str) -> int:
        """Current number of heap pages (for morsel carving)."""
        return self._storage[table_name].page_count

    def table_partitions(self, table_name: str) -> int:
        """Shard count of a hash-partitioned table (0 = unpartitioned)."""
        storage = self._storage.get(table_name.lower())
        return getattr(storage, "partitions", 0) or 0

    def partition_for(self, table_name: str, value: Any) -> int:
        """Shard a partitioning-column value routes to (pruning helper)."""
        return self._storage[table_name.lower()].route_value(value)

    def fetch(self, txn: Optional[Transaction], table_name: str,
              rid: RID) -> Tuple[Any, ...]:
        table = self.catalog.table(table_name)
        if txn is not None:
            self.locks.acquire(txn.txn_id, ("table", table.name), LockMode.SHARED)
        record = self._storage[table.name].read(rid)
        return self._serializers[table.name].deserialize(record)

    # -- checkpointing ------------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Write a fuzzy checkpoint: flush dirty pages, log the active
        transaction set, force the log."""
        self.pool.flush_all()
        self.log.append(0, LogRecordType.CHECKPOINT,
                        active_txns=self.transactions.active_ids())
        self.log.flush()

    # -- statistics --------------------------------------------------------------------------

    def recompute_statistics(self, table_name: str) -> None:
        """Exact statistics from a full scan (RUNSTATS)."""
        table = self.catalog.table(table_name)
        stats = self.catalog.statistics(table.name)
        rows = (row for _, row in self._scan_rows(table.name))
        stats.recompute(rows, table.column_names(),
                        page_count=self._storage[table.name].page_count)
        self.catalog.bump_stats_epoch(table.name)

    # -- recovery/undo primitives (no locking, no logging) --------------------------------------

    def apply_insert_at(self, table_name: str, rid: RID, record: bytes) -> RID:
        table = self.catalog.table(table_name)
        row = self._serializers[table.name].deserialize(record)
        new_rid = self._storage[table.name].insert_at(rid, record)
        for attachment in self._attachments[table.name]:
            attachment.on_insert(new_rid, row)
        self.catalog.statistics(table.name).on_insert(
            dict(zip(table.column_names(), row))
        )
        self.catalog.note_dml(table.name)
        return new_rid

    def apply_delete(self, table_name: str, rid: RID) -> None:
        table = self.catalog.table(table_name)
        storage = self._storage[table.name]
        record = storage.read(rid)
        row = self._serializers[table.name].deserialize(record)
        storage.delete(rid)
        for attachment in self._attachments[table.name]:
            attachment.on_delete(rid, row)
        self.catalog.statistics(table.name).on_delete()
        self.catalog.note_dml(table.name)

    def apply_update(self, table_name: str, rid: RID, record: bytes) -> RID:
        table = self.catalog.table(table_name)
        storage = self._storage[table.name]
        serializer = self._serializers[table.name]
        old_row = serializer.deserialize(storage.read(rid))
        new_row = serializer.deserialize(record)
        new_rid = storage.update(rid, record)
        for attachment in self._attachments[table.name]:
            attachment.on_update(rid, new_rid, old_row, new_row)
        self.catalog.note_mutation()
        return new_rid


class _UndoAdapter:
    """Adapter the TransactionManager drives during abort.

    Keeps a translation map from logged RIDs to current RIDs so undo stays
    correct even when a storage manager relocates records.
    """

    def __init__(self, engine: StorageEngine):
        self.engine = engine
        self._rid_map: Dict[Tuple[str, RID], RID] = {}

    def _current(self, table: str, rid: RID) -> RID:
        return self._rid_map.get((table, rid), rid)

    def apply_delete(self, table: str, rid: RID) -> None:
        self.engine.apply_delete(table, self._current(table, rid))

    def apply_insert_at(self, table: str, rid: RID, record: bytes) -> None:
        new_rid = self.engine.apply_insert_at(table, rid, record)
        self._rid_map[(table, rid)] = new_rid

    def apply_update(self, table: str, rid: RID, record: bytes) -> None:
        current = self._current(table, rid)
        new_rid = self.engine.apply_update(table, current, record)
        self._rid_map[(table, rid)] = new_rid

    def apply_undo_update(self, table: str, old_rid: RID, new_rid: RID,
                          before: bytes) -> None:
        """Undo an UPDATE: the row currently lives at ``new_rid`` (possibly
        remapped by later undos); restore the before image and remember the
        location under the *pre-update* RID for earlier undo steps."""
        current = self._current(table, new_rid)
        restored = self.engine.apply_update(table, current, before)
        self._rid_map[(table, old_rid)] = restored
