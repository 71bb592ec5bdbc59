"""Storage-manager abstraction and registry.

Starburst's data management extension architecture ([LIND87]) lets a DBC add
new *storage managers*; the paper's example is one that "handles fixed-length
records only -- but extremely efficiently".  Corona "must ensure that the
correct storage manager is invoked when a table is accessed" — here that
dispatch happens through :class:`StorageManagerRegistry`, keyed by the
``storage_manager`` name recorded in the table's catalog entry.

A storage manager implements :class:`TableStorage` for one table: insert /
read / update / delete by RID plus a full scan, all in terms of serialized
record bytes and the shared buffer pool.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple

from repro.catalog.schema import TableDef
from repro.errors import ExtensionError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.record import RID, RecordSerializer, Span, record_span


class TableStorage:
    """Interface every storage manager implements for one table."""

    #: Registry name; set by subclasses.
    kind = "abstract"

    def __init__(self, table: TableDef, pool: BufferPool,
                 serializer: RecordSerializer):
        self.table = table
        self.pool = pool
        self.serializer = serializer

    # -- record interface --------------------------------------------------------

    def insert(self, record: bytes) -> RID:
        """Store a record, returning its RID."""
        raise NotImplementedError

    def read(self, rid: RID) -> bytes:
        """Fetch the record bytes at ``rid``."""
        raise NotImplementedError

    def update(self, rid: RID, record: bytes) -> RID:
        """Replace the record at ``rid``; the RID may change if it moves."""
        raise NotImplementedError

    def delete(self, rid: RID) -> None:
        """Remove the record at ``rid``."""
        raise NotImplementedError

    def scan(self) -> Iterator[Tuple[RID, bytes]]:
        """Yield every live (RID, record bytes) pair in storage order."""
        raise NotImplementedError

    def scan_batches(self, batch_size: int
                     ) -> Iterator[Tuple[int, List[Span]]]:
        """Yield ``(count, spans)`` morsels of ``count`` records in
        storage order, ``batch_size`` at a time (see ``Span`` in
        :mod:`repro.storage.record`).  The default joins each chunk of
        :meth:`scan` into one span; storage managers with pages override
        it to hand out page images instead.
        """
        records: List[bytes] = []
        for _rid, record in self.scan():
            records.append(record)
            if len(records) >= batch_size:
                yield len(records), [record_span(records)]
                records = []
        if records:
            yield len(records), [record_span(records)]

    def insert_at(self, rid: RID, record: bytes) -> RID:
        """Re-insert a record during recovery/undo, preferably at ``rid``.

        The default implementation ignores the requested RID; storage
        managers with stable addressing may honour it.
        """
        return self.insert(record)

    # -- bookkeeping --------------------------------------------------------------

    @property
    def page_count(self) -> int:
        """Number of pages the table occupies (for statistics/costing)."""
        raise NotImplementedError

    def truncate(self) -> None:
        """Remove all records (used by recovery before a logical replay)."""
        raise NotImplementedError


StorageFactory = Callable[[TableDef, BufferPool, RecordSerializer], TableStorage]


class StorageManagerRegistry:
    """Maps storage-manager names to factories producing TableStorage."""

    def __init__(self):
        self._factories: Dict[str, StorageFactory] = {}

    def register(self, name: str, factory: StorageFactory,
                 replace: bool = False) -> None:
        key = name.lower()
        if not replace and key in self._factories:
            raise ExtensionError("storage manager %s already registered" % name)
        self._factories[key] = factory

    def create(self, table: TableDef, pool: BufferPool,
               serializer: RecordSerializer) -> TableStorage:
        """Instantiate the storage manager named in the table definition."""
        factory = self._factories.get(table.storage_manager.lower())
        if factory is None:
            raise StorageError(
                "table %s names unknown storage manager %s"
                % (table.name, table.storage_manager)
            )
        return factory(table, pool, serializer)

    def names(self) -> List[str]:
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._factories


def default_registry() -> StorageManagerRegistry:
    """Registry with the built-in storage managers (heap, fixed)."""
    from repro.storage.heap import HeapTableStorage
    from repro.storage.fixed import FixedTableStorage

    registry = StorageManagerRegistry()
    registry.register("heap", HeapTableStorage)
    registry.register("fixed", FixedTableStorage)
    return registry
