"""Heap storage manager: the default, handles any record shape.

Pages are addressed by table-relative page numbers (``RID.page_no`` indexes
the table's page list), which keeps RIDs stable across buffer eviction and
makes logical WAL replay deterministic.  Inserts go to the last page when it
fits, then to any page on the free list (pages that lost a record), then to
a fresh page.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.catalog.schema import TableDef
from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.record import RID, RecordSerializer, Span
from repro.storage.storage_manager import TableStorage


class HeapTableStorage(TableStorage):
    """Slotted-page heap file."""

    kind = "heap"

    def __init__(self, table: TableDef, pool: BufferPool,
                 serializer: RecordSerializer):
        super().__init__(table, pool, serializer)
        self._page_ids: List[int] = []
        self._free_pages: Set[int] = set()  # table page numbers with holes

    # -- helpers -----------------------------------------------------------------

    def _disk_page_id(self, page_no: int) -> int:
        if not 0 <= page_no < len(self._page_ids):
            raise StorageError(
                "table %s has no page %d" % (self.table.name, page_no)
            )
        return self._page_ids[page_no]

    def _append_page(self) -> int:
        page = self.pool.new_page()
        self._page_ids.append(page.page_id)
        page_no = len(self._page_ids) - 1
        self.pool.unpin(page.page_id, dirty=True)
        return page_no

    def _try_insert_on(self, page_no: int, record: bytes):
        page_id = self._disk_page_id(page_no)
        page = self.pool.fetch(page_id)
        try:
            if not page.can_insert(len(record)):
                if not page.can_insert_after_compaction(len(record)):
                    self.pool.unpin(page_id)
                    return None
                page.compact()
            slot = page.insert(record)
        except Exception:
            self.pool.unpin(page_id)
            raise
        self.pool.unpin(page_id, dirty=True)
        return RID(page_no, slot)

    # -- TableStorage interface -----------------------------------------------------

    def insert(self, record: bytes) -> RID:
        if self._page_ids:
            rid = self._try_insert_on(len(self._page_ids) - 1, record)
            if rid is not None:
                return rid
        for page_no in sorted(self._free_pages):
            rid = self._try_insert_on(page_no, record)
            if rid is not None:
                return rid
            self._free_pages.discard(page_no)
        page_no = self._append_page()
        rid = self._try_insert_on(page_no, record)
        if rid is None:
            raise StorageError(
                "record of %d bytes does not fit an empty page" % len(record)
            )
        return rid

    def read(self, rid: RID) -> bytes:
        page_id = self._disk_page_id(rid.page_no)
        with self.pool.pinned(page_id) as page:
            return page.read(rid.slot)

    def update(self, rid: RID, record: bytes) -> RID:
        page_id = self._disk_page_id(rid.page_no)
        page = self.pool.fetch(page_id)
        updated = False
        try:
            updated = page.update_in_place(rid.slot, record)
        finally:
            self.pool.unpin(page_id, dirty=updated)
        if updated:
            return rid
        # Record grew: relocate.
        self.delete(rid)
        return self.insert(record)

    def delete(self, rid: RID) -> None:
        page_id = self._disk_page_id(rid.page_no)
        with self.pool.pinned(page_id, dirty=True) as page:
            page.delete(rid.slot)
        self._free_pages.add(rid.page_no)

    def _page_range(self, page_range) -> range:
        """Clamp an optional (lo, hi) page-number pair — a morsel — to the
        table's current page list; None means the whole table."""
        if page_range is None:
            return range(len(self._page_ids))
        lo, hi = page_range
        return range(max(0, lo), min(hi, len(self._page_ids)))

    def read_page(self, page_no: int) -> Tuple[Sequence[int], Span]:
        """One page's live records, read under one pin: ``(slots, span)``,
        the span an immutable copy of the page image plus the records'
        offsets and lengths in it (see :meth:`Page.directory`)."""
        page_id = self._page_ids[page_no]
        page = self.pool.fetch(page_id)
        try:
            slots, offsets, lengths = page.directory()
            image = bytes(page.data) if slots else b""
        finally:
            self.pool.unpin(page_id)
        return slots, (image, offsets, lengths)

    def scan(self, page_range=None) -> Iterator[Tuple[RID, bytes]]:
        for page_no in self._page_range(page_range):
            yield from _page_records(page_no, *self.read_page(page_no))

    def scan_batches(self, batch_size, page_range=None):
        """Page-at-a-time scan: whole pages' spans, at least
        ``batch_size`` records a morsel."""
        return _morsels((self.read_page(page_no)[1]
                         for page_no in self._page_range(page_range)),
                        batch_size)

    @property
    def page_count(self) -> int:
        return len(self._page_ids)

    def truncate(self) -> None:
        for page_id in self._page_ids:
            if self.pool.contains(page_id):
                self.pool.discard(page_id)
            self.pool.disk.deallocate(page_id)
        self._page_ids = []
        self._free_pages = set()


def _page_records(page_no: int, slots, span) -> Iterator[Tuple[RID, bytes]]:
    """A read page as ``(RID, record bytes)`` pairs."""
    image, offsets, lengths = span
    for slot, offset, length in zip(slots, offsets, lengths):
        yield RID(page_no, slot), image[offset: offset + length]


def _morsels(spans, batch_size) -> Iterator[Tuple[int, List[Span]]]:
    """Group page spans into ``(count, spans)`` morsels of at least
    ``batch_size`` records (the last may be short), keeping whole pages
    together and skipping empty ones."""
    morsel: List[Span] = []
    count = 0
    for span in spans:
        if span[1]:
            morsel.append(span)
            count += len(span[1])
            if count >= batch_size:
                yield count, morsel
                morsel, count = [], 0
    if morsel:
        yield count, morsel


# ---------------------------------------------------------------------------
# Hash partitioning
# ---------------------------------------------------------------------------

_F64_BE = struct.Struct(">d")


def stable_partition_hash(value) -> int:
    """Process-stable hash for partition routing.

    Must agree with Python's equality semantics for the SQL scalar domain
    (``1 == 1.0 == True`` all land in the same partition — the serial
    executor's dict-based joins and group-bys treat them as one key), and
    must be identical across processes (``hash()`` for str is salted per
    process, so CRC32 is used instead).  NULL routes to partition 0.
    """
    if value is None:
        return 0
    if value is True or value is False:
        return int(value)
    if type(value) is float:
        if value == int(value):
            return int(value)
        return zlib.crc32(_F64_BE.pack(value))
    if type(value) is int:
        return value
    if type(value) is str:
        return zlib.crc32(value.encode("utf-8"))
    raise StorageError(
        "cannot hash-partition value %r (%s)" % (value, type(value).__name__))


def partition_of(value, partitions: int) -> int:
    """Destination partition for a key value under HASH partitioning."""
    return stable_partition_hash(value) % partitions


class ShardedHeapStorage(TableStorage):
    """Hash-partitioned heap: N heap segments behind one table.

    Each partition is a full :class:`HeapTableStorage`; rows route to
    segment ``partition_of(row[partition column], N)`` on insert.  A global
    page directory maps table-relative page numbers to ``(partition, local
    page number)`` pairs in registration (creation) order, so RIDs, WAL
    replay, and page-range morsels all keep working unchanged on top of the
    directory translation.  Partition-restricted scans filter the directory,
    giving each parallel worker its own co-located shard.
    """

    kind = "heap-sharded"

    def __init__(self, table: TableDef, pool: BufferPool,
                 serializer: RecordSerializer):
        super().__init__(table, pool, serializer)
        if not table.partition_by or not table.partitions \
                or table.partitions < 1:
            raise StorageError(
                "table %s is not hash-partitioned" % table.name)
        self.partitions = table.partitions
        self._key_pos = next(
            col.position for col in table.columns
            if col.name == table.partition_by)
        self._segments: List[HeapTableStorage] = [
            HeapTableStorage(table, pool, serializer)
            for _ in range(self.partitions)]
        #: global page_no -> (partition, local page_no)
        self._pages: List[Tuple[int, int]] = []
        #: (partition, local page_no) -> global page_no
        self._page_index: Dict[Tuple[int, int], int] = {}
        self._row_counts: List[int] = [0] * self.partitions
        #: pages per partition already present in the global directory
        self._registered: List[int] = [0] * self.partitions

    # -- routing -----------------------------------------------------------------

    def route_value(self, value) -> int:
        """Partition for a value of the partitioning column."""
        return partition_of(value, self.partitions)

    def route_record(self, record: bytes) -> int:
        """Partition a serialized record routes to."""
        return self.route_value(self.serializer.deserialize(record)[self._key_pos])

    def _register_pages(self, partition: int) -> None:
        """Add any segment pages appended since the last call to the
        global directory (keeps global page numbers append-only)."""
        segment = self._segments[partition]
        local = self._registered[partition]
        while local < segment.page_count:
            self._page_index[(partition, local)] = len(self._pages)
            self._pages.append((partition, local))
            local += 1
        self._registered[partition] = local

    def _to_global(self, partition: int, rid: RID) -> RID:
        return RID(self._page_index[(partition, rid.page_no)], rid.slot)

    def _to_local(self, rid: RID) -> Tuple[int, RID]:
        if not 0 <= rid.page_no < len(self._pages):
            raise StorageError(
                "table %s has no page %d" % (self.table.name, rid.page_no))
        partition, local = self._pages[rid.page_no]
        return partition, RID(local, rid.slot)

    # -- TableStorage interface -----------------------------------------------------

    def insert(self, record: bytes) -> RID:
        partition = self.route_record(record)
        rid = self._segments[partition].insert(record)
        self._register_pages(partition)
        self._row_counts[partition] += 1
        return self._to_global(partition, rid)

    def read(self, rid: RID) -> bytes:
        partition, local = self._to_local(rid)
        return self._segments[partition].read(local)

    def update(self, rid: RID, record: bytes) -> RID:
        partition, local = self._to_local(rid)
        target = self.route_record(record)
        if target != partition:
            # Partition key changed: the row must move segments.
            self._segments[partition].delete(local)
            self._row_counts[partition] -= 1
            new_rid = self._segments[target].insert(record)
            self._register_pages(target)
            self._row_counts[target] += 1
            return self._to_global(target, new_rid)
        new_rid = self._segments[partition].update(local, record)
        self._register_pages(partition)
        return self._to_global(partition, new_rid)

    def delete(self, rid: RID) -> None:
        partition, local = self._to_local(rid)
        self._segments[partition].delete(local)
        self._row_counts[partition] -= 1

    def insert_at(self, rid: RID, record: bytes) -> RID:
        # Recovery replay: routing stays deterministic, so re-inserting
        # lands in the same partition the original insert chose.
        return self.insert(record)

    def _global_pages(self, page_range,
                      partition: Optional[int]) -> Iterator[Tuple[int, int, int]]:
        """(global page_no, partition, local page_no) in global page order,
        clamped to an optional morsel and/or restricted to one partition."""
        if page_range is None:
            lo, hi = 0, len(self._pages)
        else:
            lo, hi = max(0, page_range[0]), min(page_range[1], len(self._pages))
        for page_no in range(lo, hi):
            owner, local = self._pages[page_no]
            if partition is not None and owner != partition:
                continue
            yield page_no, owner, local

    def scan(self, page_range=None,
             partition: Optional[int] = None) -> Iterator[Tuple[RID, bytes]]:
        for page_no, owner, local in self._global_pages(page_range, partition):
            yield from _page_records(
                page_no, *self._segments[owner].read_page(local))

    def scan_batches(self, batch_size, page_range=None,
                     partition: Optional[int] = None):
        return _morsels((self._segments[owner].read_page(local)[1]
                         for _page_no, owner, local
                         in self._global_pages(page_range, partition)),
                        batch_size)

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def truncate(self) -> None:
        for segment in self._segments:
            segment.truncate()
        self._pages = []
        self._page_index = {}
        self._row_counts = [0] * self.partitions
        self._registered = [0] * self.partitions
