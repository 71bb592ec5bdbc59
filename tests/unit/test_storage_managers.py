"""Unit tests for heap and fixed-length storage managers + the registry."""

import pytest

from repro import Database
from repro.catalog import Catalog, ColumnDef, TableDef
from repro.datatypes import BOOLEAN, DOUBLE, INTEGER, VARCHAR
from repro.errors import ExtensionError, StorageError
from repro.storage.buffer import BufferPool, DiskManager
from repro.storage.fixed import FixedTableStorage
from repro.storage.heap import HeapTableStorage
from repro.storage.record import RID, RecordSerializer
from repro.storage.storage_manager import (
    StorageManagerRegistry,
    TableStorage,
    default_registry,
)


def make_heap(columns=None):
    columns = columns or [ColumnDef("a", INTEGER), ColumnDef("b", VARCHAR)]
    table = TableDef("t", columns)
    serializer = RecordSerializer([c.dtype for c in columns])
    pool = BufferPool(DiskManager(), capacity=8)
    return HeapTableStorage(table, pool, serializer), serializer


def make_fixed():
    columns = [ColumnDef("a", INTEGER), ColumnDef("c", DOUBLE),
               ColumnDef("f", BOOLEAN)]
    table = TableDef("t", columns, storage_manager="fixed")
    serializer = RecordSerializer([c.dtype for c in columns])
    pool = BufferPool(DiskManager(), capacity=8)
    return FixedTableStorage(table, pool, serializer), serializer


class TestHeapStorage:
    def test_insert_read_scan(self):
        heap, serializer = make_heap()
        rids = [heap.insert(serializer.serialize((i, "row%d" % i)))
                for i in range(200)]
        assert len(set(rids)) == 200
        assert serializer.deserialize(heap.read(rids[17])) == (17, "row17")
        scanned = {serializer.deserialize(r) for _, r in heap.scan()}
        assert scanned == {(i, "row%d" % i) for i in range(200)}
        assert heap.page_count >= 2

    def test_delete(self):
        heap, serializer = make_heap()
        rid = heap.insert(serializer.serialize((1, "x")))
        heap.delete(rid)
        with pytest.raises(Exception):
            heap.read(rid)
        assert list(heap.scan()) == []

    def test_update_in_place(self):
        heap, serializer = make_heap()
        rid = heap.insert(serializer.serialize((1, "abcdef")))
        new_rid = heap.update(rid, serializer.serialize((1, "xyz")))
        assert new_rid == rid
        assert serializer.deserialize(heap.read(rid)) == (1, "xyz")

    def test_update_relocates_grown_record(self):
        heap, serializer = make_heap()
        rid = heap.insert(serializer.serialize((1, "s")))
        grown = serializer.serialize((1, "s" * 500))
        new_rid = heap.update(rid, grown)
        assert serializer.deserialize(heap.read(new_rid)) == (1, "s" * 500)

    def test_space_reuse_after_delete(self):
        heap, serializer = make_heap()
        rids = [heap.insert(serializer.serialize((i, "pad" * 30)))
                for i in range(100)]
        pages_before = heap.page_count
        for rid in rids:
            heap.delete(rid)
        for i in range(100):
            heap.insert(serializer.serialize((i, "pad" * 30)))
        assert heap.page_count <= pages_before + 1

    def test_truncate(self):
        heap, serializer = make_heap()
        for i in range(50):
            heap.insert(serializer.serialize((i, "x")))
        heap.truncate()
        assert heap.page_count == 0
        assert list(heap.scan()) == []


class TestFixedStorage:
    def test_requires_fixed_width(self):
        columns = [ColumnDef("a", INTEGER), ColumnDef("b", VARCHAR)]
        table = TableDef("t", columns, storage_manager="fixed")
        serializer = RecordSerializer([c.dtype for c in columns])
        pool = BufferPool(DiskManager(), capacity=4)
        with pytest.raises(StorageError):
            FixedTableStorage(table, pool, serializer)

    def test_insert_read_scan(self):
        fixed, serializer = make_fixed()
        rids = [fixed.insert(serializer.serialize((i, i * 0.5, i % 2 == 0)))
                for i in range(300)]
        assert serializer.deserialize(fixed.read(rids[7])) == (7, 3.5, False)
        scanned = sorted(serializer.deserialize(r)[0] for _, r in fixed.scan())
        assert scanned == list(range(300))

    def test_packs_more_rows_than_heap(self):
        """The paper's pitch: fixed-length SM is denser than the heap."""
        columns = [ColumnDef("a", INTEGER), ColumnDef("c", DOUBLE),
                   ColumnDef("f", BOOLEAN)]
        heap_table = TableDef("h", columns)
        fixed_table = TableDef("f", columns, storage_manager="fixed")
        serializer = RecordSerializer([c.dtype for c in columns])
        pool = BufferPool(DiskManager(), capacity=64)
        heap = HeapTableStorage(heap_table, pool, serializer)
        fixed = FixedTableStorage(fixed_table, pool, serializer)
        for i in range(2000):
            record = serializer.serialize((i, float(i), True))
            heap.insert(record)
            fixed.insert(record)
        assert fixed.page_count < heap.page_count

    def test_delete_and_slot_reuse(self):
        fixed, serializer = make_fixed()
        rid = fixed.insert(serializer.serialize((1, 1.0, True)))
        fixed.delete(rid)
        with pytest.raises(StorageError):
            fixed.read(rid)
        rid2 = fixed.insert(serializer.serialize((2, 2.0, False)))
        assert rid2 == rid  # stable addressing reuses the slot

    def test_update_fixed(self):
        fixed, serializer = make_fixed()
        rid = fixed.insert(serializer.serialize((1, 1.0, True)))
        same = fixed.update(rid, serializer.serialize((9, 9.0, False)))
        assert same == rid
        assert serializer.deserialize(fixed.read(rid)) == (9, 9.0, False)

    def test_insert_at_honours_rid(self):
        fixed, serializer = make_fixed()
        record = serializer.serialize((5, 5.0, True))
        rid = fixed.insert_at(RID(0, 3), record)
        assert rid == RID(0, 3)
        assert serializer.deserialize(fixed.read(rid)) == (5, 5.0, True)

    def test_wrong_width_rejected(self):
        fixed, _serializer = make_fixed()
        with pytest.raises(StorageError):
            fixed.insert(b"short")


class TestRegistry:
    def test_default_registry(self):
        registry = default_registry()
        assert "heap" in registry
        assert "fixed" in registry
        assert registry.names() == ["fixed", "heap"]

    def test_dispatch_by_table_def(self):
        registry = default_registry()
        pool = BufferPool(DiskManager(), capacity=4)
        columns = [ColumnDef("a", INTEGER)]
        serializer = RecordSerializer([INTEGER])
        heap_table = TableDef("h", columns, storage_manager="heap")
        fixed_table = TableDef("f", columns, storage_manager="fixed")
        assert isinstance(registry.create(heap_table, pool, serializer),
                          HeapTableStorage)
        assert isinstance(registry.create(fixed_table, pool, serializer),
                          FixedTableStorage)

    def test_unknown_manager(self):
        registry = default_registry()
        pool = BufferPool(DiskManager(), capacity=4)
        table = TableDef("x", [ColumnDef("a", INTEGER)],
                         storage_manager="nvram")
        with pytest.raises(StorageError):
            registry.create(table, pool, RecordSerializer([INTEGER]))

    def test_duplicate_registration(self):
        registry = default_registry()
        with pytest.raises(ExtensionError):
            registry.register("heap", HeapTableStorage)
        registry.register("heap", HeapTableStorage, replace=True)


class ScanOnlyStorage(TableStorage):
    """A DBC storage manager that keeps records in a list and implements
    only the record interface and ``scan()`` — fused scans must reach it
    through the default span-building ``scan_batches``."""

    kind = "listed"

    def __init__(self, table, pool, serializer):
        super().__init__(table, pool, serializer)
        self._records = []

    def insert(self, record):
        self._records.append(record)
        return RID(0, len(self._records) - 1)

    def read(self, rid):
        record = self._records[rid.slot]
        if record is None:
            raise StorageError("no record at %s" % (rid,))
        return record

    def update(self, rid, record):
        self.read(rid)
        self._records[rid.slot] = record
        return rid

    def delete(self, rid):
        self.read(rid)
        self._records[rid.slot] = None

    def scan(self):
        for slot, record in enumerate(self._records):
            if record is not None:
                yield RID(0, slot), record

    @property
    def page_count(self):
        return 1

    def truncate(self):
        self._records = []


class TestFusedScanOverStorageManagers:
    """A fused (compiled) scan of a non-heap table is byte-identical to
    the tuple interpreter's, NULLs and deleted rows included."""

    QUERIES = (
        "SELECT count(*), sum(x) FROM f WHERE a % 3 <> 0",
        "SELECT a, x FROM f WHERE a > 5",
        "SELECT * FROM f",
        "SELECT count(*) FROM f",
    )

    @staticmethod
    def _db(ddl):
        db = Database()
        db.register_storage_manager("listed", ScanOnlyStorage)
        db.execute(ddl)
        arity = 4 if "tag" in ddl else 3
        txn = db.begin()
        for i in range(250):
            row = (i if i % 11 else None, i * 0.5 if i % 7 else None,
                   i % 2 == 0, "t%d" % (i % 5))
            db.engine.insert(txn, "f", row[:arity])
        db.commit(txn)
        db.execute("DELETE FROM f WHERE a % 13 = 0")
        db.analyze()
        return db

    @staticmethod
    def _check(db, sql):
        base = db.settings.compile_options().replace(
            plan_cache=False)
        ref = db.execute(sql, options=base.replace(execution_mode="tuple"))
        compiled = base.replace(batch_size=16)
        plan = db.compile(sql, options=compiled).plan
        assert any(getattr(node, "codegen_program", None) is not None
                   for node in plan.walk())
        assert db.execute(sql, options=compiled).rows == ref.rows
        assert ref.rows

    @pytest.mark.parametrize("sql", QUERIES)
    def test_fixed_table(self, sql):
        db = self._db("CREATE TABLE f (a INTEGER, x DOUBLE, flag BOOLEAN) "
                      "USING fixed")
        assert db.engine.storage("f").kind == "fixed"
        self._check(db, sql)

    @pytest.mark.parametrize("sql", QUERIES)
    def test_registered_scan_only_manager(self, sql):
        db = self._db("CREATE TABLE f (a INTEGER, x DOUBLE, flag BOOLEAN, "
                      "tag VARCHAR(4)) USING listed")
        assert db.engine.storage("f").kind == "listed"
        self._check(db, sql)
