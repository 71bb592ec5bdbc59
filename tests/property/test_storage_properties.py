"""Property-based tests for the storage substrate."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import CompileOptions, Database

from repro.catalog import ColumnDef, TableDef
from repro.datatypes import BOOLEAN, DOUBLE, INTEGER, VARCHAR
from repro.storage.buffer import BufferPool, DiskManager
from repro.storage.heap import HeapTableStorage
from repro.storage.page import PAGE_SIZE, Page
from repro.storage.record import RecordSerializer

row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-2**40, max_value=2**40)),
    st.one_of(st.none(), st.text(max_size=40)),
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    st.one_of(st.none(), st.booleans()),
)


class TestRecordRoundtrip:
    @given(row=row_strategy)
    def test_serialize_deserialize_identity(self, row):
        serializer = RecordSerializer([INTEGER, VARCHAR, DOUBLE, BOOLEAN])
        assert serializer.deserialize(serializer.serialize(row)) == row

    @given(rows=st.lists(row_strategy, max_size=20))
    def test_concatenation_independent(self, rows):
        serializer = RecordSerializer([INTEGER, VARCHAR, DOUBLE, BOOLEAN])
        blobs = [serializer.serialize(r) for r in rows]
        assert [serializer.deserialize(b) for b in blobs] == list(rows)


class TestPageModel:
    """The page must behave like a dict {slot: bytes} under arbitrary
    insert/delete/compact sequences."""

    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.binary(min_size=0, max_size=120)),
            st.tuples(st.just("delete"), st.integers(0, 200)),
            st.tuples(st.just("compact"), st.just(b"")),
        ),
        max_size=60))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_against_model(self, ops):
        page = Page(0)
        model = {}
        for op, arg in ops:
            if op == "insert":
                if page.can_insert(len(arg)):
                    slot = page.insert(arg)
                    assert slot not in model
                    model[slot] = arg
            elif op == "delete":
                if arg in model:
                    page.delete(arg)
                    del model[arg]
            else:
                page.compact()
            assert dict(page.records()) == model
            assert page.live_count() == len(model)
            slots, offsets, lengths = page.directory()
            assert list(slots) == sorted(model)
            image = bytes(page.data)
            assert [image[o:o + n] for o, n in zip(offsets, lengths)] == \
                [model[slot] for slot in slots]


class TestHeapModel:
    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("insert"),
                      st.integers(0, 10**6), st.text(max_size=30)),
            st.tuples(st.just("delete"), st.integers(0, 100), st.just("")),
            st.tuples(st.just("update"),
                      st.integers(0, 100), st.text(max_size=60)),
        ),
        max_size=50))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_against_model(self, ops):
        table = TableDef("t", [ColumnDef("a", INTEGER),
                               ColumnDef("b", VARCHAR)])
        serializer = RecordSerializer([INTEGER, VARCHAR])
        pool = BufferPool(DiskManager(), capacity=8)
        heap = HeapTableStorage(table, pool, serializer)
        model = {}
        live_rids = []
        for op, first, second in ops:
            if op == "insert":
                rid = heap.insert(serializer.serialize((first, second)))
                model[rid] = (first, second)
                live_rids.append(rid)
            elif op == "delete" and live_rids:
                rid = live_rids[first % len(live_rids)]
                heap.delete(rid)
                del model[rid]
                live_rids.remove(rid)
            elif op == "update" and live_rids:
                rid = live_rids[first % len(live_rids)]
                old = model.pop(rid)
                new_row = (old[0], second)
                new_rid = heap.update(rid, serializer.serialize(new_row))
                model[new_rid] = new_row
                live_rids.remove(rid)
                live_rids.append(new_rid)
        scanned = {rid: serializer.deserialize(data)
                   for rid, data in heap.scan()}
        assert scanned == model


class TestBufferDurability:
    @given(payloads=st.lists(st.binary(min_size=1, max_size=64),
                             min_size=1, max_size=30),
           capacity=st.integers(1, 4))
    @settings(max_examples=40)
    def test_data_survives_eviction(self, payloads, capacity):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=capacity)
        locations = []
        for payload in payloads:
            page = pool.new_page()
            slot = page.insert(payload)
            locations.append((page.page_id, slot, payload))
            pool.unpin(page.page_id, dirty=True)
        for page_id, slot, payload in locations:
            with pool.pinned(page_id) as page:
                assert page.read(slot) == payload


_TYPES = {"i": INTEGER, "d": DOUBLE, "b": BOOLEAN, "v": VARCHAR}
_VALUES = {"i": st.integers(-2**62, 2**62),
           "d": st.floats(allow_nan=False),
           "b": st.booleans(),
           "v": st.text(max_size=12)}


@st.composite
def _schema_rows(draw):
    """A schema of 1..12 columns (two-byte NULL bitmaps past 8) and rows
    with NULLs in any position — one or two a row, so a lone NULL in the
    second bitmap byte is common."""
    codes = draw(st.lists(st.sampled_from("iiddbv"), min_size=1,
                          max_size=12))
    row = st.tuples(*(_VALUES[c] for c in codes))
    nulls = st.sets(st.integers(0, len(codes) - 1), max_size=2)
    rows = draw(st.lists(st.tuples(row, nulls), min_size=1, max_size=40))
    return codes, [tuple(None if i in null else value
                         for i, value in enumerate(values))
                   for values, null in rows]


class TestSpanDecoding:
    """The fused scans' decoder reads records where they lie on a page
    image; it must agree with row-at-a-time ``deserialize``."""

    @given(data=_schema_rows(), holes=st.sets(st.integers(0, 39)),
           picks=st.sets(st.integers(0, 11), min_size=1))
    # A NULL only in the second bitmap byte: the first byte reads clean.
    @example(data=("i" * 9, [(1,) * 9, (2,) * 8 + (None,)]),
             holes={0}, picks={0, 8})
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    def test_span_decoder_matches_deserialize(self, data, holes, picks):
        codes, rows = data
        serializer = RecordSerializer([_TYPES[c] for c in codes])
        page = Page(0)
        live = []
        for i, row in enumerate(rows):
            record = serializer.serialize(row)
            if not page.can_insert(len(record)):
                break
            slot = page.insert(record)
            if i in holes:
                page.delete(slot)
            else:
                live.append(row)
        slots, offsets, lengths = page.directory()
        span = (bytes(page.data), offsets, lengths)
        positions = tuple(sorted(p for p in picks if p < len(codes))) \
            or (0,)
        decode = serializer.combined_decoder(positions)
        expected = [tuple(row[p] for p in positions) for row in live]
        # The same page twice: decoding spans back to back.
        assert decode([span, span]) == expected * 2
        assert decode([]) == []


def _big_db():
    """A table several times the buffer pool, with NULLs in every column
    and deleted rows scattered over its pages."""
    db = Database(pool_capacity=8)
    db.execute("CREATE TABLE big (a INTEGER, b INTEGER, x DOUBLE, "
               "flag BOOLEAN, tag VARCHAR(10))")
    txn = db.begin()
    for i in range(3000):
        db.engine.insert(txn, "big", (
            i, i % 37 if i % 5 else None, i * 0.25 if i % 7 else None,
            (i % 3 == 0) if i % 11 else None,
            "tag%d" % (i % 9) if i % 13 else None))
    db.commit(txn)
    db.execute("DELETE FROM big WHERE a % 17 = 0 OR a % 29 = 3")
    db.analyze()
    return db


@pytest.fixture(scope="module")
def big_db():
    db = _big_db()
    assert db.engine.table_page_count("big") > 3 * 8
    yield db
    db.close()


class TestBigTableScans:
    """Fused, tuple and parallel scans of a table larger than the pool
    return the same rows in the same order."""

    @given(columns=st.lists(st.sampled_from(["a", "b", "x", "flag", "tag"]),
                            min_size=1, max_size=5, unique=True),
           bound=st.integers(-5, 3100), aggregate=st.booleans())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fused_tuple_parallel_agree(self, big_db, columns, bound,
                                        aggregate):
        if aggregate:
            sql = ("SELECT count(*), count(b), sum(x), max(%s) FROM big "
                   "WHERE a < %d" % (columns[0], bound))
        else:
            sql = "SELECT %s FROM big WHERE a < %d" % (", ".join(columns),
                                                       bound)
        base = CompileOptions.from_settings(big_db.settings).replace(
            plan_cache=False)
        ref = big_db.execute(sql, options=base.replace(
            execution_mode="tuple")).rows
        for options in (base, base.replace(batch_size=1),
                        base.replace(parallelism="on", dop=2)):
            assert big_db.execute(sql, options=options).rows == ref
