"""Slotted pages.

Layout of a page (little-endian, PAGE_SIZE bytes):

    offset 0:  uint16  slot_count
    offset 2:  uint16  free_space_offset   (records grow down from the end)
    offset 4:  slot directory, slot_count entries of (uint16 offset, uint16 length)
    ...
    free space
    ...
    records packed at the tail

A deleted slot keeps its directory entry with offset == 0 and length == 0 so
RIDs of other records stay stable; deleted slots are reused by later inserts.
Updates that fit in place are done in place; larger records must be moved by
the storage manager (delete + insert elsewhere).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.errors import PageError

#: Page size in bytes.  Small enough that benchmarks show multi-page effects
#: on laptop-scale data, large enough to hold realistic rows.
PAGE_SIZE = 4096

_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<HH")
_HEADER_SIZE = _HEADER.size
_SLOT_SIZE = _SLOT.size


class Page:
    """One slotted page over a mutable bytearray."""

    __slots__ = ("page_id", "data")

    def __init__(self, page_id: int, data: Optional[bytearray] = None):
        self.page_id = page_id
        if data is None:
            data = bytearray(PAGE_SIZE)
            _HEADER.pack_into(data, 0, 0, PAGE_SIZE)
        if len(data) != PAGE_SIZE:
            raise PageError("page %d has size %d" % (page_id, len(data)))
        self.data = data

    # -- header helpers -------------------------------------------------------

    @property
    def slot_count(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[0]

    @property
    def free_space_offset(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[1]

    def _set_header(self, slot_count: int, free_offset: int) -> None:
        _HEADER.pack_into(self.data, 0, slot_count, free_offset)

    def _slot(self, slot: int) -> Tuple[int, int]:
        if not 0 <= slot < self.slot_count:
            raise PageError("page %d has no slot %d" % (self.page_id, slot))
        return _SLOT.unpack_from(self.data, _HEADER_SIZE + slot * _SLOT_SIZE)

    def _set_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, _HEADER_SIZE + slot * _SLOT_SIZE, offset, length)

    # -- space accounting -------------------------------------------------------

    def free_space(self) -> int:
        """Contiguous free bytes between the slot directory and the records."""
        directory_end = _HEADER_SIZE + self.slot_count * _SLOT_SIZE
        return self.free_space_offset - directory_end

    def _entries(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The whole slot directory in one unpack: ``(offsets, lengths)``
        of every slot, a deleted one reading ``(0, 0)``."""
        data = self.data
        count = _HEADER.unpack_from(data, 0)[0]
        entries = struct.unpack_from("<%dH" % (2 * count), data, _HEADER_SIZE)
        return entries[0::2], entries[1::2]

    def _find_free_slot(self) -> Optional[int]:
        # A live record never sits at offset 0 (the header is there), so
        # offset 0 alone marks a deleted slot.
        offsets = self._entries()[0]
        return offsets.index(0) if 0 in offsets else None

    def can_insert(self, record_length: int) -> bool:
        """True when ``insert`` with a record of this size will succeed."""
        if record_length == 0:
            record_length = 1  # zero-length records still need a marker byte
        needed = record_length
        if self._find_free_slot() is None:
            needed += _SLOT_SIZE
        return self.free_space() >= needed

    # -- record operations -------------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert a record, returning its slot number."""
        length = len(record)
        stored = record if length > 0 else b"\x00"
        slot = self._find_free_slot()
        needed = len(stored) + (_SLOT_SIZE if slot is None else 0)
        if self.free_space() < needed:
            raise PageError(
                "page %d cannot fit a %d-byte record" % (self.page_id, length)
            )
        slot_count, free_offset = _HEADER.unpack_from(self.data, 0)
        if slot is None:
            slot = slot_count
            slot_count += 1
        new_offset = free_offset - len(stored)
        self.data[new_offset: new_offset + len(stored)] = stored
        self._set_header(slot_count, new_offset)
        self._set_slot(slot, new_offset, length)
        return slot

    def read(self, slot: int) -> bytes:
        """Read the record in ``slot``; deleted slots raise."""
        offset, length = self._slot(slot)
        if offset == 0 and length == 0:
            raise PageError("slot %d of page %d is empty" % (slot, self.page_id))
        return bytes(self.data[offset: offset + length])

    def is_live(self, slot: int) -> bool:
        offset, length = self._slot(slot)
        return not (offset == 0 and length == 0)

    def delete(self, slot: int) -> None:
        """Delete the record in ``slot`` (directory entry is kept)."""
        offset, length = self._slot(slot)
        if offset == 0 and length == 0:
            raise PageError("slot %d of page %d already empty" % (slot, self.page_id))
        self._set_slot(slot, 0, 0)

    def update_in_place(self, slot: int, record: bytes) -> bool:
        """Overwrite a record if the new bytes fit in its current space.

        Returns False (without modifying the page) when the record grew and
        the caller must relocate it instead.
        """
        offset, length = self._slot(slot)
        if offset == 0 and length == 0:
            raise PageError("slot %d of page %d is empty" % (slot, self.page_id))
        reserved = max(length, 1)
        if len(record) > reserved:
            return False
        stored = record if record else b"\x00"
        self.data[offset: offset + len(stored)] = stored
        self._set_slot(slot, offset, len(record))
        return True

    def reclaimable_space(self) -> int:
        """Bytes occupied by deleted records (freed by :meth:`compact`)."""
        _slots, _offsets, lengths = self.directory()
        live = sum(max(length, 1) for length in lengths)
        return (PAGE_SIZE - self.free_space_offset) - live

    def can_insert_after_compaction(self, record_length: int) -> bool:
        if record_length == 0:
            record_length = 1
        needed = record_length
        if self._find_free_slot() is None:
            needed += _SLOT_SIZE
        return self.free_space() + self.reclaimable_space() >= needed

    def compact(self) -> None:
        """Rewrite live records contiguously at the page tail, reclaiming
        the space of deleted records.  Slot numbers (and thus RIDs) are
        unchanged."""
        image = bytes(self.data)
        write_at = PAGE_SIZE
        for slot, offset, length in zip(*self.directory()):
            stored = max(length, 1)
            write_at -= stored
            self.data[write_at: write_at + stored] = \
                image[offset: offset + stored]
            self._set_slot(slot, write_at, length)
        self._set_header(self.slot_count, write_at)

    def directory(self) -> Tuple[Sequence[int], Sequence[int],
                                 Sequence[int]]:
        """``(slots, offsets, lengths)`` of the live records, in slot order.

        The page-read primitive every scan is built on: one unpack of the
        slot directory, filtered only when some slot is deleted.  Offsets
        index :attr:`data` (or any copy of it)."""
        offsets, lengths = self._entries()
        if 0 not in offsets:
            return range(len(offsets)), offsets, lengths
        slots = [slot for slot, offset in enumerate(offsets) if offset]
        return (slots, [offsets[slot] for slot in slots],
                [lengths[slot] for slot in slots])

    def records(self) -> List[Tuple[int, bytes]]:
        """``(slot, record bytes)`` for every live record, read through
        :meth:`directory`."""
        data = self.data
        return [(slot, bytes(data[offset: offset + length]))
                for slot, offset, length in zip(*self.directory())]

    def live_count(self) -> int:
        return len(self.directory()[0])
