"""Record identifiers and row (de)serialization.

Rows cross the Corona/Core boundary as Python tuples; inside Core they are
byte strings laid out as:

    [null bitmap][field 0][field 1]...

- the null bitmap has one bit per column (bit set = NULL, field omitted),
- fixed-width fields (``DataType.fixed_width``) are stored raw,
- variable-width fields are prefixed with a 4-byte little-endian length.

The serializer is built once per table from its column types.
"""

from __future__ import annotations

import itertools
import struct
from operator import itemgetter
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from repro.datatypes.types import (
    BooleanType,
    DataType,
    DoubleType,
    IntegerType,
    VarcharType,
)
from repro.errors import RecordError

_LEN = struct.Struct("<I")


#: ``(image, offsets, lengths)`` — see "Span decoding" below.
Span = Tuple[bytes, Sequence[int], Sequence[int]]


class RID(NamedTuple):
    """Record identifier: page number within the table plus slot number."""

    page_no: int
    slot: int

    def __str__(self) -> str:
        return "(%d,%d)" % (self.page_no, self.slot)


class RecordSerializer:
    """Converts row tuples to/from the byte layout described above."""

    def __init__(self, dtypes: Sequence[DataType]):
        self.dtypes: Tuple[DataType, ...] = tuple(dtypes)
        self._bitmap_bytes = (len(self.dtypes) + 7) // 8
        self._offsets = self._static_offsets()
        self._combined: dict = {}

    @property
    def arity(self) -> int:
        return len(self.dtypes)

    def fixed_record_width(self) -> Optional[int]:
        """Total serialized width when every column is fixed width.

        Returns None when any column is variable width.  Used by the
        fixed-length storage manager to compute records-per-page.
        """
        total = self._bitmap_bytes
        for dtype in self.dtypes:
            if dtype.fixed_width is None:
                return None
            total += dtype.fixed_width
        return total

    def serialize(self, row: Sequence[Any]) -> bytes:
        """Encode one row.  Values must already be validated/coerced."""
        if len(row) != len(self.dtypes):
            raise RecordError(
                "row has %d fields, schema has %d" % (len(row), len(self.dtypes))
            )
        bitmap = bytearray(self._bitmap_bytes)
        parts: List[bytes] = []
        for index, (value, dtype) in enumerate(zip(row, self.dtypes)):
            if value is None:
                bitmap[index // 8] |= 1 << (index % 8)
                if dtype.fixed_width is not None:
                    # Keep fixed layout stable: emit zero padding for NULLs.
                    parts.append(b"\x00" * dtype.fixed_width)
                continue
            try:
                data = dtype.serialize(value)
            except Exception as exc:
                raise RecordError(
                    "cannot serialize %r as %s: %s" % (value, dtype.name, exc)
                ) from exc
            if dtype.fixed_width is not None:
                if len(data) != dtype.fixed_width:
                    raise RecordError(
                        "%s serialized to %d bytes, expected %d"
                        % (dtype.name, len(data), dtype.fixed_width)
                    )
                parts.append(data)
            else:
                parts.append(_LEN.pack(len(data)))
                parts.append(data)
        return bytes(bitmap) + b"".join(parts)

    def deserialize(self, data: bytes) -> Tuple[Any, ...]:
        """Decode one row previously produced by :meth:`serialize`."""
        bitmap = data[: self._bitmap_bytes]
        offset = self._bitmap_bytes
        values: List[Any] = []
        for index, dtype in enumerate(self.dtypes):
            is_null = bool(bitmap[index // 8] & (1 << (index % 8)))
            if dtype.fixed_width is not None:
                field = data[offset: offset + dtype.fixed_width]
                offset += dtype.fixed_width
                values.append(None if is_null else dtype.deserialize(field))
            else:
                if is_null:
                    values.append(None)
                    continue
                (length,) = _LEN.unpack_from(data, offset)
                offset += _LEN.size
                field = data[offset: offset + length]
                offset += length
                values.append(dtype.deserialize(field))
        return tuple(values)

    # ------------------------------------------------------------------
    # Span decoding — used by the fused scans.
    #
    # A *span* is ``(image, offsets, lengths)``: an immutable byte image
    # (a heap page, or records joined end to end) and the offsets and
    # lengths of the live records in it.  Records of stock fixed-width
    # columns (and a first VARCHAR) are decoded where they lie in the
    # image, with no per-record copy.
    # ------------------------------------------------------------------

    def _static_offsets(self) -> List[Optional[int]]:
        """Byte offset of each column — of the first variable-width one,
        its length prefix — or None once the offset becomes
        data-dependent (the column follows a variable-width field).  NULL
        fixed-width fields are zero-padded on serialize, so static
        offsets survive NULLs; a NULL variable-width field has no
        prefix."""
        offsets: List[Optional[int]] = []
        offset: Optional[int] = self._bitmap_bytes
        for dtype in self.dtypes:
            offsets.append(offset)
            if offset is not None:
                width = dtype.fixed_width
                offset = None if width is None else offset + width
        return offsets

    def _struct_unpack(self, positions: Tuple[int, ...]):
        """``unpack_from`` of one pre-resolved struct reading the given
        columns of a record in place — of a VARCHAR (only ever the last,
        as nothing after it has a static offset), its length prefix — or
        None unless every one is a stock type at a static offset (in
        ascending order)."""
        parts = ["<"]
        cursor = 0
        codes = {IntegerType: "q", DoubleType: "d", BooleanType: "?",
                 VarcharType: "I"}
        for pos in positions:
            offset = self._offsets[pos]
            # Exact-class lookup: a DataType subclass may override
            # deserialize, so only the stock types are read by struct.
            code = codes.get(type(self.dtypes[pos]))
            if offset is None or code is None or offset < cursor:
                return None
            if offset > cursor:
                parts.append("%dx" % (offset - cursor))
            parts.append(code)
            cursor = offset + (self.dtypes[pos].fixed_width or _LEN.size)
        return struct.Struct("".join(parts)).unpack_from

    def combined_decoder(self, positions: Tuple[int, ...]):
        """A decoder ``f(spans) -> List[tuple]`` of the given columns of
        every record in a list of spans, in order.

        When the columns allow it (:meth:`_struct_unpack`) each page is
        one list comprehension of a single struct unpack per record, and
        NULLs are found by one C-level screen of the records' one-byte
        bitmaps per page before any per-row patching (wider bitmaps are
        read record by record).  A trailing VARCHAR adds one slice and
        ``decode`` per record after its unpacked length prefix; a page the
        screen flags (or any page of a table with a wider bitmap) is
        deserialized instead, since a NULL VARCHAR has no prefix to read.
        Otherwise the records are sliced out and deserialized whole.
        """
        if positions in self._combined:
            return self._combined[positions]
        whole = positions == tuple(range(self.arity))

        def sliced(spans, _d=self.deserialize, _p=positions):
            rows = [_d(image[o:o + n])
                    for image, offsets, lengths in spans
                    for o, n in zip(offsets, lengths)]
            if whole:
                return rows
            return [tuple([row[p] for p in _p]) for row in rows]

        unpack = self._struct_unpack(positions)
        nb = self._bitmap_bytes
        if unpack is None:
            decoder = sliced
        elif type(self.dtypes[positions[-1]]) is VarcharType:
            start = self._offsets[positions[-1]] + _LEN.size

            def decoder(spans, _u=unpack, _s=start, _nb=nb):
                out: List[tuple] = []
                for span in spans:
                    image, offsets, _lengths = span
                    if _nb > 1 or _null_screen(image, offsets):
                        out += sliced([span])
                        continue
                    heads = [_u(image, o) for o in offsets]
                    out += [r[:-1] + (image[o + _s:o + _s + r[-1]].decode(),)
                            for o, r in zip(offsets, heads)]
                return out
        else:
            masks = tuple(1 << pos for pos in positions)

            def decoder(spans, _u=unpack, _masks=masks, _nb=nb):
                out: List[tuple] = []
                for image, offsets, _lengths in spans:
                    rows = [_u(image, o) for o in offsets]
                    if _nb > 1 or _null_screen(image, offsets):
                        for i, o in enumerate(offsets):
                            bits = int.from_bytes(image[o:o + _nb], "little")
                            if bits:
                                rows[i] = tuple(
                                    None if bits & mask else value
                                    for value, mask in zip(rows[i], _masks))
                    out += rows
                return out

        self._combined[positions] = decoder
        return decoder


def _null_screen(image: bytes, offsets: Sequence[int]) -> bool:
    """Whether any record's first bitmap byte is set: one C call for a
    page (``itemgetter`` of one offset returns the byte, not a tuple)."""
    if len(offsets) > 1:
        return any(itemgetter(*offsets)(image))
    return bool(offsets) and image[offsets[0]] != 0


def record_span(records: Sequence[bytes]) -> Span:
    """Records joined end to end into one span (cumulative offsets)."""
    lengths = [len(record) for record in records]
    offsets = list(itertools.accumulate(lengths, initial=0))
    offsets.pop()
    return b"".join(records), offsets, lengths
