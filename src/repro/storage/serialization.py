"""Record serialization.

Values (ints, floats, booleans, strings and the degradation sentinels) are
encoded to a compact, self describing byte string.  The codec is deliberately
simple — a one byte type tag followed by a fixed or length prefixed payload —
so that tests can reason about exact byte layouts and the forensic scanner
(:mod:`repro.privacy.forensic`) can grep raw pages for residual plaintext.
Each value takes the narrowest form that holds it: an INT in
``[-2**31, 2**31)`` is a tag and a 4-byte int (5 bytes; a wider one keeps the
9-byte form), a TEXT or BYTES payload under 256 bytes a tag and a 1-byte
length (2 + n bytes; a longer one keeps a 4-byte length, 5 + n).

A **stored record** — what a table's heap pages and its ``DELTA`` log images
hold — is a fixed prefix followed by the row's tagged values::

    count:H · level:B × L · (tag, key:q) · (tag, inserted_at:d) · values…

``count`` is the record's field count (``2 + L`` plus one per column), each
of the ``L`` accuracy levels of the table's degradable columns is one
untagged unsigned byte (at most :data:`MAX_LEVEL`), and the row key and the
insertion time are a tagged 8-byte INT and FLOAT, whatever their size.
:class:`RecordPrefix` is the one definition of that layout: its struct, the
tags it carries and the offset of every field of it; the table store, the
heap's level reader and the record kernels all derive theirs from it.  The
values follow in :meth:`RecordPrefix.order`: the stable INT and FLOAT columns
first, so the prefix widened over them (:meth:`RecordPrefix.widened`, which
expects each INT in its 4-byte form) reaches every one in the same unpack
that checks it.  Generic records (:func:`encode_record`, the log's own
payloads) are a count followed by tagged values only.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import takewhile
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.errors import StorageError
from ..core.values import NULL, REMOVED, SUPPRESSED, ValueType

_TAG_NULL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_TEXT = 3
_TAG_BOOL_TRUE = 4
_TAG_BOOL_FALSE = 5
_TAG_SUPPRESSED = 6
_TAG_REMOVED = 7
_TAG_BYTES = 8
_TAG_INT32 = 9          # an INT that fits 4 bytes
_TAG_SHORT_TEXT = 10    # a TEXT / BYTES of under 256 bytes: a 1-byte length
_TAG_SHORT_BYTES = 11   # the highest tag

_INT_STRUCT = struct.Struct("<q")
_INT32_STRUCT = struct.Struct("<i")
_FLOAT_STRUCT = struct.Struct("<d")
_LEN_STRUCT = struct.Struct("<I")
_COUNT_STRUCT = struct.Struct("<H")


_INT_FIELD = struct.Struct("<Bq")
_FLOAT_FIELD = struct.Struct("<Bd")
_INT32_FIELD = struct.Struct("<Bi")
_TEXT_HEAD = struct.Struct("<BI")
_SHORT_HEAD = struct.Struct("<BB")
#: The INTs of the 4-byte form: ``INT32_MIN <= value < INT32_END``.
INT32_MIN, INT32_END = -(1 << 31), 1 << 31
#: Tag → the bytes of a field of that tag, the tag included, if they are
#: fixed; 0 if a length follows the tag.
_WIDTHS = bytes((1, 1 + _INT_STRUCT.size, 1 + _FLOAT_STRUCT.size, 0, 1, 1, 1, 1, 0,
                 1 + _INT32_STRUCT.size, 0, 0))


def _int_field(value: int) -> bytes:
    if INT32_MIN <= value < INT32_END:
        return _INT32_FIELD.pack(_TAG_INT32, value)
    return _INT_FIELD.pack(_TAG_INT, value)


def _length_field(tag: int, payload: bytes) -> bytes:
    """A TEXT (``tag`` :data:`_TAG_TEXT`) or BYTES field of ``payload``."""
    if len(payload) < 256:
        short = _TAG_SHORT_TEXT if tag == _TAG_TEXT else _TAG_SHORT_BYTES
        return _SHORT_HEAD.pack(short, len(payload)) + payload
    return _TEXT_HEAD.pack(tag, len(payload)) + payload


def encode_value(value: Any) -> bytes:
    """Encode one value to bytes, each in the narrowest form that holds it."""
    kind = type(value)
    if kind is int:
        return _int_field(value)
    if kind is str:
        return _length_field(_TAG_TEXT, value.encode("utf-8"))
    if kind is float:
        return _FLOAT_FIELD.pack(_TAG_FLOAT, value)
    if value is NULL or value is None:
        return bytes([_TAG_NULL])
    if value is SUPPRESSED:
        return bytes([_TAG_SUPPRESSED])
    if value is REMOVED:
        return bytes([_TAG_REMOVED])
    if isinstance(value, bool):
        return bytes([_TAG_BOOL_TRUE if value else _TAG_BOOL_FALSE])
    if isinstance(value, int):
        return _int_field(int(value))
    if isinstance(value, float):
        return bytes([_TAG_FLOAT]) + _FLOAT_STRUCT.pack(value)
    if isinstance(value, str):
        return _length_field(_TAG_TEXT, value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return _length_field(_TAG_BYTES, bytes(value))
    raise StorageError(f"cannot serialize value of type {type(value).__name__}: {value!r}")


def decode_value(data: bytes, offset: int = 0,
                 end: Optional[int] = None) -> Tuple[Any, int]:
    """Decode one value starting at ``offset``; return ``(value, next_offset)``.

    ``end`` bounds the record when ``data`` is a larger buffer (a page frame
    decoded in place); by default the record ends with ``data``.
    """
    if end is None:
        end = len(data)
    if offset >= end:
        raise StorageError("truncated record: no type tag")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NULL:
        return NULL, offset
    if tag == _TAG_SUPPRESSED:
        return SUPPRESSED, offset
    if tag == _TAG_REMOVED:
        return REMOVED, offset
    if tag == _TAG_BOOL_TRUE:
        return True, offset
    if tag == _TAG_BOOL_FALSE:
        return False, offset
    if tag == _TAG_INT or tag == _TAG_INT32:
        unpack = _INT_STRUCT if tag == _TAG_INT else _INT32_STRUCT
        stop = offset + unpack.size
        if stop > end:
            raise StorageError("truncated record: short INT payload")
        return unpack.unpack_from(data, offset)[0], stop
    if tag == _TAG_FLOAT:
        stop = offset + _FLOAT_STRUCT.size
        if stop > end:
            raise StorageError("truncated record: short FLOAT payload")
        return _FLOAT_STRUCT.unpack_from(data, offset)[0], stop
    if tag in (_TAG_TEXT, _TAG_BYTES, _TAG_SHORT_TEXT, _TAG_SHORT_BYTES):
        short = tag >= _TAG_SHORT_TEXT
        length_end = offset + (1 if short else _LEN_STRUCT.size)
        if length_end > end:
            raise StorageError("truncated record: short length prefix")
        length = data[offset] if short else _LEN_STRUCT.unpack_from(data, offset)[0]
        stop = length_end + length
        if stop > end:
            raise StorageError("truncated record: short string payload")
        payload = data[length_end:stop]
        if tag == _TAG_TEXT or tag == _TAG_SHORT_TEXT:
            return payload.decode("utf-8"), stop
        return bytes(payload), stop
    raise StorageError(f"unknown type tag {tag} at offset {offset - 1}")


def record_field_count(data: bytes, offset: int = 0,
                       end: Optional[int] = None) -> Tuple[int, int]:
    """Field count of the encoded record at ``offset`` plus the offset of its
    first field."""
    first = offset + _COUNT_STRUCT.size
    if first > (len(data) if end is None else end):
        raise StorageError("truncated record: missing field count")
    (count,) = _COUNT_STRUCT.unpack_from(data, offset)
    return count, first


#: The highest accuracy level a stored record can carry: each is one byte.
MAX_LEVEL = 0xFF

#: Fixed-width value kinds of a widened prefix: struct code, tag and payload width.
_FIXED = {ValueType.INT: ("Bi", _TAG_INT32, _INT32_STRUCT.size),
          ValueType.FLOAT: ("Bd", _TAG_FLOAT, _FLOAT_STRUCT.size)}


class RecordPrefix:
    """The fixed prefix of the stored records of a table with ``levels``
    degradable columns: ``count:H · level:B × levels · (tag, key:q) · (tag,
    inserted_at:d)``.

    :attr:`struct` unpacks it in one call into ``head``: ``head[0]`` is the
    field count, ``head[level_at(i)]`` level ``i``, ``head[key_at]`` the row
    key and ``head[time_at]`` the insertion time; the prefix is well formed
    exactly when ``head[tags_at::2] == tags`` (the levels carry no tag, so the
    tags sit at every other item from :attr:`tags_at` on, widened or not).
    """

    def __init__(self, levels: int) -> None:
        self.struct = struct.Struct("<H" + "B" * levels + "BqBd")
        #: Bytes of the prefix: where the first value starts.
        self.size = self.struct.size
        self.tags: Tuple[int, ...] = (_TAG_INT, _TAG_FLOAT)
        self.tags_at = 1 + levels
        self.key_at = 2 + levels
        self.time_at = 4 + levels
        #: Offsets in the record: of each level's byte, of the row key's tag
        #: and of the insertion time's tag.
        self.level_offsets = tuple(range(_COUNT_STRUCT.size, _COUNT_STRUCT.size + levels))
        self.key_offset = _COUNT_STRUCT.size + levels
        self.time_offset = self.key_offset + _INT_FIELD.size
        #: ``read_levels(data, start)`` → the levels of the record at ``data[start]``.
        self.read_levels: Callable[[Any, int], Tuple[int, ...]] = struct.Struct(
            f"<{_COUNT_STRUCT.size}x{levels}B").unpack_from
        self._lead = struct.Struct("<H" + "B" * levels)

    def level_at(self, level: int) -> int:
        """Where in ``head`` level ``level`` is."""
        return 1 + level

    def value_at(self, position: int) -> int:
        """Where in a widened ``head`` (:meth:`widened`) the payload of value
        ``position`` is: past a tag and a payload per value before it."""
        return self.time_at + 2 + 2 * position

    def value_offset(self, widths: Sequence[int]) -> int:
        """The offset in the record of the tag of the value after leading
        fixed-width ones of payload ``widths`` (a tag byte each)."""
        return self.size + len(widths) + sum(widths)

    @staticmethod
    def order(columns: Sequence[Any]) -> Tuple[int, ...]:
        """The one physical order of a table's values: the declared index of
        each of its ``columns`` (``.value_type``, ``.degradable``) in record
        order — first the stable columns of the fixed-width types
        :meth:`widened` covers, then every other one, each group as declared."""
        return tuple(sorted(range(len(columns)), key=lambda index: (
            columns[index].degradable or columns[index].value_type not in _FIXED)))

    def widened(self, columns: Sequence[Any]
                ) -> Tuple[struct.Struct, Tuple[int, ...], Tuple[int, ...], bool]:
        """The prefix widened over the leading stable INT/FLOAT values of
        ``columns`` (in record order, :meth:`order`: every stable INT and
        FLOAT) and the tag and 1-byte length of a stable TEXT right after
        them — one struct, the tags it must carry (from :attr:`tags_at`,
        every other item) — and the payload width of each value it covers (an
        INT's 4-byte form: a record holding a wider INT or a TEXT of 256
        bytes or more there does not match it), and whether a TEXT's head
        ends it."""
        types = [column.value_type for column in takewhile(
            lambda column: not column.degradable, columns)]
        covered = 0
        while covered < len(types) and types[covered] in _FIXED:
            covered += 1
        text = covered < len(types) and types[covered] is ValueType.TEXT
        fixed = [_FIXED[kind] for kind in types[:covered]] + [("BB", _TAG_SHORT_TEXT, 1)] * text
        return (struct.Struct(self.struct.format + "".join(code for code, _tag, _width in fixed)),
                self.tags + tuple(tag for _code, tag, _width in fixed),
                tuple(width for _code, _tag, width in fixed[:covered]), text)

    def lead(self, count: int, levels: Sequence[int]) -> bytes:
        """The record's field ``count`` and ``levels``: its first bytes."""
        return self._lead.pack(count, *levels)

    @staticmethod
    def stamp(inserted_at: float) -> bytes:
        """The insertion time's field: the prefix's last bytes."""
        return _FLOAT_FIELD.pack(_TAG_FLOAT, float(inserted_at))

    def level_pieces(self, top: int) -> List[bytes]:
        """The bytes of each level ``0..top`` as a record stores it."""
        return [bytes((level,)) for level in range(top + 1)]


@lru_cache(maxsize=None)
def record_prefix(levels: int) -> RecordPrefix:
    """The (shared) :class:`RecordPrefix` of ``levels`` levels."""
    return RecordPrefix(levels)


def encode_record(values: Sequence[Any]) -> bytes:
    """Encode a record (tuple of values) with a leading field count."""
    if len(values) > 0xFFFF:
        raise StorageError("records with more than 65535 fields are not supported")
    return _COUNT_STRUCT.pack(len(values)) + b"".join(map(encode_value, values))


def decode_record(data: bytes) -> Tuple[Any, ...]:
    """Decode a record previously produced by :func:`encode_record`."""
    if len(data) < _COUNT_STRUCT.size:
        raise StorageError("truncated record: missing field count")
    (count,) = _COUNT_STRUCT.unpack_from(data, 0)
    offset = _COUNT_STRUCT.size
    values = []
    for _ in range(count):
        value, offset = decode_value(data, offset)
        values.append(value)
    if offset != len(data):
        raise StorageError("trailing bytes after record payload")
    return tuple(values)


__all__ = ["encode_value", "decode_value", "encode_record", "decode_record",
           "record_field_count", "MAX_LEVEL", "INT32_MIN", "INT32_END", "RecordPrefix",
           "record_prefix"]
