"""Record serialization.

Records are tuples of Python values (ints, floats, booleans, strings and the
degradation sentinels) encoded to a compact, self describing byte string.  The
codec is deliberately simple — a one byte type tag followed by a fixed or
length prefixed payload — so that tests can reason about exact byte layouts
and the forensic scanner (:mod:`repro.privacy.forensic`) can grep raw pages
for residual plaintext.
"""

from __future__ import annotations

import struct
from itertools import repeat
from typing import Any, Optional, Sequence, Tuple

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

_INT_STRUCT = struct.Struct("<q")
_FLOAT_STRUCT = struct.Struct("<d")
_LEN_STRUCT = struct.Struct("<I")
_COUNT_STRUCT = struct.Struct("<H")


_INT_FIELD = struct.Struct("<Bq")
_FLOAT_FIELD = struct.Struct("<Bd")
_TEXT_HEAD = struct.Struct("<BI")


def encode_value(value: Any) -> bytes:
    """Encode one value to bytes."""
    kind = type(value)
    if kind is int:
        return _INT_FIELD.pack(_TAG_INT, value)
    if kind is str:
        payload = value.encode("utf-8")
        return _TEXT_HEAD.pack(_TAG_TEXT, len(payload)) + payload
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
        return bytes([_TAG_INT]) + _INT_STRUCT.pack(value)
    if isinstance(value, float):
        return bytes([_TAG_FLOAT]) + _FLOAT_STRUCT.pack(value)
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return bytes([_TAG_TEXT]) + _LEN_STRUCT.pack(len(payload)) + payload
    if isinstance(value, (bytes, bytearray)):
        payload = bytes(value)
        return bytes([_TAG_BYTES]) + _LEN_STRUCT.pack(len(payload)) + payload
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
    if tag == _TAG_INT:
        stop = offset + _INT_STRUCT.size
        if stop > end:
            raise StorageError("truncated record: short INT payload")
        return _INT_STRUCT.unpack_from(data, offset)[0], stop
    if tag == _TAG_FLOAT:
        stop = offset + _FLOAT_STRUCT.size
        if stop > end:
            raise StorageError("truncated record: short FLOAT payload")
        return _FLOAT_STRUCT.unpack_from(data, offset)[0], stop
    if tag in (_TAG_TEXT, _TAG_BYTES):
        length_end = offset + _LEN_STRUCT.size
        if length_end > end:
            raise StorageError("truncated record: short length prefix")
        (length,) = _LEN_STRUCT.unpack_from(data, offset)
        stop = length_end + length
        if stop > end:
            raise StorageError("truncated record: short string payload")
        payload = data[length_end:stop]
        if tag == _TAG_TEXT:
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


def fixed_prefix(kinds: str) -> Tuple[struct.Struct, Tuple[int, ...]]:
    """One-call decoder for a record whose leading fields are fixed-width.

    ``kinds`` names those fields, ``"i"`` for an INT and ``"f"`` for a FLOAT
    (and ``"t"`` for the tag and length of a TEXT, which ends the prefix).
    The returned struct unpacks ``count, tag, value, tag, value, ...`` from
    the start of the record; the prefix is well-formed exactly when the
    unpacked tags (every other item from index 1) equal the returned tuple.
    """
    layout = {"i": ("Bq", _TAG_INT), "f": ("Bd", _TAG_FLOAT), "t": ("BI", _TAG_TEXT)}
    return (struct.Struct("<H" + "".join(layout[kind][0] for kind in kinds)),
            tuple(layout[kind][1] for kind in kinds))


def wide_prefix(kinds: str, types: Sequence[ValueType]
                ) -> Tuple[struct.Struct, Tuple[int, ...], int, bool]:
    """:func:`fixed_prefix` of ``kinds`` widened over the values of the
    leading INT/FLOAT ``types`` and the tag and length of a TEXT right after
    them; and how many values it covers, and whether a TEXT's head ends it."""
    covered = 0
    while covered < len(types) and types[covered] in (ValueType.INT, ValueType.FLOAT):
        covered += 1
    text = covered < len(types) and types[covered] is ValueType.TEXT
    codes = "".join("i" if kind is ValueType.INT else "f" for kind in types[:covered])
    return (*fixed_prefix(kinds + codes + "t" * text), covered, text)


def encode_record(values: Sequence[Any]) -> bytes:
    """Encode a record (tuple of values) with a leading field count."""
    if len(values) > 0xFFFF:
        raise StorageError("records with more than 65535 fields are not supported")
    return _COUNT_STRUCT.pack(len(values)) + b"".join(map(encode_value, values))


def encode_ints(values: Sequence[int]) -> bytes:
    """:func:`encode_record` of a record of ``int`` values, byte for byte,
    with no Python-level call per field."""
    if len(values) > 0xFFFF:
        raise StorageError("records with more than 65535 fields are not supported")
    return _COUNT_STRUCT.pack(len(values)) + b"".join(
        map(_INT_FIELD.pack, repeat(_TAG_INT, len(values)), values))


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


__all__ = ["encode_value", "decode_value", "encode_record", "encode_ints", "decode_record",
           "record_field_count", "fixed_prefix", "wide_prefix"]
