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
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.errors import StorageError
from ..core.values import NULL, REMOVED, SUPPRESSED

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


def skip_values(data: bytes, offset: int, count: int,
                end: Optional[int] = None) -> int:
    """Advance past ``count`` encoded values without materializing them.

    The column-pruned read path uses this to hop over a *run* of fields a
    query does not touch in one call: fixed-width payloads are skipped by
    size, strings/bytes by their length prefix, so no Python object (and no
    UTF-8 decode) is ever built for an unreferenced column.  ``end`` bounds
    the record inside a larger buffer, as in :func:`decode_value`.
    """
    size = len(data) if end is None else end
    unpack_length = _LEN_STRUCT.unpack_from
    for _ in range(count):
        if offset >= size:
            raise StorageError("truncated record: no type tag")
        tag = data[offset]
        offset += 1
        if tag == _TAG_TEXT or tag == _TAG_BYTES:
            length_end = offset + 4
            if length_end > size:
                raise StorageError("truncated record: short length prefix")
            offset = length_end + unpack_length(data, offset)[0]
        elif tag == _TAG_INT or tag == _TAG_FLOAT:
            offset += 8
        elif tag not in (_TAG_NULL, _TAG_SUPPRESSED, _TAG_REMOVED,
                         _TAG_BOOL_TRUE, _TAG_BOOL_FALSE):
            raise StorageError(f"unknown type tag {tag} at offset {offset - 1}")
    if offset > size:
        raise StorageError("truncated record: short payload")
    return offset


def skip_value(data: bytes, offset: int = 0) -> int:
    """Advance past one encoded value without materializing it."""
    return skip_values(data, offset, 1)


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

    ``kinds`` names those fields, ``"i"`` for an INT and ``"f"`` for a FLOAT.
    The returned struct unpacks ``count, tag, value, tag, value, ...`` from
    the start of the record; the prefix is well-formed exactly when the
    unpacked tags (every other item from index 1) equal the returned tuple.
    """
    layout = {"i": ("Bq", _TAG_INT), "f": ("Bd", _TAG_FLOAT)}
    return (struct.Struct("<H" + "".join(layout[kind][0] for kind in kinds)),
            tuple(layout[kind][1] for kind in kinds))


def decode_fields(data: bytes, offset: int, end: int,
                  plan: Sequence[Tuple[Any, int]], into: Dict[Any, Any]) -> int:
    """Decode the consecutive fields at ``data[offset:end]`` that ``plan`` asks for.

    ``plan`` entries are ``(key, 0)`` — decode the next field into
    ``into[key]`` — or ``(None, n)`` — hop over the next ``n`` fields with
    :func:`skip_values`.  Returns the offset after the last planned field.
    The common tags are dispatched inline (one loop, no call per value); the
    rest take :func:`decode_value`.  Same checks and errors either way.
    """
    for key, run in plan:
        if key is None:
            offset = skip_values(data, offset, run, end)
            continue
        if offset >= end:
            raise StorageError("truncated record: no type tag")
        tag = data[offset]
        if tag == _TAG_TEXT:
            start = offset + 5
            if start > end:
                raise StorageError("truncated record: short length prefix")
            offset = start + _LEN_STRUCT.unpack_from(data, offset + 1)[0]
            if offset > end:
                raise StorageError("truncated record: short string payload")
            into[key] = data[start:offset].decode("utf-8")
        elif tag == _TAG_INT:
            offset += 9
            if offset > end:
                raise StorageError("truncated record: short INT payload")
            into[key] = _INT_STRUCT.unpack_from(data, offset - 8)[0]
        elif tag == _TAG_FLOAT:
            offset += 9
            if offset > end:
                raise StorageError("truncated record: short FLOAT payload")
            into[key] = _FLOAT_STRUCT.unpack_from(data, offset - 8)[0]
        elif tag == _TAG_NULL:
            offset += 1
            into[key] = NULL
        elif tag == _TAG_SUPPRESSED:
            offset += 1
            into[key] = SUPPRESSED
        else:
            into[key], offset = decode_value(data, offset, end)
    return offset


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
           "skip_value", "skip_values", "record_field_count", "fixed_prefix",
           "decode_fields"]
