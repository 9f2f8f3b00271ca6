"""Slotted pages.

A page is a fixed size byte buffer organised as a classic slotted page:

* a header with the slot count and the offset of the free space frontier;
* a slot directory growing from the front, one ``(offset, length)`` pair per
  slot (``offset == 0`` marks a deleted slot);
* record payloads growing from the back.

The degradation-specific twist is *secure reclamation*: when a record is
deleted or shrunk, the freed bytes are physically overwritten with zeros so
that no accurate value survives in the free space of a page — one of the
"unintended retention" channels identified by the paper (citing Stahlberg et
al., SIGMOD'07).
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional, Tuple

from ..core.errors import PageFullError, RecordNotFoundError, StorageError

DEFAULT_PAGE_SIZE = 4096

_HEADER = struct.Struct("<HH")          # slot_count, free_space_offset (from end)
_SLOT = struct.Struct("<HH")            # record_offset, record_length


class SlottedPage:
    """A fixed-size slotted page holding variable length records."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE,
                 data: Optional[bytes] = None, secure: bool = True) -> None:
        if page_size < 64:
            raise StorageError("page size must be at least 64 bytes")
        self.page_size = page_size
        self.secure = secure
        if data is None:
            self._buffer = bytearray(page_size)
            self._set_header(0, page_size)
        else:
            if len(data) != page_size:
                raise StorageError(
                    f"page image has {len(data)} bytes, expected {page_size}"
                )
            self._buffer = bytearray(data)

    # -- header helpers ------------------------------------------------------

    def _get_header(self) -> Tuple[int, int]:
        return _HEADER.unpack_from(self._buffer, 0)

    def _set_header(self, slot_count: int, free_offset: int) -> None:
        _HEADER.pack_into(self._buffer, 0, slot_count, free_offset)

    @property
    def slot_count(self) -> int:
        return self._get_header()[0]

    @property
    def _free_offset(self) -> int:
        return self._get_header()[1]

    def _slot_directory_end(self, slot_count: Optional[int] = None) -> int:
        if slot_count is None:
            slot_count = self.slot_count
        return _HEADER.size + slot_count * _SLOT.size

    def _get_slot(self, slot: int) -> Tuple[int, int]:
        if not 0 <= slot < self.slot_count:
            raise RecordNotFoundError(f"slot {slot} out of range")
        return _SLOT.unpack_from(self._buffer, _HEADER.size + slot * _SLOT.size)

    def _set_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self._buffer, _HEADER.size + slot * _SLOT.size, offset, length)

    # -- capacity --------------------------------------------------------------

    def free_space(self) -> int:
        """Bytes available for a new record including its new slot entry."""
        contiguous = self._free_offset - self._slot_directory_end()
        return max(0, contiguous - _SLOT.size)

    def can_fit(self, payload_length: int) -> bool:
        return payload_length <= self.free_space()

    # -- record operations -------------------------------------------------------

    def insert(self, payload: bytes) -> int:
        """Insert ``payload`` and return its slot number."""
        if not payload:
            raise StorageError("cannot store an empty record")
        length = len(payload)
        if not self.can_fit(length):
            raise PageFullError(
                f"record of {length} bytes does not fit (free={self.free_space()})"
            )
        slot_count, free_offset = self._get_header()
        new_offset = free_offset - length
        self._buffer[new_offset:free_offset] = payload
        self._set_header(slot_count + 1, new_offset)
        self._set_slot(slot_count, new_offset, length)
        return slot_count

    def spans(self, slots: Iterable[int]) -> Tuple[bytearray, List[Tuple[int, int]]]:
        """The page buffer and the ``(start, end)`` byte span of each of ``slots``.

        The batch form of :meth:`read`: one header unpack for the whole run,
        the slot directory read in place, no payload copied.  The buffer is
        the live frame — decode from it before anything can mutate the page.
        """
        buffer = self._buffer
        slot_count = _HEADER.unpack_from(buffer, 0)[0]
        unpack_slot = _SLOT.unpack_from
        spans: List[Tuple[int, int]] = []
        for slot in slots:
            if not 0 <= slot < slot_count:
                raise RecordNotFoundError(f"slot {slot} out of range")
            offset, length = unpack_slot(buffer, _HEADER.size + slot * _SLOT.size)
            if offset == 0:
                raise RecordNotFoundError(f"slot {slot} is deleted")
            spans.append((offset, offset + length))
        return buffer, spans

    def read(self, slot: int) -> bytes:
        buffer, ((start, end),) = self.spans((slot,))
        return bytes(buffer[start:end])

    def is_live(self, slot: int) -> bool:
        try:
            offset, _length = self._get_slot(slot)
        except RecordNotFoundError:
            return False
        return offset != 0

    def delete(self, slot: int) -> None:
        """Delete the record in ``slot``; secure pages zero the payload bytes."""
        offset, length = self._get_slot(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is already deleted")
        if self.secure:
            self._buffer[offset:offset + length] = b"\x00" * length
        self._set_slot(slot, 0, 0)

    def update(self, slot: int, payload: bytes) -> bool:
        """Update the record in ``slot`` in place.

        Returns ``True`` on success.  When the new payload is larger than the
        old one and no contiguous free space exists, the caller must fall back
        to delete + re-insert elsewhere (the method returns ``False`` after
        securely deleting nothing).
        """
        offset, length = self._get_slot(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is deleted")
        new_length = len(payload)
        if new_length <= length:
            self._buffer[offset:offset + new_length] = payload
            if self.secure and new_length < length:
                self._buffer[offset + new_length:offset + length] = b"\x00" * (length - new_length)
            self._set_slot(slot, offset, new_length)
            return True
        # Try to place the larger payload in fresh free space on the same page.
        slot_count, free_offset = self._get_header()
        contiguous = free_offset - self._slot_directory_end(slot_count)
        if new_length <= contiguous:
            new_offset = free_offset - new_length
            self._buffer[new_offset:free_offset] = payload
            self._set_header(slot_count, new_offset)
            if self.secure:
                self._buffer[offset:offset + length] = b"\x00" * length
            self._set_slot(slot, new_offset, new_length)
            return True
        return False

    def live_slots(self) -> List[int]:
        directory = self._buffer[_HEADER.size:self._slot_directory_end()]
        return [slot for slot, (offset, _length)
                in enumerate(_SLOT.iter_unpack(directory)) if offset != 0]

    def records(self) -> List[Tuple[int, bytes]]:
        slots = self.live_slots()
        buffer, spans = self.spans(slots)
        return [(slot, bytes(buffer[start:end]))
                for slot, (start, end) in zip(slots, spans)]

    # -- maintenance ----------------------------------------------------------

    def compact(self) -> int:
        """Compact live records to the end of the page, zeroing reclaimed space.

        Returns the number of free bytes after compaction.  Slot numbers are
        preserved (record ids stay valid).
        """
        live = self.records()
        free_offset = self.page_size
        payload_area_start = self._slot_directory_end()
        self._buffer[payload_area_start:self.page_size] = (
            b"\x00" * (self.page_size - payload_area_start)
        )
        for slot, payload in live:
            free_offset -= len(payload)
            self._buffer[free_offset:free_offset + len(payload)] = payload
            self._set_slot(slot, free_offset, len(payload))
        self._set_header(self.slot_count, free_offset)
        return self.free_space()

    def to_bytes(self) -> bytes:
        return bytes(self._buffer)

    def raw(self) -> bytes:
        """Raw page image including free space (used by the forensic scanner)."""
        return bytes(self._buffer)

    @classmethod
    def from_bytes(cls, data: bytes, secure: bool = True) -> "SlottedPage":
        return cls(page_size=len(data), data=data, secure=secure)


__all__ = ["SlottedPage", "DEFAULT_PAGE_SIZE"]
