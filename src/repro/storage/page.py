"""Slotted pages.

A page is a fixed size byte buffer organised as a classic slotted page:

* a header with the slot count, the offset of the free space frontier and
  the page's *owner* (:func:`owner_of` its table; 0: nobody's), by which
  recovery hands each table its pages;
* a slot directory growing from the front, one ``(offset, length)`` pair per
  slot (``offset == 0`` marks a deleted slot);
* record payloads growing from the back.

The degradation-specific twist is *secure reclamation*: when a record is
deleted or shrunk, the freed bytes are physically overwritten with zeros so
that no accurate value survives in the free space of a page — one of the
"unintended retention" channels identified by the paper (citing Stahlberg et
al., SIGMOD'07).

Zeroed bytes are not lost bytes.  A page's room is everything that is neither
header, slot directory nor live payload — the contiguous gap *plus* the holes
deletes and shrinking updates left — and :meth:`SlottedPage.insert` and a
growing :meth:`SlottedPage.update` get at the holes by compacting the page in
place when the gap alone is too small: slot numbers stay, the payload area is
zeroed before the live records are put back.  A batch of updates
(:meth:`SlottedPage.update_many`) compacts at most once.  Dead slots are
reused before the directory grows, and those behind the last live record
leave it the moment they die, so a page's room is a function of its live
records alone.  None of this is in the page image: the live-byte count and the
dead-slot list are attributes of the in-memory page, counted from the
directory when first needed.
"""

from __future__ import annotations

import heapq
import struct
from hashlib import blake2b
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import PageFullError, RecordNotFoundError, StorageError

DEFAULT_PAGE_SIZE = 4096

_HEADER = struct.Struct("<HH")          # slot_count, free_space_offset (from end)
_OWNER = struct.Struct("<Q")            # owner_of(its table), behind the two counts
_DIRECTORY = _HEADER.size + _OWNER.size  # where the slot directory starts
_SLOT = struct.Struct("<HH")            # record_offset, record_length


def owner_of(name: str) -> int:
    """What the pages of heap ``name`` name as their owner: a digest of the
    name, so no small integer sits in every page header."""
    return int.from_bytes(blake2b(name.encode(), digest_size=_OWNER.size).digest(), "little")


def lost_slot(slot: int, what: str) -> RecordNotFoundError:
    """The error of a read of ``slot``, ``what`` being "out of range" or "is deleted"."""
    return RecordNotFoundError(f"slot {slot} {what}")


def record_span(buffer: bytearray, slot: int) -> Tuple[int, int]:
    """The ``(start, end)`` of ``slot``'s record in a page ``buffer``, read
    off the slot directory — what the kernels do inline for each slot."""
    if not 0 <= slot < _HEADER.unpack_from(buffer, 0)[0]:
        raise lost_slot(slot, "out of range")
    offset, length = _SLOT.unpack_from(buffer, _DIRECTORY + slot * _SLOT.size)
    if not offset:
        raise lost_slot(slot, "is deleted")
    return offset, offset + length


class SlottedPage:
    """A fixed-size slotted page holding variable length records."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE,
                 data: Optional[bytes] = None, secure: bool = True) -> None:
        if page_size < 64:
            raise StorageError("page size must be at least 64 bytes")
        self.page_size = page_size
        self.secure = secure
        #: Live payload bytes and the dead slots (a min-heap: the lowest is
        #: reused first).  ``None`` until :meth:`_account` counts them from the
        #: slot directory; insert/update/delete keep them current afterwards.
        self._live: Optional[int] = 0 if data is None else None
        self._dead: List[int] = []
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
    def owner(self) -> int:
        return _OWNER.unpack_from(self._buffer, _HEADER.size)[0]

    @owner.setter
    def owner(self, owner: int) -> None:
        _OWNER.pack_into(self._buffer, _HEADER.size, owner)

    @staticmethod
    def _slot_directory_end(slot_count: int) -> int:
        return _DIRECTORY + slot_count * _SLOT.size

    def _get_slot(self, slot: int) -> Tuple[int, int]:
        if not 0 <= slot < self.slot_count:
            raise lost_slot(slot, "out of range")
        return _SLOT.unpack_from(self._buffer, _DIRECTORY + slot * _SLOT.size)

    def _set_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self._buffer, _DIRECTORY + slot * _SLOT.size, offset, length)

    def _directory(self) -> Iterator[Tuple[int, int]]:
        """The ``(offset, length)`` entry of every slot, in slot order."""
        return _SLOT.iter_unpack(
            self._buffer[_DIRECTORY:self._slot_directory_end(self.slot_count)])

    # -- capacity --------------------------------------------------------------

    def _account(self) -> None:
        """Count the live payload bytes and the dead slots from the slot
        directory — done once, for a page that was read from its image."""
        if self._live is not None:
            return
        live = 0
        dead: List[int] = []
        for slot, (offset, length) in enumerate(self._directory()):
            if offset:
                live += length
            else:
                dead.append(slot)
        self._live, self._dead = live, dead     # ascending is heap order

    def _room(self) -> int:
        """Bytes that are neither header, slot directory nor live payload:
        the contiguous gap plus the zeroed holes compaction brings back."""
        self._account()
        return self.page_size - self._slot_directory_end(self.slot_count) - self._live

    def free_space(self) -> int:
        """The largest record :meth:`insert` accepts — :meth:`_room`, less the
        directory entry of a new slot when there is no dead slot to reuse."""
        room = self._room()
        return max(0, room if self._dead else room - _SLOT.size)

    def can_fit(self, payload_length: int) -> bool:
        return payload_length <= self.free_space()

    @property
    def live_count(self) -> int:
        self._account()
        return self.slot_count - len(self._dead)

    # -- record operations -------------------------------------------------------

    def insert(self, payload: bytes) -> int:
        """Insert ``payload`` and return its slot number — :meth:`insert_many`
        of one; :class:`PageFullError` means full in total, holes included."""
        slots = self.insert_many((payload,))
        if not slots:
            raise PageFullError(
                f"record of {len(payload)} bytes does not fit (free={self.free_space()})"
            )
        return slots[0]

    def insert_many(self, payloads: Iterable[bytes]) -> List[int]:
        """Insert the leading ``payloads`` while :meth:`free_space` is at
        least each one's length; returns their slots.  One
        header read and write for the run; each record lands where it would
        alone (lowest dead slot first, :meth:`_repack` when the gap is short)."""
        self._account()
        buffer, dead, size, pack = self._buffer, self._dead, self.page_size, _SLOT.pack_into
        slot_count, free_offset = _HEADER.unpack_from(buffer, 0)
        directory = self._slot_directory_end(slot_count)
        live = self._live
        slots: List[int] = []
        try:
            for payload in payloads:
                length = len(payload)
                if not length:
                    raise StorageError("cannot store an empty record")
                entry = 0 if dead else _SLOT.size
                free = size - directory - live - entry
                if length > free:
                    break
                if length + entry > free_offset - directory:
                    self._set_header(slot_count, free_offset)
                    self._live = live
                    self._repack()      # may trim every dead slot: look again
                    dead = self._dead
                    slot_count, free_offset = _HEADER.unpack_from(buffer, 0)
                    directory = self._slot_directory_end(slot_count)
                if dead:
                    slot = heapq.heappop(dead)
                else:
                    slot = slot_count
                    slot_count += 1
                    directory += _SLOT.size
                free_offset -= length
                buffer[free_offset:free_offset + length] = payload
                pack(buffer, _DIRECTORY + slot * _SLOT.size, free_offset, length)
                live += length
                slots.append(slot)
        finally:
            self._set_header(slot_count, free_offset)
            self._live = live
        return slots

    @property
    def frame(self) -> bytearray:
        """The live page buffer, read through :func:`record_span` (or the
        kernels' inline copy of it): decode before the page can change."""
        return self._buffer

    def read(self, slot: int) -> bytes:
        start, end = record_span(self._buffer, slot)
        return bytes(self._buffer[start:end])

    def is_live(self, slot: int) -> bool:
        try:
            offset, _length = self._get_slot(slot)
        except RecordNotFoundError:
            return False
        return offset != 0

    def delete(self, slot: int) -> None:
        """Delete the record in ``slot``; secure pages zero the payload bytes.

        Dead slots behind the last live one leave the directory at once, so a
        page's room depends on its live records alone — never on whether a
        compaction happened to run since.
        """
        offset, length = self._get_slot(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is already deleted")
        self._account()
        if self.secure:
            self._buffer[offset:offset + length] = bytes(length)
        self._set_slot(slot, 0, 0)
        self._live -= length
        slot_count, free_offset = self._get_header()
        if slot < slot_count - 1:
            heapq.heappush(self._dead, slot)
            return
        while slot and not self._get_slot(slot - 1)[0]:
            slot -= 1
        self._set_header(slot, free_offset)
        self._dead = sorted(dead for dead in self._dead if dead < slot)

    def update(self, slot: int, payload: bytes) -> bool:
        """Update the record in ``slot``; its slot number never changes.

        A batch of one (:meth:`update_many`).  Returns ``False``, the page
        untouched, only when the page is full in total: the caller must then
        move the record to another page.
        """
        return self.update_many(((slot, payload),)) == 1

    def update_many(self, updates: Sequence[Tuple[int, bytes]]) -> int:
        """Apply ``(slot, payload)`` updates in order; returns how many were
        applied — all of them, or those ahead of the first one the page, full
        in total, has no room for (it and the rest are left untouched).

        A payload no longer than the old one is written over it (secure pages
        zero the tail); a longer one goes into the contiguous gap.  Once the
        gap is too small the page is compacted *once*, around that update and
        every later one it has room for (:meth:`_repack`).  Which updates fit
        depends on the page's room alone, so the outcome — records, slot
        numbers, free space — is the one a loop over :meth:`update` reaches.
        """
        self._account()
        buffer = self._buffer
        slot_count = self.slot_count        # an update adds and drops no slot
        for done, (slot, payload) in enumerate(updates):
            if not 0 <= slot < slot_count:
                raise lost_slot(slot, "out of range")
            entry = _DIRECTORY + slot * _SLOT.size
            offset, length = _SLOT.unpack_from(buffer, entry)
            if offset == 0:
                raise lost_slot(slot, "is deleted")
            new_length = len(payload)
            if new_length <= length:
                buffer[offset:offset + new_length] = payload
                if self.secure and new_length < length:
                    buffer[offset + new_length:offset + length] = bytes(length - new_length)
                _SLOT.pack_into(buffer, entry, offset, new_length)
            else:
                free_offset = self._get_header()[1]
                if new_length > free_offset - self._slot_directory_end(slot_count):
                    return done + self._repack(updates[done:])
                new_offset = free_offset - new_length
                buffer[new_offset:free_offset] = payload
                self._set_header(slot_count, new_offset)
                if self.secure:
                    buffer[offset:offset + length] = bytes(length)
                _SLOT.pack_into(buffer, entry, new_offset, new_length)
            self._live += new_length - length
        return len(updates)

    def live_slots(self) -> List[int]:
        return [slot for slot, (offset, _length) in enumerate(self._directory())
                if offset != 0]

    def records(self) -> List[Tuple[int, bytes]]:
        return [(slot, self.read(slot)) for slot in self.live_slots()]

    # -- maintenance ----------------------------------------------------------

    def _repack(self, updates: Sequence[Tuple[int, bytes]] = ()) -> int:
        """Secure in-page compaction: lift the live records out, zero the
        whole payload area, put them back end to end at the back of the page
        and rewrite the directory in one go.  Slot numbers are kept (record
        ids stay valid); dead slots behind the last live one leave the
        directory.

        The leading ``updates`` the page has room for replace their slots'
        records on the way; returns how many that was.  When not even the
        first one fits, the page is left as it is.
        """
        self._account()
        buffer = self._buffer
        entries = list(self._directory())
        room = had = self._room()
        replaced: Dict[int, bytes] = {}
        for slot, payload in updates:
            if not 0 <= slot < len(entries) or not entries[slot][0]:
                raise RecordNotFoundError(f"slot {slot} is deleted or out of range")
            old = replaced.get(slot)
            growth = len(payload) - (entries[slot][1] if old is None else len(old))
            if growth > room:
                break
            room -= growth
            replaced[slot] = payload
        if updates and not replaced:
            return 0
        while entries and entries[-1][0] == 0:
            entries.pop()
        self._live += had - room                # what the replacements add
        offset = free_offset = self.page_size - self._live
        directory: List[int] = []
        images = []
        for slot, (start, length) in enumerate(entries):
            if start:
                image = replaced[slot] if slot in replaced else buffer[start:start + length]
                images.append(image)
                directory += (offset, len(image))
                offset += len(image)
            else:
                directory += (0, 0)
        area = self._slot_directory_end(len(entries))
        buffer[area:] = bytes(free_offset - area) + b"".join(images)
        struct.pack_into(f"<{len(directory)}H", buffer, _DIRECTORY, *directory)
        self._set_header(len(entries), free_offset)
        self._dead = [slot for slot, (start, _length) in enumerate(entries) if not start]
        return len(replaced)

    def compact(self) -> int:
        """Compact live records to the end of the page, zeroing reclaimed space.

        Returns the number of free bytes after compaction.  Slot numbers are
        preserved (record ids stay valid).  :meth:`insert` and :meth:`update`
        do this themselves when they need the holes.
        """
        self._repack()
        return self.free_space()

    def check(self) -> None:
        """Raise :class:`StorageError` unless the page is well formed and
        *hygienic* (``docs/invariants.md``): the directory ends below the free
        frontier, live records lie behind it without overlapping, the counted
        live bytes and dead slots match the directory, and — on a secure page
        — every byte outside header, slot directory and live records is zero.
        """
        slot_count, free_offset = self._get_header()
        cursor = self._slot_directory_end(slot_count)
        if not cursor <= free_offset <= self.page_size:
            raise StorageError(f"free frontier {free_offset} outside the payload area")
        dead: List[int] = []
        spans: List[Tuple[int, int]] = []
        for slot, (offset, length) in enumerate(self._directory()):
            if (offset == 0) != (length == 0):
                raise StorageError(f"slot {slot} has an offset xor a length")
            if offset:
                spans.append((offset, length))
            else:
                dead.append(slot)
        spans.sort()
        if self._live is not None and (
                self._live != sum(length for _offset, length in spans)
                or sorted(self._dead) != dead):
            raise StorageError("live-byte count or dead-slot list out of step "
                               "with the slot directory")
        for offset, length in (*spans, (self.page_size, 0)):
            if offset < cursor or offset < free_offset:
                raise StorageError(f"record at {offset} overlaps its neighbour "
                                   "or the free space")
            if self.secure and any(self._buffer[cursor:offset]):
                raise StorageError(f"stale bytes in the free space before {offset}")
            cursor = offset + length

    def to_bytes(self) -> bytes:
        return bytes(self._buffer)

    def raw(self) -> bytes:
        """Raw page image including free space (used by the forensic scanner)."""
        return bytes(self._buffer)

    @classmethod
    def from_bytes(cls, data: bytes, secure: bool = True) -> "SlottedPage":
        return cls(page_size=len(data), data=data, secure=secure)


__all__ = ["SlottedPage", "DEFAULT_PAGE_SIZE", "record_span", "lost_slot", "owner_of"]
