"""Heap files: unordered record storage on top of the buffer pool.

Records are addressed by :class:`RecordId` — ``(page_id, slot)``.  The heap
keeps record ids stable across updates as long as the page has room *in
total* (a page compacts itself around a grown record, see
:mod:`~repro.storage.page`); only when the page is full does the heap
*relocate* the record and report the new id so the table store can fix its
row → record map.

Space is reused, not just zeroed.  The heap keeps a **free-space map**: for
every page the largest record it still accepts (:meth:`SlottedPage.free_space`
— gap plus holes), exact because every page mutation goes through this class,
filed in :data:`SIZE_CLASSES` size classes.  An insert goes to the tail page
while that has room (a bulk load only ever appends), else to a page of the
roomiest non-empty class (one compaction there serves many inserts), else to a
freshly allocated page — it touches no page it does not write.  The map is
derived state: nothing of it is persisted, :meth:`HeapFile.adopt_pages`
rebuilds it from the slot directories it reads anyway.

Beside it, by the same argument, the heap keeps a **level summary** when its
owner hands it a ``levels(data, start)`` reader of a record's degradable-column
levels: per page, the level vector each live slot's record stores, and the
page's *floor* — the lowest level of each column any of them stores.  A scan
whose purpose caps a column below a page's floor skips the page unread.  The
summary holds levels only, never a value.  An insert or an update reads the new
record's levels once, off the image it writes; a delete drops the slot's entry
without reading the page; :meth:`HeapFile.adopt_pages` reads them off the
adopted pages' headers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import StorageError
from .buffer import BufferPool
from .page import SlottedPage

#: Size classes of the free-space map: class ``c`` holds the pages whose free
#: space is in ``[c, c + 1) × page_size / SIZE_CLASSES``.
SIZE_CLASSES = 16

#: Reads the levels of the record starting at ``data[start]``.
LevelReader = Callable[[Any, int], Tuple[int, ...]]


@dataclass(frozen=True, order=True)
class RecordId:
    """Physical address of a record."""

    page_id: int
    slot: int

    def __str__(self) -> str:
        return f"({self.page_id},{self.slot})"


class HeapFile:
    """An unordered collection of records belonging to one table."""

    def __init__(self, buffer_pool: BufferPool, name: str = "heap",
                 on_allocate: Optional[Callable[[int], None]] = None,
                 levels: Optional[LevelReader] = None) -> None:
        self.buffer_pool = buffer_pool
        self.name = name
        #: Called with the page id whenever the heap allocates a fresh page;
        #: the table store uses this to log page ownership durably.
        self.on_allocate = on_allocate
        self._page_ids: List[int] = []
        self._record_count = 0
        #: The free-space map: page id → ``free_space()`` of that page, and
        #: per size class the set of its pages as a bitset over page ids — add,
        #: remove and lowest member are single integer operations, and the
        #: lowest member depends on the set's contents alone, so a reopened
        #: heap picks the same page as one that never closed.
        self._free: Dict[int, int] = {}
        self._classes: List[int] = [0] * SIZE_CLASSES
        #: The level summary (kept only with a ``levels`` reader): page id →
        #: live slot → the level vector its record stores, and page id → the
        #: page's floor, the lowest stored level of each column (pages with
        #: live records only).
        self.levels = levels
        self._slot_levels: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        self._vectors: Dict[Tuple[int, ...], Tuple[int, ...]] = {}     # one copy of each
        self.floors: Dict[int, Tuple[int, ...]] = {}

    # -- free-space map and level summary ---------------------------------------------

    def _size_class(self, free: int) -> int:
        return free * SIZE_CLASSES // self.buffer_pool.pager.page_size

    def _relevel(self, page_id: int, slots: Iterable[int],
                 payloads: Optional[Iterable[Any]] = None) -> None:
        """Note that ``page_id``'s records in ``slots`` are now ``payloads``
        (``None``: deleted) and refresh the page's floor."""
        if self.levels is None:
            return
        held = self._slot_levels.setdefault(page_id, {})
        if payloads is None:
            for slot in slots:
                del held[slot]
        else:
            vectors = list(map(self.levels, payloads, repeat(0)))
            held.update(zip(slots, map(self._vectors.setdefault, vectors, vectors)))
        if held:    # a page holds a few distinct vectors: take the minima over those
            self.floors[page_id] = tuple(map(min, zip(*set(held.values()))))
        else:
            del self._slot_levels[page_id]
            self.floors.pop(page_id, None)

    def _page_levels(self, page: SlottedPage, slots: List[int]) -> Dict[int, Tuple[int, ...]]:
        """Slot → level vector of ``page``'s records in ``slots``, read off their headers."""
        data, spans = page.spans(slots)
        return dict(zip(slots, map(self.levels, repeat(data), map(itemgetter(0), spans))))

    def _file(self, page_id: int, page: SlottedPage) -> None:
        """Record ``page``'s free space in the map (after every mutation)."""
        free = page.free_space()
        old = self._free.get(page_id)
        if free == old:
            return
        self._free[page_id] = free
        size_class = self._size_class(free)
        if old is not None:
            old_class = self._size_class(old)
            if old_class == size_class:
                return
            self._classes[old_class] &= ~(1 << page_id)
        self._classes[size_class] |= 1 << page_id

    def _changed(self, page_id: int, page: SlottedPage) -> None:
        self.buffer_pool.mark_dirty(page_id)
        self._file(page_id, page)

    def _roomiest(self) -> Optional[int]:
        """The lowest page of the roomiest non-empty size class."""
        for members in reversed(self._classes):
            if members:
                return (members & -members).bit_length() - 1
        return None

    # -- insert ------------------------------------------------------------------

    def insert(self, payload: bytes) -> RecordId:
        """Insert ``payload`` — :meth:`insert_many` with one record."""
        return self.insert_many((payload,))[0]

    def insert_many(self, payloads: Sequence[bytes]) -> List[RecordId]:
        """Insert ``payloads`` in order, each into the tail page if it has
        room, else into a page of the roomiest size class, else into a newly
        allocated page — the placement one-by-one inserts make — with one
        buffer-pool lookup per page filled and its free space refiled when
        the next choice needs the map (a bulk load: once per page)."""
        max_payload = self.buffer_pool.pager.page_size - 64
        for payload in payloads:
            if len(payload) > max_payload:
                raise StorageError(f"record of {len(payload)} bytes exceeds "
                                   f"page capacity ({max_payload})")
        ids: List[RecordId] = []
        page_id = page = None     # the page being filled; its map entry lags
        free = 0
        try:
            for payload in payloads:
                length = len(payload)
                tail = self._page_ids[-1] if self._page_ids else None
                room = free if page_id == tail else self._free.get(tail, -1)
                target = tail if room >= length else None
                if target is None:
                    if page is not None:
                        self._file(page_id, page)
                    target = self._roomiest()
                    if target is None or self._free[target] < length:
                        target = self._allocate()
                if target != page_id:
                    if page is not None:
                        self._file(page_id, page)
                    page_id, page = target, self.buffer_pool.get_page(target)
                    self.buffer_pool.mark_dirty(page_id)
                ids.append(RecordId(page_id, page.insert(payload)))
                free = page.free_space()
        finally:    # what was placed is filed and counted, even if a page allocation raised
            if page is not None:
                self._file(page_id, page)
            self._record_count += len(ids)
            placed: Dict[int, Tuple[List[int], List[bytes]]] = {}
            for record_id, payload in zip(ids, payloads):
                slots, images = placed.setdefault(record_id.page_id, ([], []))
                slots.append(record_id.slot)
                images.append(payload)
            for page_id, (slots, images) in placed.items():
                self._relevel(page_id, slots, images)
        return ids

    def _allocate(self) -> int:
        """A fresh page; its ownership is logged before the heap uses it."""
        page_id = self.buffer_pool.new_page()
        if self.on_allocate is not None:
            self.on_allocate(page_id)
        self._page_ids.append(page_id)
        self._file(page_id, self.buffer_pool.get_page(page_id))
        return page_id

    # -- read --------------------------------------------------------------------

    def read(self, record_id: RecordId) -> bytes:
        buffer, ((start, end),) = self.read_run(record_id.page_id, (record_id.slot,))
        return bytes(buffer[start:end])

    def read_run(self, page_id: int, slots: Iterable[int]
                 ) -> Tuple[bytearray, List[Tuple[int, int]]]:
        """One buffer-pool lookup for a run of records on one page: the page
        buffer and each slot's ``(start, end)`` span (see
        :meth:`SlottedPage.spans` — decode before the page can change)."""
        return self.buffer_pool.get_page(page_id).spans(slots)

    def live_slots(self, page_id: int) -> List[int]:
        return self.buffer_pool.get_page(page_id).live_slots()

    def exists(self, record_id: RecordId) -> bool:
        try:
            page = self.buffer_pool.get_page(record_id.page_id)
        except StorageError:
            return False
        return page.is_live(record_id.slot)

    # -- update / delete -----------------------------------------------------------

    def update(self, record_id: RecordId, payload: bytes) -> RecordId:
        """Update a record where it is, relocating it only off a full page
        (:meth:`update_many` with one record).  Returns the record's id,
        a new one when it moved."""
        moved = self.update_many(record_id.page_id, [(record_id.slot, payload)])
        return moved.get(record_id.slot, record_id)

    def update_many(self, page_id: int, updates: Sequence[Tuple[int, bytes]]
                    ) -> Dict[int, RecordId]:
        """Apply ``(slot, payload)`` updates to the records of one page, in
        order: at most one compaction of the page, one free-space refile.

        A record the page — full in total — has no room for is relocated, as
        by :meth:`update` at its turn: the new image is placed first — if
        that fails (page allocation can raise) the record is still whole at
        its old id — and only then is the old one securely scrubbed.  Returns
        ``{slot: new record id}`` for the records that moved.
        """
        moved: Dict[int, RecordId] = {}
        while updates:
            page = self.buffer_pool.get_page(page_id)
            applied = page.update_many(updates)
            if applied:
                done = updates[:applied]
                self._relevel(page_id, map(itemgetter(0), done), map(itemgetter(1), done))
                self._changed(page_id, page)
            if applied == len(updates):
                break
            # Never lands on the page it leaves: what does not fit there on
            # top of the old image does not fit beside it either.
            slot, payload = updates[applied]
            moved[slot] = self.insert(payload)
            self.delete(RecordId(page_id, slot))
            updates = updates[applied + 1:]
        return moved

    def delete(self, record_id: RecordId) -> None:
        page = self.buffer_pool.get_page(record_id.page_id)
        page.delete(record_id.slot)
        self._relevel(record_id.page_id, (record_id.slot,))
        self._changed(record_id.page_id, page)
        self._record_count -= 1

    # -- scans ----------------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[RecordId, bytes]]:
        """Yield ``(record_id, payload)`` for every live record."""
        for page_id in self._page_ids:
            page = self.buffer_pool.get_page(page_id)
            for slot, payload in page.records():
                yield RecordId(page_id, slot), payload

    def record_ids(self) -> Iterator[RecordId]:
        for record_id, _payload in self.scan():
            yield record_id

    # -- maintenance ------------------------------------------------------------------

    def adopt_pages(self, page_ids: List[int]) -> int:
        """Re-attach previously allocated pages after a reopen (recovery).

        A fresh :class:`HeapFile` owns no pages; recovery feeds it the page
        ids the WAL proves were allocated to this table (checkpoint directory
        plus PAGE_ALLOC tail).  Ids unknown to the pager are skipped — their
        allocation never became durable, so no data can live there.  The live
        record count and the free-space map are rebuilt from the adopted
        pages' slot directories, the level summary from their record headers.
        Returns the number of pages adopted.
        """
        known = set(self._page_ids)
        adopted = 0
        for page_id in page_ids:
            if page_id in known:
                continue
            try:
                page = self.buffer_pool.get_page(page_id)
            except StorageError:
                continue
            self._page_ids.append(page_id)
            known.add(page_id)
            adopted += 1
            # Count the adopted page's records and room in the same read
            # that validated it; already-known pages are already counted.
            self._record_count += page.live_count
            if self.levels is not None and page.live_count:
                try:
                    self._slot_levels[page_id] = self._page_levels(page, page.live_slots())
                except struct.error as exc:     # a record shorter than its prefix
                    raise StorageError(f"heap {self.name!r}: page {page_id} holds "
                                       f"a truncated record") from exc
                self._relevel(page_id, ())      # its floor
            self._file(page_id, page)
        return adopted

    def compact(self) -> None:
        """Compact every page (secure pages zero the reclaimed space)."""
        for page_id in self._page_ids:
            page = self.buffer_pool.get_page(page_id)
            page.compact()
            self._changed(page_id, page)

    def check(self) -> None:
        """Raise :class:`StorageError` unless every page passes
        :meth:`SlottedPage.check` and the free-space map, the record count and
        the level summary equal a recount from the pages."""
        free: Dict[int, int] = {}
        classes = [0] * SIZE_CLASSES
        records = 0
        held: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        floors: Dict[int, Tuple[int, ...]] = {}
        for page_id in self._page_ids:
            page = self.buffer_pool.get_page(page_id)
            page.check()
            free[page_id] = page.free_space()
            classes[self._size_class(free[page_id])] |= 1 << page_id
            slots = page.live_slots()
            records += len(slots)
            if self.levels is not None and slots:
                held[page_id] = self._page_levels(page, slots)
                floors[page_id] = tuple(map(min, zip(*held[page_id].values())))
        if (free, classes, records, held, floors) != (
                self._free, self._classes, self._record_count,
                self._slot_levels, self.floors):
            raise StorageError(f"heap {self.name!r}: free-space map, record count "
                               "or level summary out of step with the pages")

    def flush(self) -> None:
        self.buffer_pool.flush_all()

    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def page_count(self) -> int:
        return len(self._page_ids)

    def page_ids(self) -> List[int]:
        return list(self._page_ids)

    def raw_image(self) -> bytes:
        """Concatenated raw images of the heap's pages (forensics)."""
        parts = []
        for page_id in self._page_ids:
            parts.append(self.buffer_pool.get_page(page_id).raw())
        return b"".join(parts)


__all__ = ["HeapFile", "RecordId"]
