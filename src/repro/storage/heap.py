"""Heap files: unordered record storage on top of the buffer pool.

Records are addressed by :class:`RecordId` — ``(page_id, slot)``.  The heap
keeps record ids stable across in-place updates; when an update outgrows its
page the heap transparently *relocates* the record and reports the new id so
callers (indexes, the degradation scheduler) can fix their references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ..core.errors import PageFullError, RecordNotFoundError, StorageError
from .buffer import BufferPool
from .page import SlottedPage


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
                 on_allocate: Optional[Callable[[int], None]] = None) -> None:
        self.buffer_pool = buffer_pool
        self.name = name
        #: Called with the page id whenever the heap allocates a fresh page;
        #: the table store uses this to log page ownership durably.
        self.on_allocate = on_allocate
        self._page_ids: List[int] = []
        self._record_count = 0

    # -- insert ------------------------------------------------------------------

    def insert(self, payload: bytes) -> RecordId:
        """Insert ``payload`` into the first page with room, allocating if needed."""
        max_payload = self.buffer_pool.pager.page_size - 64
        if len(payload) > max_payload:
            raise StorageError(
                f"record of {len(payload)} bytes exceeds page capacity ({max_payload})"
            )
        for page_id in reversed(self._page_ids):
            page = self.buffer_pool.get_page(page_id)
            if page.can_fit(len(payload)):
                slot = page.insert(payload)
                self.buffer_pool.mark_dirty(page_id)
                self._record_count += 1
                return RecordId(page_id, slot)
        page_id = self.buffer_pool.new_page()
        self._page_ids.append(page_id)
        if self.on_allocate is not None:
            self.on_allocate(page_id)
        page = self.buffer_pool.get_page(page_id)
        slot = page.insert(payload)
        self.buffer_pool.mark_dirty(page_id)
        self._record_count += 1
        return RecordId(page_id, slot)

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
        """Update a record in place when possible, relocating it otherwise.

        Returns the (possibly new) record id.  The old location is securely
        scrubbed on relocation.
        """
        page = self.buffer_pool.get_page(record_id.page_id)
        if page.update(record_id.slot, payload):
            self.buffer_pool.mark_dirty(record_id.page_id)
            return record_id
        # Relocation: delete (which zeroes the old payload) then insert afresh.
        page.delete(record_id.slot)
        self.buffer_pool.mark_dirty(record_id.page_id)
        self._record_count -= 1
        return self.insert(payload)

    def delete(self, record_id: RecordId) -> None:
        page = self.buffer_pool.get_page(record_id.page_id)
        page.delete(record_id.slot)
        self.buffer_pool.mark_dirty(record_id.page_id)
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
        record count is rebuilt from the adopted pages.  Returns the number of
        pages adopted.
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
            # Count the adopted page's records in the same read that
            # validated it; already-known pages are already counted.
            self._record_count += len(page.live_slots())
        return adopted

    def compact(self) -> None:
        """Compact every page (secure pages zero the reclaimed space)."""
        for page_id in self._page_ids:
            page = self.buffer_pool.get_page(page_id)
            page.compact()
            self.buffer_pool.mark_dirty(page_id)

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
