"""LRU buffer pool.

The buffer pool caches :class:`~repro.storage.page.SlottedPage` objects above
a :class:`~repro.storage.pager.Pager` and tracks dirty pages.  It exists for
two reasons: to give the storage engine realistic read/write amplification
behaviour for the C2/C3 benchmarks, and to provide a single flush point that
the degradation engine can force after a degradation step (a step is only
*non-recoverable* once the overwritten page has reached the backing store).
It keeps the write-ahead rule too: no page is written before the log is
durable up to its page LSN, the last record recovery would undo for it.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Set

from ..core.errors import StorageError
from ..devtools import invariants
from .page import SlottedPage
from .pager import Pager


@dataclass
class BufferStats:
    """Hit/miss/eviction counters exposed to the benchmarks."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferPool:
    """A simple LRU buffer pool with explicit dirty tracking.

    Pages are returned by reference: callers mutate the returned
    :class:`SlottedPage` and then call :meth:`mark_dirty`.  Pinning is not
    reference counted (single threaded engine); eviction simply flushes dirty
    victims, the ``wal`` first where a victim's page LSN asks for it.
    """

    def __init__(self, pager: Pager, capacity: int = 128, wal: Any = None) -> None:
        if capacity < 1:
            raise StorageError("buffer pool capacity must be at least 1")
        self.pager = pager
        self.capacity = capacity
        self.wal = wal
        self._frames: "OrderedDict[int, SlottedPage]" = OrderedDict()
        self._dirty: Dict[int, bool] = {}
        #: Page LSNs of dirty frames (in memory only), and the pages changed
        #: inside :meth:`unlogged`.
        self._lsn: Dict[int, int] = {}
        self._held: Optional[Set[int]] = None
        self.stats = BufferStats()

    # -- page access -----------------------------------------------------------

    def get_page(self, page_id: int) -> SlottedPage:
        """Fetch a page, reading it from the pager on a miss."""
        if page_id in self._frames:
            self._frames.move_to_end(page_id)
            self.stats.hits += 1
            return self._frames[page_id]
        self.stats.misses += 1
        page = self.pager.read_page(page_id)
        self._admit(page_id, page, dirty=False)
        return page

    def new_page(self, owner: int = 0) -> int:
        """Allocate a page through the pager and admit it, stamped with
        ``owner`` (:attr:`SlottedPage.owner`): dirty then, so the stamp
        reaches the pager with the page's first write-back."""
        page_id = self.pager.allocate()
        page = self.pager.read_page(page_id)
        page.owner = owner
        self._admit(page_id, page, dirty=bool(owner))
        return page_id

    def mark_dirty(self, page_id: int) -> None:
        if page_id not in self._frames:
            raise StorageError(f"page {page_id} is not resident")
        self._dirty[page_id] = True
        self._frames.move_to_end(page_id)
        if self._held is not None:
            self._held.add(page_id)

    @contextmanager
    def unlogged(self) -> Iterator[None]:
        """Pin the pages changed inside the block (the pool runs over its capacity
        instead) until it has logged their records: the last LSN is their page LSN."""
        self._held = set()
        try:
            yield
        finally:
            held, self._held = self._held, None
            if self.wal is not None:
                self._lsn.update(dict.fromkeys(held, self.wal.last_lsn))
            while len(self._frames) > self.capacity:
                self._evict_one()

    def _admit(self, page_id: int, page: SlottedPage, dirty: bool) -> None:
        while len(self._frames) >= self.capacity and next(iter(self._frames)) not in (
                self._held or ()):      # a held LRU frame stays: the pool runs over
            self._evict_one()
        self._frames[page_id] = page
        self._dirty[page_id] = dirty

    def _evict_one(self) -> None:
        victim_id, victim = next(iter(self._frames.items()))
        if self._dirty.get(victim_id, False):
            self._write_back(victim_id, victim)     # a write that fails keeps the frame
        del self._frames[victim_id], self._dirty[victim_id]
        self.stats.evictions += 1

    def _write_back(self, page_id: int, page: SlottedPage) -> None:
        if invariants.enabled():
            page.check()    # page hygiene (docs/invariants.md)
        if self._lsn and self._lsn.get(page_id, 0) > self.wal.flushed_lsn:  # none without a log
            self.wal.flush()        # the write-ahead rule
        self.pager.write_page(page_id, page)
        self._lsn.pop(page_id, None)
        self.stats.flushes += 1

    # -- flushing ----------------------------------------------------------------

    def flush_page(self, page_id: int, sync: bool = False) -> None:
        """Write one page through to the pager if dirty.

        With ``sync=True`` the pager is synced afterwards — the degradation
        path uses this to make the overwritten page durable *before* the WAL
        images are scrubbed (the irreversibility ordering); a write-through
        alone only reaches the pager's buffers.
        """
        if page_id in self._frames and self._dirty.get(page_id, False):
            self._write_back(page_id, self._frames[page_id])
            self._dirty[page_id] = False
        if sync:
            self.pager.sync()

    def sync(self) -> None:
        """Force previously flushed pages to stable storage (one fsync)."""
        self.pager.sync()

    def flush_all(self) -> None:
        for page_id in list(self._frames):
            self.flush_page(page_id)
        self.pager.sync()

    # -- introspection ------------------------------------------------------------

    def resident_pages(self) -> Iterator[int]:
        return iter(self._frames.keys())

    def is_dirty(self, page_id: int) -> bool:
        return self._dirty.get(page_id, False)

    def __len__(self) -> int:
        return len(self._frames)


__all__ = ["BufferPool", "BufferStats"]
