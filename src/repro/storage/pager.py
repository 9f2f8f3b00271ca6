"""Pagers: allocation and persistence of fixed size pages.

Two backends share the :class:`Pager` interface:

* :class:`MemoryPager` — pages held in a dict, used by tests, examples and the
  benchmarks (laptop-scale, deterministic).
* :class:`FilePager` — pages persisted to a single file, used by the
  durability / recovery tests and by anyone who wants an on-disk database.

Both expose :meth:`Pager.raw_image` so the forensic scanner can look for
residual plaintext in *all* bytes under management, not only live records.

A pager does not know which table a page belongs to: the page's header does
(:attr:`~repro.storage.page.SlottedPage.owner`).  What it keeps is the list of
*spare* pages — empty and naming no owner: found so by recovery, or given up
by a dropped table (:meth:`Pager.reuse`) — which :meth:`Pager.allocate` hands
out again before the store grows.
"""

from __future__ import annotations

import errno
import heapq
import os
from typing import Dict, Iterable, Iterator, List, Optional

from ..core.errors import DurabilityError, StorageError
from ..faults import FaultPlan
from .page import DEFAULT_PAGE_SIZE, SlottedPage


class Pager:
    """Interface of a page store."""

    page_size: int = DEFAULT_PAGE_SIZE
    #: Empty pages that name no owner (:meth:`reuse`), handed out lowest first.
    _spare: List[int]

    def allocate(self) -> int:
        """A page for a heap: the lowest spare page, else a fresh one."""
        return heapq.heappop(self._spare) if self._spare else self._grow()

    def _grow(self) -> int:
        """Add a fresh, empty page and return its page id."""
        raise NotImplementedError

    def reuse(self, page_ids: Iterable[int]) -> None:
        """Hand ``page_ids`` out again, beside the spare pages held already:
        pages empty and naming no owner — never written, or given up by a
        dropped table."""
        self._spare = sorted({*self._spare, *page_ids})

    def read_page(self, page_id: int) -> SlottedPage:
        raise NotImplementedError

    def write_page(self, page_id: int, page: SlottedPage) -> None:
        raise NotImplementedError

    def num_pages(self) -> int:
        raise NotImplementedError

    def page_ids(self) -> Iterator[int]:
        return iter(range(self.num_pages()))

    def sync(self) -> None:
        """Flush to stable storage (no-op for memory pagers)."""

    def close(self) -> None:
        """Release resources."""

    def raw_image(self) -> bytes:
        """Concatenation of every page image (forensic scanning)."""
        return b"".join(self.read_page(pid).raw() for pid in self.page_ids())


class MemoryPager(Pager):
    """Pager keeping page images in memory."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, secure: bool = True) -> None:
        self.page_size = page_size
        self.secure = secure
        self._pages: Dict[int, bytes] = {}
        self._next_id = 0
        self._spare = []

    def _grow(self) -> int:
        page_id = self._next_id
        self._next_id += 1
        self._pages[page_id] = SlottedPage(self.page_size, secure=self.secure).to_bytes()
        return page_id

    def read_page(self, page_id: int) -> SlottedPage:
        try:
            data = self._pages[page_id]
        except KeyError:
            raise StorageError(f"unknown page id {page_id}") from None
        return SlottedPage.from_bytes(data, secure=self.secure)

    def write_page(self, page_id: int, page: SlottedPage) -> None:
        if page_id not in self._pages:
            raise StorageError(f"unknown page id {page_id}")
        self._pages[page_id] = page.to_bytes()

    def num_pages(self) -> int:
        return self._next_id


class FilePager(Pager):
    """Pager persisting pages to a single binary file."""

    def __init__(self, path: str, page_size: int = DEFAULT_PAGE_SIZE,
                 secure: bool = True,
                 faults: Optional[FaultPlan] = None) -> None:
        self.page_size = page_size
        self.secure = secure
        self.path = path
        self.faults = faults
        exists = os.path.exists(path)
        self._file = open(path, "r+b" if exists else "w+b")
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % page_size != 0:
            raise StorageError(
                f"file {path!r} has {size} bytes, not a multiple of page size {page_size}"
            )
        self._page_count = size // page_size
        self._spare = []

    def _grow(self) -> int:
        page_id = self._page_count
        self._page_count += 1
        empty = SlottedPage(self.page_size, secure=self.secure).to_bytes()
        self._file.seek(page_id * self.page_size)
        self._file.write(empty)
        return page_id

    def read_page(self, page_id: int) -> SlottedPage:
        if not 0 <= page_id < self._page_count:
            raise StorageError(f"unknown page id {page_id}")
        self._file.seek(page_id * self.page_size)
        data = self._file.read(self.page_size)
        if len(data) != self.page_size:
            raise StorageError(f"short read on page {page_id}")
        return SlottedPage.from_bytes(data, secure=self.secure)

    def write_page(self, page_id: int, page: SlottedPage) -> None:
        if not 0 <= page_id < self._page_count:
            raise StorageError(f"unknown page id {page_id}")
        self._file.seek(page_id * self.page_size)
        self._file.write(page.to_bytes())

    def num_pages(self) -> int:
        return self._page_count

    def sync(self) -> None:
        """Make every written page durable.

        I/O errors — real or injected — surface as :class:`DurabilityError`.
        A failed sync is safe for the heap: pages are only an optimization
        over the WAL (recovery redoes committed work from the log), so the
        engine flips read-only and the reopened database rebuilds any page
        whose bytes never made it down.
        """
        event = self.faults.fire("pager.sync") if self.faults else None
        try:
            if event is not None and event.kind == "enospc":
                raise OSError(errno.ENOSPC,
                              "injected: no space left on device")
            self._file.flush()
            if event is not None and event.kind == "fsync":
                raise OSError(errno.EIO, "injected: fsync failed")
            os.fsync(self._file.fileno())
        except OSError as exc:
            raise DurabilityError(f"pager sync failed: {exc}") from exc

    def close(self) -> None:
        try:
            self._file.flush()
        finally:
            self._file.close()


def open_pager(path: Optional[str] = None, page_size: int = DEFAULT_PAGE_SIZE,
               secure: bool = True, faults: Optional[FaultPlan] = None) -> Pager:
    """Open a :class:`FilePager` when ``path`` is given, else a :class:`MemoryPager`."""
    if path is None or path == ":memory:":
        return MemoryPager(page_size=page_size, secure=secure)
    return FilePager(path, page_size=page_size, secure=secure, faults=faults)


__all__ = ["Pager", "MemoryPager", "FilePager", "open_pager"]
