"""Tests for pagers and the LRU buffer pool."""

import pytest

from repro.core.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.page import SlottedPage
from repro.storage.pager import FilePager, MemoryPager, open_pager


class TestMemoryPager:
    def test_allocate_and_roundtrip(self):
        pager = MemoryPager()
        page_id = pager.allocate()
        page = pager.read_page(page_id)
        slot = page.insert(b"data")
        pager.write_page(page_id, page)
        assert pager.read_page(page_id).read(slot) == b"data"

    def test_unknown_page_rejected(self):
        pager = MemoryPager()
        with pytest.raises(StorageError):
            pager.read_page(3)
        with pytest.raises(StorageError):
            pager.write_page(3, SlottedPage())

    def test_num_pages(self):
        pager = MemoryPager()
        assert pager.num_pages() == 0
        pager.allocate()
        pager.allocate()
        assert pager.num_pages() == 2
        assert list(pager.page_ids()) == [0, 1]

    def test_raw_image_concatenates_pages(self):
        pager = MemoryPager(page_size=512)
        pager.allocate()
        pager.allocate()
        assert len(pager.raw_image()) == 1024


class TestFilePager:
    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "pages.db")
        pager = FilePager(path)
        page_id = pager.allocate()
        page = pager.read_page(page_id)
        slot = page.insert(b"durable")
        pager.write_page(page_id, page)
        pager.sync()
        pager.close()

        reopened = FilePager(path)
        assert reopened.num_pages() == 1
        assert reopened.read_page(page_id).read(slot) == b"durable"
        reopened.close()

    def test_corrupt_size_rejected(self, tmp_path):
        path = tmp_path / "bad.db"
        path.write_bytes(b"x" * 100)
        with pytest.raises(StorageError):
            FilePager(str(path))

    def test_open_pager_dispatch(self, tmp_path):
        assert isinstance(open_pager(None), MemoryPager)
        assert isinstance(open_pager(":memory:"), MemoryPager)
        file_pager = open_pager(str(tmp_path / "f.db"))
        assert isinstance(file_pager, FilePager)
        file_pager.close()


class TestBufferPool:
    def test_capacity_must_be_positive(self):
        with pytest.raises(StorageError):
            BufferPool(MemoryPager(), capacity=0)

    def test_hit_and_miss_counting(self):
        pool = BufferPool(MemoryPager(), capacity=4)
        page_id = pool.new_page()
        pool.get_page(page_id)
        pool.get_page(page_id)
        assert pool.stats.hits == 2
        assert pool.stats.misses == 0
        assert pool.stats.hit_ratio == 1.0

    def test_dirty_pages_written_back_on_flush(self):
        pager = MemoryPager()
        pool = BufferPool(pager, capacity=4)
        page_id = pool.new_page()
        page = pool.get_page(page_id)
        slot = page.insert(b"payload")
        pool.mark_dirty(page_id)
        pool.flush_all()
        assert pager.read_page(page_id).read(slot) == b"payload"

    def test_mark_dirty_requires_resident_page(self):
        pool = BufferPool(MemoryPager(), capacity=2)
        with pytest.raises(StorageError):
            pool.mark_dirty(42)

    def test_eviction_flushes_dirty_victim(self):
        pager = MemoryPager()
        pool = BufferPool(pager, capacity=2)
        first = pool.new_page()
        page = pool.get_page(first)
        slot = page.insert(b"evict-me")
        pool.mark_dirty(first)
        # Fill the pool to force the eviction of the first page.
        for _ in range(3):
            pool.new_page()
        assert pool.stats.evictions >= 1
        assert pager.read_page(first).read(slot) == b"evict-me"

    def test_lru_keeps_recently_used(self):
        pool = BufferPool(MemoryPager(), capacity=2)
        a = pool.new_page()
        b = pool.new_page()
        pool.get_page(a)            # a is now most recently used
        pool.new_page()             # evicts b
        assert a in list(pool.resident_pages())
        assert b not in list(pool.resident_pages())

    def test_a_fresh_pool_over_the_pager_reads_what_was_flushed(self):
        pager = MemoryPager()
        pool = BufferPool(pager, capacity=4)
        page_id = pool.new_page()
        page = pool.get_page(page_id)
        slot = page.insert(b"still-there")
        pool.mark_dirty(page_id)
        pool.flush_all()
        reopened = BufferPool(pager, capacity=4)
        assert len(reopened) == 0
        assert reopened.get_page(page_id).read(slot) == b"still-there"

    def test_is_dirty_flag(self):
        pool = BufferPool(MemoryPager(), capacity=4)
        page_id = pool.new_page()
        assert not pool.is_dirty(page_id)
        pool.get_page(page_id).insert(b"x")
        pool.mark_dirty(page_id)
        assert pool.is_dirty(page_id)
        pool.flush_page(page_id)
        assert not pool.is_dirty(page_id)
