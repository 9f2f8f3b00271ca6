"""Tests for heap files."""

import random

import pytest

from repro.core.errors import RecordNotFoundError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile, RecordId
from repro.storage.pager import MemoryPager


def update(heap, rid, payload):
    """One record through ``update_many``: its id, a new one if it moved."""
    return heap.update_many(rid.page_id, [(rid.slot, payload)]).get(rid.slot, rid)


@pytest.fixture
def heap():
    return HeapFile(BufferPool(MemoryPager(page_size=512), capacity=8), name="t")


class TestHeapFile:
    def test_insert_read_roundtrip(self, heap):
        rid = heap.insert(b"hello")
        assert heap.read(rid) == b"hello"
        assert heap.exists(rid)
        assert heap.record_count == 1

    def test_records_spill_to_new_pages(self, heap):
        rids = [heap.insert(b"x" * 100) for _ in range(20)]
        assert heap.page_count > 1
        assert len({rid.page_id for rid in rids}) == heap.page_count
        for rid in rids:
            assert heap.read(rid) == b"x" * 100

    def test_oversized_record_rejected(self, heap):
        with pytest.raises(StorageError):
            heap.insert(b"x" * 1000)

    def test_delete(self, heap):
        rid = heap.insert(b"bye")
        heap.delete_many(rid.page_id, [rid.slot])
        assert not heap.exists(rid)
        assert heap.record_count == 0
        with pytest.raises(RecordNotFoundError):
            heap.read(rid)

    def test_update_in_place_keeps_record_id(self, heap):
        rid = heap.insert(b"aaaa")
        new_rid = update(heap, rid, b"bbbb")
        assert new_rid == rid
        assert heap.read(rid) == b"bbbb"

    def test_update_relocates_when_page_full(self, heap):
        rid = heap.insert(b"a" * 150)
        heap.insert(b"b" * 150)
        heap.insert(b"c" * 100)
        new_rid = update(heap, rid, b"d" * 400)
        assert heap.read(new_rid) == b"d" * 400
        assert heap.record_count == 3
        if new_rid != rid:
            assert not heap.exists(rid)

    def test_scan_returns_live_records_only(self, heap):
        keep = heap.insert(b"keep")
        victim = heap.insert(b"victim")
        heap.delete_many(victim.page_id, [victim.slot])
        scanned = dict(heap.scan())
        assert scanned == {keep: b"keep"}
        assert [rid for rid, _payload in heap.scan()] == [keep]

    def test_compact_preserves_data(self, heap):
        rids = [heap.insert(f"rec{i}".encode()) for i in range(5)]
        heap.delete_many(rids[2].page_id, [rids[2].slot])
        heap.compact()
        for i, rid in enumerate(rids):
            if i == 2:
                continue
            assert heap.read(rid) == f"rec{i}".encode()

    def test_raw_image_covers_all_pages(self, heap):
        for _ in range(10):
            heap.insert(b"y" * 120)
        assert len(heap.raw_image()) == heap.page_count * 512

    def test_exists_on_unknown_page(self, heap):
        assert not heap.exists(RecordId(page_id=999, slot=0))

    def test_flush_writes_through(self, heap):
        rid = heap.insert(b"durable")
        heap.flush()
        pager = heap.buffer_pool.pager
        assert pager.read_page(rid.page_id).read(rid.slot) == b"durable"

    def test_failed_relocation_leaves_the_record_where_it_was(self):
        """Relocation places the new image before it zeroes the old one: page
        allocation raising (a full disk) must not cost the record."""
        class RefusingPager(MemoryPager):
            def allocate(self):
                if armed:
                    raise StorageError("no page for you")
                return super().allocate()

        armed = []
        heap = HeapFile(BufferPool(RefusingPager(page_size=512), capacity=8))
        rid = heap.insert(b"a" * 200)
        heap.insert(b"b" * 200)                  # the page is full in total
        armed.append(True)
        with pytest.raises(StorageError, match="no page for you"):
            update(heap, rid, b"c" * 320)
        assert heap.read(rid) == b"a" * 200
        assert (heap.record_count, heap.page_count) == (2, 1)
        heap.check()
        armed.clear()
        new_rid = update(heap, rid, b"c" * 320)
        assert new_rid.page_id != rid.page_id and not heap.exists(rid)
        assert heap.read(new_rid) == b"c" * 320
        assert heap.record_count == 2
        heap.check()


class TestFreeSpaceMap:
    def test_inserts_reuse_emptied_pages(self, heap):
        rids = [heap.insert(b"x" * 100) for _ in range(20)]
        pages = heap.page_count
        for rid in rids:
            heap.delete_many(rid.page_id, [rid.slot])
        again = [heap.insert(b"y" * 100) for _ in range(20)]
        assert heap.page_count == pages
        assert {rid.page_id for rid in again} == {rid.page_id for rid in rids}
        heap.check()

    def test_update_compacts_in_place_before_relocating(self, heap):
        rids = [heap.insert(bytes([n]) * 120) for n in (1, 2, 3, 4)]   # 496 of 512
        assert heap.page_count == 1
        heap.delete_many(rids[1].page_id, [rids[1].slot])
        assert update(heap, rids[3], b"\x04" * 200) == rids[3]         # uses the hole
        assert update(heap, rids[0], b"\x01" * 200) != rids[0]         # full in total
        heap.check()

    def test_insert_touches_only_the_page_it_writes(self, heap):
        for _ in range(40):
            heap.insert(b"x" * 100)             # 10 pages, pool of 8
        stats = heap.buffer_pool.stats
        before = stats.hits + stats.misses
        heap.insert(b"x" * 100)                 # tail page has room
        heap.insert(b"x" * 300)                 # no page has: allocate
        # one get per insert, one more to file the fresh page in the map
        assert stats.hits + stats.misses - before == 3


def _drive(heap, rng, model, steps, trail):
    """Random insert / grow / shrink / delete; ``model`` maps a key to
    ``[record id, payload]``, ``trail`` records every id the heap hands out."""
    page_size = heap.buffer_pool.pager.page_size
    for _ in range(steps):
        op = rng.choice(("insert", "insert", "grow", "shrink", "delete"))
        if op == "insert":
            image = bytes(rng.randrange(1, 256) for _ in range(rng.randrange(1, page_size // 3)))
            key = max(model, default=0) + 1
            model[key] = [heap.insert(image), image]
            trail.append(model[key][0])
        elif model:
            key = rng.choice(sorted(model))
            rid, old = model[key]
            if op == "delete":
                heap.delete_many(rid.page_id, [rid.slot])
                del model[key]
                continue
            if op == "shrink":
                image = old[:rng.randrange(1, len(old) + 1)]
            else:       # the heap takes records up to page_size - 64 bytes
                image = (old + bytes(rng.randrange(1, 256) for _ in range(
                    rng.randrange(1, page_size // 4))))[:page_size - 64]
            page = heap.buffer_pool.get_page(rid.page_id)
            on_page = sum(len(payload) for other, payload in model.values()
                          if other.page_id == rid.page_id)
            full = on_page - len(old) + len(image) > page_size - 12 - 4 * page.slot_count
            new_rid = update(heap, rid, image)
            assert (new_rid != rid) is full         # relocated only off a full page
            assert heap.exists(rid) is not full
            model[key] = [new_rid, image]
            trail.append(new_rid)


@pytest.mark.parametrize("page_size", [128, 512, 4096])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_heap_against_a_model(seed, page_size):
    rng = random.Random(seed)
    heap = HeapFile(BufferPool(MemoryPager(page_size=page_size), capacity=4))
    model, trail = {}, []
    for _ in range(150):
        _drive(heap, rng, model, 1, trail)
        heap.check()          # map == recount, every page hygienic
        assert heap.record_count == len(model)
        assert dict(heap.scan()) == {rid: payload for rid, payload in model.values()}


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_reopened_heap_chooses_the_same_pages(seed):
    """The map is derived state: after ``adopt_pages`` every placement is the
    one the heap that never closed makes."""
    def fresh():
        return HeapFile(BufferPool(MemoryPager(page_size=512), capacity=4))

    kept, closed = fresh(), fresh()
    kept_model, closed_model = {}, {}
    _drive(kept, random.Random(seed), kept_model, 300, [])
    _drive(closed, random.Random(seed), closed_model, 300, [])
    closed.flush()
    reopened = HeapFile(BufferPool(closed.buffer_pool.pager, capacity=4))
    assert reopened.adopt_pages(closed.page_ids()) == closed.page_count
    reopened.check()
    assert reopened.record_count == kept.record_count
    kept_trail, reopened_trail = [], []
    _drive(kept, random.Random(seed + 1), kept_model, 300, kept_trail)
    _drive(reopened, random.Random(seed + 1), closed_model, 300, reopened_trail)
    assert reopened_trail == kept_trail
    assert reopened.page_ids() == kept.page_ids()


@pytest.mark.parametrize("page_size", [128, 512, 4096])
@pytest.mark.parametrize("seed", [31, 32, 33])
def test_update_many_places_records_where_sequential_updates_do(seed, page_size):
    """Twin heaps: every batch of updates to the records of one page goes
    through ``update_many`` on one and through ``update_many`` record by
    record on the other.  Same records relocated, to the same ids, and the same free-space
    map after every batch."""
    rng = random.Random(seed)
    batched = HeapFile(BufferPool(MemoryPager(page_size=page_size), capacity=4))
    sequential = HeapFile(BufferPool(MemoryPager(page_size=page_size), capacity=4))
    model = {}                                  # record id → payload
    relocated = 0

    def payload(length):
        return bytes(rng.randrange(1, 256) for _ in range(length))

    for _ in range(200):
        op = rng.choice(("insert", "insert", "delete", "batch", "batch"))
        if op == "insert":
            image = payload(rng.randrange(1, page_size // 3))
            rid = batched.insert(image)
            assert sequential.insert(image) == rid
            model[rid] = image
        elif op == "delete" and model:
            rid = rng.choice(sorted(model))
            batched.delete_many(rid.page_id, [rid.slot])
            sequential.delete_many(rid.page_id, [rid.slot])
            del model[rid]
        elif model:
            page_id = rng.choice(sorted(model)).page_id
            on_page = sorted(rid for rid in model if rid.page_id == page_id)
            updates = []
            for rid in rng.sample(on_page, rng.randrange(1, len(on_page) + 1)):
                old = model[rid]
                length = rng.choice((rng.randrange(1, len(old) + 1),
                                     len(old) + rng.randrange(1, page_size // 4)))
                updates.append((rid.slot, payload(min(length, page_size - 64))))
            expected = {}
            for slot, image in updates:
                rid = RecordId(page_id, slot)
                new_rid = update(sequential, rid, image)
                if new_rid != rid:
                    expected[slot] = new_rid
            moved = batched.update_many(page_id, updates)
            assert moved == expected
            relocated += len(moved)
            for slot, image in updates:
                del model[RecordId(page_id, slot)]
            for slot, image in updates:
                model[moved.get(slot, RecordId(page_id, slot))] = image
        batched.check()
        assert dict(batched.scan()) == dict(sequential.scan()) == model
        assert batched._free == sequential._free
    assert relocated


def place_one_by_one(heap, payloads):
    """The placement rule of a batch record by record: the page the batch's
    previous record went to while it has room, else the tail page if it has
    room, else the lowest page of the roomiest size class, else a new page,
    the free-space map refiled after each record."""
    ids = []
    for payload in payloads:
        tail = heap._page_ids[-1] if heap._page_ids else None
        if ids and heap._free[ids[-1].page_id] >= len(payload):
            target = ids[-1].page_id
        elif tail is not None and heap._free[tail] >= len(payload):
            target = tail
        else:
            target = heap._roomiest()
            if target is None or heap._free[target] < len(payload):
                target = heap._allocate()
        page = heap.buffer_pool.get_page(target)
        heap.buffer_pool.mark_dirty(target)
        ids.append(RecordId(target, page.insert(payload)))
        heap._record_count += 1
        heap._relevel(target, [ids[-1].slot], [payload])
        heap._file(target, page)
    return ids


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("page_size", [256, 512])
def test_page_runs_place_records_where_the_record_loop_does(seed, page_size):
    """``insert_many`` hands each page the run of records that would land
    on it: on a heap with holes and grown records — so tail, roomiest class,
    a page filled past a class change and in-page compaction all take part —
    its ids, pages and free-space map are the record-by-record loop's."""
    rng = random.Random(seed)
    heaps = [HeapFile(BufferPool(MemoryPager(page_size=page_size), capacity=64)) for _ in "ab"]
    for heap in heaps:
        _drive(heap, random.Random(seed), {}, 120, [])
    for _ in range(6):
        payloads = [bytes([rng.randrange(1, 256)]) * rng.choice((1, 7, 30, 60, page_size // 3))
                    for _ in range(rng.randrange(1, 80))]
        assert heaps[0].insert_many(payloads) == place_one_by_one(heaps[1], payloads)
        assert heaps[0].raw_image() == heaps[1].raw_image()
        assert (heaps[0]._free, heaps[0]._classes, heaps[0].record_count) == \
            (heaps[1]._free, heaps[1]._classes, heaps[1].record_count)
        heaps[0].check()
        holes = rng.random()
        for heap in heaps:      # new holes for the next batch, the same in both
            for rid in random.Random(holes).sample([rid for rid, _payload in heap.scan()], 5):
                heap.delete_many(rid.page_id, [rid.slot])
