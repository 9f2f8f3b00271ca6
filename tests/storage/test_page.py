"""Tests for slotted pages and secure space reclamation."""

import random

import pytest

from repro.core.errors import PageFullError, RecordNotFoundError, StorageError
from repro.storage.page import SlottedPage


class TestBasicOperations:
    def test_insert_and_read(self):
        page = SlottedPage()
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"
        assert page.slot_count == 1

    def test_multiple_inserts_get_distinct_slots(self):
        page = SlottedPage()
        slots = [page.insert(f"record {i}".encode()) for i in range(10)]
        assert slots == list(range(10))
        for i, slot in enumerate(slots):
            assert page.read(slot) == f"record {i}".encode()

    def test_empty_record_rejected(self):
        with pytest.raises(StorageError):
            SlottedPage().insert(b"")

    def test_read_deleted_slot_raises(self):
        page = SlottedPage()
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(RecordNotFoundError):
            page.read(slot)

    def test_read_out_of_range_raises(self):
        with pytest.raises(RecordNotFoundError):
            SlottedPage().read(0)

    def test_is_live(self):
        page = SlottedPage()
        slot = page.insert(b"x")
        assert page.is_live(slot)
        page.delete(slot)
        assert not page.is_live(slot)
        assert not page.is_live(99)

    def test_page_full(self):
        page = SlottedPage(page_size=256)
        with pytest.raises(PageFullError):
            for _ in range(100):
                page.insert(b"x" * 32)

    def test_free_space_decreases(self):
        page = SlottedPage()
        before = page.free_space()
        page.insert(b"x" * 100)
        assert page.free_space() < before

    def test_minimum_page_size(self):
        with pytest.raises(StorageError):
            SlottedPage(page_size=16)


class TestUpdate:
    def test_update_same_size_in_place(self):
        page = SlottedPage()
        slot = page.insert(b"aaaa")
        assert page.update(slot, b"bbbb")
        assert page.read(slot) == b"bbbb"

    def test_update_shrinking(self):
        page = SlottedPage()
        slot = page.insert(b"a" * 100)
        assert page.update(slot, b"b" * 10)
        assert page.read(slot) == b"b" * 10

    def test_update_growing_uses_free_space(self):
        page = SlottedPage()
        slot = page.insert(b"a" * 10)
        assert page.update(slot, b"b" * 50)
        assert page.read(slot) == b"b" * 50

    def test_update_growing_without_space_returns_false(self):
        page = SlottedPage(page_size=128)
        slot = page.insert(b"a" * 40)
        page.insert(b"c" * 40)
        assert page.update(slot, b"b" * 80) is False
        # Old record untouched when relocation is needed.
        assert page.read(slot) == b"a" * 40

    def test_update_deleted_raises(self):
        page = SlottedPage()
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(RecordNotFoundError):
            page.update(slot, b"y")


class TestSecureReclamation:
    def test_delete_zeroes_payload(self):
        page = SlottedPage(secure=True)
        secret = b"TOP-SECRET-ADDRESS"
        slot = page.insert(secret)
        assert secret in page.raw()
        page.delete(slot)
        assert secret not in page.raw()

    def test_insecure_page_leaves_ghost(self):
        page = SlottedPage(secure=False)
        secret = b"TOP-SECRET-ADDRESS"
        slot = page.insert(secret)
        page.delete(slot)
        assert secret in page.raw()

    def test_shrinking_update_zeroes_tail(self):
        page = SlottedPage(secure=True)
        slot = page.insert(b"SENSITIVE-TAIL-DATA")
        page.update(slot, b"ok")
        assert b"TAIL-DATA" not in page.raw()

    def test_growing_update_zeroes_old_copy(self):
        page = SlottedPage(secure=True)
        slot = page.insert(b"OLD-SECRET")
        page.update(slot, b"N" * 64)
        assert b"OLD-SECRET" not in page.raw()

    def test_compaction_zeroes_holes_and_preserves_slots(self):
        page = SlottedPage(secure=True)
        keep = page.insert(b"keep-me")
        ghost = page.insert(b"GHOST-RECORD")
        page.insert(b"also-keep")
        page.delete(ghost)
        free_before = page.free_space()
        free_after = page.compact()
        assert free_after >= free_before
        assert page.read(keep) == b"keep-me"
        assert b"GHOST-RECORD" not in page.raw()


class TestPersistence:
    def test_to_bytes_roundtrip(self):
        page = SlottedPage()
        slot_a = page.insert(b"alpha")
        slot_b = page.insert(b"beta")
        restored = SlottedPage.from_bytes(page.to_bytes())
        assert restored.read(slot_a) == b"alpha"
        assert restored.read(slot_b) == b"beta"
        assert restored.live_slots() == [slot_a, slot_b]

    def test_from_bytes_validates_size(self):
        with pytest.raises(StorageError):
            SlottedPage(page_size=4096, data=b"short")

    def test_records_listing(self):
        page = SlottedPage()
        page.insert(b"a")
        slot = page.insert(b"b")
        page.delete(slot)
        assert page.records() == [(0, b"a")]


class TestSpaceReuse:
    def test_insert_compacts_to_reach_the_holes(self):
        page = SlottedPage(page_size=128)
        slots = [page.insert(bytes([n]) * 36) for n in (1, 2, 3)]   # 120 of 128 bytes
        page.delete(slots[1])
        assert page.read(page.insert(b"\x09" * 36)) == b"\x09" * 36
        page.update(slots[0], b"\x01" * 10)             # a hole behind the frontier
        assert page.update(slots[2], b"\x03" * 60)      # needs gap + hole
        assert page.read(slots[0]) == b"\x01" * 10
        assert page.read(slots[2]) == b"\x03" * 60
        page.check()

    def test_dead_slots_are_reused_lowest_first(self):
        page = SlottedPage()
        slots = [page.insert(b"r") for _ in range(5)]
        page.delete(slots[3])
        page.delete(slots[1])
        assert [page.insert(b"n"), page.insert(b"n"), page.insert(b"n")] == [1, 3, 5]

    def test_compaction_trims_trailing_dead_slots(self):
        page = SlottedPage()
        slots = [page.insert(b"r") for _ in range(5)]
        for slot in slots[2:]:
            page.delete(slot)
        page.compact()
        assert page.slot_count == 2
        assert page.insert(b"n") == 2

    def test_check_catches_a_stale_byte_and_a_wrong_count(self):
        page = SlottedPage()
        slot = page.insert(b"record")
        page._buffer[100] = 7
        with pytest.raises(StorageError, match="stale bytes"):
            page.check()
        page._buffer[100] = 0
        page._live += 1
        with pytest.raises(StorageError, match="out of step"):
            page.check()
        insecure = SlottedPage(secure=False)
        insecure.delete(insecure.insert(b"ghost"))
        insecure.check()                                # ghosts are its contract
        assert slot == 0


_SLOT_BYTES = 4
_HEADER_BYTES = 4


@pytest.mark.parametrize("page_size", [128, 256, 512, 1024, 4096])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_page_against_a_model(seed, page_size):
    """Random insert / grow / shrink / delete / reload against a dict."""
    rng = random.Random(seed * 7919 + page_size)
    page = SlottedPage(page_size=page_size)
    model = {}                                          # slot → payload
    peak_live = 0

    def payload(length):
        return bytes(rng.randrange(1, 256) for _ in range(length))

    def room():
        return (page_size - _HEADER_BYTES - _SLOT_BYTES * page.slot_count
                - sum(map(len, model.values())))

    for _ in range(400):
        op = rng.choice(("insert", "insert", "grow", "shrink", "delete", "reload"))
        if op == "insert":
            image = payload(rng.randrange(1, page_size // 3))
            entry = 0 if page.slot_count > len(model) else _SLOT_BYTES
            if len(image) + entry <= room():
                slot = page.insert(image)
                assert slot not in model
                model[slot] = image
            else:
                with pytest.raises(PageFullError):
                    page.insert(image)
        elif op == "reload":        # eviction: the counts are not in the image
            page = SlottedPage.from_bytes(page.to_bytes())
        elif model:
            slot = rng.choice(sorted(model))
            old = model[slot]
            if op == "delete":
                page.delete(slot)
                del model[slot]
            elif op == "shrink":
                model[slot] = payload(rng.randrange(1, len(old) + 1))
                assert page.update(slot, model[slot])
            else:
                image = payload(len(old) + rng.randrange(1, page_size // 4))
                fits = len(image) - len(old) <= room()
                assert page.update(slot, image) is fits     # False: full in total
                if fits:
                    model[slot] = image
        peak_live = max(peak_live, len(model))
        assert dict(page.records()) == model            # contents; slot ids never change
        entry = 0 if page.slot_count > len(model) else _SLOT_BYTES
        assert page.free_space() == max(0, room() - entry)
        assert page.live_count == len(model)
        assert page.slot_count <= peak_live             # dead slots are reused first
        page.check()                                    # hygiene: no stale byte anywhere


@pytest.mark.parametrize("page_size", [128, 256, 512, 1024, 4096])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_update_many_against_sequential_update(seed, page_size):
    """Twin pages take the same random inserts, deletes and update batches —
    one through ``update_many``, one through ``update`` record by record, a
    rejected record leaving the page at its turn (as the heap relocates it).
    Same updates refused, same records, slot numbers and free space after
    every batch; the batched page compacts at most once per batch."""
    rng = random.Random(seed * 104729 + page_size)
    batched, sequential = SlottedPage(page_size=page_size), SlottedPage(page_size=page_size)
    model = {}                                          # slot → payload
    refused = compactions = 0

    def payload(length):
        return bytes(rng.randrange(1, 256) for _ in range(length))

    repack = SlottedPage._repack

    def counting_repack(page, updates=()):
        nonlocal compactions
        compactions += page is batched
        return repack(page, updates)

    for _ in range(300):
        op = rng.choice(("insert", "insert", "delete", "batch", "batch", "reload"))
        if op == "insert":
            image = payload(rng.randrange(1, page_size // 3))
            if batched.can_fit(len(image)):
                model[batched.insert(image)] = image
                assert sequential.insert(image) in model
        elif op == "reload":
            batched = SlottedPage.from_bytes(batched.to_bytes())
        elif op == "delete" and model:
            slot = rng.choice(sorted(model))
            batched.delete(slot)
            sequential.delete(slot)
            del model[slot]
        elif model:
            slots = rng.sample(sorted(model), rng.randrange(1, len(model) + 1))
            updates = []
            for slot in slots:
                old = model[slot]
                length = rng.choice((rng.randrange(1, len(old) + 1),
                                     len(old) + rng.randrange(1, page_size // 4)))
                updates.append((slot, payload(length)))
            # the twin, one by one; a refused record is deleted at its turn
            expected = set()
            for slot, image in updates:
                if sequential.update(slot, image):
                    model[slot] = image
                else:
                    expected.add(slot)
                    sequential.delete(slot)
                    del model[slot]
            # the batch: update_many up to the first refusal, as HeapFile does
            left = updates
            before = compactions
            SlottedPage._repack = counting_repack
            try:
                moved = set()
                while left:
                    applied = batched.update_many(left)
                    if applied == len(left):
                        break
                    moved.add(left[applied][0])
                    batched.delete(left[applied][0])
                    left = left[applied + 1:]
            finally:
                SlottedPage._repack = repack
            assert moved == expected
            assert compactions - before <= 1 + len(moved)
            refused += len(moved)
        assert dict(batched.records()) == dict(sequential.records()) == model
        assert batched.slot_count == sequential.slot_count
        assert batched.free_space() == sequential.free_space()
        batched.check()
        sequential.check()
    assert refused                 # the case that matters was exercised
