"""Property-based tests on the storage substrate and the GT index (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import build_location_tree
from repro.index.gt_index import GTIndex
from repro.storage.page import SlottedPage
from repro.storage.wal import LogRecord, LogRecordType, encode_insert_run

LOCATION = build_location_tree()
ADDRESSES = LOCATION.leaves()

payloads = st.binary(min_size=1, max_size=120)


class TestSlottedPageProperties:
    @given(st.lists(payloads, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_inserted_records_always_readable(self, records):
        page = SlottedPage(page_size=4096)
        stored = []
        for payload in records:
            if not page.can_fit(len(payload)):
                break
            stored.append((page.insert(payload), payload))
        for slot, payload in stored:
            assert page.read(slot) == payload

    @given(st.lists(payloads, min_size=1, max_size=15), st.data())
    @settings(max_examples=50, deadline=None)
    def test_secure_delete_removes_bytes_and_keeps_others(self, records, data):
        page = SlottedPage(page_size=4096, secure=True)
        slots = []
        for payload in records:
            if not page.can_fit(len(payload)):
                break
            slots.append((page.insert(payload), payload))
        if not slots:
            return
        victim_index = data.draw(st.integers(min_value=0, max_value=len(slots) - 1))
        victim_slot, victim_payload = slots[victim_index]
        page.delete(victim_slot)
        for index, (slot, payload) in enumerate(slots):
            if index == victim_index:
                assert not page.is_live(slot)
            else:
                assert page.read(slot) == payload
        if len(victim_payload) >= 8 and all(
                victim_payload != payload for i, (s, payload) in enumerate(slots)
                if i != victim_index):
            assert victim_payload not in page.raw()

    @given(st.lists(payloads, min_size=1, max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_through_bytes(self, records):
        page = SlottedPage(page_size=4096)
        stored = []
        for payload in records:
            if not page.can_fit(len(payload)):
                break
            stored.append((page.insert(payload), payload))
        restored = SlottedPage.from_bytes(page.to_bytes())
        for slot, payload in stored:
            assert restored.read(slot) == payload


class TestWALRecordProperties:
    @given(
        lsn=st.integers(min_value=1, max_value=2**31),
        txn_id=st.integers(min_value=0, max_value=2**31),
        record_type=st.sampled_from(list(LogRecordType)),
        table=st.text(max_size=30),
        row_key=st.integers(min_value=-1, max_value=2**31),
        attribute=st.text(max_size=20),
        before=st.one_of(st.none(), st.binary(max_size=100)),
        after=st.one_of(st.none(), st.binary(max_size=100)),
        timestamp=st.floats(min_value=0, max_value=1e12, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_log_record_roundtrip(self, lsn, txn_id, record_type, table, row_key,
                                  attribute, before, after, timestamp):
        if record_type is LogRecordType.INSERT_RUN and after is not None:
            # A run's payload is framed sub-images; an empty image reads as scrubbed.
            after = bytes(encode_insert_run([b"\x01" + after]))
        record = LogRecord(lsn=lsn, txn_id=txn_id, record_type=record_type,
                           table=table, row_key=row_key, attribute=attribute,
                           before=before, after=after, timestamp=timestamp)
        assert LogRecord.decode(record.encode()) == record


class TestGTIndexProperties:
    @given(st.lists(st.tuples(st.sampled_from(ADDRESSES),
                              st.integers(min_value=0, max_value=200)),
                    min_size=1, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_search_at_matches_reference_filter(self, entries):
        """search_at(v, k) equals filtering rows whose stored value generalizes to v."""
        index = GTIndex("gt", LOCATION)
        stored = []
        for address, row_key in entries:
            index.insert_at(address, 0, row_key)
            stored.append((address, row_key))
        for level in (1, 3):
            probe = LOCATION.generalize(stored[0][0], level)
            expected = sorted({row_key for address, row_key in stored
                               if LOCATION.generalize(address, level) == probe})
            assert index.search_at(probe, level) == expected
        index.verify()

    @given(st.lists(st.tuples(st.sampled_from(ADDRESSES),
                              st.integers(min_value=0, max_value=200)),
                    min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_bulk_degradation_preserves_coarse_answers(self, entries):
        """Degrading every posting one level never changes country-level answers."""
        index = GTIndex("gt", LOCATION)
        seen = set()
        for address, row_key in entries:
            if (address, row_key) in seen:
                continue
            seen.add((address, row_key))
            index.insert_at(address, 0, row_key)
        country = LOCATION.generalize(entries[0][0], 3)
        before = index.search_at(country, 3)
        index.degrade_entries((address, 0, LOCATION.generalize(address, 1), 1, row_key)
                              for address, row_key in seen)
        after = index.search_at(country, 3)
        assert before == after
        assert index.level_histogram()[0] == 0
