"""Tests for the degradation-aware GT-partitioned index."""

import pytest

from repro.core.errors import IndexError_
from repro.core.values import SUPPRESSED
from repro.index.gt_index import GTIndex


@pytest.fixture
def index(location_tree):
    return GTIndex("gt_location", location_tree)


PARIS_ADDR = "1 Main Street, Paris"
LYON_ADDR = "2 Station Road, Lyon"
BERLIN_ADDR = "3 Church Lane, Berlin"


def wave(index, value, old_level, new_level, row_keys):
    """``degrade_entries`` moves taking ``row_keys`` of ``value`` one wave on."""
    new_value = index.scheme.generalize(value, new_level, from_level=old_level)
    return index.degrade_entries(
        (value, old_level, new_value, new_level, row_key) for row_key in row_keys)


class TestLevelAwareOperations:
    def test_insert_at_and_search_at_level0(self, index):
        index.insert_at(PARIS_ADDR, 0, 1)
        assert index.search_at(PARIS_ADDR, 0) == [1]

    def test_search_at_coarser_level_folds_finer_buckets(self, index):
        index.insert_at(PARIS_ADDR, 0, 1)        # stored accurate
        index.insert_at("Paris", 1, 2)            # stored at city level
        index.insert_at(LYON_ADDR, 0, 3)
        assert index.search_at("Paris", 1) == [1, 2]
        assert index.search_at("France", 3) == [1, 2, 3]
        assert index.search_at("Germany", 3) == []

    def test_rows_stored_coarser_than_demanded_are_excluded(self, index):
        index.insert_at("France", 3, 1)           # only country known
        assert index.search_at("Paris", 1) == []
        assert index.search_at("France", 3) == [1]

    def test_degrade_entry_moves_posting(self, index):
        index.insert_at(PARIS_ADDR, 0, 1)
        index.degrade_entry(PARIS_ADDR, 0, "Paris", 1, 1)
        assert index.search_at(PARIS_ADDR, 0) == []
        assert index.search_at("Paris", 1) == [1]
        assert len(index) == 1

    def test_degrade_entry_missing_raises(self, index):
        with pytest.raises(IndexError_):
            index.degrade_entry(PARIS_ADDR, 0, "Paris", 1, 99)

    def test_degrade_entry_backwards_raises(self, index):
        index.insert_at("Paris", 1, 1)
        with pytest.raises(IndexError_):
            index.degrade_entry("Paris", 1, PARIS_ADDR, 0, 1)

    def test_degrade_entries_moves_every_posting(self, index):
        for row in range(10):
            index.insert_at(PARIS_ADDR, 0, row)
        moved = wave(index, PARIS_ADDR, 0, 1, range(10))
        assert moved == 10
        assert index.search_at("Paris", 1) == list(range(10))
        assert index.level_histogram()[0] == 0
        index.verify()

    def test_degrade_entries_merges_into_existing(self, index):
        index.insert_at(PARIS_ADDR, 0, 1)
        index.insert_at("Paris", 1, 2)
        wave(index, PARIS_ADDR, 0, 1, [1])
        assert index.search_at("Paris", 1) == [1, 2]
        assert len(index) == 2

    def test_degrade_entries_empty_returns_zero(self, index):
        assert wave(index, PARIS_ADDR, 0, 1, []) == 0

    def test_delete_at(self, index):
        index.insert_at(PARIS_ADDR, 0, 1)
        assert index.delete_at(PARIS_ADDR, 0, 1)
        assert not index.delete_at(PARIS_ADDR, 0, 1)
        assert len(index) == 0

    def test_suppressed_bucket(self, index):
        index.insert_at(SUPPRESSED, 4, 1)
        assert index.search_at(SUPPRESSED, 4) == [1]

    def test_level_histogram(self, index):
        index.insert_at(PARIS_ADDR, 0, 1)
        index.insert_at("Paris", 1, 2)
        index.insert_at("Paris", 1, 3)
        histogram = index.level_histogram()
        assert histogram[0] == 1 and histogram[1] == 2

    def test_invalid_level_rejected(self, index):
        with pytest.raises(IndexError_):
            index.insert_at("Paris", 9, 1)
        with pytest.raises(IndexError_):
            index.search_at("Paris", 9)


class TestFlatInterface:
    def test_flat_insert_goes_to_level0(self, index):
        index.insert(PARIS_ADDR, 1)
        assert index.search_at(PARIS_ADDR, 0) == [1]
        assert index.search(PARIS_ADDR) == [1]

    def test_flat_delete_scans_levels(self, index):
        index.insert_at("Paris", 1, 7)
        assert index.delete("Paris", 7)
        assert not index.delete("Paris", 7)

    def test_update_via_base_interface(self, index):
        index.insert(PARIS_ADDR, 1)
        index.update(PARIS_ADDR, BERLIN_ADDR, 1)
        assert index.search(BERLIN_ADDR) == [1]

    def test_values_at_level(self, index):
        index.insert_at("Paris", 1, 1)
        index.insert_at("Lyon", 1, 2)
        assert set(index.values_at_level(1)) == {"Paris", "Lyon"}

    def test_raw_image_reflects_degradation(self, index):
        index.insert_at(PARIS_ADDR, 0, 1)
        assert PARIS_ADDR.encode() in index.raw_image()
        wave(index, PARIS_ADDR, 0, 3, [1])
        assert PARIS_ADDR.encode() not in index.raw_image()
        assert b"France" in index.raw_image()
