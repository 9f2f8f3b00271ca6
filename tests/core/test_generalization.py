"""Tests for generalization trees and degradation functions (paper Fig. 1)."""

import pytest

from repro.core.errors import GeneralizationError, UnknownValueError
from repro.core.generalization import (
    GeneralizationTree,
    NumericRangeGeneralization,
    TimestampGeneralization,
)
from repro.core.values import SUPPRESSED


@pytest.fixture
def small_tree():
    return GeneralizationTree.from_paths(
        "location",
        [
            ("1 rue A, Paris", "Paris", "Ile-de-France", "France"),
            ("2 rue B, Paris", "Paris", "Ile-de-France", "France"),
            ("3 laan C, Enschede", "Enschede", "Overijssel", "Netherlands"),
        ],
        level_names=["address", "city", "region", "country"],
    )


class TestGeneralizationTree:
    def test_num_levels_includes_suppressed_root(self, small_tree):
        assert small_tree.num_levels == 5
        assert small_tree.max_level == 4

    def test_level_names(self, small_tree):
        assert small_tree.level_name(0) == "address"
        assert small_tree.level_name(3) == "country"
        assert small_tree.level_name(4) == "suppressed"

    def test_level_of_name_case_insensitive(self, small_tree):
        assert small_tree.level_of_name("CITY") == 1
        with pytest.raises(GeneralizationError):
            small_tree.level_of_name("continent")

    def test_generalize_leaf_upwards(self, small_tree):
        assert small_tree.generalize("1 rue A, Paris", 1) == "Paris"
        assert small_tree.generalize("1 rue A, Paris", 2) == "Ile-de-France"
        assert small_tree.generalize("1 rue A, Paris", 3) == "France"
        assert small_tree.generalize("1 rue A, Paris", 4) is SUPPRESSED

    def test_generalize_same_level_is_identity(self, small_tree):
        assert small_tree.generalize("1 rue A, Paris", 0) == "1 rue A, Paris"
        assert small_tree.generalize("Paris", 1, from_level=1) == "Paris"

    def test_generalize_from_intermediate_level(self, small_tree):
        assert small_tree.generalize("Enschede", 3, from_level=1) == "Netherlands"

    def test_generalize_backwards_raises(self, small_tree):
        with pytest.raises(GeneralizationError):
            small_tree.generalize("Paris", 0, from_level=1)

    def test_unknown_value_raises(self, small_tree):
        with pytest.raises(UnknownValueError):
            small_tree.generalize("Atlantis", 1)

    def test_unknown_value_at_wrong_level_raises(self, small_tree):
        with pytest.raises(UnknownValueError):
            small_tree.generalize("Paris", 2, from_level=0)

    def test_suppressed_only_valid_at_root(self, small_tree):
        assert small_tree.generalize(SUPPRESSED, 4, from_level=4) is SUPPRESSED
        with pytest.raises(UnknownValueError):
            small_tree.generalize(SUPPRESSED, 4, from_level=1)

    def test_values_at_level(self, small_tree):
        assert set(small_tree.values_at_level(1)) == {"Paris", "Enschede"}
        assert set(small_tree.values_at_level(3)) == {"France", "Netherlands"}
        assert small_tree.values_at_level(4) == [SUPPRESSED]

    def test_leaves(self, small_tree):
        assert len(small_tree.leaves()) == 3

    def test_children_of(self, small_tree):
        assert set(small_tree.children_of("Paris", 1)) == {"1 rue A, Paris", "2 rue B, Paris"}
        assert small_tree.children_of("France", 3) == ["Ile-de-France"]

    def test_level_of_unique_values(self, small_tree):
        assert small_tree.level_of("Paris") == 1
        assert small_tree.level_of("France") == 3
        with pytest.raises(UnknownValueError):
            small_tree.level_of("Mars")

    def test_contains(self, small_tree):
        assert small_tree.contains("Paris", 1)
        assert not small_tree.contains("Paris", 0)

    def test_describe_mentions_levels(self, small_tree):
        text = small_tree.describe()
        assert "address" in text and "country" in text

    def test_invalid_level_raises(self, small_tree):
        with pytest.raises(GeneralizationError):
            small_tree.generalize("Paris", 9, from_level=1)

    def test_uneven_paths_rejected(self):
        with pytest.raises(GeneralizationError):
            GeneralizationTree.from_paths("bad", [("a", "b"), ("c", "d", "e")])

    def test_conflicting_parent_rejected(self):
        # "Paris" cannot be both in France and Germany in a *tree*.
        with pytest.raises(GeneralizationError):
            GeneralizationTree.from_paths(
                "bad", [("1", "Paris", "France"), ("2", "Paris", "Germany")]
            )

    def test_empty_paths_rejected(self):
        with pytest.raises(GeneralizationError):
            GeneralizationTree.from_paths("bad", [])


class TestNumericRangeGeneralization:
    @pytest.fixture
    def salary(self):
        return NumericRangeGeneralization("salary", widths=[100, 1000, 10000])

    def test_levels(self, salary):
        assert salary.num_levels == 5
        assert salary.level_name(0) == "exact"
        assert salary.level_name(2) == "range1000"
        assert salary.level_name(4) == "suppressed"

    def test_generalize_to_ranges(self, salary):
        assert salary.generalize(2345, 1) == "2300-2400"
        assert salary.generalize(2345, 2) == "2000-3000"
        assert salary.generalize(2345, 3) == "0-10000"
        assert salary.generalize(2345, 4) is SUPPRESSED

    def test_generalize_from_range(self, salary):
        assert salary.generalize("2300-2400", 2, from_level=1) == "2000-3000"

    def test_parse_and_format_range(self, salary):
        assert salary.parse_range("2000-3000") == (2000.0, 3000.0)
        assert salary.format_range(500, 600) == "500-600"
        with pytest.raises(GeneralizationError):
            salary.parse_range("everything")

    def test_level_zero_identity(self, salary):
        assert salary.generalize(1234, 0) == 1234

    def test_negative_values_bucket_correctly(self, salary):
        assert salary.generalize(-50, 1) == "-100-0"

    def test_backwards_raises(self, salary):
        with pytest.raises(GeneralizationError):
            salary.generalize("2000-3000", 1, from_level=2)

    def test_decreasing_widths_rejected(self):
        with pytest.raises(GeneralizationError):
            NumericRangeGeneralization("bad", widths=[1000, 100])

    def test_zero_width_rejected(self):
        with pytest.raises(GeneralizationError):
            NumericRangeGeneralization("bad", widths=[0])

    def test_values_at_level_only_finite_at_root(self, salary):
        assert salary.values_at_level(4) == [SUPPRESSED]
        assert salary.values_at_level(1) is None


class TestTimestampGeneralization:
    @pytest.fixture
    def times(self):
        return TimestampGeneralization("event_time")

    def test_levels(self, times):
        assert times.num_levels == 6
        assert times.level_name(1) == "minute"
        assert times.level_name(4) == "month"

    def test_bucketing(self, times):
        stamp = 3 * 86400 + 7 * 3600 + 42 * 60 + 13
        assert times.generalize(stamp, 1) == 3 * 86400 + 7 * 3600 + 42 * 60
        assert times.generalize(stamp, 2) == 3 * 86400 + 7 * 3600
        assert times.generalize(stamp, 3) == 3 * 86400
        assert times.generalize(stamp, 5) is SUPPRESSED

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(GeneralizationError):
            TimestampGeneralization("bad", buckets=[("hour", 3600), ("minute", 60)])
