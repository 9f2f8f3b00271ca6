"""Tests for table schemas with stable and degradable columns."""

import pytest

from repro.core.errors import SchemaError
from repro.core.schema import Column, TableSchema
from repro.core.values import NULL, ValueType


@pytest.fixture
def person_schema():
    return TableSchema("person", [
        Column("id", "INT", primary_key=True),
        Column("name", "TEXT"),
        Column("location", "TEXT", degradable=True, domain="location",
               policy="location_lcp"),
        Column("salary", "INT", degradable=True, domain="salary"),
        Column("active", "BOOL", nullable=False),
    ])


class TestColumn:
    def test_type_from_string(self):
        assert Column("a", "integer").value_type is ValueType.INT

    def test_degradable_requires_domain(self):
        with pytest.raises(SchemaError):
            Column("loc", "TEXT", degradable=True)

    def test_primary_key_cannot_be_degradable(self):
        with pytest.raises(SchemaError):
            Column("id", "INT", primary_key=True, degradable=True, domain="d")

    def test_coerce_respects_nullability(self):
        nullable = Column("x", "INT")
        assert nullable.coerce(None) is NULL
        strict = Column("y", "INT", nullable=False)
        with pytest.raises(SchemaError):
            strict.coerce(None)

    def test_describe(self):
        column = Column("location", "TEXT", degradable=True, domain="location",
                        policy="p")
        text = column.describe()
        assert "DEGRADABLE" in text and "POLICY p" in text

    def test_names_are_lowercased(self):
        assert Column("LOCATION", "TEXT").name == "location"


class TestTableSchema:
    def test_column_lookup(self, person_schema):
        assert person_schema.column("NAME").name == "name"
        assert person_schema.has_column("salary")
        assert not person_schema.has_column("ghost")
        with pytest.raises(SchemaError):
            person_schema.column("ghost")

    def test_column_index(self, person_schema):
        assert person_schema.column_index("id") == 0
        assert person_schema.column_index("active") == 4
        with pytest.raises(SchemaError):
            person_schema.column_index("ghost")

    def test_degradable_and_stable_partition(self, person_schema):
        degradable = {c.name for c in person_schema.degradable_columns()}
        stable = {c.name for c in person_schema.stable_columns()}
        assert degradable == {"location", "salary"}
        assert stable == {"id", "name", "active"}
        assert person_schema.has_degradable_columns

    def test_primary_key_detected(self, person_schema):
        assert person_schema.primary_key == "id"

    def test_multiple_primary_keys_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", "INT", primary_key=True),
                              Column("b", "INT", primary_key=True)])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", "INT"), Column("A", "TEXT")])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_coerce_row_from_dict(self, person_schema):
        values = person_schema.coerce_row({
            "id": 1, "name": "alice", "location": "Paris", "salary": "2500",
            "active": True,
        })
        assert values == (1, "alice", "Paris", 2500, True)

    def test_coerce_row_from_sequence(self, person_schema):
        values = person_schema.coerce_row([2, "bob", "Lyon", 3000, False])
        assert values[0] == 2 and values[-1] is False

    def test_coerce_row_unknown_column_rejected(self, person_schema):
        with pytest.raises(SchemaError):
            person_schema.coerce_row({"id": 1, "ghost": 5, "active": True})

    def test_coerce_row_wrong_arity_rejected(self, person_schema):
        with pytest.raises(SchemaError):
            person_schema.coerce_row([1, "bob"])

    def test_values_of_roundtrip(self, person_schema):
        values = person_schema.coerce_row([1, "a", "Paris", 100, True])
        as_dict = dict(zip(person_schema.column_names(), values))
        assert person_schema.values_of(as_dict) == values
        assert person_schema.values_of({"NAME": "b"})[:2] == (None, "b")

    def test_values_of_wrong_arity(self, person_schema):
        with pytest.raises(SchemaError):
            person_schema.values_of([1, 2])

    def test_describe_is_create_table_like(self, person_schema):
        text = person_schema.describe()
        assert text.startswith("CREATE TABLE person")
        assert "PRIMARY KEY" in text
