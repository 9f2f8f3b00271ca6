"""Table schemas with stable and degradable attributes (paper §II).

A tuple is "a composition of stable attributes which do not participate in the
degradation process and degradable attributes".  A :class:`Column` therefore
carries, besides its name and type, whether it is degradable and, if so, which
domain (generalization scheme) and life cycle policy govern it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import SchemaError
from .values import NULL, ValueType, coerce


@dataclass
class Column:
    """One column of a table schema."""

    name: str
    value_type: ValueType
    degradable: bool = False
    domain: Optional[str] = None
    policy: Optional[str] = None
    nullable: bool = True
    primary_key: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.value_type, str):
            self.value_type = ValueType.from_name(self.value_type)
        self.name = self.name.lower()
        if self.degradable and self.domain is None:
            raise SchemaError(
                f"degradable column {self.name!r} must name its generalization domain"
            )
        if self.primary_key and self.degradable:
            raise SchemaError(
                f"column {self.name!r}: a primary key cannot be degradable "
                "(the paper keeps the donor identity stable)"
            )
        self._exact = self.value_type.python_type

    def coerce(self, value: Any) -> Any:
        if type(value) is self._exact:
            return value            # already what coercion would make of it
        if value is None or value is NULL:
            if not self.nullable or self.primary_key:
                raise SchemaError(f"column {self.name!r} does not accept NULL")
            return NULL
        return coerce(value, self.value_type)

    def describe(self) -> str:
        parts = [self.name, self.value_type.value]
        if self.primary_key:
            parts.append("PRIMARY KEY")
        if self.degradable:
            parts.append(f"DEGRADABLE DOMAIN {self.domain}")
            if self.policy:
                parts.append(f"POLICY {self.policy}")
        if not self.nullable:
            parts.append("NOT NULL")
        return " ".join(parts)


class TableSchema:
    """Ordered collection of columns plus the degradation-relevant views on it."""

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        self.name = name.lower()
        if not columns:
            raise SchemaError(f"table {self.name!r} needs at least one column")
        self.columns: List[Column] = list(columns)
        self._by_name: Dict[str, Column] = {}
        for column in self.columns:
            if column.name in self._by_name:
                raise SchemaError(
                    f"table {self.name!r}: duplicate column {column.name!r}"
                )
            self._by_name[column.name] = column
        primary_keys = [c.name for c in self.columns if c.primary_key]
        if len(primary_keys) > 1:
            raise SchemaError(
                f"table {self.name!r}: at most one primary key column is supported"
            )
        self.primary_key: Optional[str] = primary_keys[0] if primary_keys else None

    # -- lookups -------------------------------------------------------------

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def column_index(self, name: str) -> int:
        name = name.lower()
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def degradable_columns(self) -> List[Column]:
        return [column for column in self.columns if column.degradable]

    def stable_columns(self) -> List[Column]:
        return [column for column in self.columns if not column.degradable]

    @property
    def has_degradable_columns(self) -> bool:
        return any(column.degradable for column in self.columns)

    # -- row handling ----------------------------------------------------------

    def coerce_row(self, row: Any) -> Tuple[Any, ...]:
        """Coerce ``row`` (mapping or sequence) into a value tuple in column order."""
        return tuple(column.coerce(value)
                     for column, value in zip(self.columns, self.values_of(row)))

    def values_of(self, row: Any) -> Tuple[Any, ...]:
        """``row`` — a column → value mapping (names in any case, a column it
        leaves out is NULL) or a sequence of every column's value — as a
        value tuple in column order, uncoerced."""
        if isinstance(row, dict):
            lowered = {key.lower(): value for key, value in row.items()}
            unknown = set(lowered) - set(self._by_name)
            if unknown:
                raise SchemaError(
                    f"table {self.name!r}: unknown columns {sorted(unknown)!r}"
                )
            return tuple(lowered.get(column.name) for column in self.columns)
        values = tuple(row)
        if len(values) != len(self.columns):
            raise SchemaError(
                f"table {self.name!r}: expected {len(self.columns)} values, "
                f"got {len(values)}"
            )
        return values

    def describe(self) -> str:
        body = ",\n  ".join(column.describe() for column in self.columns)
        return f"CREATE TABLE {self.name} (\n  {body}\n)"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<TableSchema {self.name} ({len(self.columns)} columns)>"


__all__ = ["Column", "TableSchema"]
