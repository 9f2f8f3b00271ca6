"""Catalog: tables, domains, life cycle policies, purposes and indexes.

The catalog is pure metadata — the engine owns the runtime objects (table
stores, index instances) and registers them here so the planner and executor
can find them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.errors import CatalogError
from ..core.generalization import GeneralizationScheme
from ..core.lcp import AttributeLCP
from ..core.policy import PolicyRegistry, Purpose, TablePolicy
from ..core.schema import TableSchema
from ..index.base import Index
from .statistics import StatisticsRegistry


@dataclass
class IndexInfo:
    """Metadata of one secondary index."""

    name: str
    table: str
    column: str
    method: str
    index: Index
    #: Derived from the schema (the primary-key index) rather than declared
    #: by ``CREATE INDEX``: the engine re-creates it whenever the table is
    #: attached, so it is left out of the persisted catalog document.
    implicit: bool = False


@dataclass
class TableInfo:
    """Metadata of one table."""

    schema: TableSchema
    policy: Optional[TablePolicy] = None
    indexes: Dict[str, IndexInfo] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.schema.name

    def indexes_on(self, column: str) -> List[IndexInfo]:
        column = column.lower()
        return [info for info in self.indexes.values() if info.column == column]


class Catalog:
    """Name → metadata registry shared by the DDL layer, planner and executor."""

    def __init__(self, registry: Optional[PolicyRegistry] = None) -> None:
        self.registry = registry or PolicyRegistry()
        self._tables: Dict[str, TableInfo] = {}
        self._purposes: Dict[str, Purpose] = {}
        #: Bumped on every metadata change; cached query plans are only valid
        #: for the version they were built against.
        self.version = 0
        #: Per-table statistics the planner costs access paths with; a table
        #: has its entry from :meth:`add_table` to :meth:`drop_table`.
        self.statistics = StatisticsRegistry()

    # -- tables ----------------------------------------------------------------

    def add_table(self, schema: TableSchema, policy: Optional[TablePolicy] = None) -> TableInfo:
        name = schema.name
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        info = TableInfo(schema=schema, policy=policy)
        self._tables[name] = info
        self.statistics.register(schema)
        self.version += 1
        return info

    def drop_table(self, name: str) -> TableInfo:
        try:
            info = self._tables.pop(name.lower())
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None
        self.statistics.drop(name)
        self.version += 1
        return info

    def table(self, name: str) -> TableInfo:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> List[TableInfo]:
        return list(self._tables.values())

    # -- indexes ---------------------------------------------------------------

    def add_index(self, info: IndexInfo) -> None:
        table = self.table(info.table)
        if info.name in table.indexes:
            raise CatalogError(f"index {info.name!r} already exists on {info.table!r}")
        table.schema.column(info.column)   # validates the column exists
        table.indexes[info.name] = info
        self.version += 1

    def index(self, table: str, name: str) -> IndexInfo:
        info = self.table(table).indexes.get(name)
        if info is None:
            raise CatalogError(f"unknown index {name!r} on table {table!r}")
        return info

    # -- purposes ----------------------------------------------------------------

    def add_purpose(self, purpose: Purpose, replace: bool = True) -> Purpose:
        key = purpose.name.lower()
        if not replace and key in self._purposes:
            raise CatalogError(f"purpose {purpose.name!r} already declared")
        self._purposes[key] = purpose
        self.version += 1
        return purpose

    def purpose(self, name: str) -> Purpose:
        try:
            return self._purposes[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown purpose {name!r}") from None

    def has_purpose(self, name: str) -> bool:
        return name.lower() in self._purposes

    def purposes(self) -> List[Purpose]:
        return list(self._purposes.values())

    # -- degradation helpers --------------------------------------------------------

    def scheme_for(self, table: str, column: str) -> GeneralizationScheme:
        info = self.table(table)
        column_def = info.schema.column(column)
        if not column_def.degradable or column_def.domain is None:
            raise CatalogError(
                f"column {table}.{column} is not degradable"
            )
        return self.registry.domain(column_def.domain)

    def policy_for(self, table: str, column: str) -> AttributeLCP:
        info = self.table(table)
        if info.policy is None:
            raise CatalogError(f"table {table!r} has no degradation policy")
        return info.policy.policy_for(column)

    def demanded_level(self, purpose: Optional[Purpose], table: str,
                       column: str) -> Optional[int]:
        """Accuracy level demanded by ``purpose`` for a degradable column.

        * With no purpose at all, every degradable column is demanded at the
          most accurate level (0) — the paper's conservative default, under
          which degraded tuples simply vanish from plain queries.
        * With a purpose that does not mention the column, ``None`` is
          returned: the column is unconstrained and observed at whatever
          accuracy the life cycle policy left behind.
        """
        scheme = self.scheme_for(table, column)
        if purpose is None:
            return 0
        return purpose.accuracy_for(table, column, scheme)


__all__ = ["Catalog", "TableInfo", "IndexInfo"]
