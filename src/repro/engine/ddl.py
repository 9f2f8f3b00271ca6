"""DDL handling: translating parsed definitions into schemas, policies, indexes."""

from __future__ import annotations

from typing import Optional

from ..core.errors import CatalogError, SchemaError
from ..core.generalization import GeneralizationScheme
from ..core.policy import PolicyRegistry, TablePolicy
from ..core.schema import Column, TableSchema
from ..index.base import Index
from ..index.bitmap import BitmapIndex
from ..index.btree import BPlusTreeIndex
from ..index.gt_index import GTIndex
from ..index.hashindex import HashIndex
from ..query import ast_nodes as ast

#: Index methods accepted by ``CREATE INDEX ... USING <method>``.
INDEX_METHODS = ("btree", "hash", "bitmap", "gt")


def build_schema(statement: ast.CreateTable, registry: PolicyRegistry) -> TableSchema:
    """Build a :class:`TableSchema` from a parsed ``CREATE TABLE``."""
    columns = []
    for definition in statement.columns:
        domain = definition.domain
        if definition.degradable:
            if domain is None:
                # Default: a domain named after the column.
                domain = definition.name
            if not registry.has_domain(domain):
                raise CatalogError(
                    f"column {definition.name!r}: unknown generalization domain {domain!r} "
                    "(register it before creating the table)"
                )
        columns.append(Column(
            name=definition.name,
            value_type=definition.type_name,
            degradable=definition.degradable,
            domain=domain,
            policy=definition.policy,
            nullable=not definition.not_null and not definition.primary_key,
            primary_key=definition.primary_key,
        ))
    return TableSchema(statement.table, columns)


def build_table_policy(schema: TableSchema, registry: PolicyRegistry,
                       remove_on_final: bool = True) -> Optional[TablePolicy]:
    """Build the :class:`TablePolicy` of a schema from registered LCPs.

    Every degradable column must name a registered policy (or have one
    registered under ``<domain>_lcp``).
    """
    degradable = schema.degradable_columns()
    if not degradable:
        return None
    table_policy = TablePolicy(table=schema.name, remove_on_final=remove_on_final)
    for column in degradable:
        policy_name = column.policy or f"{column.domain}_lcp"
        if not registry.has_policy(policy_name):
            raise CatalogError(
                f"column {schema.name}.{column.name}: unknown life cycle policy "
                f"{policy_name!r} (register it before creating the table)"
            )
        policy = registry.policy(policy_name)
        scheme = registry.domain(column.domain)
        if policy.scheme is not scheme and policy.scheme.name != scheme.name:
            raise SchemaError(
                f"column {schema.name}.{column.name}: policy {policy_name!r} is defined "
                f"over domain {policy.scheme.name!r}, not {column.domain!r}"
            )
        table_policy.add_column(column.name, policy)
    return table_policy


def build_index(statement: ast.CreateIndex, schema: TableSchema,
                registry: PolicyRegistry) -> Index:
    """Instantiate the index structure requested by ``CREATE INDEX``."""
    method = statement.method.lower()
    if method not in INDEX_METHODS:
        raise CatalogError(
            f"unknown index method {statement.method!r}; expected one of {INDEX_METHODS}"
        )
    column = schema.column(statement.column)
    if method == "gt":
        if not column.degradable or column.domain is None:
            raise CatalogError(
                f"GT indexes require a degradable column; {schema.name}.{column.name} "
                "is stable"
            )
        scheme: GeneralizationScheme = registry.domain(column.domain)
        return GTIndex(statement.name, scheme)
    if method == "hash":
        return HashIndex(statement.name)
    if method == "bitmap":
        return BitmapIndex(statement.name)
    return BPlusTreeIndex(statement.name)


__all__ = ["build_schema", "build_table_policy", "build_index", "INDEX_METHODS"]
