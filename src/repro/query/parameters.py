"""Qmark parameter binding (PEP 249 ``paramstyle = "qmark"``).

The parser materializes every ``?`` in a statement as an
:class:`~repro.query.ast_nodes.Placeholder` carrying its 0-based position.
:func:`bind_parameters` substitutes a parameter sequence into a parsed
statement, producing a new (fully literal) statement tree; the original tree
is never mutated, so one cached parse can be bound arbitrarily many times —
the substrate of prepared statements and ``executemany``.

Binding is purely structural: parameter values are injected as *values* into
the AST, never re-tokenized, so no value can alter the shape of the statement
(the classic SQL-injection vector).
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Any, Callable, List, NamedTuple, Sequence, Tuple

from ..core.errors import ExecutionError, ParameterError, SchemaError
from ..core.schema import TableSchema
from ..core.values import SUPPORTED_PARAMETER_TYPES, check_parameter
from . import ast_nodes as ast


def placeholder_indexes(node: Any) -> Tuple[int, ...]:
    """Positions of the ``?`` placeholders under ``node``, in tree order."""
    if isinstance(node, ast.Placeholder):
        return (node.index,)
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        node = [getattr(node, field.name) for field in dataclasses.fields(node)]
    if isinstance(node, (tuple, list)):
        return tuple(index for element in node
                     for index in placeholder_indexes(element))
    return ()


def count_placeholders(statement: ast.Statement) -> int:
    """Number of ``?`` placeholders in a parsed statement."""
    return len(placeholder_indexes(statement))


def bind_parameters(statement: ast.Statement, params: Sequence[Any],
                    expected: int = None) -> ast.Statement:
    """Return ``statement`` with every placeholder replaced by its parameter.

    ``expected`` lets a prepared statement pass its precomputed placeholder
    count so repeated bindings (``executemany``) skip one tree walk.

    Raises :class:`~repro.core.errors.ParameterError` when the parameter count
    does not match the placeholder count or a value has an unsupported type.
    """
    if expected is None:
        expected = count_placeholders(statement)
    bound = checked_parameters(params, expected)
    if expected == 0:
        return statement
    result = _bind_node(statement, bound)
    assert isinstance(result, ast.Statement)
    return result


def checked_parameters(params: Sequence[Any], expected: int) -> Tuple[Any, ...]:
    """``params`` as a tuple, after the count and type checks every binding
    path shares (a template plan reads its values by position from it)."""
    if isinstance(params, (str, bytes)):
        raise ParameterError(
            "parameters must be a sequence of values, not a bare string"
        )
    bound: Tuple[Any, ...] = tuple(params)
    if expected != len(bound):
        raise ParameterError(
            f"statement takes {expected} parameter(s) but {len(bound)} were given"
        )
    for value in bound:
        check_parameter(value)
    return bound


class InsertSources(NamedTuple):
    """Where an INSERT's records take their values from a parameter sequence
    of ``width`` values: per VALUES row, per column of the table, the
    parameter's index, -1 for a column it leaves out (NULL) or ``-2 - k`` for
    ``literals[k]``; ``sized`` is the count check (:func:`checked_parameters`)."""

    records: Tuple[Tuple[int, ...], ...]
    literals: Tuple[Any, ...]
    width: int
    sized: Callable[[Any], Tuple[Any, ...]]


def insert_sources(statement: ast.Insert, schema: TableSchema, expected: int) -> InsertSources:
    """Where each of ``schema``'s columns takes its value in the VALUES rows
    of ``statement``: INSERT values are plain literals or placeholders (never
    expressions), so a prepared statement resolves them once and each
    parameter sequence is encoded straight into records."""
    literals: List[Any] = []

    def source(value: Any) -> int:
        if isinstance(value, ast.Placeholder):
            return value.index
        literals.append(value)
        return -1 - len(literals)

    names = statement.columns
    for row in statement.rows:
        if names is not None and len(row) != len(names):
            raise ExecutionError(f"INSERT specifies {len(names)} columns but {len(row)} values")
        if names is None and len(row) != len(schema.columns):
            raise SchemaError(f"table {schema.name!r}: expected {len(schema.columns)} values, "
                              f"got {len(row)}")
    records = [tuple(map(source, row)) for row in statement.rows]
    if names is not None:       # by name: a column the list leaves out is NULL
        records = [tuple(-1 if at is None else at
                         for at in schema.values_of(dict(zip(names, record))))
                   for record in records]
    return InsertSources(tuple(records), tuple(literals), expected,
                         partial(checked_parameters, expected=expected))


def _bind_node(node: Any, params: Tuple[Any, ...]) -> Any:
    """Rebuild a dataclass node with placeholders substituted.

    A placeholder in *expression position* (a dataclass field) becomes a
    :class:`~repro.query.ast_nodes.Literal`; a placeholder in *value position*
    (inside the plain tuples of INSERT rows, IN lists and UPDATE assignments)
    becomes the raw Python value.
    """
    if isinstance(node, ast.Placeholder):
        return ast.Literal(params[node.index])
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        changes = {}
        for field in dataclasses.fields(node):
            old = getattr(node, field.name)
            new = _bind_node(old, params)
            if new is not old:
                changes[field.name] = new
        return dataclasses.replace(node, **changes) if changes else node
    if isinstance(node, tuple):
        rebuilt = tuple(_bind_value(element, params) for element in node)
        return rebuilt if any(new is not old for new, old in zip(rebuilt, node)) \
            else node
    return node


def _bind_value(element: Any, params: Tuple[Any, ...]) -> Any:
    if isinstance(element, ast.Placeholder):
        return params[element.index]
    return _bind_node(element, params)


def bind_expression(expression: ast.Expression,
                    params: Sequence[Any]) -> ast.Expression:
    """Substitute placeholders inside a single expression subtree.

    Used by plan caching: a cached template plan keeps placeholders in its
    residual predicate, and each execution binds just that expression instead
    of re-binding (and re-planning) the whole statement.
    """
    return _bind_node(expression, tuple(params))


__all__ = ["bind_parameters", "bind_expression", "insert_sources", "InsertSources",
           "count_placeholders", "placeholder_indexes", "check_parameter",
           "checked_parameters", "SUPPORTED_PARAMETER_TYPES"]
