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
from typing import Any, Sequence, Tuple

from ..core.errors import ParameterError
from . import ast_nodes as ast

#: Python types accepted as statement parameters.
SUPPORTED_PARAMETER_TYPES = (type(None), bool, int, float, str)


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


def check_parameter(value: Any) -> Any:
    """Validate one parameter value; returns it unchanged."""
    if not isinstance(value, SUPPORTED_PARAMETER_TYPES):
        raise ParameterError(
            f"unsupported parameter type {type(value).__name__!r}; "
            "parameters must be None, bool, int, float or str"
        )
    return value


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


#: One VALUES row of an INSERT, resolved: ``(parameter index, literal)`` per
#: value, the index being -1 where the row holds a literal.
InsertSlots = Tuple[Tuple[Tuple[int, Any], ...], ...]


def insert_slots(statement: ast.Insert) -> InsertSlots:
    """Where each parameter goes in the VALUES rows of ``statement``.

    INSERT values are plain literals or placeholders (never expressions), so
    binding needs no tree walk: a prepared statement resolves the slots once
    and :func:`bind_insert` fills them per parameter sequence.
    """
    return tuple(
        tuple((value.index, None) if isinstance(value, ast.Placeholder)
              else (-1, value) for value in row)
        for row in statement.rows)


def bind_insert(slots: InsertSlots, params: Sequence[Any],
                expected: int) -> Tuple[Tuple[Any, ...], ...]:
    """The VALUES rows :func:`bind_parameters` would put in an INSERT whose
    slots are already resolved — checked the same way."""
    bound = checked_parameters(params, expected)
    return tuple(tuple([bound[index] if index >= 0 else literal
                        for index, literal in row]) for row in slots)


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


__all__ = ["bind_parameters", "bind_expression", "bind_insert", "insert_slots",
           "count_placeholders", "placeholder_indexes", "check_parameter",
           "checked_parameters", "SUPPORTED_PARAMETER_TYPES"]
