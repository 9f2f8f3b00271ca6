"""Prepared statements and the engine's statement cache.

Parsing is the dominant per-statement cost of the SQL front-end, so the
engine keeps an LRU cache of parsed statements keyed on the exact SQL text.
A :class:`PreparedStatement` is immutable once parsed: binding parameters
(:meth:`PreparedStatement.bind`) rebuilds the AST with literals substituted
and never mutates the cached tree.  An INSERT resolves where each parameter
goes in its VALUES rows once and then binds each parameter sequence straight
to value rows (:meth:`PreparedStatement.insert_rows`), which is how an
``executemany`` of N sequences becomes one insert of N rows.

A ``SELECT`` — and the row match of an ``UPDATE`` or ``DELETE``, which is the
query ``SELECT * FROM t WHERE …`` — additionally caches its *physical* plan
as a **template**, per (purpose, catalog version, statistics epoch,
parameter shape): the statement is planned once with its placeholders still
in place (:class:`~repro.query.planner.ParamMarker` slots in the access
paths), and every execution binds its values into a copy via
:func:`~repro.query.planner.bind_physical_plan` instead of rebuilding the
AST and re-planning.  A parameter-free statement is the shape ``()`` and
its template is executed as it is.  A catalog change (new table, index or
purpose) bumps the catalog version, and a large-enough statistics shift
(e.g. a degradation wave collapsing NDV) bumps the registry's statistics
epoch — either retires every cached template, so a plan can never outlive
the economics it was costed under.  The cache holds templates only: no
parameter value outlives its execution.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Tuple

from . import ast_nodes as ast
from .parameters import (
    InsertSlots,
    bind_insert,
    bind_parameters,
    checked_parameters,
    count_placeholders,
    insert_slots,
    placeholder_indexes,
)
from .parser import parse
from .planner import PhysicalPlan

#: Max distinct (purpose, shape) template plans kept per prepared statement.
PLAN_CACHE_SIZE = 8

#: (purpose name, catalog version, statistics epoch, parameter shape).
PlanKey = Tuple[Optional[str], int, int, Tuple[str, ...]]


def query_of(statement: ast.Statement) -> Optional[ast.Select]:
    """The query the planner sees in ``statement``: a SELECT itself, the row
    match ``SELECT * FROM t WHERE …`` of an UPDATE or DELETE (predicates are
    evaluated on the degraded view, like any query's), else ``None``."""
    if isinstance(statement, ast.Select):
        return statement
    if isinstance(statement, (ast.Update, ast.Delete)):
        return ast.Select(table=statement.table, items=(ast.Star(),),
                          where=statement.where)
    return None


@dataclass
class PreparedStatement:
    """One parsed statement plus its binding/plan-reuse metadata."""

    sql: str
    statement: ast.Statement
    param_count: int
    executions: int = 0
    _plans: "OrderedDict[PlanKey, PhysicalPlan]" = \
        field(default_factory=OrderedDict)
    _insert_slots: Optional[InsertSlots] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        #: What :func:`query_of` makes of the statement, placeholders in place.
        self.query = query_of(self.statement)
        #: Positions of the parameters a template plan reads, or ``None``
        #: when the statement cannot be templated.  Only placeholders in the
        #: WHERE clause can: the projection, joins, grouping and ordering
        #: are then parameter-independent, so their compiled closures are
        #: shared across executions and only the access-path values and the
        #: residual predicate need per-execution binding.  (An UPDATE's
        #: ``SET c = ?`` is not part of its match and is read by position.)
        self._plan_slots: Optional[Tuple[int, ...]] = None
        if self.query is not None:
            in_where = placeholder_indexes(self.query.where)
            if len(in_where) == count_placeholders(self.query):
                self._plan_slots = in_where

    def checked(self, params: Optional[Sequence[Any]]) -> Tuple[Any, ...]:
        """``params`` as a tuple, count- and type-checked for this statement."""
        return checked_parameters(() if params is None else params,
                                  self.param_count)

    def bind(self, params: Optional[Sequence[Any]] = None) -> ast.Statement:
        """Return an executable statement with ``params`` substituted (for an
        INSERT: its :meth:`insert_rows` in the statement's shape)."""
        if params is None:
            params = ()
        if self.param_count == 0 and not params:
            return self.statement
        if isinstance(self.statement, ast.Insert):
            return ast.Insert(table=self.statement.table,
                              columns=self.statement.columns,
                              rows=self.insert_rows(params))
        return bind_parameters(self.statement, params, expected=self.param_count)

    def insert_rows(self, params: Optional[Sequence[Any]]) -> Tuple[Tuple[Any, ...], ...]:
        """An INSERT's VALUES rows with ``params`` filled in — straight to
        value tuples, no tree rebuilt.  The slots are resolved once per
        prepared statement, so a batch of N parameter sequences fills N × rows
        without walking the tree."""
        if self._insert_slots is None:
            self._insert_slots = insert_slots(self.statement)
        return bind_insert(self._insert_slots, () if params is None else params,
                           self.param_count)

    # -- plan reuse ----------------------------------------------------------

    def plan_shape(self, params: Sequence[Any]) -> Optional[Tuple[str, ...]]:
        """Parameter-shape part of the plan-cache key: the type names of the
        values the template reads, or ``None`` when this execution cannot be
        served from a template.

        A ``None`` value makes the execution ineligible: a NULL predicate is
        always false, while an index probed with ``None`` need not agree —
        it falls back to bind-then-plan.
        """
        if self._plan_slots is None:
            return None
        shape = []
        for index in self._plan_slots:
            if params[index] is None:
                return None
            shape.append(type(params[index]).__name__)
        return tuple(shape)

    def plan(self, key: PlanKey, build: Callable[[], PhysicalPlan]
             ) -> Tuple[PhysicalPlan, bool]:
        """The template cached under ``key`` and whether it was a hit; on a
        miss it is built, entries of another catalog version or statistics
        epoch — which can never be served again — are dropped, and the
        least recently used ones beyond :data:`PLAN_CACHE_SIZE`."""
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            return plan, True
        for stale in [other for other in self._plans
                      if other[1:3] != key[1:3]]:
            del self._plans[stale]
        plan = self._plans[key] = build()
        while len(self._plans) > PLAN_CACHE_SIZE:
            self._plans.popitem(last=False)
        return plan, False


@dataclass
class StatementCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    #: Plans whose predicate/projection closures were compiled for this
    #: execution vs. served already-compiled from the plan cache — the proof
    #: that prepared-statement re-execution does zero compilation.
    predicate_compiles: int = 0
    predicate_compile_hits: int = 0


class StatementCache:
    """LRU cache of :class:`PreparedStatement` objects keyed on SQL text."""

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, PreparedStatement]" = OrderedDict()
        self.stats = StatementCacheStats()

    def get_or_parse(self, sql: str) -> PreparedStatement:
        prepared = self._entries.get(sql)
        if prepared is not None:
            self._entries.move_to_end(sql)
            self.stats.hits += 1
            return prepared
        statement = parse(sql)
        prepared = PreparedStatement(
            sql=sql, statement=statement,
            param_count=count_placeholders(statement),
        )
        self._entries[sql] = prepared
        self.stats.misses += 1
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return prepared

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sql: str) -> bool:
        return sql in self._entries


__all__ = ["PreparedStatement", "StatementCache", "StatementCacheStats",
           "PLAN_CACHE_SIZE", "query_of"]
