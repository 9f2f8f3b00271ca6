"""Prepared statements and the engine's statement cache.

Parsing is the dominant per-statement cost of the SQL front-end, so the
engine keeps an LRU cache of parsed statements keyed on the exact SQL text.
A :class:`PreparedStatement` is immutable once parsed: binding parameters
(:meth:`PreparedStatement.bind`) rebuilds the AST with literals substituted
and never mutates the cached tree, so one prepared statement can safely be
bound N times inside ``executemany`` (an INSERT resolves where each parameter
goes in its VALUES rows once and only fills those slots per binding).

Parameter-free ``SELECT`` statements additionally cache their *physical*
plan per (purpose, catalog version, statistics epoch): repeated identical
queries — the common shape of the OLTP benchmark mixes — skip accuracy
binding, access-path selection and the residual-predicate split entirely;
only the (cheap) operator-tree instantiation happens per execution.  A
catalog change (new table, index or purpose) bumps the catalog version, and
a large-enough statistics shift (e.g. a degradation wave collapsing NDV)
bumps the registry's statistics epoch — either implicitly invalidates every
cached plan, so a plan can never outlive the economics it was costed under.

Parameterized ``SELECT`` statements whose placeholders all sit in the WHERE
clause cache a *template* plan per parameter shape (the tuple of bound value
types): the template is planned once with
:class:`~repro.query.planner.ParamMarker` slots in its access paths, and
every execution binds values into a copy via
:func:`~repro.query.planner.bind_physical_plan` instead of re-planning.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.policy import Purpose
from . import ast_nodes as ast
from .parameters import (
    InsertSlots,
    bind_insert,
    bind_parameters,
    count_placeholders,
    insert_slots,
)
from .parser import parse
from .planner import PhysicalPlan

#: Max distinct (purpose, shape) template plans kept per prepared statement.
PARAM_PLAN_CACHE_SIZE = 8


@dataclass
class PreparedStatement:
    """One parsed statement plus its binding/plan-reuse metadata."""

    sql: str
    statement: ast.Statement
    param_count: int
    executions: int = 0
    #: (purpose name, catalog version, stats epoch) -> physical plan; only
    #: used when param_count == 0.
    _plans: Dict[Tuple[Optional[str], int, int], PhysicalPlan] = \
        field(default_factory=dict)
    #: (purpose name, catalog version, stats epoch, param shape) -> template
    #: plan with ParamMarker slots; only used when param_count > 0.
    _param_plans: "OrderedDict[Tuple[Optional[str], int, int, Tuple[str, ...]], PhysicalPlan]" = \
        field(default_factory=OrderedDict)
    _where_confined: Optional[bool] = field(default=None, repr=False)
    _insert_slots: Optional[InsertSlots] = field(default=None, repr=False)

    def bind(self, params: Optional[Sequence[Any]] = None) -> ast.Statement:
        """Return an executable statement with ``params`` substituted."""
        if params is None:
            params = ()
        if self.param_count == 0 and not params:
            return self.statement
        if isinstance(self.statement, ast.Insert):
            # The slots are resolved once per prepared statement, so an
            # ``executemany`` fills N rows without walking the tree N times.
            if self._insert_slots is None:
                self._insert_slots = insert_slots(self.statement)
            return bind_insert(self.statement, self._insert_slots, params,
                               self.param_count)
        return bind_parameters(self.statement, params, expected=self.param_count)

    # -- plan reuse ----------------------------------------------------------

    def cached_plan(self, purpose: Optional[Purpose], catalog_version: int,
                    stats_epoch: int = 0) -> Optional[PhysicalPlan]:
        if self.param_count != 0:
            return None
        return self._plans.get((_purpose_key(purpose), catalog_version,
                                stats_epoch))

    def store_plan(self, purpose: Optional[Purpose], catalog_version: int,
                   plan: PhysicalPlan, stats_epoch: int = 0) -> None:
        if self.param_count != 0:
            return
        # Plans from stale catalog versions or statistics epochs can never
        # be reused again.
        for key in [key for key in self._plans
                    if key[1] != catalog_version or key[2] != stats_epoch]:
            del self._plans[key]
        self._plans[(_purpose_key(purpose), catalog_version, stats_epoch)] = plan

    # -- parameter-shape template plans ---------------------------------------

    @property
    def placeholders_confined_to_where(self) -> bool:
        """All placeholders sit in the WHERE clause of a SELECT.

        Only then is template planning safe: the projection, joins, grouping
        and ordering are parameter-independent, so the compiled closures can
        be shared across executions and only the access-path values and the
        residual predicate need per-execution binding.
        """
        if self._where_confined is None:
            statement = self.statement
            self._where_confined = (
                isinstance(statement, ast.Select)
                and statement.where is not None
                and count_placeholders(statement.where) == self.param_count
            )
        return self._where_confined

    def cached_param_plan(self, purpose: Optional[Purpose],
                          catalog_version: int, stats_epoch: int,
                          shape: Tuple[str, ...]) -> Optional[PhysicalPlan]:
        key = (_purpose_key(purpose), catalog_version, stats_epoch, shape)
        plan = self._param_plans.get(key)
        if plan is not None:
            self._param_plans.move_to_end(key)
        return plan

    def store_param_plan(self, purpose: Optional[Purpose],
                         catalog_version: int, stats_epoch: int,
                         shape: Tuple[str, ...], plan: PhysicalPlan) -> None:
        for key in [key for key in self._param_plans
                    if key[1] != catalog_version or key[2] != stats_epoch]:
            del self._param_plans[key]
        self._param_plans[(_purpose_key(purpose), catalog_version,
                           stats_epoch, shape)] = plan
        while len(self._param_plans) > PARAM_PLAN_CACHE_SIZE:
            self._param_plans.popitem(last=False)


def _purpose_key(purpose: Optional[Purpose]) -> Optional[str]:
    return None if purpose is None else purpose.name.lower()


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
           "PARAM_PLAN_CACHE_SIZE"]
