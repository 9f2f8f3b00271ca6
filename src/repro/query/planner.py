"""Logical and physical planning: accuracy binding, access paths, residuals.

Planning a ``SELECT`` involves two degradation-specific steps on top of the
usual access-path choice:

* **accuracy binding** — for every degradable column of every table involved,
  determine the accuracy level demanded by the query's purpose (level 0, the
  most accurate, when the purpose does not mention the column);
* **access-path selection** — equality predicates on stable columns can use
  hash/B+-tree/bitmap indexes as usual; equality predicates on *degradable*
  columns can use the degradation-aware :class:`~repro.index.gt_index.GTIndex`
  probed at the demanded accuracy level.

The physical step (:meth:`Planner.plan_physical`) additionally:

* splits the WHERE clause into the conjuncts the chosen access path already
  guarantees and the **residual** predicate the executor still has to
  evaluate per row;
* **costs** the candidate access paths against a sequential scan when the
  catalog carries table statistics (:mod:`repro.query.statistics`) — an
  indexed-but-unselective predicate is planned as a sequential scan instead
  of a probe that fetches most of the heap anyway;
* computes the set of columns the query actually touches (projection +
  residual + join keys + ORDER BY/GROUP BY/HAVING) and threads it into each
  :class:`TableScanPlan`, so the store decodes only those columns;
* marks a scan **index-only** when the chosen GT/B+-tree index entries cover
  every needed column at the query's accuracy level — the executor then
  skips the heap fetch entirely;
* estimates per-scan output rows and the residual's selectivity (rendered by
  EXPLAIN, used to pick the hash-join build side).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.policy import Purpose
from . import ast_nodes as ast
from .catalog import Catalog, IndexInfo
from .compiler import (
    CompiledSelect,
    _truthy,
    compile_predicate,
    compile_select,
    evaluate,
)
from .parameters import bind_expression
from .statistics import DEFAULT_SELECTIVITY

#: Cost-model constants (arbitrary units; only ratios matter).  A row fetched
#: through an index probe pays a random heap lookup, a sequentially scanned
#: row a cheaper streaming read.
SEQ_ROW_COST = 1.0
INDEX_FETCH_COST = 2.0
INDEX_PROBE_COST = 4.0

#: Below this row count the stats-free preference order is kept: probing an
#: index on a tiny table costs nothing either way, and estimates on nearly
#: empty tables are noise.
SMALL_TABLE_ROWS = 64


@dataclass(frozen=True)
class ParamMarker:
    """A plan slot fed by a ``?`` parameter (position in the bind sequence).

    Parameter-shape-keyed plan caching plans the *template* statement — with
    placeholders still in the WHERE clause — once per parameter shape; markers
    record where the bound values flow into the access path, so re-execution
    substitutes values instead of re-planning.
    """

    index: int

    def __repr__(self) -> str:
        return f"?{self.index}"


def _subst_param(value: Any, params: Sequence[Any]) -> Any:
    return params[value.index] if isinstance(value, ParamMarker) else value


def _has_marker(*values: Any) -> bool:
    return any(isinstance(value, ParamMarker) for value in values)


@dataclass
class AccessPath:
    """How the executor obtains candidate rows of one table."""

    kind: str                       # "seq", "index_eq", "index_range", "gt_level"
    column: Optional[str] = None
    index: Optional[IndexInfo] = None
    key: Any = None
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True
    level: int = 0

    def describe(self) -> str:
        if self.kind == "seq":
            return "SeqScan"
        if self.kind == "index_eq":
            return f"IndexScan({self.index.name} {self.column}={self.key!r})"
        if self.kind == "index_range":
            return (f"IndexRangeScan({self.index.name} {self.column} in "
                    f"[{self.low!r}, {self.high!r}])")
        if self.kind == "gt_level":
            return (f"GTIndexScan({self.index.name} {self.column}={self.key!r} "
                    f"@level {self.level})")
        return self.kind


@dataclass
class TableScanPlan:
    """Plan fragment producing the visible rows of one table."""

    table: str
    alias: str
    access: AccessPath
    demanded_levels: Dict[str, int] = field(default_factory=dict)
    #: Columns the query touches on this table (``None`` = all, e.g. for
    #: ``SELECT *``); the store decodes only these.
    needed_columns: Optional[Tuple[str, ...]] = None
    #: Emit alias/table-qualified key names in visible rows.  Only needed
    #: when the query actually writes qualified references (or joins, where
    #: plain names can collide across tables); plain-only rows halve the
    #: per-row dict work.
    qualified_keys: bool = True
    #: The chosen index covers every needed column: skip the heap fetch.
    index_only: bool = False
    #: Estimated rows this scan produces (``None`` without statistics).
    estimated_rows: Optional[float] = None
    #: For join-side scans of an inner join: build the hash table on the
    #: *left* (streamed) input because it is estimated smaller.
    build_left: bool = False
    #: For join-side scans: estimated rows out of the join that consumes
    #: this scan (the planner's running chain, rendered by EXPLAIN).
    join_estimated_rows: Optional[float] = None

    def describe(self) -> str:
        levels = ", ".join(f"{col}@{lvl}" for col, lvl in sorted(self.demanded_levels.items()))
        accuracy = f" accuracy[{levels}]" if levels else ""
        access = self.access.describe()
        if self.index_only:
            _name, _sep, detail = access.partition("(")
            access = f"IndexOnlyScan({detail}" if detail else "IndexOnlyScan"
        return f"{access} on {self.table} as {self.alias}{accuracy}"


@dataclass
class PhysicalPlan:
    """Physical plan of a SELECT: scans plus the residual predicate.

    ``residual`` is what remains of the WHERE clause after removing the
    conjuncts the base access path already guarantees (``None`` when nothing
    is left).  With joins the full WHERE clause stays residual — it is
    evaluated after the joins, where unqualified column references may bind to
    join-side columns.  This object is immutable per (statement, purpose,
    catalog version, statistics epoch) and is what prepared statements cache,
    as a template whose :class:`ParamMarker` slots each execution binds into
    a copy; per-execution state lives in the operator tree built from it.

    The plan additionally memoizes its **compiled artifacts** (residual
    predicate, projection and join-key closures, see
    :mod:`repro.query.compiler`): the first execution compiles, every
    re-execution of a cached plan reuses the closures — the same
    encode-once/reuse pattern as the WAL's record-payload cache.
    """

    statement: ast.Select
    base: TableScanPlan
    joins: List[Tuple[ast.JoinClause, TableScanPlan]] = field(default_factory=list)
    purpose: Optional[Purpose] = None
    residual: Optional[ast.Expression] = None
    #: Estimated fraction of rows the residual predicate lets through.
    residual_selectivity: float = 1.0
    _compiled: Optional[CompiledSelect] = field(default=None, repr=False,
                                                compare=False)

    @property
    def is_compiled(self) -> bool:
        return self._compiled is not None

    def ensure_compiled(self, catalog: Catalog,
                        mode: str = "compiled") -> CompiledSelect:
        """Compile once, reuse on every later execution of this plan."""
        if self._compiled is None or self._compiled.mode != mode:
            self._compiled = compile_select(catalog, self, mode)
        return self._compiled

    def describe(self) -> str:
        lines = [f"Select from {self.base.describe()}"]
        for clause, scan in self.joins:
            lines.append(
                f"  {clause.kind} join {scan.describe()} on "
                f"{clause.left.qualified} = {clause.right.qualified}"
            )
        if self.purpose is not None:
            lines.append(f"  purpose: {self.purpose.name}")
        return "\n".join(lines)


class Planner:
    """Builds :class:`PhysicalPlan` objects."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # -- public entry points ----------------------------------------------------

    def plan_select(self, statement: ast.Select,
                    purpose: Optional[Purpose] = None) -> PhysicalPlan:
        """:meth:`plan_physical` under its older name (the benchmark's frozen
        wrap table resolves it; nothing in ``src/`` calls it)."""
        return self.plan_physical(statement, purpose)

    def plan_physical(self, statement: ast.Select,
                      purpose: Optional[Purpose] = None) -> PhysicalPlan:
        """Plan a SELECT down to the physical level (access path + residual)."""
        base, consumed = self._plan_table(statement.table, statement.table_alias,
                                          statement.where, purpose)
        joins: List[Tuple[ast.JoinClause, TableScanPlan]] = []
        for clause in statement.joins:
            scan, _ = self._plan_table(clause.table, clause.alias, None, purpose)
            joins.append((clause, scan))
        residual = self._residual(statement, consumed, bool(joins))
        plan = PhysicalPlan(statement=statement, base=base, joins=joins,
                            purpose=purpose, residual=residual)
        self._prune_columns(plan)
        self._estimate(plan)
        self._mark_index_only(plan)
        self._choose_build_sides(plan)
        return plan

    def _residual(self, statement: ast.Select,
                  consumed: List[ast.Expression],
                  has_joins: bool) -> Optional[ast.Expression]:
        where = statement.where
        if where is None:
            return None
        if has_joins:
            # Unqualified column names in the WHERE clause may resolve to a
            # joined table's column on the merged row; keep the full predicate
            # so post-join evaluation stays exactly as before.
            return where
        consumed_ids = {id(conjunct) for conjunct in consumed}
        remaining = [conjunct for conjunct in _flatten_and(where)
                     if id(conjunct) not in consumed_ids]
        if not remaining:
            return None
        if len(remaining) == 1:
            return remaining[0]
        return ast.BooleanOp(operator="AND", operands=tuple(remaining))

    def demanded_levels_for(self, table: str,
                            purpose: Optional[Purpose]) -> Dict[str, Optional[int]]:
        """Per degradable column accuracy levels demanded by ``purpose``.

        A ``None`` level means the column is unconstrained: it is observed at
        whatever accuracy its life cycle policy left behind (see
        :meth:`repro.query.catalog.Catalog.demanded_level`).
        """
        info = self.catalog.table(table)
        levels: Dict[str, int] = {}
        for column in info.schema.degradable_columns():
            levels[column.name] = self.catalog.demanded_level(purpose, table, column.name)
        return levels

    # -- column pruning -----------------------------------------------------------

    def _prune_columns(self, plan: PhysicalPlan) -> None:
        """Attach the per-table needed-column sets to the plan's scans."""
        if not getattr(self.catalog, "read_optimized", True):
            return
        refs: List[ast.ColumnRef] = []
        saw_star = False
        statement = plan.statement
        for item in statement.items:
            if isinstance(item, ast.Star):
                saw_star = True
            else:
                _collect_refs(item.expression, refs)
        if saw_star:
            return                      # every column of every table is needed
        if statement.where is not None:
            _collect_refs(statement.where, refs)
        if statement.having is not None:
            _collect_refs(statement.having, refs)
        for clause in statement.joins:
            refs.append(clause.left)
            refs.append(clause.right)
        for ref in statement.group_by:
            refs.append(ref)
        for item in statement.order_by:
            refs.append(item.column)
        has_joins = bool(statement.joins)
        for scan in [plan.base] + [scan for _clause, scan in plan.joins]:
            schema = self.catalog.table(scan.table).schema
            needed: Set[str] = set()
            qualified = has_joins
            for ref in refs:
                if ref.table is not None and ref.table not in (scan.table, scan.alias):
                    continue
                if schema.has_column(ref.column):
                    needed.add(ref.column.lower())
                    if ref.table is not None:
                        qualified = True
            if scan.access.column is not None:
                needed.add(scan.access.column)
            scan.needed_columns = tuple(sorted(needed))
            scan.qualified_keys = qualified

    # -- estimates -----------------------------------------------------------------

    def _table_stats(self, table: str):
        registry = getattr(self.catalog, "statistics", None)
        if registry is None:
            return None
        return registry.table(table)

    def _access_estimate(self, table: str, access: AccessPath) -> Optional[float]:
        stats = self._table_stats(table)
        if stats is None:
            return None
        if access.kind == "seq":
            return float(stats.row_count)
        if access.kind == "index_eq":
            if _has_marker(access.key):
                # Generic-plan estimate: the value is unknown at plan time,
                # assume an average-frequency probe (row_count / NDV).
                ndv = stats.ndv(access.column)
                return max(1.0, stats.row_count / ndv) if ndv \
                    else max(1.0, stats.row_count * DEFAULT_SELECTIVITY)
            return stats.estimated_eq_rows(access.column, access.key)
        if access.kind == "index_range":
            if _has_marker(access.low, access.high):
                return max(1.0, stats.row_count * DEFAULT_SELECTIVITY)
            return stats.estimated_range_rows(
                access.column, access.low, access.high,
                access.include_low, access.include_high)
        if access.kind == "gt_level":
            # The probe also folds in finer-stored rows that generalize to
            # the key, which the frequency map cannot see; the exact count is
            # a lower bound.
            if _has_marker(access.key):
                ndv = stats.ndv(access.column)
                return max(1.0, stats.row_count / ndv) if ndv \
                    else max(1.0, stats.row_count * DEFAULT_SELECTIVITY)
            return max(1.0, stats.estimated_eq_rows(access.column, access.key))
        return None

    def _estimate(self, plan: PhysicalPlan) -> None:
        for scan in [plan.base] + [scan for _clause, scan in plan.joins]:
            scan.estimated_rows = self._access_estimate(scan.table, scan.access)
        plan.residual_selectivity = self._residual_selectivity(plan)

    def _residual_selectivity(self, plan: PhysicalPlan) -> float:
        if plan.residual is None:
            return 1.0
        stats = self._table_stats(plan.base.table)
        selectivity = 1.0
        for conjunct in _flatten_and(plan.residual):
            fraction = DEFAULT_SELECTIVITY
            if stats is not None and stats.row_count:
                match = _as_column_literal(conjunct, plan.base.table,
                                           plan.base.alias)
                if match is not None:
                    column, operator, value = match
                    if _has_marker(value) or (isinstance(value, tuple)
                                              and _has_marker(*value)):
                        fraction = DEFAULT_SELECTIVITY
                    elif operator == "=":
                        fraction = stats.estimated_eq_rows(column, value) \
                            / stats.row_count
                    elif operator == "between":
                        fraction = stats.estimated_range_rows(
                            column, value[0], value[1]) / stats.row_count
                    elif operator in (">", ">="):
                        fraction = stats.estimated_range_rows(
                            column, low=value,
                            include_low=operator == ">=") / stats.row_count
                    elif operator in ("<", "<="):
                        fraction = stats.estimated_range_rows(
                            column, high=value,
                            include_high=operator == "<=") / stats.row_count
            selectivity *= min(1.0, max(0.0, fraction))
        return max(selectivity, 0.001)

    # -- index-only scans -----------------------------------------------------------

    def _mark_index_only(self, plan: PhysicalPlan) -> None:
        if not getattr(self.catalog, "read_optimized", True):
            return
        for scan in [plan.base] + [scan for _clause, scan in plan.joins]:
            scan.index_only = self._index_only_eligible(scan)

    def _index_only_eligible(self, scan: TableScanPlan) -> bool:
        """A scan can skip the heap when the index covers everything.

        Covering requires (a) every needed column to be the indexed column
        itself (GT and B+-tree entries carry their key, so the visible value
        is reconstructible without the heap), and (b) no *other* degradable
        column to demand an accuracy level: visibility exclusion (a stored
        level coarser than demanded hides the row) is decided by per-row
        levels that live in the heap record — except for the GT index's own
        column, whose bucket structure enforces exactly that rule.
        """
        access = scan.access
        if access.kind == "gt_level":
            pass
        elif access.kind in ("index_eq", "index_range"):
            if access.index is None or access.index.method != "btree":
                return False
        else:
            return False
        if scan.needed_columns is None:
            return False
        if not set(scan.needed_columns) <= {access.column}:
            return False
        for column, level in scan.demanded_levels.items():
            if level is None:
                continue
            if access.kind == "gt_level" and column == access.column:
                continue
            return False
        return True

    # -- join build side -------------------------------------------------------------

    def _choose_build_sides(self, plan: PhysicalPlan) -> None:
        """Build each inner hash join on its estimated-smaller input, and
        record the running join-output estimate on each join scan (EXPLAIN
        and the filter estimate downstream read it — one model, computed
        once at plan time)."""
        if not getattr(self.catalog, "read_optimized", True):
            return
        running = plan.base.estimated_rows
        for clause, scan in plan.joins:
            if clause.kind == "inner" and running is not None \
                    and scan.estimated_rows is not None \
                    and running < scan.estimated_rows:
                scan.build_left = True
            running = _join_estimate(running, scan, self._table_stats(scan.table),
                                     clause)
            scan.join_estimated_rows = running

    # -- internals -----------------------------------------------------------------

    def _plan_table(self, table: str, alias: Optional[str],
                    where: Optional[ast.Expression],
                    purpose: Optional[Purpose]) -> Tuple[TableScanPlan,
                                                         List[ast.Expression]]:
        """Plan one table's scan; also return the conjuncts the access path
        fully covers (they can be dropped from the residual predicate)."""
        info = self.catalog.table(table)
        demanded = self.demanded_levels_for(table, purpose)
        access, consumed = self._choose_access(info.name, alias or info.name,
                                               where, demanded)
        plan = TableScanPlan(table=info.name, alias=(alias or info.name).lower(),
                             access=access, demanded_levels=demanded)
        return plan, consumed

    def _choose_access(self, table: str, alias: str,
                       where: Optional[ast.Expression],
                       demanded: Dict[str, int]) -> Tuple[AccessPath,
                                                          List[ast.Expression]]:
        if where is None:
            return AccessPath(kind="seq"), []
        candidates = self._gather_candidates(table, alias, where, demanded)
        if not candidates:
            return AccessPath(kind="seq"), []
        stats = self._table_stats(table)
        if stats is None or stats.row_count < SMALL_TABLE_ROWS:
            # Stats-free (or tiny-table) fallback: the historical preference
            # order — first equality candidate, else first complete range.
            return candidates[0]
        # The GT index prunes whole accuracy partitions the frequency map
        # cannot model; keep it whenever applicable.
        for path, consumed in candidates:
            if path.kind == "gt_level":
                return path, consumed
        seq_cost = stats.row_count * SEQ_ROW_COST
        best: Optional[Tuple[AccessPath, List[ast.Expression]]] = None
        best_cost = seq_cost
        for path, consumed in candidates:
            estimate = self._access_estimate(table, path)
            if estimate is None:
                estimate = stats.row_count * DEFAULT_SELECTIVITY
            cost = INDEX_PROBE_COST + estimate * INDEX_FETCH_COST
            if cost < best_cost:
                best = (path, consumed)
                best_cost = cost
        if best is None:
            return AccessPath(kind="seq"), []
        return best

    def _gather_candidates(self, table: str, alias: str,
                           where: ast.Expression,
                           demanded: Dict[str, int]
                           ) -> List[Tuple[AccessPath, List[ast.Expression]]]:
        """Every usable index access path, in historical preference order."""
        info = self.catalog.table(table)
        conjuncts = _flatten_and(where)
        candidates: List[Tuple[AccessPath, List[ast.Expression]]] = []
        # Equality on an indexed column.  An equality probe returns exactly
        # the rows whose (visible) value matches the key, so the conjunct is
        # covered — except for a NULL key, where predicate semantics (always
        # false) and index semantics may differ.
        for conjunct in conjuncts:
            match = _as_column_literal(conjunct, table, alias)
            if match is None:
                continue
            column, operator, value = match
            if not info.schema.has_column(column):
                continue
            column_def = info.schema.column(column)
            for index_info in info.indexes_on(column):
                if column_def.degradable and index_info.method == "gt" and operator == "=":
                    level = demanded.get(column, 0)
                    if level is None:
                        # Unconstrained accuracy: the stored level varies per
                        # row, so the GT index cannot be probed at one level.
                        continue
                    path = AccessPath(kind="gt_level", column=column, index=index_info,
                                      key=value, level=level)
                    candidates.append((path, [] if value is None else [conjunct]))
                elif not column_def.degradable and operator == "=" and \
                        index_info.method in ("btree", "hash", "bitmap"):
                    path = AccessPath(kind="index_eq", column=column,
                                      index=index_info, key=value)
                    candidates.append((path, [] if value is None else [conjunct]))
        # Range on a B+-tree indexed stable column.  Only the conjunct that
        # supplied each *final* bound is covered: an earlier bound overwritten
        # by a later conjunct must stay in the residual.
        ranges: Dict[str, AccessPath] = {}
        bound_sources: Dict[str, Dict[str, ast.Expression]] = {}
        for conjunct in conjuncts:
            match = _as_column_literal(conjunct, table, alias)
            if match is None:
                continue
            column, operator, value = match
            if not info.schema.has_column(column):
                continue
            column_def = info.schema.column(column)
            if column_def.degradable:
                continue
            btree_indexes = [
                index_info for index_info in info.indexes_on(column)
                if index_info.method == "btree"
            ]
            if not btree_indexes:
                continue
            # A NULL bound cannot feed the index (the predicate is always
            # false, the index edge would be unbounded); leave the conjunct
            # to the residual filter.
            if operator == "between":
                if value[0] is None or value[1] is None:
                    continue
            elif value is None:
                continue
            path = ranges.setdefault(
                column, AccessPath(kind="index_range", column=column,
                                   index=btree_indexes[0])
            )
            sources = bound_sources.setdefault(column, {})
            if operator in (">", ">="):
                path.low = value
                path.include_low = operator == ">="
                sources["low"] = conjunct
            elif operator in ("<", "<="):
                path.high = value
                path.include_high = operator == "<="
                sources["high"] = conjunct
            elif operator == "between":
                path.low, path.high = value
                path.include_low = path.include_high = True
                sources["low"] = sources["high"] = conjunct
        for column, path in ranges.items():
            if path.low is not None or path.high is not None:
                consumed = list({id(c): c for c in bound_sources[column].values()}.values())
                candidates.append((path, consumed))
        return candidates


def _bind_scan(scan: TableScanPlan, params: Tuple[Any, ...]) -> TableScanPlan:
    """A copy of ``scan`` with parameter markers replaced by bound values."""
    access = scan.access
    if not _has_marker(access.key, access.low, access.high):
        return scan
    access = dataclasses.replace(access,
                                 key=_subst_param(access.key, params),
                                 low=_subst_param(access.low, params),
                                 high=_subst_param(access.high, params))
    return dataclasses.replace(scan, access=access)


def bind_physical_plan(template: PhysicalPlan, params: Sequence[Any],
                       catalog: Catalog,
                       mode: str = "compiled") -> PhysicalPlan:
    """Bind a parameter-shape template plan to one execution's values.

    The template was planned with :class:`ParamMarker` slots in its access
    paths and raw placeholders in its residual predicate.  Binding substitutes
    the values into the access paths, binds the residual expression, and
    recompiles *only* the residual closure — the projection and join-key
    closures (and the whole access-path choice) are shared with the template,
    which is the entire point: re-execution pays a small substitution instead
    of a full ``plan_physical``.
    """
    values = tuple(params)
    compiled = template.ensure_compiled(catalog, mode)
    base = _bind_scan(template.base, values)
    joins = [(clause, _bind_scan(scan, values))
             for clause, scan in template.joins]
    residual = template.residual
    residual_fn = compiled.residual
    if residual is not None:
        bound = bind_expression(residual, values)
        if bound is not residual:
            residual = bound
            if mode == "compiled":
                residual_fn = compile_predicate(bound)
            else:
                residual_fn = (lambda predicate: lambda row: _truthy(
                    evaluate(predicate, row)))(bound)
    bound_compiled = CompiledSelect(
        mode=compiled.mode, columns=compiled.columns, items=compiled.items,
        project=compiled.project, residual=residual_fn,
        join_keys=compiled.join_keys, hidden=compiled.hidden)
    return PhysicalPlan(statement=template.statement, base=base, joins=joins,
                        purpose=template.purpose, residual=residual,
                        residual_selectivity=template.residual_selectivity,
                        _compiled=bound_compiled)


def _join_estimate(left_rows: Optional[float], scan: TableScanPlan,
                   right_stats, clause: ast.JoinClause) -> Optional[float]:
    """Rows out of one hash join, given the streamed side's estimate."""
    if left_rows is None or scan.estimated_rows is None:
        return None
    right_ref = clause.right if clause.right.table in (scan.alias, scan.table) \
        else clause.left
    matches_per_row = 1.0
    if right_stats is not None:
        ndv = right_stats.ndv(right_ref.column)
        if ndv:
            matches_per_row = max(1.0, scan.estimated_rows / ndv)
    estimate = left_rows * matches_per_row
    if clause.kind == "left":
        estimate = max(estimate, left_rows)
    return estimate


def _collect_refs(expression: ast.Expression, out: List[ast.ColumnRef]) -> None:
    """Gather every column reference in an expression tree."""
    if isinstance(expression, ast.ColumnRef):
        out.append(expression)
    elif isinstance(expression, ast.Comparison):
        _collect_refs(expression.left, out)
        _collect_refs(expression.right, out)
    elif isinstance(expression, ast.InList):
        _collect_refs(expression.operand, out)
    elif isinstance(expression, ast.Between):
        _collect_refs(expression.operand, out)
        _collect_refs(expression.low, out)
        _collect_refs(expression.high, out)
    elif isinstance(expression, ast.IsNull):
        _collect_refs(expression.operand, out)
    elif isinstance(expression, ast.BooleanOp):
        for operand in expression.operands:
            _collect_refs(operand, out)
    elif isinstance(expression, ast.Not):
        _collect_refs(expression.operand, out)
    elif isinstance(expression, ast.Aggregate):
        if expression.argument is not None:
            out.append(expression.argument)


def _flatten_and(expression: ast.Expression) -> List[ast.Expression]:
    if isinstance(expression, ast.BooleanOp) and expression.operator == "AND":
        result: List[ast.Expression] = []
        for operand in expression.operands:
            result.extend(_flatten_and(operand))
        return result
    return [expression]


def _constant_value(expression: ast.Expression) -> Tuple[bool, Any]:
    """A literal's value, or a :class:`ParamMarker` for a ``?`` placeholder.

    Placeholders are plan-time constants under parameter-shape-keyed caching:
    the access path records *where* the value comes from, and binding
    substitutes the actual parameter per execution.
    """
    if isinstance(expression, ast.Literal):
        return True, expression.value
    if isinstance(expression, ast.Placeholder):
        return True, ParamMarker(expression.index)
    return False, None


def _as_column_literal(expression: ast.Expression, table: str,
                       alias: str) -> Optional[Tuple[str, str, Any]]:
    """Recognize ``column <op> constant`` conjuncts bound to ``table``/``alias``
    (the constant side may be a literal or a ``?`` placeholder)."""
    def column_matches(ref: ast.ColumnRef) -> bool:
        return ref.table is None or ref.table in (table.lower(), alias.lower())

    if isinstance(expression, ast.Comparison):
        left, right = expression.left, expression.right
        if isinstance(left, ast.ColumnRef) and column_matches(left):
            ok, value = _constant_value(right)
            if ok:
                return left.column, expression.operator, value
        if isinstance(right, ast.ColumnRef) and column_matches(right):
            ok, value = _constant_value(left)
            if ok:
                flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
                operator = flipped.get(expression.operator, expression.operator)
                return right.column, operator, value
    if isinstance(expression, ast.Between) and not expression.negated:
        if isinstance(expression.operand, ast.ColumnRef) and \
                column_matches(expression.operand):
            low_ok, low = _constant_value(expression.low)
            high_ok, high = _constant_value(expression.high)
            if low_ok and high_ok:
                return expression.operand.column, "between", (low, high)
    return None


__all__ = ["Planner", "PhysicalPlan", "TableScanPlan", "AccessPath",
           "ParamMarker", "bind_physical_plan",
           "SEQ_ROW_COST", "INDEX_FETCH_COST", "INDEX_PROBE_COST",
           "SMALL_TABLE_ROWS"]
