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

* **binds** every column reference against the schemas of the FROM list, so
  an unknown or ambiguous name fails when the plan is built, and from the
  bound references computes the columns each scan must decode;
* **puts each WHERE conjunct where its column is first decoded**: a conjunct
  whose references all resolve to one table goes into that table's scan —
  the left table of any join, the right table of an *inner* join only (a
  LEFT JOIN's right-side conjuncts must see the NULL padding) — minus what
  the chosen access path already guarantees; the rest is the cross-table
  **residual** evaluated above the joins;
* **costs** the candidate access paths against a sequential scan from the
  catalog's table statistics (:mod:`repro.query.statistics`);
* estimates each scan *after* its filter, builds an inner join's hash table
  on the smaller filtered side and fetches the other side by the build
  side's keys — through an index on its join column when the cost model
  says so, else as a membership test pushed into its scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.errors import BindingError
from ..core.policy import Purpose
from ..core.values import ValueType
from . import ast_nodes as ast
from .catalog import Catalog, IndexInfo
from .compiler import (CompiledSelect, Layout, all_of, collect_refs, compile_select,
                       compile_truth, render_expression, split_filter)
from .parameters import bind_expression
from .statistics import DEFAULT_SELECTIVITY, TableStatistics

#: Cost-model constants (arbitrary units; only ratios matter).  A row fetched
#: through an index probe pays a random heap lookup, a sequentially scanned
#: row a cheaper streaming read.
SEQ_ROW_COST = 1.0
INDEX_FETCH_COST = 2.0
INDEX_PROBE_COST = 4.0

#: Below this row count the plain preference order is kept: probing an
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

    #: "seq", "index_eq", "index_range", "gt_level" or "index_keys" (an
    #: equality probe per key of the hash join's build side).
    kind: str
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
        if self.kind == "index_keys":
            return f"IndexScan({self.index.name} {self.column} in build keys)"
        return self.kind


@dataclass
class TableScanPlan:
    """Plan fragment producing the visible rows of one table."""

    table: str
    alias: str
    access: AccessPath
    demanded_levels: Dict[str, int] = field(default_factory=dict)
    #: Columns the query touches on this table (``None`` = all, e.g. for
    #: ``SELECT *``); the store decodes only these, and they are the scan's
    #: part of the plan's row layout.
    needed_columns: Optional[Tuple[str, ...]] = None
    #: The WHERE conjuncts evaluated inside this scan, on the row degraded
    #: to the demanded levels, before the rest of the row is decoded.
    filter: Optional[ast.Expression] = None
    #: This scan is the probe side of an inner hash join: only rows whose
    #: ``probe_key`` column is among the build side's keys are produced.
    probe_key: Optional[str] = None
    #: Estimated rows this scan produces, after its filter.
    estimated_rows: Optional[float] = None
    #: For join-side scans of an inner join: build the hash table on the
    #: *left* input because it is estimated smaller.
    build_left: bool = False
    #: For join-side scans: estimated rows out of the join that consumes
    #: this scan (the planner's running chain, rendered by EXPLAIN).
    join_estimated_rows: Optional[float] = None

    def describe(self) -> str:
        levels = ", ".join(f"{col}@{lvl}" for col, lvl in sorted(self.demanded_levels.items()))
        accuracy = f" accuracy[{levels}]" if levels else ""
        access = self.access.describe()
        pushed = ""
        if self.probe_key is not None and self.access.kind != "index_keys":
            pushed += f" probe ({self.probe_key} in build keys)"
        if self.filter is not None:
            rendered = render_expression(self.filter)
            pushed += f" filter {rendered}" if rendered.startswith("(") \
                else f" filter ({rendered})"
        return f"{access} on {self.table} as {self.alias}{accuracy}{pushed}"


@dataclass
class PhysicalPlan:
    """Physical plan of a SELECT: scans, each with its pushed filter, plus the
    cross-table residual.

    ``residual`` is what remains of the WHERE clause above the joins: the
    conjuncts that touch more than one table or a LEFT JOIN's right side
    (``None`` when nothing is left).  This object is
    immutable per (statement, purpose, catalog version, statistics epoch)
    and is what prepared statements cache, as a template whose
    :class:`ParamMarker` slots each execution binds into a copy;
    per-execution state lives in the operator tree built from it.

    The plan additionally memoizes its **compiled artifacts** (row layout,
    filter, residual, projection and key closures, see
    :mod:`repro.query.compiler`): the first execution compiles, every
    re-execution of a cached plan reuses the closures.
    """

    statement: ast.Select
    base: TableScanPlan
    joins: List[Tuple[ast.JoinClause, TableScanPlan]] = field(default_factory=list)
    purpose: Optional[Purpose] = None
    residual: Optional[ast.Expression] = None
    #: Estimated fraction of rows the residual predicate lets through.
    residual_selectivity: float = 1.0
    #: Output ``(name, expression)`` pairs; the trailing ``hidden`` ones only
    #: carry ORDER BY keys absent from the SELECT list.
    items: List[Tuple[str, ast.Expression]] = field(default_factory=list)
    hidden: int = 0
    #: Per join clause its ON references, oriented ``(left input's column,
    #: joined table's column)``.
    join_refs: List[Tuple[ast.ColumnRef, ast.ColumnRef]] = field(default_factory=list)
    _compiled: Optional[CompiledSelect] = field(default=None, repr=False,
                                                compare=False)

    @property
    def scans(self) -> List[TableScanPlan]:
        return [self.base] + [scan for _clause, scan in self.joins]

    @property
    def is_compiled(self) -> bool:
        return self._compiled is not None

    def ensure_compiled(self, catalog: Catalog) -> CompiledSelect:
        """Compile once, reuse on every later execution of this plan."""
        if self._compiled is None:
            self._compiled = compile_select(catalog, self)
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
        """Plan a SELECT down to the physical level: bound names, access
        paths, pushed filters, residual, join strategy."""
        clauses = statement.joins
        scans = [self._scan(statement.table, statement.table_alias, purpose)] + \
            [self._scan(clause.table, clause.alias, purpose) for clause in clauses]
        schemas = [self.catalog.table(scan.table).schema for scan in scans]
        names = Layout.of(tuple((scan.alias, scan.table, tuple(schema.column_names()))
                                for scan, schema in zip(scans, schemas)))

        slots, owners = names.slots, names.owners

        def owner(ref: ast.ColumnRef) -> int:
            """Bind ``ref``: the scan it belongs to (its column is needed)."""
            slot = slots.get(ref.qualified, -1)
            position, column = owners[slot if slot > 0 else names.slot(ref)]
            needed[position].add(column)
            return position

        needed: List[Set[str]] = [set() for _scan in scans]
        items, hidden = _output_items(statement, scans, schemas)
        refs: List[ast.ColumnRef] = list(statement.group_by)
        for _name, expression in items:
            collect_refs(expression, refs)
        if statement.having is not None:
            outputs = {name for name, _expression in items}
            refs += [ref for ref in collect_refs(statement.having, [])
                     if ref.qualified not in outputs]
        for ref in refs:
            owner(ref)
        join_refs = []
        for position, clause in enumerate(clauses, 1):
            left, right = clause.left, clause.right
            left_at, right_at = owner(left), owner(right)
            if left_at == position != right_at:    # written joined-table first
                left, right = right, left
            join_refs.append((left, right))
        # Where each conjunct runs: inside the one scan all its references
        # resolve to, or above the joins.
        local: List[List[ast.Expression]] = [[] for _scan in scans]
        residual: List[ast.Expression] = []
        for conjunct in _flatten_and(statement.where) if statement.where else ():
            reads = {owner(ref) for ref in collect_refs(conjunct, [])}
            position = reads.pop() if len(reads) == 1 else None
            if position is None or (position and clauses[position - 1].kind != "inner"):
                residual.append(conjunct)
            else:
                local[position].append(conjunct)
        star = any(isinstance(item, ast.Star) for item in statement.items)
        for scan, conjuncts, columns in zip(scans, local, needed):
            scan.access, consumed = self._choose_access(
                scan.table, conjuncts, scan.demanded_levels)
            scan.filter = _conjunction(
                [c for c in conjuncts if c not in consumed])
            if not star:
                if scan.access.column is not None:
                    columns.add(scan.access.column)
                scan.needed_columns = tuple(sorted(columns))
        plan = PhysicalPlan(statement=statement, base=scans[0],
                            joins=list(zip(clauses, scans[1:])), purpose=purpose,
                            residual=_conjunction(residual), items=items,
                            hidden=hidden, join_refs=join_refs)
        for scan in scans:
            scan.estimated_rows = self._access_estimate(scan.table, scan.access)
            if scan.filter is not None:
                scan.estimated_rows *= self._selectivity(
                    scan.table, _flatten_and(scan.filter))
        if residual:
            plan.residual_selectivity = self._selectivity(
                plan.base.table if not clauses else None, residual)
        if clauses:
            self._choose_join_strategy(plan)
        return plan

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

    def _scan(self, table: str, alias: Optional[str],
              purpose: Optional[Purpose]) -> TableScanPlan:
        info = self.catalog.table(table)
        return TableScanPlan(table=info.name, alias=(alias or info.name).lower(),
                             access=AccessPath(kind="seq"),
                             demanded_levels=self.demanded_levels_for(table, purpose))

    # -- estimates -----------------------------------------------------------------

    def _table_stats(self, table: str) -> TableStatistics:
        return self.catalog.statistics.table(table)

    def _access_estimate(self, table: str, access: AccessPath) -> Optional[float]:
        stats = self._table_stats(table)
        if access.kind == "seq":
            return float(stats.row_count)
        if access.kind in ("index_eq", "gt_level"):
            if _has_marker(access.key):
                # Generic-plan estimate: the value is unknown at plan time,
                # assume an average-frequency probe (row_count / NDV).
                ndv = stats.ndv(access.column)
                return max(1.0, stats.row_count / ndv) if ndv \
                    else max(1.0, stats.row_count * DEFAULT_SELECTIVITY)
            exact = stats.estimated_eq_rows(access.column, access.key)
            # A GT probe also folds in finer-stored rows that generalize to
            # the key, which the frequency map cannot see: a lower bound.
            return exact if access.kind == "index_eq" else max(1.0, exact)
        if access.kind == "index_range":
            if _has_marker(access.low, access.high):
                return max(1.0, stats.row_count * DEFAULT_SELECTIVITY)
            return stats.estimated_range_rows(
                access.column, access.low, access.high,
                access.include_low, access.include_high)
        return None

    def _selectivity(self, table: Optional[str],
                     conjuncts: Sequence[ast.Expression]) -> float:
        """Estimated fraction of ``table``'s rows that pass ``conjuncts``
        (``table`` is ``None`` for conjuncts no single table's statistics
        can judge)."""
        if not conjuncts:
            return 1.0
        stats = self._table_stats(table) if table is not None else None
        selectivity = 1.0
        for conjunct in conjuncts:
            fraction = DEFAULT_SELECTIVITY
            match = _as_column_literal(conjunct)
            if match is not None and stats is not None and stats.row_count:
                column, operator, value = match
                if _has_marker(value) or (isinstance(value, tuple)
                                          and _has_marker(*value)):
                    ndv = stats.ndv(column) if operator == "=" else 0
                    fraction = 1.0 / ndv if ndv else DEFAULT_SELECTIVITY
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

    # -- join strategy ----------------------------------------------------------------

    def _choose_join_strategy(self, plan: PhysicalPlan) -> None:
        """Per inner hash join: build on the estimated-smaller filtered input,
        and have the other side — when it is a table scan — fetched by the
        build side's keys; also record the running join-output estimate on
        each join scan (EXPLAIN and the filter estimate downstream read it —
        one model, computed once at plan time)."""
        running = plan.base.estimated_rows
        left_scan: Optional[TableScanPlan] = plan.base
        for (clause, scan), (left, right) in zip(plan.joins, plan.join_refs):
            if clause.kind == "inner":
                smaller = min(running, scan.estimated_rows)
                scan.build_left = running < scan.estimated_rows
                if scan.build_left:
                    self._probe_by_keys(scan, right.column, smaller)
                elif left_scan is not None:
                    self._probe_by_keys(left_scan, left.column, smaller)
            running = _join_estimate(running, scan, self._table_stats(scan.table),
                                     right.column, clause.kind)
            scan.join_estimated_rows = running
            left_scan = None        # the next join's left input is this join

    def _probe_by_keys(self, scan: TableScanPlan, column: str,
                       build_rows: float) -> None:
        """Make ``scan`` the probe side fed the build side's keys: through a
        hash index on ``column`` when one exists, hash-join key equality is
        that index's equality (a stable, non-text column) and probing it per
        key is estimated cheaper than the scan it replaces; else as a
        membership test the scan evaluates first."""
        scan.probe_key = column
        info = self.catalog.table(scan.table)
        column_def = info.schema.column(column)
        stats = self._table_stats(scan.table)
        if scan.access.kind != "seq" \
                or column_def.degradable or column_def.value_type is ValueType.TEXT:
            return
        for index_info in info.indexes_on(column):
            per_key = max(1.0, stats.row_count / (stats.ndv(column) or 1))
            cost = build_rows * (INDEX_PROBE_COST + per_key * INDEX_FETCH_COST)
            if index_info.method == "hash" and cost < stats.row_count * SEQ_ROW_COST:
                scan.access = AccessPath(kind="index_keys", column=column,
                                         index=index_info)
                scan.estimated_rows = min(scan.estimated_rows, build_rows * per_key)
                return

    # -- access paths ----------------------------------------------------------------

    def _choose_access(self, table: str, conjuncts: List[ast.Expression],
                       demanded: Dict[str, int]) -> Tuple[AccessPath,
                                                          List[ast.Expression]]:
        """How to reach the rows of ``table`` that pass ``conjuncts`` (all
        bound to it), and the conjuncts that access path fully covers."""
        candidates = self._gather_candidates(table, conjuncts, demanded)
        if not candidates:
            return AccessPath(kind="seq"), []
        stats = self._table_stats(table)
        if stats.row_count < SMALL_TABLE_ROWS:
            # Tiny-table fallback: the historical preference order — first
            # equality candidate, else first complete range.
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
            cost = INDEX_PROBE_COST + self._access_estimate(table, path) * INDEX_FETCH_COST
            if cost < best_cost:
                best = (path, consumed)
                best_cost = cost
        if best is None:
            return AccessPath(kind="seq"), []
        return best

    def _gather_candidates(self, table: str, conjuncts: List[ast.Expression],
                           demanded: Dict[str, int]
                           ) -> List[Tuple[AccessPath, List[ast.Expression]]]:
        """Every usable index access path, in historical preference order."""
        info = self.catalog.table(table)
        candidates: List[Tuple[AccessPath, List[ast.Expression]]] = []
        # Equality on an indexed column.  An equality probe returns exactly
        # the rows whose (visible) value matches the key, so the conjunct is
        # covered — except for a NULL key, where predicate semantics (always
        # false) and index semantics may differ.
        for conjunct in conjuncts:
            match = _as_column_literal(conjunct)
            if match is None:
                continue
            column, operator, value = match
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
            match = _as_column_literal(conjunct)
            if match is None:
                continue
            column, operator, value = match
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


def _clone(fragment: Any, **changes: Any) -> Any:
    """A shallow copy of a plan fragment with ``changes`` applied (what
    ``dataclasses.replace`` does, minus re-running ``__init__`` on the hot
    path of every templated execution)."""
    clone = object.__new__(type(fragment))
    clone.__dict__.update(fragment.__dict__, **changes)
    return clone


def _bind_scan(scan: TableScanPlan, params: Tuple[Any, ...]) -> TableScanPlan:
    """A copy of ``scan`` with this execution's values in its access path and
    its filter (``scan`` itself when it reads no parameter)."""
    access, bound = scan.access, scan.filter
    if _has_marker(access.key, access.low, access.high):
        access = _clone(access, key=_subst_param(access.key, params),
                        low=_subst_param(access.low, params),
                        high=_subst_param(access.high, params))
    if bound is not None:
        bound = bind_expression(bound, params)
    if access is scan.access and bound is scan.filter:
        return scan
    return _clone(scan, access=access, filter=bound)


def bind_physical_plan(template: PhysicalPlan, params: Sequence[Any],
                       catalog: Catalog) -> PhysicalPlan:
    """Bind a parameter-shape template plan to one execution's values.

    The template was planned with :class:`ParamMarker` slots in its access
    paths and raw placeholders in its filters and residual.  Binding
    substitutes the values and recompiles *only* the predicates that read
    one — the layout, the projection and the key closures (and the whole
    access-path and join-strategy choice) are shared with the template,
    which is the entire point: re-execution pays a small substitution
    instead of a full ``plan_physical``.  A scan kernel's ``column op ?``
    comparison takes its number as it is; one bound to anything but a
    number joins the scan's truth function.
    """
    values = tuple(params)
    compiled = template.ensure_compiled(catalog)
    layout, templates = compiled.layout, template.scans
    scans = [_bind_scan(scan, values) for scan in templates]
    filters, comparisons = list(compiled.filters), list(compiled.comparisons)
    for position, (scan, old, offset) in enumerate(zip(scans, templates, layout.offsets)):
        if scan.filter is not old.filter:
            comparisons[position], rest = split_filter(scan, layout, offset)
            if [*map(id, rest)] != [*map(id, split_filter(old, layout, offset)[1])]:
                filters[position] = all_of([compile_truth(conjunct, layout, offset)
                                             for conjunct in rest])
    residual, residual_fn = template.residual, compiled.residual
    if residual is not None:
        bound = bind_expression(residual, values)
        if bound is not residual:
            residual = bound
            residual_fn = compile_truth(bound, layout)
    return _clone(
        template, base=scans[0], residual=residual,
        joins=[(clause, scan) for (clause, _old), scan
               in zip(template.joins, scans[1:])],
        _compiled=_clone(compiled, filters=filters, comparisons=comparisons,
                         residual=residual_fn))


def _join_estimate(left_rows: float, scan: TableScanPlan,
                   right_stats: TableStatistics, right_column: str,
                   kind: str) -> float:
    """Rows out of one hash join, given its left input's estimate."""
    ndv = right_stats.ndv(right_column)
    # ``estimated_rows`` is what is left of the table after its filter
    estimate = left_rows * (scan.estimated_rows / ndv if ndv else 1.0)
    if kind == "left":
        estimate = max(estimate, left_rows)
    return estimate


def _output_items(statement: ast.Select, scans: List[TableScanPlan], schemas
                  ) -> Tuple[List[Tuple[str, ast.Expression]], int]:
    """Resolve the SELECT list into (output name, expression) pairs, followed
    by the hidden ORDER BY items; returns them and how many are hidden.

    ``SELECT name FROM t ORDER BY age`` must compute the sort key even though
    it is not part of the result; Sort/TopN locate keys by output position, so
    the missing references ride along as extra trailing projection items.
    Aggregate queries may only hoist grouping columns — any other reference
    is ambiguous within a group and raises when the sort binds its keys.
    """
    items: List[Tuple[str, ast.Expression]] = []
    aggregate = bool(statement.order_by) and statement.is_aggregate
    for item in statement.items:
        if not isinstance(item, ast.Star):
            items.append((item.output_name, item.expression))
            continue
        if statement.is_aggregate:
            raise BindingError("SELECT * cannot be combined with aggregation")
        for position, (scan, schema) in enumerate(zip(scans, schemas)):
            items += [(f"{scan.alias}.{name}" if position else name,
                       ast.ColumnRef(column=name, table=scan.alias))
                      for name in schema.column_names()]
    visible = len(items)
    if not statement.order_by:
        return items, 0
    names = {name for name, _expression in items}
    allowed = {name for ref in statement.group_by
               for name in (ref.column, ref.qualified)} if aggregate else None
    for item in statement.order_by:
        ref = item.column
        if ref.column in names or ref.qualified in names:
            continue
        if allowed is not None and ref.column not in allowed \
                and ref.qualified not in allowed:
            continue
        items.append((ref.qualified, ref))
        names.add(ref.qualified)
    return items, len(items) - visible


def _conjunction(conjuncts: List[ast.Expression]) -> Optional[ast.Expression]:
    if len(conjuncts) < 2:
        return conjuncts[0] if conjuncts else None
    return ast.BooleanOp(operator="AND", operands=tuple(conjuncts))


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


def _as_column_literal(expression: ast.Expression
                       ) -> Optional[Tuple[str, str, Any]]:
    """Recognize ``column <op> constant`` conjuncts (the constant side may be
    a literal or a ``?`` placeholder)."""
    if isinstance(expression, ast.Comparison):
        left, right = expression.left, expression.right
        if isinstance(left, ast.ColumnRef):
            ok, value = _constant_value(right)
            if ok:
                return left.column, expression.operator, value
        if isinstance(right, ast.ColumnRef):
            ok, value = _constant_value(left)
            if ok:
                flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
                operator = flipped.get(expression.operator, expression.operator)
                return right.column, operator, value
    if isinstance(expression, ast.Between) and not expression.negated:
        if isinstance(expression.operand, ast.ColumnRef):
            low_ok, low = _constant_value(expression.low)
            high_ok, high = _constant_value(expression.high)
            if low_ok and high_ok:
                return expression.operand.column, "between", (low, high)
    return None


__all__ = ["Planner", "PhysicalPlan", "TableScanPlan", "AccessPath",
           "ParamMarker", "bind_physical_plan",
           "SEQ_ROW_COST", "INDEX_FETCH_COST", "INDEX_PROBE_COST",
           "SMALL_TABLE_ROWS"]
