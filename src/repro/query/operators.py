"""Volcano-style streaming physical operators.

The read path is a tree of pull-based operators: every operator is an iterator
over rows and pulls from its children on demand, so ``LIMIT k`` stops the
whole pipeline after ``k`` rows and a cursor's ``fetchone`` materializes no
more than what was fetched.  The degradation-specific parts of the paper live
in the scans (``σ_{P,k}`` / ``π_{*,k}``: rows are degraded to the demanded
accuracy levels *before* predicates see them, and tuples whose stored state
cannot compute a demanded level are excluded); everything downstream is a
conventional iterator engine:

* :class:`SeqScan` / :class:`IndexScan` — produce the degraded *visible* rows
  of one table, either by heap scan or through the access path the planner
  chose (hash/B+-tree/bitmap equality, B+-tree range, GT-index level probe);
  both decode only the columns the planner proved the query touches;
* :class:`IndexOnlyScan` — answers a covering query from GT/B+-tree index
  entries alone, never touching the heap;
* :class:`Filter` — evaluates only the **residual** predicate, i.e. the
  conjuncts the access path does not already guarantee, through the plan's
  compiled closure (one compile per plan, not one tree-walk per row);
* :class:`HashJoin` — builds a hash table on the estimated-smaller input and
  streams the other, with compiled key extractors;
* :class:`Project` / :class:`Aggregate` — projection and grouped aggregation;
* :class:`TopN` — ``ORDER BY ... LIMIT n`` with a bounded heap of ``n`` rows
  instead of a full sort;
* :class:`Sort` / :class:`Limit` — full ordering and early-exit truncation.

Every operator counts the rows it produced in :class:`OperatorStats`, which is
what ``EXPLAIN ANALYZE`` renders (alongside the planner's row estimates) and
what tests/benchmarks use to prove that ``LIMIT k`` pulls only O(k) rows past
the scan.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import BindingError, ExecutionError
from ..core.values import NULL, is_missing, sort_key
from ..index.gt_index import GTIndex
from ..storage.degradable_store import StoredRow, TableStore
from . import ast_nodes as ast
from .catalog import Catalog
from .compiler import (
    RowFn,
    _hashable,
    _resolve_join_refs,
    _truthy,
    evaluate,
    lookup,
    output_items,
    render_expression,
)
from .planner import AccessPath, PhysicalPlan, TableScanPlan

#: Callable giving the pipeline access to a table's storage manager.
StoreProvider = Callable[[str], TableStore]

#: Key under which the logical row key is exposed in visible rows.
ROW_KEY_FIELD = "__row_key__"


# -- operator infrastructure ----------------------------------------------------


@dataclass
class OperatorStats:
    """Per-operator row accounting (rendered by ``EXPLAIN ANALYZE``)."""

    rows_out: int = 0


@dataclass
class PipelineRuntime:
    """What operators need from the engine to touch data.

    ``stats`` is the executor's aggregate :class:`ExecutorStats`-shaped
    counter object; scans bump it so engine-level accounting keeps working
    alongside the per-operator counts.  ``compile_mode`` selects compiled
    closures (default) or the tree-walking interpreter (the measured
    baseline).
    """

    catalog: Catalog
    stores: StoreProvider
    stats: Any
    compile_mode: str = "compiled"


class Operator:
    """Base class: a restartable-once iterator over rows with counters."""

    label = "Operator"

    def __init__(self, children: Tuple["Operator", ...] = ()) -> None:
        self.children: List[Operator] = list(children)
        self.stats = OperatorStats()
        #: Planner-estimated output rows (shown by EXPLAIN; None = unknown).
        self.estimated_rows: Optional[float] = None

    def rows(self) -> Iterator[Any]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Any]:
        for row in self.rows():
            self.stats.rows_out += 1
            yield row

    def describe(self) -> str:
        return self.label

    def explain_lines(self, analyze: bool = False, indent: int = 0) -> List[str]:
        suffix = f" (rows={self.stats.rows_out})" if analyze else ""
        if self.estimated_rows is not None:
            suffix += f" (est~{self.estimated_rows:.0f})"
        lines = ["  " * indent + self.describe() + suffix]
        for child in self.children:
            lines.extend(child.explain_lines(analyze, indent + 1))
        return lines

    def walk(self) -> Iterator["Operator"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, label: str) -> Optional["Operator"]:
        """First operator in the tree whose label matches (test helper)."""
        for operator in self.walk():
            if operator.label == label:
                return operator
        return None


# -- scans ---------------------------------------------------------------------


class _ScanBase(Operator):
    """Common visible-row machinery of the table scans.

    A scan yields *visible* rows: dictionaries keyed by plain, alias-qualified
    and table-qualified column names, with degradable values generalized to
    the accuracy level the purpose demands and rows excluded when a demanded
    level is not computable from the stored state.

    All per-query decisions — which columns to materialize, their visible-row
    key names, generalization schemes, demanded levels — are resolved once at
    operator construction; the per-row loop only moves values.
    """

    def __init__(self, runtime: PipelineRuntime, scan: TableScanPlan) -> None:
        super().__init__()
        self.runtime = runtime
        self.scan = scan
        self.rows_excluded_not_computable = 0
        schema = runtime.catalog.table(scan.table).schema
        needed = None if scan.needed_columns is None else set(scan.needed_columns)
        #: Columns whose stored accuracy can exclude the row: (name, demanded).
        self._exclusions: List[Tuple[str, int]] = []
        for column in schema.degradable_columns():
            demanded = scan.demanded_levels.get(column.name, 0)
            if demanded is not None:
                self._exclusions.append((column.name, demanded))
        #: Per materialized column: (name, visible keys, demanded, scheme).
        self._specs: List[Tuple[str, Tuple[str, ...], Optional[int], Any]] = []
        qualified = scan.qualified_keys or scan.needed_columns is None
        for column in schema.columns:
            if needed is not None and column.name not in needed:
                continue
            keys = [column.name]
            if qualified:
                keys.append(f"{scan.alias}.{column.name}")
                if scan.alias != scan.table:
                    keys.append(f"{scan.table}.{column.name}")
            demanded = scan.demanded_levels.get(column.name) if column.degradable \
                else None
            scheme = runtime.catalog.scheme_for(scan.table, column.name) \
                if column.degradable else None
            self._specs.append((column.name, tuple(keys), demanded, scheme))
        self._columns: Optional[frozenset] = None if needed is None \
            else frozenset(needed)

    def describe(self) -> str:
        return self.scan.describe()

    def _candidates(self) -> Tuple[Iterator[StoredRow], Sequence[Tuple[str, int]]]:
        """The stored rows to consider, and the exclusions still to be
        checked on each (those the access path has not applied itself)."""
        raise NotImplementedError

    def _count_excluded(self, count: int) -> None:
        stats = self.runtime.stats
        stats.rows_scanned += count
        stats.rows_excluded_not_computable += count
        self.rows_excluded_not_computable += count

    def rows(self) -> Iterator[Dict[str, Any]]:
        stats = self.runtime.stats
        specs = self._specs
        candidates, exclusions = self._candidates()
        for row in candidates:
            levels = row.levels
            excluded = False
            for name, demanded in exclusions:
                if levels[name] > demanded:
                    excluded = True
                    break
            if excluded:
                self._count_excluded(1)
                continue
            stats.rows_scanned += 1
            values = row.values
            visible: Dict[str, Any] = {ROW_KEY_FIELD: row.row_key}
            for name, keys, demanded, scheme in specs:
                value = values[name]
                if demanded is not None:
                    stored_level = levels[name]
                    if stored_level < demanded and not is_missing(value):
                        value = scheme.generalize(value, demanded,
                                                  from_level=stored_level)
                for key in keys:
                    visible[key] = value
            yield visible


class SeqScan(_ScanBase):
    label = "SeqScan"

    def _candidates(self) -> Tuple[Iterator[StoredRow], Sequence[Tuple[str, int]]]:
        # The store applies the exclusions itself, on the record header: a
        # row this purpose cannot see is counted and never value-decoded.
        self.runtime.stats.seq_scans += 1
        store = self.runtime.stores(self.scan.table)
        return store.scan(self._columns, self._exclusions,
                          self._count_excluded), ()


class IndexScan(_ScanBase):
    label = "IndexScan"

    def _candidates(self) -> Tuple[Iterator[StoredRow], Sequence[Tuple[str, int]]]:
        self.runtime.stats.index_lookups += 1
        access = self.scan.access
        store = self.runtime.stores(self.scan.table)
        candidates = store.fetch(self._candidate_keys(access), self._columns)
        if access.kind == "index_range":
            # The B+-tree orders sentinels (NULL/SUPPRESSED) past every real
            # value, so an open upper bound would admit them; the residual
            # range conjuncts were dropped, so guard missing values here.
            column = access.column
            candidates = (row for row in candidates
                          if not is_missing(row.values[column]))
        return candidates, self._exclusions

    def _candidate_keys(self, access: AccessPath) -> Iterator[int]:
        """Stream candidate row keys from the index.

        Range probes stay lazy end to end (``iter_range_keys`` walks the
        B+-tree leaves on demand), so ``LIMIT k`` over an index range does
        O(k) index work instead of materializing the full key list first.
        """
        index = access.index.index
        if access.kind == "index_eq":
            return iter(index.search(access.key))
        if access.kind == "index_range":
            if hasattr(index, "iter_range_keys"):
                return index.iter_range_keys(access.low, access.high,
                                             include_low=access.include_low,
                                             include_high=access.include_high)
            return iter(index.range_search(access.low, access.high,
                                           include_low=access.include_low,
                                           include_high=access.include_high))
        if access.kind == "gt_level":
            if not isinstance(index, GTIndex):
                raise ExecutionError(
                    f"access path gt_level requires a GT index, got {index.kind}"
                )
            return iter(index.search_at(access.key, access.level))
        raise ExecutionError(f"unknown access path kind {access.kind!r}")


class IndexOnlyScan(Operator):
    """Covering scan: visible rows come from index entries, never the heap.

    Eligible when the planner proved the chosen GT/B+-tree index covers every
    column the query needs at its accuracy level
    (:meth:`~repro.query.planner.Planner._index_only_eligible`).  Each index
    entry carries the visible value — the stored key for B+-tree probes, the
    demanded-level generalization for GT probes — so no heap page is read and
    no record is decoded.
    """

    label = "IndexOnlyScan"

    def __init__(self, runtime: PipelineRuntime, scan: TableScanPlan) -> None:
        super().__init__()
        self.runtime = runtime
        self.scan = scan
        keys = [scan.access.column]
        if scan.qualified_keys or scan.needed_columns is None:
            keys.append(f"{scan.alias}.{scan.access.column}")
            if scan.alias != scan.table:
                keys.append(f"{scan.table}.{scan.access.column}")
        self._keys = tuple(keys)

    def describe(self) -> str:
        return self.scan.describe()

    def _entries(self) -> Iterator[Tuple[Any, int]]:
        access = self.scan.access
        index = access.index.index
        if access.kind == "gt_level":
            return index.entries_at(access.key, access.level)
        if access.kind == "index_eq":
            return iter(index.entries(access.key))
        if access.kind == "index_range":
            entries = index.iter_range_entries(
                access.low, access.high,
                include_low=access.include_low,
                include_high=access.include_high)
            # Same sentinel guard as IndexScan: an open upper bound would
            # admit NULL/SUPPRESSED keys, which the predicate excludes.
            return ((key, row_key) for key, row_key in entries
                    if not is_missing(key))
        raise ExecutionError(
            f"access path {access.kind!r} cannot run index-only")

    def rows(self) -> Iterator[Dict[str, Any]]:
        stats = self.runtime.stats
        stats.index_lookups += 1
        stats.index_only_scans += 1
        store = self.runtime.stores(self.scan.table)
        keys = self._keys
        for value, row_key in self._entries():
            if not store.exists(row_key):
                continue
            visible: Dict[str, Any] = {ROW_KEY_FIELD: row_key}
            for key in keys:
                visible[key] = value
            yield visible


def make_scan(runtime: PipelineRuntime, scan: TableScanPlan) -> Operator:
    if scan.access.kind == "seq":
        return SeqScan(runtime, scan)
    if scan.index_only:
        return IndexOnlyScan(runtime, scan)
    return IndexScan(runtime, scan)


# -- filter / join --------------------------------------------------------------


class Filter(Operator):
    """Evaluates the residual predicate (conjuncts the access path left over).

    ``predicate_fn`` is the plan's compiled closure; without one (operator
    built outside a compiled plan) the tree-walking interpreter is used.
    """

    label = "Filter"

    def __init__(self, child: Operator, predicate: ast.Expression,
                 predicate_fn: Optional[RowFn] = None) -> None:
        super().__init__((child,))
        self.predicate = predicate
        self.predicate_fn = predicate_fn

    def describe(self) -> str:
        return f"Filter ({render_expression(self.predicate)})"

    def rows(self) -> Iterator[Dict[str, Any]]:
        predicate_fn = self.predicate_fn
        if predicate_fn is None:
            predicate = self.predicate
            predicate_fn = lambda row: _truthy(evaluate(predicate, row))
        for row in self.children[0]:
            if predicate_fn(row):
                yield row


class HashJoin(Operator):
    """Equi-join: build a hash table on one input, stream the other.

    The build side defaults to the right (joined) input; the planner flips it
    to the left when statistics say the left is smaller
    (``scan.build_left``).  Key extraction runs through the plan's compiled
    closures, which bake in the hash normalization (``_hashable``) — degraded
    values of unhashable shapes (lists, dicts) are converted once per row, not
    re-dispatched per probe.
    """

    label = "HashJoin"

    def __init__(self, runtime: PipelineRuntime, left: Operator, right: Operator,
                 clause: ast.JoinClause, right_scan: TableScanPlan,
                 key_fns: Optional[Tuple[RowFn, RowFn]] = None) -> None:
        super().__init__((left, right))
        self.runtime = runtime
        self.clause = clause
        self.right_scan = right_scan
        self.key_fns = key_fns

    def describe(self) -> str:
        clause = self.clause
        build = "build=left" if self.right_scan.build_left else "build=right"
        return (f"HashJoin ({clause.kind} {self.right_scan.table} on "
                f"{clause.left.qualified} = {clause.right.qualified}, {build})")

    def _pad_columns(self) -> List[str]:
        """Right-side column keys for LEFT JOIN NULL padding.

        Derived from the catalog schema, not from an arbitrary right row, so
        an empty right table still pads every column it would have produced
        (restricted to the pruned column set when the planner computed one).
        """
        scan = self.right_scan
        schema = self.runtime.catalog.table(scan.table).schema
        needed = None if scan.needed_columns is None else set(scan.needed_columns)
        keys: List[str] = []
        for column in schema.columns:
            if needed is not None and column.name not in needed:
                continue
            keys.append(column.name)
            keys.append(f"{scan.alias}.{column.name}")
            if scan.alias != scan.table:
                keys.append(f"{scan.table}.{column.name}")
        return keys

    def _resolve_key_fns(self) -> Tuple[RowFn, RowFn]:
        if self.key_fns is not None:
            return self.key_fns
        left_key, right_key = _resolve_join_refs(self.clause, self.right_scan)
        return (lambda row: _hashable(lookup(left_key, row)),
                lambda row: _hashable(lookup(right_key, row)))

    def rows(self) -> Iterator[Dict[str, Any]]:
        clause = self.clause
        left_fn, right_fn = self._resolve_key_fns()
        if self.right_scan.build_left and clause.kind == "inner":
            yield from self._rows_build_left(left_fn, right_fn)
            return
        build: Dict[Any, List[Dict[str, Any]]] = {}
        for right_row in self.children[1]:
            build.setdefault(right_fn(right_row), []).append(right_row)
        pad_columns = self._pad_columns() if clause.kind == "left" else []
        for left_row in self.children[0]:
            matches = build.get(left_fn(left_row), [])
            if matches:
                for right_row in matches:
                    merged = dict(left_row)
                    merged.update({k: v for k, v in right_row.items()
                                   if k != ROW_KEY_FIELD})
                    yield merged
            elif clause.kind == "left":
                merged = dict(left_row)
                merged.update({key: NULL for key in pad_columns})
                yield merged

    def _rows_build_left(self, left_fn: RowFn,
                         right_fn: RowFn) -> Iterator[Dict[str, Any]]:
        """Inner join with the hash table on the (smaller) left input."""
        build: Dict[Any, List[Dict[str, Any]]] = {}
        for left_row in self.children[0]:
            build.setdefault(left_fn(left_row), []).append(left_row)
        for right_row in self.children[1]:
            matches = build.get(right_fn(right_row))
            if not matches:
                continue
            right_items = {k: v for k, v in right_row.items()
                           if k != ROW_KEY_FIELD}
            for left_row in matches:
                merged = dict(left_row)
                merged.update(right_items)
                yield merged


# -- projection / aggregation ----------------------------------------------------


class Project(Operator):
    """Evaluates the output expressions, turning row dicts into value tuples.

    ``project_fn`` is the plan's compiled whole-tuple builder; without one the
    expressions are interpreted per row.
    """

    label = "Project"

    def __init__(self, child: Operator,
                 items: List[Tuple[str, ast.Expression]],
                 project_fn: Optional[RowFn] = None,
                 hidden: int = 0) -> None:
        super().__init__((child,))
        self.items = items
        self.columns = [name for name, _expr in items]
        self.project_fn = project_fn
        #: Trailing hidden sort-key items (not part of the visible output;
        #: Sort/TopN strip them downstream, EXPLAIN omits them).
        self.hidden = hidden

    def describe(self) -> str:
        visible = self.columns[:-self.hidden] if self.hidden else self.columns
        return f"Project ({', '.join(visible)})"

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        project_fn = self.project_fn
        if project_fn is None:
            items = self.items
            project_fn = lambda row: tuple(evaluate(expr, row)
                                           for _name, expr in items)
        for row in self.children[0]:
            yield project_fn(row)


class Aggregate(Operator):
    """Blocking grouped aggregation with HAVING."""

    label = "Aggregate"

    def __init__(self, child: Operator, statement: ast.Select,
                 items: List[Tuple[str, ast.Expression]]) -> None:
        super().__init__((child,))
        self.statement = statement
        self.items = items
        self.columns = [name for name, _expr in items]

    def describe(self) -> str:
        groups = ", ".join(ref.qualified for ref in self.statement.group_by)
        suffix = f" group by {groups}" if groups else ""
        return f"Aggregate ({', '.join(self.columns)}){suffix}"

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        statement = self.statement
        group_columns = list(statement.group_by)
        groups: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
        for row in self.children[0]:
            key = tuple(_hashable(lookup(ref, row)) for ref in group_columns)
            groups.setdefault(key, []).append(row)
        if not group_columns and not groups:
            groups[()] = []
        columns = self.columns
        for key, members in sorted(groups.items(),
                                   key=lambda kv: tuple(sort_key(v) for v in kv[0])):
            representative = members[0] if members else {}
            values = []
            for _name, expression in self.items:
                if isinstance(expression, ast.Aggregate):
                    values.append(_compute_aggregate(expression, members))
                else:
                    values.append(evaluate(expression, representative))
            if statement.having is not None:
                scope = dict(representative)
                scope.update(dict(zip(columns, values)))
                if not _truthy(evaluate(statement.having, scope)):
                    continue
            yield tuple(values)


def _compute_aggregate(aggregate: ast.Aggregate,
                       rows: List[Dict[str, Any]]) -> Any:
    function = aggregate.function.upper()
    if aggregate.argument is None:
        values: List[Any] = [1 for _ in rows]
    else:
        values = [lookup(aggregate.argument, row) for row in rows]
        values = [value for value in values if not is_missing(value)]
    if aggregate.distinct:
        seen = []
        for value in values:
            if value not in seen:
                seen.append(value)
        values = seen
    if function == "COUNT":
        return len(values)
    numeric = [value for value in values if isinstance(value, (int, float))
               and not isinstance(value, bool)]
    if function == "SUM":
        return sum(numeric) if numeric else NULL
    if function == "AVG":
        return sum(numeric) / len(numeric) if numeric else NULL
    if function == "MIN":
        return min(values, key=sort_key) if values else NULL
    if function == "MAX":
        return max(values, key=sort_key) if values else NULL
    raise ExecutionError(f"unsupported aggregate {function}")


# -- ordering / limiting ---------------------------------------------------------


class _RevKey:
    """Inverts the order of one sort-key component (DESC columns)."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_RevKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _RevKey) and self.key == other.key


def _order_positions(order_by: Tuple[ast.OrderItem, ...],
                     columns: List[str]) -> List[Tuple[int, bool]]:
    positions: List[Tuple[int, bool]] = []
    for item in order_by:
        position = None
        for candidate in (item.column.column, item.column.qualified):
            if candidate in columns:
                position = columns.index(candidate)
                break
        if position is None:
            raise BindingError(
                f"ORDER BY column {item.column.qualified!r} is not in the output"
            )
        positions.append((position, item.descending))
    return positions


def _order_key(positions: List[Tuple[int, bool]],
               row: Tuple[Any, ...]) -> Tuple[Any, ...]:
    return tuple(
        _RevKey(sort_key(row[position])) if descending else sort_key(row[position])
        for position, descending in positions
    )


class Sort(Operator):
    """Blocking full sort (ORDER BY without LIMIT)."""

    label = "Sort"

    def __init__(self, child: Operator, order_by: Tuple[ast.OrderItem, ...],
                 columns: List[str], strip: int = 0) -> None:
        super().__init__((child,))
        self.order_by = order_by
        self.columns = columns
        #: Trailing hidden sort-key columns to drop from the yielded rows
        #: (ORDER BY references absent from the SELECT list).
        self.strip = strip

    def describe(self) -> str:
        keys = ", ".join(
            f"{item.column.qualified}{' DESC' if item.descending else ''}"
            for item in self.order_by
        )
        return f"Sort ({keys})"

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        positions = _order_positions(self.order_by, self.columns)
        materialized = list(self.children[0])
        materialized.sort(key=lambda row: _order_key(positions, row))
        if self.strip:
            strip = self.strip
            return (row[:-strip] for row in materialized)
        return iter(materialized)


class _HeapEntry:
    """Heap wrapper: ``heap[0]`` is the *worst* kept row (inverted order)."""

    __slots__ = ("key", "row")

    def __init__(self, key: Tuple[Any, ...], row: Tuple[Any, ...]) -> None:
        self.key = key
        self.row = row

    def __lt__(self, other: "_HeapEntry") -> bool:
        return other.key < self.key


class TopN(Operator):
    """ORDER BY + LIMIT with a bounded heap: O(n log k) time, O(k) memory."""

    label = "TopN"

    def __init__(self, child: Operator, order_by: Tuple[ast.OrderItem, ...],
                 columns: List[str], n: int, strip: int = 0) -> None:
        super().__init__((child,))
        self.order_by = order_by
        self.columns = columns
        self.n = n
        #: Trailing hidden sort-key columns to drop from the yielded rows.
        self.strip = strip
        #: High-water mark of rows held — proves the heap stays bounded by n.
        self.max_held = 0

    def describe(self) -> str:
        keys = ", ".join(
            f"{item.column.qualified}{' DESC' if item.descending else ''}"
            for item in self.order_by
        )
        return f"TopN (n={self.n}, by {keys})"

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        if self.n <= 0:
            return
        positions = _order_positions(self.order_by, self.columns)
        heap: List[_HeapEntry] = []
        for seq, row in enumerate(self.children[0]):
            # seq breaks ties so equal-key rows keep their arrival order, the
            # same answer a stable full sort + slice would give.
            entry = _HeapEntry(_order_key(positions, row) + (seq,), row)
            if len(heap) < self.n:
                heapq.heappush(heap, entry)
            elif entry.key < heap[0].key:
                heapq.heapreplace(heap, entry)
            self.max_held = max(self.max_held, len(heap))
        strip = self.strip
        for entry in sorted(heap, key=lambda e: e.key):
            yield entry.row[:-strip] if strip else entry.row


class Limit(Operator):
    """Early-exit truncation: stops pulling from upstream after ``n`` rows."""

    label = "Limit"

    def __init__(self, child: Operator, n: int) -> None:
        super().__init__((child,))
        self.n = n

    def describe(self) -> str:
        return f"Limit ({self.n})"

    def rows(self) -> Iterator[Any]:
        if self.n <= 0:
            return
        produced = 0
        for row in self.children[0]:
            yield row
            produced += 1
            if produced >= self.n:
                break


# -- pipeline assembly -----------------------------------------------------------


def build_pipeline(runtime: PipelineRuntime,
                   plan: PhysicalPlan) -> Tuple[List[str], Operator]:
    """Instantiate the operator tree for one execution of ``plan``.

    Operators carry per-execution state (iterators, counters), so a cached
    :class:`~repro.query.planner.PhysicalPlan` is re-instantiated cheaply for
    every run while the planning work (accuracy binding, access-path choice,
    residual split, column pruning, expression compilation) is done once.
    """
    compiled = plan.ensure_compiled(runtime.catalog, runtime.compile_mode)
    statement = plan.statement
    stats_registry = getattr(runtime.catalog, "statistics", None)
    root: Operator = make_scan(runtime, plan.base)
    root.estimated_rows = plan.base.estimated_rows
    running = plan.base.estimated_rows
    for (clause, scan), key_fns in zip(plan.joins, compiled.join_keys):
        right = make_scan(runtime, scan)
        right.estimated_rows = scan.estimated_rows
        root = HashJoin(runtime, root, right, clause, scan, key_fns=key_fns)
        running = scan.join_estimated_rows    # planner's running chain
        root.estimated_rows = running
    if plan.residual is not None:
        root = Filter(root, plan.residual, predicate_fn=compiled.residual)
        if running is not None:
            running *= plan.residual_selectivity
        root.estimated_rows = running
    if statement.is_aggregate:
        items = compiled.items
        root = Aggregate(root, statement, items)
        columns = compiled.columns
        root.estimated_rows = _estimate_groups(statement, plan, stats_registry,
                                               running)
        running = root.estimated_rows
    else:
        items = compiled.items
        columns = compiled.columns
        root = Project(root, items, project_fn=compiled.project,
                       hidden=compiled.hidden)
        root.estimated_rows = running
    hidden = compiled.hidden
    if statement.order_by:
        if statement.limit is not None:
            root = TopN(root, statement.order_by, columns, statement.limit,
                        strip=hidden)
            root.estimated_rows = _cap_estimate(running, statement.limit)
        else:
            root = Sort(root, statement.order_by, columns, strip=hidden)
            root.estimated_rows = running
    elif statement.limit is not None:
        root = Limit(root, statement.limit)
        root.estimated_rows = _cap_estimate(running, statement.limit)
    return (columns[:-hidden] if hidden else columns), root


def _cap_estimate(running: Optional[float], n: int) -> Optional[float]:
    if running is None:
        return float(n)
    return min(running, float(n))


def _estimate_groups(statement: ast.Select, plan: PhysicalPlan,
                     stats_registry, running: Optional[float]) -> Optional[float]:
    if not statement.group_by:
        return 1.0
    if stats_registry is None:
        return running
    stats = stats_registry.table(plan.base.table)
    if stats is None:
        return running
    groups = 1.0
    for ref in statement.group_by:
        ndv = stats.ndv(ref.column)
        groups *= max(1, ndv)
    if running is not None:
        groups = min(groups, running)
    return groups


def build_match_pipeline(runtime: PipelineRuntime,
                         plan: PhysicalPlan) -> Operator:
    """Scan + residual filter only: the row-matching pipeline DML uses."""
    compiled = plan.ensure_compiled(runtime.catalog, runtime.compile_mode)
    root: Operator = make_scan(runtime, plan.base)
    if plan.residual is not None:
        root = Filter(root, plan.residual, predicate_fn=compiled.residual)
    return root


# -- streaming results ------------------------------------------------------------


class StreamingResult:
    """A lazily-evaluated SELECT result: rows are computed as they are pulled.

    Produced by the cursor path so ``fetchone`` materializes only what was
    fetched; ``pipeline`` is the live operator tree (per-operator stats grow
    as the stream is consumed).
    """

    def __init__(self, columns: List[str], rows_iter: Iterator[Tuple[Any, ...]],
                 pipeline: Operator) -> None:
        self.columns = columns
        self.pipeline = pipeline
        self._iterator = rows_iter

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return self._iterator


__all__ = [
    "Operator", "OperatorStats", "PipelineRuntime", "SeqScan", "IndexScan",
    "IndexOnlyScan", "Filter", "HashJoin", "Project", "Aggregate", "Sort",
    "TopN", "Limit", "StreamingResult", "build_pipeline",
    "build_match_pipeline", "make_scan", "output_items", "evaluate", "lookup",
    "render_expression", "ROW_KEY_FIELD", "StoreProvider",
]
