"""Volcano-style streaming physical operators.

The read path is a tree of pull-based operators: every operator is an iterator
over rows and pulls from its children on demand, so ``LIMIT k`` stops the
whole pipeline after ``k`` rows and a cursor's ``fetchone`` materializes no
more than what was fetched.  Rows are **positional tuples** in the slot layout
the plan's :class:`~repro.query.compiler.Layout` fixed; no operator looks a
name up.  The degradation-specific parts of the paper live in the scans
(``σ_{P,k}`` / ``π_{*,k}``: a row is first excluded, or degraded to the
demanded accuracy levels, *then* predicates see it); everything downstream is
a conventional iterator engine:

* :class:`SeqScan` / :class:`IndexScan` — produce the degraded rows of one
  table that pass the scan's **pushed filter**, by heap scan or through the
  access path the planner chose.  The store reads page runs: the level rule
  on the record header first, then only the filter's columns, then — for the
  survivors — the other columns the query needs;
* :class:`IndexOnlyScan` — answers a covering query from GT/B+-tree index
  entries alone, never touching the heap;
* :class:`Filter` — evaluates the cross-table **residual** above the joins;
* :class:`HashJoin` — builds a hash table on the estimated-smaller input,
  ends at once when it is empty, and hands the other input — when that is a
  scan — the build side's keys to fetch by;
* :class:`Project` / :class:`Aggregate` — projection and streaming grouped
  aggregation (per-group accumulators, no row kept but each group's first);
* :class:`TopN` — ``ORDER BY ... LIMIT n`` with a bounded heap of ``n`` rows
  instead of a full sort;
* :class:`Sort` / :class:`Limit` — full ordering and early-exit truncation.

Every operator counts the rows it produced in :class:`OperatorStats`, which is
what ``EXPLAIN ANALYZE`` renders (alongside the planner's row estimates) and
what tests/benchmarks use to prove that ``LIMIT k`` pulls only O(k) rows past
the scan.  Nothing an operator learns from rows — hash tables, groups, the
scan's generalization memo — outlives its ``rows()`` generator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
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
from ..storage.degradable_store import TableStore
from . import ast_nodes as ast
from .catalog import Catalog
from .compiler import RowFn, all_of, hash_key, render_expression
from .planner import AccessPath, PhysicalPlan, TableScanPlan

#: Callable giving the pipeline access to a table's storage manager.
StoreProvider = Callable[[str], TableStore]

#: Slot of a scan's rows that holds the logical row key.
ROW_KEY_FIELD = 0

_MISS = object()


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
    alongside the per-operator counts.
    """

    catalog: Catalog
    stores: StoreProvider
    stats: Any


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
    """Common machinery of the table scans.

    A scan yields rows ``(row key, needed column, ...)`` — degradable values
    generalized to the accuracy level the purpose demands, rows excluded when
    a demanded level is not computable from the stored state, rows dropped
    when the pushed filter (or the hash join this scan is the probe side of)
    rejects them.  All per-query decisions — which columns to decode first
    and which only for survivors, generalization schemes, demanded levels —
    are resolved once at operator construction; per execution only the row
    reader (:meth:`TableStore.row_reader`) is built.
    """

    def __init__(self, runtime: PipelineRuntime, scan: TableScanPlan,
                 filter_fn: Optional[RowFn], spec: Tuple) -> None:
        super().__init__()
        self.runtime = runtime
        self.scan = scan
        self.filter_fn = filter_fn
        #: What to decode and when (:func:`~repro.query.compiler.read_spec`).
        self.spec = spec
        #: Rows whose header was examined, and those of them the level rule
        #: excluded (the store counts both as it hands rows out, a page its
        #: level floor excludes whole as skipped, its records unread);
        #: ``stats.rows_out`` counts the ones that also passed the filter.
        self.examined = 0
        self.excluded = 0
        self.pages_skipped = 0
        #: The build side's hash table while this scan is a join's probe side.
        self.build_keys: Optional[Dict[Any, Any]] = None

    @property
    def rows_excluded_not_computable(self) -> int:
        return self.excluded

    def describe(self) -> str:
        return self.scan.describe()

    def explain_lines(self, analyze: bool = False, indent: int = 0) -> List[str]:
        lines = super().explain_lines(analyze, indent)
        if analyze:
            lines[0] += (f" (examined={self.examined} excluded={self.excluded}"
                         f" pages_skipped={self.pages_skipped})")
        return lines

    def _reader(self, store: TableStore) -> Callable:
        """This execution's row reader, its pushed tests cheapest first:
        build-side membership, index-range sentinel guard, the filter."""
        tests: List[RowFn] = []
        scan = self.scan
        if self.build_keys is not None and scan.access.kind != "index_keys":
            key = hash_key(dict(self.spec[0])[scan.probe_key])
            keys = self.build_keys
            tests.append(lambda row: key(row) in keys)
        if scan.access.kind == "index_range":
            # The B+-tree orders sentinels (NULL/SUPPRESSED) past every real
            # value, so an open upper bound would admit them; the range
            # conjuncts were dropped from the filter, so guard them here.
            slot = dict(self.spec[0])[scan.access.column]
            tests.append(lambda row: not is_missing(row[slot]))
        if self.filter_fn is not None:
            tests.append(self.filter_fn)
        return store.row_reader(*self.spec, all_of(tests))

    def _rows(self, store: TableStore, reader: Callable) -> Iterator[Tuple[Any, ...]]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        store = self.runtime.stores(self.scan.table)
        own = self.stats
        examined, excluded = self.examined, self.excluded
        try:
            for row in self._rows(store, self._reader(store)):
                own.rows_out += 1
                yield row
        finally:
            # The engine-wide counters hear of a scan when it ends (the
            # operator's own are exact at every row).
            stats = self.runtime.stats
            stats.rows_scanned += self.examined - examined
            stats.rows_excluded_not_computable += self.excluded - excluded


class SeqScan(_ScanBase):
    label = "SeqScan"

    def _rows(self, store: TableStore, reader: Callable) -> Iterator[Tuple[Any, ...]]:
        self.runtime.stats.seq_scans += 1
        return store.scan(reader=reader, tally=self)


class IndexScan(_ScanBase):
    label = "IndexScan"

    def _rows(self, store: TableStore, reader: Callable) -> Iterator[Tuple[Any, ...]]:
        self.runtime.stats.index_lookups += 1
        return store.fetch(self._candidate_keys(self.scan.access),
                           reader=reader, tally=self)

    def _candidate_keys(self, access: AccessPath) -> Iterator[int]:
        """Stream candidate row keys from the index.

        Range probes stay lazy end to end (``iter_range_keys`` walks the
        B+-tree leaves on demand), so ``LIMIT k`` over an index range does
        O(k) index work instead of materializing the full key list first.
        """
        index = access.index.index
        if access.kind == "index_eq":
            return iter(index.search(access.key))
        if access.kind == "index_keys":
            search = index.search
            return (row_key for key in self.build_keys for row_key in search(key))
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
    """Covering scan: rows come from index entries, never the heap.

    Eligible when the planner proved the chosen GT/B+-tree index covers every
    column the query needs at its accuracy level
    (:meth:`~repro.query.planner.Planner._index_only_eligible`).  Each index
    entry carries the visible value — the stored key for B+-tree probes, the
    demanded-level generalization for GT probes — so no heap page is read and
    no record is decoded.
    """

    label = "IndexOnlyScan"

    def __init__(self, runtime: PipelineRuntime, scan: TableScanPlan,
                 filter_fn: Optional[RowFn], spec: Optional[Tuple] = None) -> None:
        # ``spec`` (what a record reader would decode) is unused: none runs.
        super().__init__()
        self.runtime = runtime
        self.scan = scan
        self.filter_fn = filter_fn

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

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        stats = self.runtime.stats
        stats.index_lookups += 1
        stats.index_only_scans += 1
        store = self.runtime.stores(self.scan.table)
        filter_fn = self.filter_fn
        bare = not self.scan.needed_columns     # e.g. COUNT(*): the key only
        for value, row_key in self._entries():
            row = (row_key,) if bare else (row_key, value)
            if store.exists(row_key) and (filter_fn is None or filter_fn(row)):
                yield row


def make_scan(runtime: PipelineRuntime, scan: TableScanPlan,
              filter_fn: Optional[RowFn], spec: Tuple) -> Operator:
    kind = SeqScan if scan.access.kind == "seq" else \
        IndexOnlyScan if scan.index_only else IndexScan
    operator = kind(runtime, scan, filter_fn, spec)
    operator.estimated_rows = scan.estimated_rows
    return operator


# -- filter / join --------------------------------------------------------------


class Filter(Operator):
    """Evaluates the residual predicate — what no single scan could decide —
    through the plan's truth function."""

    label = "Filter"

    def __init__(self, child: Operator, predicate: ast.Expression,
                 predicate_fn: RowFn) -> None:
        super().__init__((child,))
        self.predicate = predicate
        self.predicate_fn = predicate_fn

    def describe(self) -> str:
        return f"Filter ({render_expression(self.predicate)})"

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        return filter(self.predicate_fn, self.children[0])


class HashJoin(Operator):
    """Equi-join: build a hash table on one input, stream the other; a
    joined row is the left row followed by the right row.

    The build side defaults to the right (joined) input; the planner flips
    an inner join to the left when that is estimated smaller
    (``scan.build_left``).  An inner join whose build side turns out empty
    ends without opening the other input; otherwise, when the other input is
    a scan the planner made the probe side (``probe``), it is handed the hash
    table and produces only rows whose join column is among its keys —
    fetched through an index, or tested before the rest of the row is
    decoded.  Key extraction bakes in the hash normalization (``_hashable``).
    """

    label = "HashJoin"

    def __init__(self, left: Operator, right: Operator, clause: ast.JoinClause,
                 right_scan: TableScanPlan, key_fns: Tuple[RowFn, RowFn],
                 probe: Optional[_ScanBase], pad: Tuple[Any, ...]) -> None:
        super().__init__((left, right))
        self.clause = clause
        self.right_scan = right_scan
        self.key_fns = key_fns
        self.probe = probe
        #: What a LEFT JOIN appends to a left row without a match.
        self.pad = pad

    def describe(self) -> str:
        clause = self.clause
        build = "build=left" if self.right_scan.build_left else "build=right"
        probe = "stream" if self.probe is None else \
            f"index {self.probe.scan.access.index.name}" \
            if self.probe.scan.access.kind == "index_keys" else "scan filter"
        return (f"HashJoin ({clause.kind} {self.right_scan.table} on "
                f"{clause.left.qualified} = {clause.right.qualified}, {build}, "
                f"probe={probe})")

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        left, right = self.children
        left_key, right_key = self.key_fns
        inner = self.clause.kind == "inner"
        build_left = inner and self.right_scan.build_left
        build: Dict[Any, List[Tuple[Any, ...]]] = {}
        build_key = left_key if build_left else right_key
        for row in left if build_left else right:
            build.setdefault(build_key(row), []).append(row)
        if inner and not build:
            return
        try:
            if self.probe is not None:
                self.probe.build_keys = build
            if build_left:
                for right_row in right:
                    for left_row in build.get(right_key(right_row), ()):
                        yield left_row + right_row
                return
            pad = None if inner else self.pad
            for left_row in left:
                matches = build.get(left_key(left_row))
                if matches:
                    for right_row in matches:
                        yield left_row + right_row
                elif pad is not None:
                    yield left_row + pad
        finally:
            if self.probe is not None:
                self.probe.build_keys = None


# -- projection / aggregation ----------------------------------------------------


class Project(Operator):
    """Evaluates the output expressions through ``project_fn``, the plan's
    whole-tuple builder: layout rows in, output tuples out."""

    label = "Project"

    def __init__(self, child: Operator, columns: List[str], project_fn: RowFn,
                 hidden: int = 0) -> None:
        super().__init__((child,))
        self.columns = columns
        self.project_fn = project_fn
        #: Trailing hidden sort-key items (not part of the visible output;
        #: Sort/TopN strip them downstream, EXPLAIN omits them).
        self.hidden = hidden

    def describe(self) -> str:
        visible = self.columns[:-self.hidden] if self.hidden else self.columns
        return f"Project ({', '.join(visible)})"

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        return map(self.project_fn, self.children[0])


class _Accumulator:
    """Running state of one aggregate over one group: counts and sums, the
    extreme so far, the distinct values seen — never a row."""

    __slots__ = ("function", "count", "total", "numeric", "best", "seen")

    def __init__(self, function: str, distinct: bool) -> None:
        self.function = function
        self.count = self.total = self.numeric = 0
        self.best: Any = _MISS
        self.seen: Optional[List[Any]] = [] if distinct else None

    def add(self, value: Any) -> None:
        if is_missing(value):
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.append(value)
        self.count += 1
        function = self.function
        if function in ("SUM", "AVG"):
            if type(value) is int or type(value) is float:
                self.total += value
                self.numeric += 1
        elif function == "MIN":
            if self.best is _MISS or sort_key(value) < sort_key(self.best):
                self.best = value
        elif function == "MAX":
            if self.best is _MISS or sort_key(value) > sort_key(self.best):
                self.best = value

    def result(self) -> Any:
        function = self.function
        if function == "COUNT":
            return self.count
        if function == "SUM":
            return self.total if self.numeric else NULL
        if function == "AVG":
            return self.total / self.numeric if self.numeric else NULL
        if function in ("MIN", "MAX"):
            return NULL if self.best is _MISS else self.best
        raise ExecutionError(f"unsupported aggregate {function}")


class Aggregate(Operator):
    """Streaming grouped aggregation with HAVING: per group its first row and
    one accumulator per aggregate — the input is never held."""

    label = "Aggregate"

    def __init__(self, child: Operator, statement: ast.Select, columns: List[str],
                 recipe: Tuple[RowFn, List[Any], Optional[RowFn]], width: int) -> None:
        super().__init__((child,))
        self.statement = statement
        self.columns = columns
        self.recipe = recipe
        self.width = width

    def describe(self) -> str:
        groups = ", ".join(ref.qualified for ref in self.statement.group_by)
        suffix = f" group by {groups}" if groups else ""
        return f"Aggregate ({', '.join(self.columns)}){suffix}"

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        key_fn, items, having = self.recipe
        recipes = [item for item in items if isinstance(item, tuple)]
        #: COUNT(*) bumps a counter in place; the others are fed a value.
        starred = [position for position, (_function, argument, distinct)
                   in enumerate(recipes) if argument is None and not distinct]
        fed = [(position, argument) for position, (_function, argument, _distinct)
               in enumerate(recipes) if position not in starred]
        #: group key → its accumulators, then its first row
        groups: Dict[Tuple[Any, ...], List[Any]] = {}

        def open_group(key: Tuple[Any, ...], first: Sequence[Any]) -> List[Any]:
            group = groups[key] = [_Accumulator(function, distinct)
                                   for function, _argument, distinct in recipes]
            group.append(first)
            return group

        for row in self.children[0]:
            key = key_fn(row)
            group = groups.get(key)
            if group is None:
                group = open_group(key, row)
            for position in starred:
                group[position].count += 1
            for position, argument in fed:
                group[position].add(1 if argument is None else argument(row))
        if not groups and not self.statement.group_by:
            open_group((), (NULL,) * self.width)
        for _key, (*accumulators, first) in sorted(
                groups.items(), key=lambda kv: tuple(sort_key(v) for v in kv[0])):
            results = iter(accumulators)
            values = tuple(next(results).result() if isinstance(item, tuple)
                           else item(first) for item in items)
            if having is None or having(tuple(first) + values):
                yield values


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
    every run while the planning work (name and accuracy binding, access-path
    choice, filter placement, join strategy, expression compilation) is done
    once.
    """
    compiled = plan.ensure_compiled(runtime.catalog)
    statement = plan.statement
    root, *rights = map(partial(make_scan, runtime),
                        plan.scans, compiled.filters, compiled.reads)
    running = plan.base.estimated_rows
    offsets = compiled.layout.offsets + [compiled.layout.width]
    for position, ((clause, scan), right, key_fns) in enumerate(
            zip(plan.joins, rights, compiled.join_keys), 1):
        probe = right if scan.build_left else root
        if not (isinstance(probe, _ScanBase) and probe.scan.probe_key):
            probe = None
        pad = (None,) + (NULL,) * (offsets[position + 1] - offsets[position] - 1)
        root = HashJoin(root, right, clause, scan, key_fns, probe, pad)
        running = scan.join_estimated_rows    # planner's running chain
        root.estimated_rows = running
    if plan.residual is not None:
        root = Filter(root, plan.residual, compiled.residual)
        running *= plan.residual_selectivity
        root.estimated_rows = running
    columns = compiled.columns
    if compiled.aggregate is not None:
        root = Aggregate(root, statement, columns, compiled.aggregate,
                         compiled.layout.width)
        root.estimated_rows = _estimate_groups(
            statement, runtime.catalog.statistics.table(plan.base.table), running)
        running = root.estimated_rows
    else:
        root = Project(root, columns, compiled.project, hidden=compiled.hidden)
        root.estimated_rows = running
    hidden = compiled.hidden
    if statement.order_by:
        if statement.limit is not None:
            root = TopN(root, statement.order_by, columns, statement.limit,
                        strip=hidden)
            root.estimated_rows = min(running, float(statement.limit))
        else:
            root = Sort(root, statement.order_by, columns, strip=hidden)
            root.estimated_rows = running
    elif statement.limit is not None:
        root = Limit(root, statement.limit)
        root.estimated_rows = min(running, float(statement.limit))
    return (columns[:-hidden] if hidden else columns), root


def _estimate_groups(statement: ast.Select, stats: Any, running: float) -> float:
    if not statement.group_by:
        return 1.0
    groups = 1.0
    for ref in statement.group_by:
        groups *= max(1, stats.ndv(ref.column))
    return min(groups, running)


def build_match_pipeline(runtime: PipelineRuntime,
                         plan: PhysicalPlan) -> Operator:
    """Scan + residual filter only: the row-matching pipeline DML uses (its
    rows start with the row key, :data:`ROW_KEY_FIELD`)."""
    compiled = plan.ensure_compiled(runtime.catalog)
    root = make_scan(runtime, plan.base, compiled.filters[0], compiled.reads[0])
    if plan.residual is not None:
        root = Filter(root, plan.residual, compiled.residual)
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
    "build_match_pipeline", "make_scan", "render_expression", "ROW_KEY_FIELD",
    "StoreProvider",
]
