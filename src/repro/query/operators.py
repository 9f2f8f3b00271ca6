"""Volcano-style streaming physical operators.

The read path is a tree of pull-based operators: every operator is an iterator
over **runs** — non-empty lists of rows — and pulls from its children on
demand.  A consumer that reads its input to the end before anything else can
run on the engine (:func:`draining`: an aggregate, a sort, a hash join's build
side, the DML match, a drained result set) gets a scan's page run as one list;
one that reads lazily (:func:`lazy`: ``LIMIT k``, ``fetchone``) gets one row
per list, so ``LIMIT k`` stops the whole pipeline after ``k`` rows and
``fetchone`` computes no more than what was fetched.  Rows are **positional
tuples** in the slot layout the plan's :class:`~repro.query.compiler.Layout`
fixed; no operator looks a name up.  The degradation-specific parts of the paper live in the scans
(``σ_{P,k}`` / ``π_{*,k}``: a row is first excluded, or degraded to the
demanded accuracy levels, *then* predicates see it); everything downstream is
a conventional iterator engine:

* :class:`SeqScan` / :class:`IndexScan` — produce the degraded rows of one
  table that pass the scan's **pushed filter**, by heap scan or through the
  access path the planner chose.  The store reads page runs: the level rule
  on the record header first, then only the filter's columns, then — for the
  survivors — the other columns the query needs;
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
scan's generalization memo — outlives its ``runs()`` generator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import BindingError, ExecutionError
from ..core.values import NULL, is_missing, sort_key
from ..index.gt_index import GTIndex
from ..storage.degradable_store import TableStore
from . import ast_nodes as ast
from .catalog import Catalog
from .compiler import Comparison, RowFn, all_of, hash_key, render_expression
from .planner import AccessPath, PhysicalPlan, TableScanPlan

#: Callable giving the pipeline access to a table's storage manager.
StoreProvider = Callable[[str], TableStore]

#: Slot of a scan's rows that holds the logical row key.
ROW_KEY_FIELD = 0

_MISS = object()

#: ``drain()``: whether the consumer of a pipeline now reads it to the end
#: before anything else can run on the engine.
Drain = Callable[[], bool]


def draining() -> bool:
    """The pace of a consumer that reads its input to the end at once."""
    return True


def lazy() -> bool:
    """The pace of a consumer that reads a row at a time."""
    return False


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

    def runs(self, drain: Drain) -> Iterator[Sequence[Any]]:
        """The rows, a non-empty list at a time, counted as they go up: whole
        runs while ``drain()`` is true, else as few rows as each pull
        needs — one row of a scan."""
        stats = self.stats
        for run in self._runs(drain):
            if run:
                stats.rows_out += len(run)
                yield run

    def _runs(self, drain: Drain) -> Iterator[Sequence[Any]]:
        raise NotImplementedError

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
                 filter_fn: Optional[RowFn], spec: Tuple,
                 comparisons: Tuple[Comparison, ...] = ()) -> None:
        super().__init__()
        self.runtime = runtime
        self.scan = scan
        self.filter_fn = filter_fn
        #: What to decode and when (:func:`~repro.query.compiler.read_spec`).
        self.spec = spec
        #: The pushed ``column op number`` conjuncts the kernel runs inline.
        self.comparisons = comparisons
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
        return store.row_reader(*self.spec, all_of(tests), comparisons=self.comparisons)

    def _open(self, store: TableStore, reader: Callable, drain: Drain) -> Iterator[Sequence[Any]]:
        raise NotImplementedError

    def _runs(self, drain: Drain) -> Iterator[Sequence[Any]]:
        store = self.runtime.stores(self.scan.table)
        examined, excluded = self.examined, self.excluded
        try:
            yield from self._open(store, self._reader(store), drain)
        finally:
            # The engine-wide counters hear of a scan when it ends (the
            # operator's own are exact at every row).
            stats = self.runtime.stats
            stats.rows_scanned += self.examined - examined
            stats.rows_excluded_not_computable += self.excluded - excluded


class SeqScan(_ScanBase):
    label = "SeqScan"

    def _open(self, store: TableStore, reader: Callable, drain: Drain) -> Iterator[Sequence[Any]]:
        self.runtime.stats.seq_scans += 1
        return store.runs(reader=reader, tally=self, drain=drain)


class IndexScan(_ScanBase):
    label = "IndexScan"

    def _open(self, store: TableStore, reader: Callable, drain: Drain) -> Iterator[Sequence[Any]]:
        """One row at a time, as probes go: index keys stay lazy."""
        self.runtime.stats.index_lookups += 1
        return zip(store.fetch(self._candidate_keys(self.scan.access), reader=reader, tally=self))

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
        if access.kind == "index_range":      # only B+-trees serve ranges
            return index.iter_range_keys(access.low, access.high,
                                         include_low=access.include_low,
                                         include_high=access.include_high)
        if access.kind == "gt_level":
            if not isinstance(index, GTIndex):
                raise ExecutionError(
                    f"access path gt_level requires a GT index, got {index.kind}"
                )
            return iter(index.search_at(access.key, access.level))
        raise ExecutionError(f"unknown access path kind {access.kind!r}")


def make_scan(runtime: PipelineRuntime, scan: TableScanPlan, filter_fn: Optional[RowFn],
              spec: Tuple, comparisons: Tuple[Comparison, ...] = ()) -> Operator:
    kind = SeqScan if scan.access.kind == "seq" else IndexScan
    operator = kind(runtime, scan, filter_fn, spec, comparisons)
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

    def _runs(self, drain: Drain) -> Iterator[Sequence[Any]]:
        test = self.predicate_fn
        return ([*filter(test, run)] for run in self.children[0].runs(drain))


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

    def _runs(self, drain: Drain) -> Iterator[Sequence[Any]]:
        left, right = self.children
        left_key, right_key = self.key_fns
        inner = self.clause.kind == "inner"
        build_left = inner and self.right_scan.build_left
        build: Dict[Any, List[Tuple[Any, ...]]] = {}
        build_key = left_key if build_left else right_key
        for row in chain.from_iterable((left if build_left else right).runs(draining)):
            build.setdefault(build_key(row), []).append(row)
        if inner and not build:
            return
        pad = None if inner else self.pad
        try:
            if self.probe is not None:
                self.probe.build_keys = build
            for run in (right if build_left else left).runs(drain):
                joined: List[Tuple[Any, ...]] = []
                for row in run:
                    if build_left:
                        joined += [match + row for match in build.get(right_key(row), ())]
                    elif matches := build.get(left_key(row)):
                        joined += [row + match for match in matches]
                    elif pad is not None:
                        joined.append(row + pad)
                yield joined
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

    def _runs(self, drain: Drain) -> Iterator[Sequence[Any]]:
        project = self.project_fn
        return ([*map(project, run)] for run in self.children[0].runs(drain))


class _Accumulator:
    """Running state of one aggregate over one group: counts and sums, the
    extreme so far, the distinct values seen (a set; a list for unhashable
    degraded values) — never a row."""

    __slots__ = ("function", "count", "total", "numeric", "best", "seen", "unhashable")

    def __init__(self, function: str, distinct: bool) -> None:
        self.function = function
        self.count = self.total = self.numeric = 0
        self.best: Any = _MISS
        self.seen: Optional[set] = set() if distinct else None
        self.unhashable: List[Any] = []

    def add(self, value: Any) -> None:
        if is_missing(value):
            return
        if self.seen is not None:
            try:
                if value in self.seen:      # equal builtins hash equal: 1, 1.0, True
                    return
                self.seen.add(value)
            except TypeError:
                if value in self.unhashable:
                    return
                self.unhashable.append(value)
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

    def _runs(self, drain: Drain) -> Iterator[Sequence[Any]]:
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

        for row in chain.from_iterable(self.children[0].runs(draining)):
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
        out = []
        for _key, (*accumulators, first) in sorted(
                groups.items(), key=lambda kv: tuple(sort_key(v) for v in kv[0])):
            results = iter(accumulators)
            values = tuple(next(results).result() if isinstance(item, tuple)
                           else item(first) for item in items)
            if having is None or having(tuple(first) + values):
                out.append(values)
        yield out


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


def _order_text(order_by: Tuple[ast.OrderItem, ...]) -> str:
    return ", ".join(f"{item.column.qualified}{' DESC' if item.descending else ''}"
                     for item in order_by)


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
        return f"Sort ({_order_text(self.order_by)})"

    def _runs(self, drain: Drain) -> Iterator[Sequence[Any]]:
        positions = _order_positions(self.order_by, self.columns)
        materialized = [*chain.from_iterable(self.children[0].runs(draining))]
        materialized.sort(key=lambda row: _order_key(positions, row))
        strip = self.strip
        yield [row[:-strip] for row in materialized] if strip else materialized


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
        return f"TopN (n={self.n}, by {_order_text(self.order_by)})"

    def _runs(self, drain: Drain) -> Iterator[Sequence[Any]]:
        if self.n <= 0:
            return
        positions = _order_positions(self.order_by, self.columns)
        heap: List[_HeapEntry] = []
        for seq, row in enumerate(chain.from_iterable(self.children[0].runs(draining))):
            # seq breaks ties so equal-key rows keep their arrival order, the
            # same answer a stable full sort + slice would give.
            entry = _HeapEntry(_order_key(positions, row) + (seq,), row)
            if len(heap) < self.n:
                heapq.heappush(heap, entry)
            elif entry.key < heap[0].key:
                heapq.heapreplace(heap, entry)
            self.max_held = max(self.max_held, len(heap))
        strip = self.strip
        yield [entry.row[:-strip] if strip else entry.row
               for entry in sorted(heap, key=lambda e: e.key)]


class Limit(Operator):
    """Early-exit truncation: stops pulling from upstream after ``n`` rows."""

    label = "Limit"

    def __init__(self, child: Operator, n: int) -> None:
        super().__init__((child,))
        self.n = n

    def describe(self) -> str:
        return f"Limit ({self.n})"

    def _runs(self, drain: Drain) -> Iterator[Sequence[Any]]:
        """Its input read lazily, whatever its own consumer does: the rows
        past the ``n``-th are never computed."""
        left = self.n
        for run in self.children[0].runs(lazy) if left > 0 else ():
            yield run[:left]
            left -= len(run)
            if left <= 0:
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
    root, *rights = map(partial(make_scan, runtime), plan.scans, compiled.filters,
                        compiled.reads, compiled.comparisons)
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
    root = make_scan(runtime, plan.base, compiled.filters[0], compiled.reads[0],
                     compiled.comparisons[0])
    if plan.residual is not None:
        root = Filter(root, plan.residual, compiled.residual)
    return root


# -- streaming results ------------------------------------------------------------


class StreamingResult:
    """A lazily-evaluated SELECT result: rows are computed as they are pulled.

    Produced by the cursor path so ``fetchone`` materializes only what was
    fetched; ``pipeline`` is the live operator tree (per-operator stats grow
    as the stream is consumed).  The pipeline is read lazily — its first row
    at once, so binding errors surface at execute time — until
    :meth:`drain` says the rest is read to the end at once.
    """

    def __init__(self, columns: List[str], pipeline: Operator, stats: Any) -> None:
        self.columns, self.pipeline = columns, pipeline
        pace = self._pace = [False]
        runs = pipeline.runs(lambda: pace[0])
        first = next(runs, None)

        def rows() -> Iterator[Tuple[Any, ...]]:
            for run in chain((first,), runs) if first is not None else ():
                stats.rows_returned += len(run)
                yield from run

        self._iterator = rows()

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return self._iterator

    def drain(self) -> None:
        """The rest is read to the end before anything else runs on the
        engine: scans hand up whole page runs from here on."""
        self._pace[0] = True


__all__ = [
    "Operator", "OperatorStats", "PipelineRuntime", "SeqScan", "IndexScan",
    "Filter", "HashJoin", "Project", "Aggregate", "Sort",
    "TopN", "Limit", "StreamingResult", "build_pipeline",
    "build_match_pipeline", "make_scan", "render_expression", "ROW_KEY_FIELD",
    "StoreProvider", "Drain", "draining", "lazy",
]
