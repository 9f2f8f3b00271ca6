"""Query execution over the streaming operator pipeline.

The executor implements the paper's selection and projection operators
``σ_{P,k}`` and ``π_{*,k}``: data referenced at a demanded accuracy level ``k``
is degraded with ``f_k`` *before* the predicate is evaluated, and only tuples
for which level ``k`` is computable (i.e. stored at an accuracy of at least
``k``) participate in the result.  Execution itself is delegated to the
Volcano-style operators in :mod:`repro.query.operators`: the executor turns a
:class:`~repro.query.planner.PhysicalPlan` into an operator tree and either
materializes it into a :class:`QueryResult` or hands back a
:class:`~repro.query.operators.StreamingResult` that cursors drain lazily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.errors import ExecutionError
from .catalog import Catalog
from .operators import (
    ROW_KEY_FIELD,
    Operator,
    PipelineRuntime,
    StoreProvider,
    StreamingResult,
    build_match_pipeline,
    build_pipeline,
    draining,
)
from .planner import PhysicalPlan


@dataclass
class QueryResult:
    """Result of a SELECT: column names plus value tuples.

    ``pipeline`` is the executed operator tree — its per-operator
    :class:`~repro.query.operators.OperatorStats` show how many rows crossed
    each stage (the EXPLAIN ANALYZE numbers).
    """

    columns: List[str]
    rows: List[Tuple[Any, ...]]
    pipeline: Optional[Operator] = field(default=None, repr=False, compare=False)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> List[Any]:
        try:
            index = self.columns.index(name)
        except ValueError:
            raise ExecutionError(f"result has no column {name!r}") from None
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)


@dataclass
class ExecutorStats:
    """Aggregate counters across executions (per-operator counts live on the
    operator trees; see :attr:`Executor.last_pipeline`)."""

    rows_scanned: int = 0
    rows_excluded_not_computable: int = 0
    rows_returned: int = 0
    index_lookups: int = 0
    seq_scans: int = 0
    #: Covering queries answered from index entries alone (no heap fetch).
    index_only_scans: int = 0


class Executor:
    """Runs physical plans against the table stores."""

    def __init__(self, catalog: Catalog, store_provider: StoreProvider) -> None:
        self.catalog = catalog
        self.stats = ExecutorStats()
        #: Operator tree of the most recent execution (stats introspection).
        self.last_pipeline: Optional[Operator] = None
        self._runtime = PipelineRuntime(catalog=catalog, stores=store_provider,
                                        stats=self.stats)

    # ------------------------------------------------------------------ SELECT

    def execute_physical(self, plan: PhysicalPlan) -> QueryResult:
        """:meth:`stream_physical`, drained into a :class:`QueryResult`."""
        stream = self.stream_physical(plan)
        stream.drain()
        return QueryResult(columns=stream.columns, rows=list(stream),
                           pipeline=stream.pipeline)

    def stream_physical(self, plan: PhysicalPlan) -> StreamingResult:
        """Open the pipeline without draining it (lazy cursor traversal).

        The first row is pulled eagerly so binding errors in predicates and
        output expressions surface at execute time, not at the first fetch;
        everything past it is computed on demand.
        """
        columns, root = build_pipeline(self._runtime, plan)
        self.last_pipeline = root
        return StreamingResult(columns, root, self.stats)

    def build(self, plan: PhysicalPlan) -> Tuple[List[str], Operator]:
        """Instantiate (but do not run) the operator tree — EXPLAIN's input."""
        return build_pipeline(self._runtime, plan)

    # -------------------------------------------------------------- DML helpers

    def match_pipeline(self, plan: PhysicalPlan) -> Operator:
        """Instantiate (but do not run) the row-matching pipeline of an
        UPDATE/DELETE — scan + residual filter of the plan of its match
        query; what :meth:`matching_rows` runs and EXPLAIN shows."""
        return build_match_pipeline(self._runtime, plan)

    def matching_rows(self, plan: PhysicalPlan) -> List[int]:
        """Keys of the rows matching ``plan``, the plan of an UPDATE/DELETE's
        match query (:func:`~repro.query.prepared.query_of`).

        Predicates are evaluated on the degraded view (the paper's view-style
        delete semantics); the caller reads the *stored* rows it changes.
        The match runs through the same scan + residual-filter pipeline as
        SELECTs, so DML benefits from access paths and residual pushdown too.
        """
        return [row[ROW_KEY_FIELD]
                for run in self.match_pipeline(plan).runs(draining) for row in run]


__all__ = ["Executor", "QueryResult", "ExecutorStats", "ROW_KEY_FIELD",
           "StoreProvider", "draining"]
