"""Query processor: SQL front-end, catalog, planner and streaming executor."""

from . import ast_nodes
from .catalog import Catalog, IndexInfo, TableInfo
from .executor import Executor, ExecutorStats, QueryResult, ROW_KEY_FIELD
from .operators import (
    Aggregate,
    Filter,
    HashJoin,
    IndexScan,
    Limit,
    Operator,
    OperatorStats,
    Project,
    SeqScan,
    Sort,
    StreamingResult,
    TopN,
)
from .parser import parse, parse_script
from .planner import AccessPath, PhysicalPlan, Planner, TableScanPlan
from .tokens import Token, TokenType, tokenize

__all__ = [
    "ast_nodes",
    "Catalog", "TableInfo", "IndexInfo",
    "Executor", "ExecutorStats", "QueryResult", "ROW_KEY_FIELD",
    "Operator", "OperatorStats", "SeqScan", "IndexScan", "Filter", "HashJoin",
    "Project", "Aggregate", "Sort", "TopN", "Limit", "StreamingResult",
    "parse", "parse_script",
    "Planner", "PhysicalPlan", "TableScanPlan", "AccessPath",
    "Token", "TokenType", "tokenize",
]
