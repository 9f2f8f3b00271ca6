"""Web-search log workload (the AOL incident motivating the paper's introduction).

Generates query-log entries ``(user_id, query, clicked, timestamp)`` where the
query string is degradable along the web-search generalization tree
(query → topic → category → suppressed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.domains import build_websearch_tree
from ..core.generalization import GeneralizationTree
from .distributions import Distributions


@dataclass
class SearchEvent:
    """One generated web search."""

    user_id: int
    query: str
    topic: str
    category: str
    clicked: bool
    timestamp: float

    def as_row(self) -> Dict[str, object]:
        return {
            "id": None,
            "user_id": self.user_id,
            "query": self.query,
            "clicked": self.clicked,
        }


class SearchLogGenerator:
    """Deterministic generator of web-search log entries."""

    def __init__(self, num_users: int = 200, seed: int = 11,
                 tree: Optional[GeneralizationTree] = None,
                 zipf_skew: float = 1.1) -> None:
        self.tree = tree or build_websearch_tree()
        self.dist = Distributions(seed)
        self.num_users = num_users
        self.zipf_skew = zipf_skew
        self._queries = self.tree.values_at_level(0)

    def event_at(self, timestamp: float) -> SearchEvent:
        query = self.dist.zipf_choice(self._queries, self.zipf_skew)
        topic = self.tree.generalize(query, 1)
        category = self.tree.generalize(query, 2)
        return SearchEvent(
            user_id=self.dist.zipf_index(self.num_users, 0.6) + 1,
            query=query,
            topic=topic,
            category=category,
            clicked=self.dist.uniform(0, 1) < 0.45,
            timestamp=timestamp,
        )

    def events(self, count: int, interval: float = 5.0,
               start: float = 0.0) -> List[SearchEvent]:
        return [self.event_at(start + index * interval) for index in range(count)]


def searchlog_table_sql(policy_name: str = "websearch_lcp") -> str:
    """DDL of the search-log table used by the web-search example."""
    return (
        "CREATE TABLE searchlog ("
        "  id INT PRIMARY KEY,"
        "  user_id INT,"
        f"  query TEXT DEGRADABLE DOMAIN websearch POLICY {policy_name},"
        "  clicked BOOL"
        ")"
    )


__all__ = ["SearchEvent", "SearchLogGenerator", "searchlog_table_sql"]
