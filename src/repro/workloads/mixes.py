"""OLTP and OLAP query mixes over the PERSON events table.

The paper's third technical challenge distinguishes the two workload families:
OLTP point/range queries become *less selective* on degraded attributes; OLAP
aggregates must absorb the update load degradation creates.  These mixes feed
the C1/C3 benchmarks with representative statements of both kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .distributions import Distributions
from .location import LocationTraceGenerator


@dataclass
class QuerySpec:
    """One generated query: SQL text plus the purpose it should run under."""

    sql: str
    purpose: Optional[str]
    kind: str

    def __iter__(self):
        return iter((self.sql, self.purpose))


class OLTPMix:
    """Point lookups, short scans and user-centric queries (accurate or mildly degraded)."""

    def __init__(self, generator: LocationTraceGenerator, seed: int = 31) -> None:
        self.generator = generator
        self.dist = Distributions(seed)

    def next_query(self) -> QuerySpec:
        roll = self.dist.uniform(0, 1)
        if roll < 0.4:
            user_id = self.generator.sample_user_id()
            return QuerySpec(
                sql=f"SELECT id, name, location FROM person WHERE user_id = {user_id}",
                purpose="service",
                kind="point_user",
            )
        if roll < 0.7:
            city = self.generator.sample_city()
            return QuerySpec(
                sql=f"SELECT id, user_id FROM person WHERE location = '{city}'",
                purpose="service",
                kind="point_city",
            )
        if roll < 0.9:
            low = self.dist.uniform_int(1500, 4000)
            return QuerySpec(
                sql=(f"SELECT id, user_id, salary FROM person "
                     f"WHERE salary >= {low} AND salary <= {low + 500}"),
                purpose="service",
                kind="salary_range",
            )
        user_id = self.generator.sample_user_id()
        return QuerySpec(
            sql=(f"SELECT COUNT(*) AS visits FROM person WHERE user_id = {user_id} "
                 "AND activity = 'shopping'"),
            purpose="service",
            kind="user_activity",
        )

    def queries(self, count: int) -> List[QuerySpec]:
        return [self.next_query() for _ in range(count)]


class OLAPMix:
    """Regional / national statistics over degraded data."""

    def __init__(self, generator: LocationTraceGenerator, seed: int = 37) -> None:
        self.generator = generator
        self.dist = Distributions(seed)

    def next_query(self) -> QuerySpec:
        roll = self.dist.uniform(0, 1)
        if roll < 0.4:
            return QuerySpec(
                sql=("SELECT location, COUNT(*) AS events FROM person "
                     "GROUP BY location ORDER BY location"),
                purpose="statistics",
                kind="events_by_country",
            )
        if roll < 0.7:
            country = self.generator.sample_country()
            return QuerySpec(
                sql=(f"SELECT COUNT(*) AS events FROM person "
                     f"WHERE location LIKE '%{country}%'"),
                purpose="statistics",
                kind="country_count",
            )
        if roll < 0.9:
            return QuerySpec(
                sql=("SELECT location, AVG(salary) AS avg_salary FROM person "
                     "GROUP BY location"),
                purpose="statistics",
                kind="salary_by_country",
            )
        return QuerySpec(
            sql=("SELECT activity, COUNT(*) AS events FROM person "
                 "GROUP BY activity ORDER BY activity"),
            purpose="statistics",
            kind="events_by_activity",
        )

    def queries(self, count: int) -> List[QuerySpec]:
        return [self.next_query() for _ in range(count)]


def standard_purposes_sql() -> List[str]:
    """The two purposes the mixes run under.

    ``service`` reads locations at city level (user-facing services), while
    ``statistics`` reads them at country level and salaries as 1000-wide
    ranges, echoing the paper's example query.
    """
    return [
        "DECLARE PURPOSE service SET ACCURACY LEVEL city FOR person.location",
        ("DECLARE PURPOSE statistics SET ACCURACY LEVEL country FOR person.location, "
         "range1000 FOR person.salary"),
    ]


__all__ = ["QuerySpec", "OLTPMix", "OLAPMix", "standard_purposes_sql"]
