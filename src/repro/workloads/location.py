"""Location-trace workload (the paper's cell-phone motivation).

Generates events of the form "user X was at address A at time T, doing D":
exactly the shape of data the paper's running PERSON example degrades
(location and salary degradable, identity stable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.domains import addresses_for_city, build_location_tree
from ..core.generalization import GeneralizationTree
from .distributions import Distributions

_FIRST_NAMES = (
    "alice", "bob", "carol", "david", "emma", "farid", "greta", "hugo",
    "ines", "jonas", "karin", "louis", "maria", "nina", "omar", "paula",
    "quentin", "rosa", "sven", "tara",
)

_ACTIVITIES = (
    "commute", "shopping", "work", "leisure", "travel", "appointment",
    "sport", "dining",
)


@dataclass
class LocationEvent:
    """One generated location observation."""

    user_id: int
    name: str
    address: str
    city: str
    region: str
    country: str
    salary: int
    activity: str
    timestamp: float

    def as_row(self) -> Dict[str, object]:
        """Row for the canonical PERSON-events table."""
        return {
            "id": None,            # filled by the caller when a surrogate key is needed
            "user_id": self.user_id,
            "name": self.name,
            "location": self.address,
            "salary": self.salary,
            "activity": self.activity,
        }


class LocationTraceGenerator:
    """Generates deterministic location traces over the standard location GT."""

    def __init__(self, num_users: int = 50, seed: int = 7,
                 tree: Optional[GeneralizationTree] = None,
                 zipf_skew: float = 0.8) -> None:
        self.tree = tree or build_location_tree()
        self.dist = Distributions(seed)
        self.num_users = num_users
        self.zipf_skew = zipf_skew
        self._cities = self.tree.values_at_level(1)
        self._users = [
            {
                "user_id": user_id,
                "name": f"{_FIRST_NAMES[user_id % len(_FIRST_NAMES)]}_{user_id}",
                "home_city": self.dist.zipf_choice(self._cities, zipf_skew),
                "salary": self.dist.gaussian_int(2600, 900, minimum=1000, maximum=12000),
            }
            for user_id in range(1, num_users + 1)
        ]

    # -- event generation -----------------------------------------------------------

    def event_at(self, timestamp: float) -> LocationEvent:
        user = self.dist.uniform_choice(self._users)
        # Users are mostly observed near home, sometimes elsewhere.
        if self.dist.uniform(0, 1) < 0.75:
            city = user["home_city"]
        else:
            city = self.dist.zipf_choice(self._cities, self.zipf_skew)
        address = self.dist.uniform_choice(addresses_for_city(city))
        region = self.tree.generalize(city, 2, from_level=1)
        country = self.tree.generalize(city, 3, from_level=1)
        return LocationEvent(
            user_id=user["user_id"],
            name=user["name"],
            address=address,
            city=city,
            region=region,
            country=country,
            salary=user["salary"],
            activity=self.dist.uniform_choice(_ACTIVITIES),
            timestamp=timestamp,
        )

    def events(self, count: int, interval: float = 60.0,
               start: float = 0.0) -> List[LocationEvent]:
        """``count`` events arriving every ``interval`` seconds."""
        return [
            self.event_at(start + index * interval) for index in range(count)
        ]

    def poisson_events(self, rate: float, horizon: float,
                       start: float = 0.0) -> List[LocationEvent]:
        """Events arriving as a Poisson process with ``rate`` events/second."""
        return [
            self.event_at(when)
            for when in self.dist.poisson_arrivals(rate, horizon, start=start)
        ]

    # -- query parameters --------------------------------------------------------------

    def sample_city(self) -> str:
        return self.dist.zipf_choice(self._cities, self.zipf_skew)

    def sample_country(self) -> str:
        return self.tree.generalize(self.sample_city(), 3, from_level=1)

    def sample_user_id(self) -> int:
        return self.dist.uniform_int(1, self.num_users)

    def sample_salary_range(self, width: int = 1000) -> str:
        low = self.dist.uniform_int(1, 9) * width
        return f"{low}-{low + width}"


def person_table_sql(policy_name: str = "location_lcp",
                     salary_policy: Optional[str] = None) -> str:
    """DDL of the canonical PERSON events table used by examples and benchmarks."""
    salary_clause = "salary INT"
    if salary_policy is not None:
        salary_clause = f"salary INT DEGRADABLE DOMAIN salary POLICY {salary_policy}"
    return (
        "CREATE TABLE person ("
        "  id INT PRIMARY KEY,"
        "  user_id INT,"
        "  name TEXT,"
        f"  location TEXT DEGRADABLE DOMAIN location POLICY {policy_name},"
        f"  {salary_clause},"
        "  activity TEXT"
        ")"
    )


__all__ = ["LocationEvent", "LocationTraceGenerator", "person_table_sql"]
