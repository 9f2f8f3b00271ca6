"""Shared fixtures: domains, policies and pre-wired InstantDB instances."""

from __future__ import annotations

import os

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import (
    build_diagnosis_tree,
    build_location_tree,
    build_salary_ranges,
    build_websearch_tree,
)
from repro.workloads import LocationTraceGenerator, person_table_sql

#: The paper's Fig. 2 delays for the location attribute.
LOCATION_TRANSITIONS = ["1 hour", "1 day", "1 month", "3 months"]
SALARY_TRANSITIONS = ["2 hours", "2 days", "2 months", "6 months"]


@pytest.fixture(scope="session")
def location_tree():
    return build_location_tree()


@pytest.fixture(scope="session")
def salary_scheme():
    return build_salary_ranges()


@pytest.fixture(scope="session")
def websearch_tree():
    return build_websearch_tree()


@pytest.fixture(scope="session")
def diagnosis_tree():
    return build_diagnosis_tree()


@pytest.fixture
def location_lcp(location_tree):
    return AttributeLCP(location_tree, transitions=LOCATION_TRANSITIONS,
                        name="location_lcp")


@pytest.fixture
def salary_lcp(salary_scheme):
    return AttributeLCP(salary_scheme, transitions=SALARY_TRANSITIONS,
                        name="salary_lcp")


def log_dir_bytes(wal_dir) -> bytes:
    """Every byte of every file in a log directory, in name (= LSN) order."""
    wal_dir = str(wal_dir)
    parts = []
    for name in sorted(os.listdir(wal_dir)):
        with open(os.path.join(wal_dir, name), "rb") as handle:
            parts.append(handle.read())
    return b"".join(parts)


def derived_state(db: InstantDB, table: str):
    """What the engine derives from ``table``'s rows, as plain values: every
    index's ``key -> row keys`` (a GT index per accuracy level), the
    statistics' row count and per-column value frequencies, and the row keys
    the degradation schedule tracks."""
    indexes = {}
    for name, index_info in db.catalog.table(table).indexes.items():
        index = index_info.index
        if index.kind == "gt":
            indexes[name] = {(level, value): sorted(rows)
                             for level, buckets in index._buckets.items()
                             for value, rows in buckets.items()}
        else:
            indexes[name] = {key: index.search(key) for key in index.keys()}
    stats = db.statistics.table(table)
    columns = {name: (dict(column.counts), column.non_missing, column.missing,
                      column.min_value, column.max_value)
               for name, column in stats.columns.items()}
    scheduled = sorted(row_key for row_key in db.table_store(table).row_keys()
                       if db.scheduler.is_registered((table, row_key)))
    return indexes, stats.row_count, columns, scheduled


def build_engine(strategy: str = "rewrite", with_salary_policy: bool = True,
                 data_dir=None) -> InstantDB:
    """Create an InstantDB with the canonical PERSON table registered."""
    db = InstantDB(strategy=strategy, data_dir=data_dir)
    location = db.register_domain(build_location_tree())
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(location, transitions=LOCATION_TRANSITIONS,
                                    name="location_lcp"))
    db.register_policy(AttributeLCP(salary, transitions=SALARY_TRANSITIONS,
                                    name="salary_lcp"))
    db.execute(person_table_sql(
        policy_name="location_lcp",
        salary_policy="salary_lcp" if with_salary_policy else None,
    ))
    return db


@pytest.fixture
def empty_db() -> InstantDB:
    """Engine with the person table created but no data."""
    return build_engine()


@pytest.fixture
def populated_db() -> InstantDB:
    """Engine with 40 deterministic location events inserted at t=0."""
    db = build_engine()
    generator = LocationTraceGenerator(num_users=12, seed=5)
    for index, event in enumerate(generator.events(40), start=1):
        row = event.as_row()
        row["id"] = index
        db.insert_row("person", row)
    db.execute("DECLARE PURPOSE service SET ACCURACY LEVEL city FOR person.location")
    db.execute("DECLARE PURPOSE statistics SET ACCURACY LEVEL country FOR person.location, "
               "range1000 FOR person.salary")
    return db


@pytest.fixture
def trace_generator() -> LocationTraceGenerator:
    return LocationTraceGenerator(num_users=12, seed=5)
