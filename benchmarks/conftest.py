"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark module reproduces one experiment of DESIGN.md §4 (F1–F3 for
the paper's figures, B1–B3 for its claimed benefits, C1–C3 for its technical
challenges, A1 for the future-work ablation).  Results are printed as small
tables — run with ``pytest benchmarks/ --benchmark-only -s`` to see them — and
the *shape* each experiment is expected to show (who wins, where crossovers
fall) is asserted so the harness fails loudly if the reproduction drifts.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_location_tree, build_salary_ranges
from repro.workloads import LocationTraceGenerator, person_table_sql, standard_purposes_sql

#: The paper's Fig. 2 policy delays.
LOCATION_TRANSITIONS = ["1 hour", "1 day", "1 month", "3 months"]
SALARY_TRANSITIONS = ["2 hours", "2 days", "2 months", "6 months"]

#: Machine-readable benchmark results live here, one ``BENCH_<tag>.json`` per
#: experiment family (c3, c4, fig1, ...), scenario → metrics.  Files are
#: merged on update so the perf trajectory accumulates across PRs; CI uploads
#: the directory as an artifact.
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def record_bench(tag: str, scenario: str, **metrics) -> None:
    """Merge one scenario's metrics into ``benchmarks/results/BENCH_<tag>.json``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{tag}.json")
    data: Dict[str, Dict] = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data[scenario] = metrics
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _bench_tag(fullname: str) -> str:
    """``benchmarks/bench_c4_batch_insert.py::test_x`` → ``c4``."""
    module = os.path.basename(fullname.split("::", 1)[0])
    stem = module[:-3] if module.endswith(".py") else module
    parts = stem.split("_")
    return parts[1] if len(parts) > 1 and parts[0] == "bench" else stem


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session, exitstatus):
    """Persist every pytest-benchmark timing of this run as JSON results."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    for bench in getattr(bench_session, "benchmarks", []):
        stats = getattr(bench, "stats", None)
        mean = getattr(stats, "mean", None)
        if not mean:
            continue
        scenario = bench.fullname.split("::", 1)[-1]
        record_bench(
            _bench_tag(bench.fullname), scenario,
            ops_per_sec=round(1.0 / mean, 3),
            mean_seconds=round(mean, 9),
            rounds=getattr(stats, "rounds", None),
        )


def build_engine(strategy: str = "rewrite", with_indexes: bool = False,
                 with_purposes: bool = True) -> InstantDB:
    """InstantDB wired with the canonical PERSON table and Fig. 2 policies."""
    db = InstantDB(strategy=strategy)
    location = db.register_domain(build_location_tree())
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(location, transitions=LOCATION_TRANSITIONS,
                                    name="location_lcp"))
    db.register_policy(AttributeLCP(salary, transitions=SALARY_TRANSITIONS,
                                    name="salary_lcp"))
    db.execute(person_table_sql(policy_name="location_lcp", salary_policy="salary_lcp"))
    if with_indexes:
        db.execute("CREATE INDEX idx_user ON person (user_id) USING hash")
        db.execute("CREATE INDEX idx_id ON person (id) USING btree")
        db.execute("CREATE INDEX idx_activity ON person (activity) USING bitmap")
        db.execute("CREATE INDEX idx_location ON person (location) USING gt")
    if with_purposes:
        for sql in standard_purposes_sql():
            db.execute(sql)
        db.execute("DECLARE PURPOSE exact SET ACCURACY LEVEL address FOR person.location")
    return db


def load_trace(db: InstantDB, count: int, interval: float = 60.0,
               num_users: int = 40, seed: int = 7) -> List[float]:
    """Insert ``count`` location events, advancing the simulated clock; return
    the insertion timestamps."""
    generator = LocationTraceGenerator(num_users=num_users, seed=seed)
    times = []
    for index, event in enumerate(generator.events(count, interval=interval), start=1):
        db.clock.advance_to(event.timestamp)
        row = event.as_row()
        row["id"] = index
        db.insert_row("person", row)
        times.append(event.timestamp)
    return times


def print_table(title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Render one experiment's series the way the paper would tabulate it."""
    widths = [max(len(str(header[i])), *(len(str(row[i])) for row in rows)) if rows
              else len(str(header[i])) for i in range(len(header))]
    print(f"\n== {title} ==")
    print("  " + "  ".join(str(column).ljust(widths[i]) for i, column in enumerate(header)))
    for row in rows:
        print("  " + "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))


@pytest.fixture(scope="module")
def location_tree():
    return build_location_tree()


@pytest.fixture(scope="module")
def salary_scheme():
    return build_salary_ranges()


@pytest.fixture
def location_policy(location_tree):
    return AttributeLCP(location_tree, transitions=LOCATION_TRANSITIONS,
                        name="location_lcp")


@pytest.fixture
def salary_policy(salary_scheme):
    return AttributeLCP(salary_scheme, transitions=SALARY_TRANSITIONS,
                        name="salary_lcp")
