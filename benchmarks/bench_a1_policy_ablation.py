"""Experiment A1 — ablation of the paper's future-work extensions.

The paper's conclusion sketches three relaxations of its simplifying
assumptions: per-user ("paranoid") life cycle policies, event-triggered
transitions, and richer query semantics.  This ablation quantifies what the
first two change relative to the uniform timed policy of the main experiments:

* exposure: how much earlier a paranoid user's accurate data disappears;
* engine cost: extra scheduler/bookkeeping work caused by heterogeneous
  policies and by event firing.
"""

import pytest

from repro import AttributeLCP
from repro.core.clock import DAY, HOUR, MINUTE
from repro.core.domains import build_location_tree
from repro.core.schema import Column, TableSchema
from repro.engine import InstantDB
from repro.privacy.exposure import accurate_lifetime_of_policy
from repro.workloads import LocationTraceGenerator

from .conftest import print_table

NUM_EVENTS = 120
PARANOID_SHARE = 0.25


def build_visits_db() -> InstantDB:
    db = InstantDB()
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(
        location, transitions=["1 hour", "1 day", "1 month", "3 months"],
        name="location_lcp"))
    schema = TableSchema("visits", [
        Column("id", "INT", primary_key=True),
        Column("user_id", "INT"),
        Column("location", "TEXT", degradable=True, domain="location",
               policy="location_lcp"),
    ])
    db.create_table(schema, selector_column="user_id")
    db.execute("DECLARE PURPOSE exact SET ACCURACY LEVEL address FOR visits.location")
    db.execute("DECLARE PURPOSE city SET ACCURACY LEVEL city FOR visits.location")
    return db


def load_visits(db: InstantDB, paranoid_users: set, strict: AttributeLCP) -> list:
    generator = LocationTraceGenerator(num_users=20, seed=61)
    for user in paranoid_users:
        db.register_user_policy("visits", user, {"location": strict})
    events = generator.events(NUM_EVENTS, interval=60.0)
    for index, event in enumerate(events, start=1):
        db.clock.advance_to(event.timestamp)
        db.insert_row("visits", {"id": index, "user_id": event.user_id,
                                 "location": event.address})
    return events


def test_a1_per_user_policy_exposure(benchmark):
    """Accurate-data exposure of paranoid users vs default users over time."""
    location = build_location_tree()
    strict = AttributeLCP(location, transitions=["5 min", "30 min", "2 hours", "1 day"],
                          name="paranoid_lcp")
    paranoid_users = set(range(1, int(20 * PARANOID_SHARE) + 1))

    def run():
        db = build_visits_db()
        events = load_visits(db, paranoid_users, strict)
        db.advance_time(minutes=30)
        exact = db.execute("SELECT user_id FROM visits", purpose="exact").rows
        exact_users = {user for (user,) in exact}
        paranoid_exposed = len(exact_users & paranoid_users)
        default_exposed = len(exact_users - paranoid_users)
        inserted_paranoid = sum(1 for e in events if e.user_id in paranoid_users)
        return paranoid_exposed, default_exposed, inserted_paranoid

    paranoid_exposed, default_exposed, inserted_paranoid = benchmark(run)
    print_table("A1: users with accurate locations exposed 30 min after the last insert",
                ["population", "users still exposed"],
                [("paranoid users (5-min policy)", paranoid_exposed),
                 ("default users (1-hour policy)", default_exposed)])
    assert inserted_paranoid > 0
    # Shape: the stricter per-user policy shrinks the exposed population.
    assert paranoid_exposed <= default_exposed
    assert default_exposed > 0


def test_a1_per_user_policy_overhead(benchmark):
    """Scheduler work with uniform vs heterogeneous (per-user) policies."""
    location = build_location_tree()
    strict = AttributeLCP(location, transitions=["5 min", "30 min", "2 hours", "1 day"],
                          name="paranoid_lcp")

    def run(heterogeneous: bool):
        db = build_visits_db()
        load_visits(db, set(range(1, 6)) if heterogeneous else set(), strict)
        db.advance_time(days=2)
        return db.stats.degradation_steps_applied

    uniform_steps = run(False)
    heterogeneous_steps = run(True)
    benchmark(lambda: run(True))
    print_table("A1: degradation steps applied within two days",
                ["configuration", "steps"],
                [("uniform policy (paper's assumption)", uniform_steps),
                 ("per-user policies (25% paranoid)", heterogeneous_steps)])
    # Shape: stricter per-user policies front-load extra degradation work.
    assert heterogeneous_steps >= uniform_steps


def test_a1_event_triggered_transitions(benchmark):
    """Timed-only policy vs a policy whose final suppression waits for an event."""
    location = build_location_tree()

    def run():
        db = InstantDB()
        tree = db.register_domain(build_location_tree())
        db.register_policy(AttributeLCP(
            tree, states=[0, 1, 4], transitions=["1 hour", {"event": "case_closed"}],
            name="event_lcp"))
        db.execute("CREATE TABLE sightings (id INT PRIMARY KEY, "
                   "location TEXT DEGRADABLE DOMAIN location POLICY event_lcp)")
        generator = LocationTraceGenerator(num_users=10, seed=67)
        for index, event in enumerate(generator.events(60, interval=60.0), start=1):
            db.clock.advance_to(event.timestamp)
            db.insert_row("sightings", {"id": index, "location": event.address})
        db.advance_time(days=30)
        rows_before_event = db.row_count("sightings")
        released = db.fire_event("case_closed")
        return rows_before_event, sum(map(len, released)), db.row_count("sightings")

    before, released, after = benchmark(run)
    print_table("A1: event-triggered final suppression",
                ["metric", "value"],
                [("rows held while the event is pending (30 days)", before),
                 ("transitions released by the event", released),
                 ("rows remaining after the event", after)])
    # Shape: the event gate holds every tuple, then releases all of them at once.
    assert before == 60
    assert released == 60
    assert after == 0


def test_a1_policy_strictness_sweep(benchmark, location_policy):
    """Accurate-lifetime sweep: how the first-delay choice trades privacy for utility."""
    location = build_location_tree()
    variants = [
        ("paranoid (5 min)", ["5 min", "30 min", "2 hours", "1 day"]),
        ("paper Fig. 2 (1 hour)", ["1 hour", "1 day", "1 month", "3 months"]),
        ("lenient (1 day)", ["1 day", "1 week", "6 months", "1 year"]),
    ]

    def compute():
        rows = []
        for name, transitions in variants:
            policy = AttributeLCP(location, transitions=transitions, name=name)
            rows.append((name, accurate_lifetime_of_policy(policy) / MINUTE,
                         policy.total_lifetime / DAY))
        return rows

    rows = benchmark(compute)
    print_table("A1: policy strictness sweep",
                ["policy", "accurate window (minutes)", "total lifetime (days)"],
                [(name, f"{window:.0f}", f"{lifetime:.0f}") for name, window, lifetime in rows])
    windows = [window for _name, window, _lifetime in rows]
    assert windows == sorted(windows)
