"""Future-work extensions: per-user (paranoid) policies and event-triggered steps."""

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_location_tree
from repro.core.errors import ExecutionError, PolicyError

from ..conftest import build_engine

PARIS = "1 Main Street, Paris"
LYON = "2 Station Road, Lyon"


class TestPerUserPolicies:
    @pytest.fixture
    def db(self):
        db = InstantDB()
        location = db.register_domain(build_location_tree())
        db.register_policy(AttributeLCP(location,
                                        transitions=["1 h", "1 d", "1 month", "3 months"],
                                        name="location_lcp"))
        from repro.core.schema import Column, TableSchema
        schema = TableSchema("visits", [
            Column("id", "INT", primary_key=True),
            Column("user_id", "INT"),
            Column("location", "TEXT", degradable=True, domain="location",
                   policy="location_lcp"),
        ])
        db.create_table(schema, selector_column="user_id")
        db.execute("DECLARE PURPOSE city SET ACCURACY LEVEL city FOR visits.location")
        db.execute("DECLARE PURPOSE address SET ACCURACY LEVEL address FOR visits.location")
        return db

    def test_paranoid_user_degrades_faster(self, db):
        location = db.registry.domain("location")
        strict = AttributeLCP(location, transitions=["5 min", "30 min", "1 h", "2 h"],
                              name="paranoid_lcp")
        db.register_user_policy("visits", 42, {"location": strict})
        db.execute(f"INSERT INTO visits VALUES (1, 42, '{PARIS}')")
        db.execute(f"INSERT INTO visits VALUES (2, 7, '{LYON}')")
        db.advance_time(minutes=10)
        # The paranoid user's tuple is already at city level; the default one is
        # still accurate.
        assert db.execute("SELECT id FROM visits", purpose="address").rows == [(2,)]
        assert db.execute("SELECT id, location FROM visits",
                          purpose="city").rows == [(1, "Paris"), (2, "Lyon")]

    def test_paranoid_tuple_disappears_earlier(self, db):
        location = db.registry.domain("location")
        strict = AttributeLCP(location, transitions=["5 min", "30 min", "1 h", "2 h"],
                              name="paranoid_lcp")
        db.register_user_policy("visits", 42, {"location": strict})
        db.execute(f"INSERT INTO visits VALUES (1, 42, '{PARIS}')")
        db.execute(f"INSERT INTO visits VALUES (2, 7, '{LYON}')")
        db.advance_time(hours=5)
        assert db.row_count("visits") == 1
        db.advance_time(days=200)
        assert db.row_count("visits") == 0

    def test_an_update_cannot_assign_the_selector(self, db):
        db.execute(f"INSERT INTO visits VALUES (1, 7, '{PARIS}')")
        with pytest.raises(ExecutionError, match="user_id"):
            db.execute("UPDATE visits SET user_id = 42 WHERE id = 1")
        db.execute("UPDATE visits SET id = 2 WHERE id = 1")
        assert db.execute("SELECT id, user_id FROM visits").rows == [(2, 7)]

    def test_override_requires_selector_column(self):
        db = build_engine()
        location = db.registry.domain("location")
        strict = AttributeLCP(location, transitions=["5 min", "30 min", "1 h", "2 h"],
                              name="paranoid2")
        with pytest.raises(PolicyError):
            db.register_user_policy("person", 42, {"location": strict})

    def test_override_on_table_without_policy_rejected(self):
        db = InstantDB()
        db.execute("CREATE TABLE plain (id INT PRIMARY KEY, note TEXT)")
        with pytest.raises(PolicyError):
            db.register_user_policy("plain", 1, {})


class TestEventTriggeredTransitions:
    @pytest.fixture
    def db(self):
        db = InstantDB()
        location = db.register_domain(build_location_tree())
        # Address degrades to city after 1 hour; the final suppression waits for
        # an explicit "case_closed" event (e.g. end of an investigation).
        db.register_policy(AttributeLCP(
            location, states=[0, 1, 4],
            transitions=["1 h", {"event": "case_closed"}],
            name="event_lcp"))
        db.execute("CREATE TABLE sightings (id INT PRIMARY KEY, "
                   "location TEXT DEGRADABLE DOMAIN location POLICY event_lcp)")
        db.execute("DECLARE PURPOSE city SET ACCURACY LEVEL city FOR sightings.location")
        return db

    def test_event_releases_final_transition(self, db):
        db.execute(f"INSERT INTO sightings VALUES (1, '{PARIS}')")
        db.advance_time(days=30)
        # Timed step ran, event step still pending.
        assert db.execute("SELECT location FROM sightings", purpose="city").rows == [("Paris",)]
        assert db.row_count("sightings") == 1
        db.fire_event("case_closed")
        assert db.row_count("sightings") == 0

    def test_event_before_timed_step_does_not_skip_levels(self, db):
        db.execute(f"INSERT INTO sightings VALUES (1, '{PARIS}')")
        # Fire the event while the tuple is still in its first (timed) state:
        # nothing is waiting on it yet, so nothing happens.
        db.fire_event("case_closed")
        assert db.row_count("sightings") == 1
        assert db.execute("SELECT location FROM sightings").rows == [(PARIS,)]

    def test_a_firing_releases_only_attributes_already_waiting(self, db):
        db.execute(f"INSERT INTO sightings VALUES (1, '{PARIS}')")
        db.advance_time(hours=2)              # row 1 waits on the event since 1h
        db.execute(f"INSERT INTO sightings VALUES (2, '{LYON}')")
        db.fire_event("case_closed")          # at 2h: row 1 goes, row 2 waits for 1h
        assert db.execute("SELECT id FROM sightings").rows == [(2,)]
        db.advance_time(hours=2)
        assert db.level_histogram("sightings", "location") == {1: 1}
        assert db.scheduler.has_waiters("case_closed")
        # The closed form lets a firing before the wait began release it.
        lcp = db.registry.policy("event_lcp")
        assert lcp.level_at(7200, {"case_closed": 0.0}) == 4

    def test_a_firing_at_the_instant_a_wait_begins_releases_it(self, db):
        db.execute(f"INSERT INTO sightings VALUES (1, '{PARIS}')")
        db.advance_time(hours=1)              # the timed step lands: waiting from now
        db.fire_event("case_closed")
        assert db.row_count("sightings") == 0

    @pytest.mark.parametrize("other_waiter", [False, True], ids=["alone", "other_waiter"])
    def test_a_step_held_back_past_a_firing_is_released_as_it_lands(self, db, other_waiter):
        """Waits are reckoned in schedule time: row 1 waits from the instant
        its timed step was due, so a firing while a lock held that step back
        releases it once the step lands — whether anything else waited."""
        if other_waiter:
            db.execute(f"INSERT INTO sightings VALUES (9, '{LYON}')")
            db.advance_time(hours=1)          # row 9 waits from now
        db.execute(f"INSERT INTO sightings VALUES (1, '{PARIS}')")
        holder = db.begin()
        db.execute("SELECT COUNT(*) FROM sightings", txn=holder)
        db.advance_time(hours=1)              # row 1's step is due: deferred 1 s
        db.advance_time(seconds=0.5)
        db.fire_event("case_closed")
        assert db.level_histogram("sightings", "location")[0] == 1     # row 1 held back
        db.commit(holder)
        db.advance_time(seconds=1)            # the step lands, the firing releases it
        assert db.row_count("sightings") == 0

    def test_unknown_event_is_noop(self, db):
        db.execute(f"INSERT INTO sightings VALUES (1, '{PARIS}')")
        assert db.fire_event("unrelated_event") == []
        assert db.row_count("sightings") == 1
