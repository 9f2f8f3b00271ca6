"""Tests for the degradation scheduler."""

import pytest

from repro.core.clock import DAY, HOUR, MONTH
from repro.core.errors import DegradationError
from repro.core.lcp import AttributeLCP, TupleLCP
from repro.core.scheduler import DegradationScheduler, DegradationStep


@pytest.fixture
def tuple_lcp(location_tree):
    return TupleLCP({
        "location": AttributeLCP(location_tree,
                                 transitions=["1 hour", "1 day", "1 month", "3 months"]),
    })


@pytest.fixture
def two_attr_lcp(location_tree, salary_scheme):
    return TupleLCP({
        "location": AttributeLCP(location_tree,
                                 transitions=["1 hour", "1 day", "1 month", "3 months"]),
        "salary": AttributeLCP(salary_scheme, states=[0, 2, 4],
                               transitions=["2 hours", "2 days"]),
    })


def collect_applier(applied):
    def applier(step: DegradationStep) -> bool:
        applied.append(step)
        return True
    return applier


class TestRegistration:
    def test_register_and_query_state(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        assert scheduler.is_registered("r1")
        assert scheduler.current_state("r1") == {"location": 0}
        assert scheduler.registered_count() == 1

    def test_double_registration_rejected(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        with pytest.raises(DegradationError):
            scheduler.register("r1", tuple_lcp, inserted_at=1.0)

    def test_unknown_record_state_is_empty(self):
        # Unregistered (or completed/cancelled) ids report an empty state —
        # "no pending degradation" — instead of raising.
        scheduler = DegradationScheduler()
        assert scheduler.current_state("ghost") == {}
        assert not scheduler.is_registered("ghost")

    def test_cancel_removes_registration(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        scheduler.cancel("r1")
        assert not scheduler.is_registered("r1")
        # Cancelling twice is harmless.
        scheduler.cancel("r1")


class TestTimedSteps:
    def test_peek_next_due(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=10.0)
        assert scheduler.peek_next_due() == 10.0 + HOUR

    def test_nothing_due_before_first_delay(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        applied = []
        scheduler.run_due(HOUR - 1, collect_applier(applied))
        assert applied == []

    def test_steps_fire_in_order(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        applied = []
        scheduler.run_due(HOUR + DAY, collect_applier(applied))
        assert [(s.from_state, s.to_state) for s in applied] == [(0, 1), (1, 2)]

    def test_catch_up_applies_all_missed_steps(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        applied = []
        scheduler.run_due(10 * MONTH, collect_applier(applied))
        assert len(applied) == 4
        assert scheduler.stats.records_completed == 1
        assert not scheduler.is_registered("r1")

    def test_lag_statistics(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        applied = []
        scheduler.run_due(HOUR + 30, collect_applier(applied))
        assert scheduler.stats.steps_applied == 1
        assert scheduler.stats.max_lag == pytest.approx(30.0)
        assert scheduler.stats.mean_lag == pytest.approx(30.0)
        assert scheduler.stats.percentile_lag(0.5) == pytest.approx(30.0)

    def test_lag_distribution_is_bounded_and_keeps_its_percentiles(self):
        from repro.core.scheduler import SchedulerStats
        import random

        rng = random.Random(5)
        stats = SchedulerStats()
        lags = []
        for _ in range(4000):
            lag = rng.choice((0.0, rng.uniform(0.001, 5.0), rng.expovariate(1 / 3600.0)))
            count = rng.randrange(1, 400)
            stats.record_lag(lag, count)
            lags += [lag] * count
        lags.sort()
        assert stats.steps_applied == len(lags)
        assert stats.max_lag == lags[-1] == stats.percentile_lag(1.0)
        assert stats.mean_lag == pytest.approx(sum(lags) / len(lags))
        for q in (0.0, 0.1, 0.5, 0.9, 0.99):
            exact = lags[min(len(lags) - 1, int(q * len(lags)))]
            # the largest lag seen in the bucket that holds the rank: never
            # below the exact percentile, within the bucket's width above it
            assert exact <= stats.percentile_lag(q) <= exact * 1.13 + 1e-12
        assert len(stats._lag_buckets) < 400          # 4,000 chunks, 800,000 steps
        assert SchedulerStats().percentile_lag(0.5) == 0.0

    def test_batched_drain_records_lag_per_due_time(self, tuple_lcp):
        scheduler = DegradationScheduler()
        for index in range(50):
            scheduler.register(("t", index), tuple_lcp, inserted_at=float(index % 2))
        calls = []
        record_lag = scheduler.stats.record_lag
        scheduler.stats.record_lag = lambda lag, count=1: (
            calls.append((lag, count)), record_lag(lag, count))
        scheduler.run_due_batched(HOUR + 10, lambda key, steps: steps)
        assert sorted(calls) == [(9.0, 25), (10.0, 25)]
        assert scheduler.stats.steps_applied == 50
        assert scheduler.stats.mean_lag == pytest.approx(9.5)

    def test_completion_callback(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        completed = []
        scheduler.run_due(10 * MONTH, lambda step: True, on_complete=completed.append)
        assert completed == ["r1"]

    def test_applier_false_drops_without_state_change(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        scheduler.run_due(HOUR, lambda step: False)
        assert scheduler.current_state("r1") == {"location": 0}

    def test_defer_requeues_step(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        deferred = []

        def refusing(step):
            deferred.append(step)
            scheduler.defer(step, until=step.due + 100)
            return False

        scheduler.run_due(HOUR, refusing)
        assert len(deferred) == 1
        applied = []
        scheduler.run_due(HOUR + 200, collect_applier(applied))
        assert [(s.from_state, s.to_state) for s in applied] == [(0, 1)]

    def test_multiple_records_independent(self, tuple_lcp, two_attr_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("a", tuple_lcp, inserted_at=0.0)
        scheduler.register("b", two_attr_lcp, inserted_at=HOUR)
        applied = []
        scheduler.run_due(2 * HOUR, collect_applier(applied))
        records = {record_id for step in applied for record_id in step.record_ids}
        assert records == {"a", "b"}

    def test_pending_count_skips_stale(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        assert scheduler.pending_count() == 1
        scheduler.cancel("r1")
        assert scheduler.pending_count() == 0
        assert scheduler.peek_next_due() is None


class TestCancellation:
    def test_cancel_counts_actual_pending_steps(self, two_attr_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", two_attr_lcp, inserted_at=0.0)
        # Two degradable attributes, each with a pending next step.
        assert scheduler.cancel("r1") == 2
        assert scheduler.stats.steps_cancelled == 2

    def test_cancel_counts_remaining_steps_only(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        scheduler.run_due(HOUR + DAY, lambda step: True)   # two of four applied
        assert scheduler.cancel("r1") == 1                 # one next step pending
        assert scheduler.stats.steps_cancelled == 1

    def test_cancel_ignores_never_firing_transitions(self, location_tree):
        lcp = AttributeLCP(location_tree, states=[0, 4],
                           transitions=[float("inf")])
        scheduler = DegradationScheduler()
        scheduler.register("r1", TupleLCP({"location": lcp}), inserted_at=0.0)
        assert scheduler.pending_count() == 0       # never scheduled
        assert scheduler.cancel("r1") == 0          # so nothing to cancel
        assert scheduler.stats.steps_cancelled == 0

    def test_cancel_unknown_record_counts_nothing(self, tuple_lcp):
        scheduler = DegradationScheduler()
        assert scheduler.cancel("ghost") == 0
        assert scheduler.stats.steps_cancelled == 0

    def test_cancel_purges_event_waiters(self, location_tree):
        lcp = AttributeLCP(location_tree, states=[0, 4], transitions=[{"event": "go"}])
        scheduler = DegradationScheduler()
        scheduler.register("r1", TupleLCP({"location": lcp}), inserted_at=0.0)
        scheduler.register("r2", TupleLCP({"location": lcp}), inserted_at=0.0)
        assert scheduler.cancel("r1") == 1
        # The cancelled record is released no more; the survivor still is.
        assert scheduler.has_waiters("go")
        scheduler.cancel("r2")
        assert not scheduler.has_waiters("go")
        assert scheduler._event_waiters == {}


class TestPredictComplete:
    def test_final_step_predicted_without_mutation(self, location_tree):
        lcp = AttributeLCP(location_tree, states=[0, 4], transitions=["1 hour"])
        scheduler = DegradationScheduler()
        scheduler.register("r1", TupleLCP({"location": lcp}), inserted_at=0.0)
        steps = scheduler.due_steps(HOUR)
        assert scheduler.predict_complete(steps) == ["r1"]
        # Pure prediction: the registration and its state are untouched.
        assert scheduler.is_registered("r1")
        assert scheduler.current_state("r1") == {"location": 0}

    def test_intermediate_step_predicts_nothing(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        steps = scheduler.due_steps(HOUR)           # first of four transitions
        assert scheduler.predict_complete(steps) == []

    def test_all_attributes_must_finalize(self, location_tree, salary_scheme):
        lcp = TupleLCP({
            "location": AttributeLCP(location_tree, states=[0, 4],
                                     transitions=["1 hour"]),
            "salary": AttributeLCP(salary_scheme, states=[0, 4],
                                   transitions=["2 days"]),
        })
        scheduler = DegradationScheduler()
        scheduler.register("r1", lcp, inserted_at=0.0)
        only_location = scheduler.due_steps(HOUR)
        assert [s.attribute for s in only_location] == ["location"]
        assert scheduler.predict_complete(only_location) == []
        both = only_location + scheduler.due_steps(3 * DAY)
        assert scheduler.predict_complete(both) == ["r1"]

    def test_stale_and_unknown_steps_ignored(self, location_tree):
        lcp = TupleLCP({"location": AttributeLCP(
            location_tree, states=[0, 1, 4], transitions=["1 hour", "1 hour"])})
        scheduler = DegradationScheduler()
        scheduler.register("r1", lcp, inserted_at=0.0)
        scheduler.register("ghost", lcp, inserted_at=1.0)
        stale, ghost = scheduler.due_steps(HOUR + 1)
        scheduler._mark_applied([stale], HOUR, [], None)   # r1 moved on: stale
        scheduler.cancel("ghost")                          # no record left
        assert (stale.record_ids, ghost.record_ids) == (("r1",), ("ghost",))
        assert scheduler.predict_complete([stale, ghost]) == []


class TestOverdueCount:
    def test_overdue_count_tracks_due_steps(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        scheduler.register("r2", tuple_lcp, inserted_at=HOUR)
        assert scheduler.overdue_count(HOUR - 1) == 0
        assert scheduler.overdue_count(HOUR) == 1
        assert scheduler.overdue_count(2 * HOUR) == 2

    def test_overdue_count_skips_stale_entries(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        scheduler.cancel("r1")
        assert scheduler.overdue_count(10 * MONTH) == 0

    def test_overdue_count_does_not_pop(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        assert scheduler.overdue_count(HOUR) == 1
        assert scheduler.overdue_count(HOUR) == 1
        applied = []
        scheduler.run_due(HOUR, collect_applier(applied))
        assert len(applied) == 1


class TestBatchedDrain:
    def test_due_batches_group_by_record_id_prefix(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register(("person", 1), tuple_lcp, inserted_at=0.0)
        scheduler.register(("person", 2), tuple_lcp, inserted_at=0.0)
        scheduler.register(("visits", 1), tuple_lcp, inserted_at=0.0)
        batches = scheduler.due_batches(HOUR)
        assert {batch.key: len(batch) for batch in batches} == {"person": 2, "visits": 1}

    def test_due_batches_respects_max_batch(self, tuple_lcp):
        scheduler = DegradationScheduler()
        for key in range(5):
            scheduler.register(("person", key), tuple_lcp, inserted_at=0.0)
        first = scheduler.due_batches(HOUR, max_batch=3)
        assert sum(len(batch) for batch in first) == 3
        rest = scheduler.due_batches(HOUR, max_batch=3)
        assert sum(len(batch) for batch in rest) == 2

    def test_run_due_batched_applies_and_completes(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register(("person", 1), tuple_lcp, inserted_at=0.0)
        completed = []
        applied = scheduler.run_due_batched(
            10 * MONTH, lambda key, steps: steps, on_complete=completed.append)
        assert len(applied) == 4                     # full life cycle, catch-up
        assert completed == [("person", 1)]
        assert scheduler.stats.steps_applied == 4
        assert scheduler.stats.records_completed == 1

    def test_run_due_batched_partial_application(self, tuple_lcp):
        scheduler = DegradationScheduler()
        # Inserted a second apart: two cohorts, so the applier can tell them
        # apart (one cohort steps as a whole).
        scheduler.register(("person", 1), tuple_lcp, inserted_at=0.0)
        scheduler.register(("person", 2), tuple_lcp, inserted_at=1.0)

        def applier(key, steps):
            kept = [step for step in steps if step.record_ids == (("person", 1),)]
            for step in steps:
                if step not in kept:
                    scheduler.defer(step, until=2 * HOUR)
            return kept

        applied = scheduler.run_due_batched(HOUR, applier)
        assert [step.record_ids for step in applied] == [(("person", 1),)]
        assert scheduler.current_state(("person", 2)) == {"location": 0}
        # The deferred step fires on the next drain.
        applied = scheduler.run_due_batched(2 * HOUR, lambda key, steps: steps)
        assert (("person", 2),) in {step.record_ids for step in applied}

    def test_run_due_batched_max_batch_drains_everything(self, tuple_lcp):
        scheduler = DegradationScheduler()
        for key in range(7):
            scheduler.register(("person", key), tuple_lcp, inserted_at=0.0)
        applied = scheduler.run_due_batched(HOUR, lambda key, steps: steps,
                                            max_batch=2)
        # One cohort, cut into steps of at most two records.
        assert [len(step) for step in applied] == [2, 2, 2, 1]


class TestCohorts:
    """Rows registered at one instant under one policy are one queue entry
    per attribute and state, until something happens to some of them."""

    def cohorts(self, scheduler):
        return sorted(sorted(snap.record_ids) for snap in scheduler.snapshot().cohorts)

    def test_rows_registered_together_step_together(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register_many([("t", 1), ("t", 2), ("t", 3)], tuple_lcp, inserted_at=0.0)
        scheduler.register(("t", 4), tuple_lcp, inserted_at=0.0)       # joins
        scheduler.register(("t", 5), tuple_lcp, inserted_at=1.0)       # another instant
        scheduler.register(("u", 6), tuple_lcp, inserted_at=0.0)       # another table
        assert self.cohorts(scheduler) == [[("t", 1), ("t", 2), ("t", 3), ("t", 4)],
                                           [("t", 5)], [("u", 6)]]
        assert len(scheduler._heap) == 3
        steps = scheduler.due_steps(HOUR)                # ("t", 5) is due a second later
        assert [len(step) for step in steps] == [4, 1]
        assert all(step.tuple_lcp is tuple_lcp for step in steps)

    def test_a_cohort_something_happened_to_takes_no_newcomers(self, location_tree):
        lcp = TupleLCP({"location": AttributeLCP(
            location_tree, states=[0, 4], transitions=[{"event": "go"}])})
        scheduler = DegradationScheduler()
        scheduler.register("r1", lcp, inserted_at=0.0)
        scheduler.fire_event("go", now=0.0)
        scheduler.register("r2", lcp, inserted_at=0.0)     # still waiting on "go"
        assert self.cohorts(scheduler) == [["r1"], ["r2"]]
        assert scheduler.current_state("r2") == {"location": 0}
        assert scheduler.has_waiters("go")

    def test_a_popped_cohort_takes_no_newcomers(self, location_tree):
        lcp = TupleLCP({"location": AttributeLCP(
            location_tree, states=[0, 1, 4], transitions=[0.0, "1 hour"])})
        scheduler = DegradationScheduler()
        scheduler.register("r1", lcp, inserted_at=0.0)
        (step,) = scheduler.due_steps(0.0)               # due at once, in flight
        scheduler.register("r2", lcp, inserted_at=0.0)
        scheduler._mark_applied([step], 0.0, [], None)
        assert step.record_ids == ("r1",)
        assert (scheduler.current_state("r1"), scheduler.current_state("r2")) == \
            ({"location": 1}, {"location": 0})
        assert [step.record_ids for step in scheduler.due_steps(0.0)] == [("r2",)]

    def test_a_max_batch_cut_splits_a_cohort_in_the_same_state(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register_many([("t", key) for key in range(5)], tuple_lcp, inserted_at=0.0)
        (batch,) = scheduler.due_batches(HOUR, max_batch=3)
        (step,) = batch.steps
        assert step.record_ids == (("t", 0), ("t", 1), ("t", 2))
        assert self.cohorts(scheduler) == [[("t", 0), ("t", 1), ("t", 2)],
                                           [("t", 3), ("t", 4)]]
        scheduler._mark_applied([step], HOUR, [], None)
        assert scheduler.current_state(("t", 0)) == {"location": 1}
        assert scheduler.current_state(("t", 4)) == {"location": 0}
        (rest,) = scheduler.due_steps(HOUR)
        assert rest.record_ids == (("t", 3), ("t", 4)) and rest.due == HOUR

    def test_partial_replay_splits_a_cohort(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register_many(["a", "b", "c"], tuple_lcp, inserted_at=0.0)
        assert scheduler.replay_applied(["b"], "location", 1, HOUR) == 1
        assert scheduler.replay_defer(["c"], "location", 0, HOUR, 2 * HOUR) == 1
        assert self.cohorts(scheduler) == [["a"], ["b"], ["c"]]
        assert [(step.record_ids, step.due) for step in scheduler.due_steps(HOUR)] == \
            [(("a",), HOUR)]


class TestEventSteps:
    def test_event_transition_waits_for_event(self, location_tree):
        lcp = AttributeLCP(location_tree, states=[0, 1, 4],
                           transitions=["1 h", {"event": "subpoena_denied"}])
        scheduler = DegradationScheduler()
        scheduler.register("r1", TupleLCP({"location": lcp}), inserted_at=0.0)
        applied = []
        scheduler.run_due(10 * MONTH, collect_applier(applied))
        assert [(s.from_state, s.to_state) for s in applied] == [(0, 1)]
        # Now fire the event: the final transition becomes due immediately.
        released = scheduler.fire_event("subpoena_denied", now=10 * MONTH)
        assert len(released) == 1
        scheduler.run_due(10 * MONTH, collect_applier(applied))
        assert [(s.from_state, s.to_state) for s in applied] == [(0, 1), (1, 2)]
        assert scheduler.stats.records_completed == 1

    def test_event_for_cancelled_record_is_ignored(self, location_tree):
        lcp = AttributeLCP(location_tree, states=[0, 4], transitions=[{"event": "go"}])
        scheduler = DegradationScheduler()
        scheduler.register("r1", TupleLCP({"location": lcp}), inserted_at=0.0)
        scheduler.cancel("r1")
        assert scheduler.fire_event("go", now=5.0) == []

    def test_unknown_event_is_noop(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        assert scheduler.fire_event("never_registered", now=1.0) == []

    def test_timed_step_after_event_transition_fires(self, location_tree):
        """A timed transition that follows an event counts from the event time."""
        lcp = AttributeLCP(location_tree, states=[0, 1, 4],
                           transitions=[{"event": "released"}, "1 hour"])
        scheduler = DegradationScheduler()
        scheduler.register("r1", TupleLCP({"location": lcp}), inserted_at=0.0)
        applied = []
        # Nothing fires by time alone, however long we wait.
        scheduler.run_due(10 * MONTH, collect_applier(applied))
        assert applied == []
        scheduler.fire_event("released", now=DAY)
        scheduler.run_due(DAY, collect_applier(applied))
        assert [(s.from_state, s.to_state) for s in applied] == [(0, 1)]
        # The follow-up timed step is due one hour after the event fired.
        assert scheduler.peek_next_due() == DAY + HOUR
        scheduler.run_due(DAY + HOUR, collect_applier(applied))
        assert [(s.from_state, s.to_state) for s in applied] == [(0, 1), (1, 2)]
        assert scheduler.stats.records_completed == 1


class TestSnapshotRestore:
    """The durable due-queue: snapshot / restore_from / replay_* round trips."""

    def test_snapshot_fields_round_trip(self, two_attr_lcp):
        scheduler = DegradationScheduler()
        scheduler.register(("person", 1), two_attr_lcp, inserted_at=10.0)
        snapshot = scheduler.snapshot(now=20.0)
        from repro.core.scheduler import SchedulerSnapshot
        rebuilt = SchedulerSnapshot.from_fields(snapshot.to_fields())
        assert rebuilt.taken_at == 20.0
        assert len(rebuilt.cohorts) == 1
        snap = rebuilt.cohorts[0]
        assert snap.record_ids == [("person", 1)]
        assert snap.inserted_at == 10.0
        assert snap.current_states == {"location": 0, "salary": 0}
        assert snap.pending["location"] == (10.0 + HOUR, 10.0 + HOUR)

    def test_restore_preserves_queue_and_cadence(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        applied = []
        scheduler.run_due(HOUR, collect_applier(applied))
        restored = DegradationScheduler()
        count = restored.restore_from(scheduler.snapshot(),
                                      lambda record_id, policies=None: tuple_lcp)
        assert count == 1
        assert restored.current_state("r1") == {"location": 1}
        assert restored.peek_next_due() == HOUR + DAY
        # The restored queue drains exactly like the original would.
        restored.run_due(HOUR + DAY, collect_applier(applied))
        assert restored.current_state("r1") == {"location": 2}

    def test_restore_resolver_none_drops_registration(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        scheduler.register("r2", tuple_lcp, inserted_at=0.0)
        restored = DegradationScheduler()
        count = restored.restore_from(
            scheduler.snapshot(),
            lambda record_id, policies=None: tuple_lcp if record_id == "r2" else None)
        assert count == 1
        assert not restored.is_registered("r1")
        assert restored.is_registered("r2")

    def test_restore_preserves_deferral(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        (step,) = scheduler.due_steps(HOUR)
        scheduler.defer(step, until=2 * HOUR)       # e.g. a lock conflict
        restored = DegradationScheduler()
        restored.restore_from(scheduler.snapshot(), lambda record_id, policies=None: tuple_lcp)
        # Not due before the retry time, due at it, with original lag basis.
        assert restored.due_steps(2 * HOUR - 1) == []
        (redone,) = restored.due_steps(2 * HOUR)
        assert redone.due == HOUR

    def test_restore_preserves_event_waiters(self, location_tree):
        lcp = TupleLCP({"location": AttributeLCP(
            location_tree, states=[0, 4], transitions=[{"event": "go"}])})
        scheduler = DegradationScheduler()
        scheduler.register("r1", lcp, inserted_at=0.0)
        restored = DegradationScheduler()
        restored.restore_from(scheduler.snapshot(), lambda record_id, policies=None: lcp)
        released = restored.fire_event("go", now=5.0)
        assert [step.record_ids for step in released] == [("r1",)]

    def test_replay_applied_matches_live_application(self, tuple_lcp):
        live = DegradationScheduler()
        live.register("r1", tuple_lcp, inserted_at=0.0)
        applied = []
        live.run_due(HOUR, collect_applier(applied))

        replayed = DegradationScheduler()
        replayed.register("r1", tuple_lcp, inserted_at=0.0)
        assert replayed.replay_applied(["r1"], "location", to_state=1, due=HOUR)
        assert replayed.current_state("r1") == live.current_state("r1")
        assert replayed.peek_next_due() == live.peek_next_due()
        # Replays are stats-neutral: no lag is recorded.
        assert replayed.stats.steps_applied == 0

    def test_replay_applied_rejects_stale_or_unknown(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        assert not scheduler.replay_applied(["ghost"], "location", 1, HOUR)
        assert scheduler.replay_applied(["r1"], "location", 1, HOUR)
        # Replaying the same step twice is a no-op (exactly-once).
        assert not scheduler.replay_applied(["r1"], "location", 1, HOUR)

    def test_replay_applied_drops_final_registrations(self, location_tree):
        lcp = TupleLCP({"location": AttributeLCP(
            location_tree, states=[0, 4], transitions=["1 hour"])})
        scheduler = DegradationScheduler()
        scheduler.register("r1", lcp, inserted_at=0.0)
        assert scheduler.replay_applied(["r1"], "location", 1, HOUR)
        assert not scheduler.is_registered("r1")
        assert scheduler.stats.records_completed == 0   # stats-neutral

    def test_replay_defer_moves_queued_step(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        assert scheduler.replay_defer(["r1"], "location", from_state=0,
                                      due=HOUR, until=3 * HOUR)
        assert scheduler.due_steps(2 * HOUR) == []
        (step,) = scheduler.due_steps(3 * HOUR)
        assert step.due == HOUR

    def test_restore_skips_already_registered_and_final(self, tuple_lcp):
        scheduler = DegradationScheduler()
        scheduler.register("r1", tuple_lcp, inserted_at=0.0)
        snapshot = scheduler.snapshot()
        # Restoring over an existing registration leaves it alone.
        assert scheduler.restore_from(snapshot, lambda record_id, policies=None: tuple_lcp) == 0
        assert scheduler.pending_count() == 1
