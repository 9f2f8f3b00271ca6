"""Degradation scheduler: the machinery that makes degradation *timely*.

A tuple crosses every transition of its life cycle policy at a fixed delay
after its insertion, so the rows one statement inserts under one tuple LCP
degrade together.  The scheduler tracks **cohorts**: records of one group
(the table, for engine record ids ``(table, row_key)``) registered with one
:class:`~repro.core.lcp.TupleLCP` at one insertion time, in one state.  A
cohort holds one entry per pending ``(attribute, state)`` in a priority queue
ordered by due time, and a due entry is one :class:`DegradationStep` for all
of its records.  A record leaves its cohort only when it is cancelled
(deleted, removed): a drain advances, defers or finishes whole cohorts and
never splits one.

Due steps drain grouped by table: :meth:`DegradationScheduler.run_due_batched`
hands each group's due steps to a *batch applier*, which performs the
physical degradation, so the engine pays one system transaction, one lock
and one durable WAL flush per group and round (:meth:`run_due` hands the
steps to a per-step callback through the same drain).  Event-triggered
transitions (:meth:`fire_event`) and per-tuple policies — the paper's
future-work extensions — are supported.

The schedule is **derived**, never logged: a record's state and due times
follow from its tuple LCP, its insertion time, the accuracy levels it is
stored at and the event firings on record, so
:meth:`DegradationScheduler.register_many` places a fresh insert (every
attribute at its first state) and a row recovery finds on the heap (at its
stored levels) the same way.  Each due time is the previous state's entry
time plus the delay, step by step from the insertion, exactly as a live
application moves a cohort on; an event transition is released by the
first firing at or after the attribute started waiting (a tie releases: the
earlier degradation is the privacy-safe side).  The firings are the one
input the heap cannot give back: the engine logs each one, and
:meth:`DegradationScheduler.snapshot` names those a checkpoint must log
again.  Lag statistics (due time to application) are collected for the
benchmarks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DegradationError
from .lcp import NEVER, AttributeLCP, TupleLCP


#: ``(group, tuple LCP, inserted_at, the states registered in)``.
_CohortKey = Tuple[Any, TupleLCP, float, Tuple[int, ...]]


class _Cohort:
    """Records registered together, in one state: ``key`` is ``(group,
    tuple LCP, inserted_at, states registered in)``; per attribute the
    state, when it was entered (scheduled time, so catch-up keeps the
    original cadence), the event it waits on, and its one live queue entry."""

    __slots__ = ("key", "members", "states", "entered_at", "waiting_on", "queued")

    def __init__(self, key: _CohortKey, states: Dict[str, int],
                 entered_at: Dict[str, float]) -> None:
        self.key = key
        self.members: Dict[Any, None] = {}
        self.states = states
        self.entered_at = entered_at
        self.waiting_on: Dict[str, str] = {}
        #: attribute → its entry in the due-queue, ``(at, seq, cohort,
        #: attribute, from_state, due, event)``; an entry in the heap that is
        #: not the one here is stale and skipped when popped.
        self.queued: Dict[str, tuple] = {}

    def is_final(self) -> bool:
        return _final(self.key[1], self.states)

    def pending_step_count(self) -> int:
        """Pending next steps of one member: one per attribute with a
        scheduled or waiting transition (infinite delays never schedule)."""
        count = 0
        for name, lcp in self.key[1].attributes.items():
            state = self.states[name]
            if state + 1 >= lcp.num_states:
                continue
            transition = lcp.transitions[state]
            if name in self.waiting_on or (
                    transition.timed and float(transition.delay) != NEVER):
                count += 1
        return count


def _final(tuple_lcp: TupleLCP, states: Dict[str, int]) -> bool:
    return all(states[name] == lcp.num_states - 1
               for name, lcp in tuple_lcp.attributes.items())


def _group_of(record_id: Any) -> Any:
    """Engine record ids are ``(table, row_key)`` tuples: group by table."""
    if isinstance(record_id, tuple) and record_id:
        return record_id[0]
    return None


class DegradationStep:
    """One scheduled attribute transition of a cohort: every record of
    ``record_ids`` takes ``attribute`` from ``from_state`` to ``to_state``,
    due at ``due``.  ``len(step)`` is the number of records."""

    __slots__ = ("record_ids", "attribute", "from_state", "to_state", "due",
                 "event", "tuple_lcp", "_cohort")

    def __init__(self, cohort: _Cohort, attribute: str, from_state: int,
                 due: float, event: Optional[str] = None) -> None:
        self.record_ids: Tuple[Any, ...] = tuple(cohort.members)
        self.attribute = attribute
        self.from_state = from_state
        self.to_state = from_state + 1
        self.due = due
        #: Name of the event that released the step, or ``None`` (timed).
        self.event = event
        self.tuple_lcp: TupleLCP = cohort.key[1]
        self._cohort = cohort

    def __len__(self) -> int:
        return len(self.record_ids)

    def describe(self) -> str:
        trigger = f"at t={self.due}" if self.event is None else f"on event {self.event!r}"
        return (f"{len(self)} record(s) {list(self.record_ids[:3])}"
                f"{'...' if len(self) > 3 else ''}: {self.attribute} "
                f"d{self.from_state}->d{self.to_state} {trigger}")

    __repr__ = describe


@dataclass
class SchedulerStats:
    """Aggregate timeliness statistics exposed to benchmarks and tests."""

    steps_applied: int = 0
    steps_cancelled: int = 0
    records_completed: int = 0
    total_lag: float = 0.0
    max_lag: float = 0.0
    #: Lag distribution in bounded space: bucket → ``[steps, largest lag seen
    #: in it]``.  Eight buckets per power of two (6–12 % wide), and a float
    #: has only so many exponents, so a server that runs for years holds a
    #: few hundred entries where it used to hold a float per step.
    _lag_buckets: Dict[float, List[float]] = field(default_factory=dict, repr=False)

    def record_lag(self, lag: float, count: int = 1) -> None:
        """``count`` steps — a cohort's — were applied ``lag`` late."""
        self.steps_applied += count
        self.total_lag += lag * count
        self.max_lag = max(self.max_lag, lag)
        mantissa, exponent = math.frexp(lag)
        key = 8 * exponent + int(16 * mantissa) if lag > 0.0 else -math.inf
        bucket = self._lag_buckets.setdefault(key, [0, lag])
        bucket[0] += count
        bucket[1] = max(bucket[1], lag)

    @property
    def mean_lag(self) -> float:
        return self.total_lag / self.steps_applied if self.steps_applied else 0.0

    def percentile_lag(self, q: float) -> float:
        """Lag percentile (``q`` in [0, 1]): the largest lag seen in the
        bucket holding that rank — exact at the maximum, within a bucket's
        width below it."""
        rank = min(self.steps_applied - 1, int(q * self.steps_applied))
        for _bucket, (count, lag) in sorted(self._lag_buckets.items()):
            rank -= count
            if rank < 0:
                return lag
        return 0.0


#: Batch applier callback: receives a group key (the table name for engine
#: record ids) and that group's due steps; returns the steps that were applied
#: successfully (steps it dropped or deferred are simply not returned).
BatchApplier = Callable[[Any, List[DegradationStep]], List[DegradationStep]]


class DegradationScheduler:
    """Priority-queue scheduler of cohort degradation steps — independent of
    the storage engine, which registers records and provides the applier."""

    def __init__(self) -> None:
        self.stats = SchedulerStats()
        #: Event → the times it fired, ascending.
        self._firings: Dict[str, List[float]] = {}
        self.clear()

    def clear(self) -> None:
        """Forget every registration (the firings and the statistics stay),
        for the schedule to be derived afresh from the heap."""
        self._heap: List[tuple] = []
        self._cohort_of: Dict[Any, _Cohort] = {}
        #: Live cohorts, in creation order.
        self._cohorts: Dict[_Cohort, None] = {}
        #: Cohort key → the cohort new registrations of that key join: one
        #: nothing has happened to yet (no step popped or released), so a
        #: newcomer's schedule is exactly its schedule.
        self._open: Dict[_CohortKey, _Cohort] = {}
        self._event_waiters: Dict[str, List[Tuple[_Cohort, str]]] = {}
        self._counter = itertools.count()

    # -- registration ---------------------------------------------------------

    def register(self, record_id: Any, tuple_lcp: TupleLCP, inserted_at: float) -> None:
        """Start tracking ``record_id`` — :meth:`register_many` with one id."""
        self.register_many((record_id,), tuple_lcp, inserted_at)

    def register_many(self, record_ids: Sequence[Any], tuple_lcp: TupleLCP,
                      inserted_at: float, levels: Optional[Dict[str, int]] = None) -> None:
        """Start tracking ``record_ids`` — records of one group under one
        tuple LCP, inserted at ``inserted_at`` and stored at ``levels``
        (attribute → accuracy level; ``None`` is a fresh insert's, every
        attribute in its first state) — as one cohort in the state those
        levels are, or as newcomers to an untouched cohort of theirs.  Each
        state's entry time is derived step by step from ``inserted_at``.
        Records already in their final tuple state are not tracked."""
        if not record_ids:
            return
        if not self._cohort_of.keys().isdisjoint(record_ids):
            taken = next(rid for rid in record_ids if rid in self._cohort_of)
            raise DegradationError(f"record {taken!r} is already registered")
        states = {name: 0 if levels is None else lcp.level_to_state(levels[name])
                  for name, lcp in tuple_lcp.attributes.items()}
        if _final(tuple_lcp, states):
            return
        key = (_group_of(record_ids[0]), tuple_lcp, inserted_at, tuple(states.values()))
        cohort = self._open.get(key)
        if cohort is None:
            cohort = self._open[key] = _Cohort(key, states, {
                name: self._entered_at(lcp, states[name], inserted_at)
                for name, lcp in tuple_lcp.attributes.items()})
            self._cohorts[cohort] = None
            for attribute in tuple_lcp.attributes:
                self._schedule_next(cohort, attribute)
        cohort.members.update(dict.fromkeys(record_ids))
        self._cohort_of.update(dict.fromkeys(record_ids, cohort))

    def _entered_at(self, lcp: AttributeLCP, state: int, inserted_at: float) -> float:
        """When a record inserted at ``inserted_at`` entered ``state`` of
        ``lcp``: each timed step adds its delay to the previous entry time
        (the sum a live cohort accumulates, in the same order); an event
        step took the first firing at or after it — or, with none on
        record, the earliest time it can have happened."""
        entered = inserted_at
        for transition in lcp.transitions[:state]:
            if transition.timed:
                entered = entered + float(transition.delay)
            else:
                fired = self._fired(transition.event, entered)
                entered = entered if fired is None else fired
        return entered

    def _fired(self, event: str, since: float) -> Optional[float]:
        """The first firing of ``event`` at or after ``since``, if any."""
        times = self._firings.get(event, ())
        at = bisect_left(times, since)
        return times[at] if at < len(times) else None

    def cancel(self, record_id: Any) -> int:
        """Stop tracking ``record_id`` (explicit delete); returns how many of
        its steps were pending (one per attribute not yet final).  An emptied
        cohort's queue entries go stale, its event waiters are purged."""
        cohort = self._cohort_of.pop(record_id, None)
        if cohort is None:
            return 0
        del cohort.members[record_id]
        cancelled = cohort.pending_step_count()
        self.stats.steps_cancelled += cancelled
        if not cohort.members:
            self._retire(cohort)
        return cancelled

    def is_registered(self, record_id: Any) -> bool:
        """Whether ``record_id`` is currently tracked by the scheduler."""
        return record_id in self._cohort_of

    def registered_count(self) -> int:
        """Number of live registrations (records not yet in their final state)."""
        return len(self._cohort_of)

    def current_state(self, record_id: Any) -> Dict[str, int]:
        """Per-attribute state indices of ``record_id`` — an **empty dict**
        ("no pending degradation") for ids the scheduler does not track:
        never registered, completed or cancelled (see :meth:`is_registered`)."""
        cohort = self._cohort_of.get(record_id)
        return {} if cohort is None else dict(cohort.states)

    # -- cohort internals -----------------------------------------------------

    def _close(self, cohort: _Cohort) -> None:
        """No newcomer joins ``cohort`` any more: its schedule moved on."""
        if self._open.get(cohort.key) is cohort:
            del self._open[cohort.key]

    def _retire(self, cohort: _Cohort) -> None:
        """Drop an emptied (or completed) cohort and everything queued for it."""
        self._cohorts.pop(cohort, None)
        self._close(cohort)
        for attribute, event in cohort.waiting_on.items():
            self._unwait(cohort, attribute, event)
        cohort.queued.clear()

    def _unwait(self, cohort: _Cohort, attribute: str, event: str) -> None:
        remaining = [waiter for waiter in self._event_waiters.get(event, ())
                     if waiter[0] is not cohort or waiter[1] != attribute]
        if remaining:
            self._event_waiters[event] = remaining
        else:
            self._event_waiters.pop(event, None)

    def _finish(self, cohort: _Cohort) -> None:
        """``cohort`` reached its final tuple state: its records leave."""
        for record_id in cohort.members:
            del self._cohort_of[record_id]
        cohort.members.clear()
        self._retire(cohort)

    def _push(self, cohort: _Cohort, attribute: str, from_state: int, due: float,
              at: float, event: Optional[str] = None) -> None:
        """Queue ``cohort``'s step of ``attribute`` at position ``at``."""
        entry = (at, next(self._counter), cohort, attribute, from_state, due, event)
        heapq.heappush(self._heap, entry)
        cohort.queued[attribute] = entry

    def _schedule_next(self, cohort: _Cohort, attribute: str) -> None:
        cohort.queued.pop(attribute, None)
        lcp = cohort.key[1].attributes[attribute]
        state = cohort.states[attribute]
        if state + 1 >= lcp.num_states:
            return
        transition = lcp.transitions[state]
        if transition.timed:
            # Relative to when the current state was entered, so timed steps
            # that follow an event transition fire `delay` after the event.
            due = cohort.entered_at[attribute] + float(transition.delay)
            if due != NEVER:
                self._push(cohort, attribute, state, due, due)
        else:
            fired = self._fired(transition.event, cohort.entered_at[attribute])
            if fired is not None:
                self._push(cohort, attribute, state, fired, fired, transition.event)
                return
            cohort.waiting_on[attribute] = transition.event
            self._event_waiters.setdefault(transition.event, []).append(
                (cohort, attribute))

    def defer(self, step: DegradationStep, until: float) -> None:
        """Re-queue a step that could not be applied yet (e.g. lock conflict).

        The step keeps its original transition and due time (for lag
        accounting) but its cohort's entry moves to ``until``.
        """
        if self.moving(step):
            self._push(step._cohort, step.attribute, step.from_state, step.due, until, step.event)

    # -- events ----------------------------------------------------------------

    def fire_event(self, event: str, now: float) -> List[DegradationStep]:
        """Record that ``event`` fired at ``now`` and release every step
        waiting on it, due at ``now``."""
        times = self._firings.setdefault(event, [])
        if self._fired(event, now) != now:
            insort(times, now)
        released: List[DegradationStep] = []
        for cohort, attribute in self._event_waiters.pop(event, []):
            if not cohort.members or cohort.waiting_on.get(attribute) != event:
                continue
            del cohort.waiting_on[attribute]
            self._close(cohort)
            state = cohort.states[attribute]
            self._push(cohort, attribute, state, now, now, event)
            released.append(DegradationStep(cohort, attribute, state, now, event))
        return released

    # -- running ----------------------------------------------------------------

    def peek_next_due(self) -> Optional[float]:
        """Queue position of the earliest pending step (stale entries skipped)."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2].queued.get(entry[3]) is entry:
                return entry[0]
            heapq.heappop(heap)
        return None

    def _pop_due(self, now: float) -> Dict[Any, List[DegradationStep]]:
        """Pop the steps due at or before ``now``, each its whole cohort's,
        grouped by cohort group (first-seen order; due order within one)."""
        heap = self._heap
        grouped: Dict[Any, List[DegradationStep]] = {}
        while heap and heap[0][0] <= now:
            entry = heapq.heappop(heap)
            _at, _seq, cohort, attribute, state, due, event = entry
            if cohort.queued.get(attribute) is not entry:
                continue
            del cohort.queued[attribute]
            self._close(cohort)
            grouped.setdefault(cohort.key[0], []).append(
                DegradationStep(cohort, attribute, state, due, event))
        return grouped

    def _mark_applied(self, steps: Iterable[DegradationStep], now: float,
                      applied: List[DegradationStep]) -> None:
        """Book-keeping after an applier reported ``steps`` as done; their
        lag is recorded once per due time, not once per record."""
        dues: Dict[float, int] = {}
        for step in steps:
            count = self._advance(step)
            if count:
                applied.append(step)
                dues[step.due] = dues.get(step.due, 0) + count
        for due, count in dues.items():
            self.stats.record_lag(max(0.0, now - due), count)

    def moving(self, step: DegradationStep) -> Tuple[Any, ...]:
        """The record ids applying ``step`` moves on: its cohort's members, none if stale."""
        cohort = step._cohort
        stale = step.attribute in cohort.queued or cohort.states[step.attribute] != step.from_state
        return () if stale else tuple(cohort.members)

    def _advance(self, step: DegradationStep) -> int:
        """Move the step's cohort on; returns how many records stepped."""
        moved = self.moving(step)
        if not moved:
            return 0
        cohort, step.record_ids = step._cohort, moved   # less the members cancelled since
        cohort.states[step.attribute] = step.to_state
        cohort.entered_at[step.attribute] = step.due
        self._schedule_next(cohort, step.attribute)
        if cohort.is_final():
            self.stats.records_completed += len(step.record_ids)
            self._finish(cohort)
        return len(step.record_ids)

    def predict_complete(self, steps: Sequence[DegradationStep]) -> List[Any]:
        """Record ids that reach their final tuple state once ``steps`` apply.

        Pure prediction — the schedule is not mutated.  A batch applier uses
        this to fold the resulting final removals into the same system
        transaction as the batch's ``DEGRADE`` records.
        """
        overlay: Dict[_Cohort, Dict[str, int]] = {}
        for step in steps:
            cohort = step._cohort
            if not cohort.members:
                continue
            states = overlay.get(cohort)
            if states is None:
                states = overlay[cohort] = dict(cohort.states)
            if states[step.attribute] == step.from_state:   # else stale
                states[step.attribute] = step.to_state
        completed: List[Any] = []
        for cohort, states in overlay.items():
            if _final(cohort.key[1], states):
                completed.extend(cohort.members)
        return completed

    def run_due(self, now: float, applier: Callable[[DegradationStep], bool]
                ) -> List[DegradationStep]:
        """:meth:`run_due_batched` with a per-step ``applier``, which returns
        whether it applied the step (a refused step's records keep their
        state)."""
        return self.run_due_batched(
            now, lambda _group, steps: [step for step in steps if applier(step)])

    def run_due_batched(self, now: float, applier: BatchApplier
                        ) -> List[DegradationStep]:
        """Drain due steps through a batch applier, group by group.

        Each group's due steps — every one a whole cohort's — are handed to
        ``applier`` together; the applier returns the steps it actually
        applied (deferring or dropping the rest).  Follow-up steps an applied
        step makes due (next timed transitions already overdue during
        catch-up) drain in subsequent rounds until nothing is due.
        """
        applied: List[DegradationStep] = []
        while True:
            grouped = self._pop_due(now)
            if not grouped:
                return applied
            for group, steps in grouped.items():
                self._mark_applied(applier(group, steps), now, applied)

    def overdue_count(self, now: float) -> int:
        """Record steps due at or before ``now`` — the backlog the daemon
        reports (an O(queue) scan that pops nothing); ``overdue_count(math.inf)``
        counts every queued record step."""
        return sum(len(entry[2].members) for entry in self._heap
                   if entry[0] <= now and entry[2].queued.get(entry[3]) is entry)

    # -- inspection --------------------------------------------------------------

    def cohorts(self) -> List[Tuple[Tuple[Any, ...], Dict[str, int],
                                    Dict[str, Tuple[float, float]]]]:
        """The live cohorts, in creation order, as ``(record ids, states,
        queued)``: ``queued`` maps an attribute to its step's ``(due, queue
        position)`` — they differ for a deferred step."""
        return [(tuple(cohort.members), dict(cohort.states),
                 {attribute: (entry[5], entry[0])
                  for attribute, entry in cohort.queued.items()})
                for cohort in self._cohorts]

    def snapshot(self) -> List[Tuple[str, float]]:
        """The firings a derivation can still need, ``(event, time)`` in
        time order: those at or after the oldest registered cohort's
        insertion — with none registered, at the latest firing's instant (a
        record inserted then takes it).  The older ones are forgotten.  A
        checkpoint logs these again, so truncating the log's prefix loses no
        time a live record entered a state by an event."""
        horizon = min((cohort.key[2] for cohort in self._cohorts), default=max(
            (times[-1] for times in self._firings.values()), default=math.inf))
        for event, times in list(self._firings.items()):
            del times[:bisect_left(times, horizon)]
            if not times:
                del self._firings[event]
        return sorted(((event, time) for event, times in self._firings.items()
                       for time in times), key=lambda firing: firing[1])

__all__ = ["DegradationStep", "DegradationScheduler", "SchedulerStats",
           "BatchApplier"]
