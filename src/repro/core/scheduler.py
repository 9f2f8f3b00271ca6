"""Degradation scheduler: the machinery that makes degradation *timely*.

A tuple crosses every transition of its life cycle policy at a fixed delay
after its insertion, so the rows one statement inserts under one tuple LCP
degrade together.  The scheduler tracks **cohorts**: records of one group
(the table, for engine record ids ``(table, row_key)``) registered with one
:class:`~repro.core.lcp.TupleLCP` at one insertion time, in one state.  A
cohort holds one entry per pending ``(attribute, state)`` in a priority queue
ordered by due time, and a due entry is one :class:`DegradationStep` for all
of its records.  A record leaves its cohort only when something happens to it
alone: it is cancelled (deleted, removed), or a ``max_batch`` cut or a
replayed log record covers part of the cohort, which splits it into two
cohorts in the same state.

Due steps drain step by step (:meth:`DegradationScheduler.run_due` hands each
to an *applier* callback, which performs the physical degradation) or grouped
by table (:meth:`DegradationScheduler.run_due_batched` hands each group to a
*batch applier*, so the engine pays one system transaction, one lock and one
durable WAL flush per group; ``max_batch`` bounds the records stepped per
round, so a huge backlog drains in bounded chunks).  Event-triggered
transitions (:meth:`fire_event`) and per-tuple policies — the paper's
future-work extensions — are supported.

The schedule is **durable**: :meth:`DegradationScheduler.snapshot` captures
every cohort with its queued steps (deferrals and event-released steps
verbatim with their queue positions) as a :class:`SchedulerSnapshot` of plain
serializable fields, :meth:`DegradationScheduler.restore_from` rebuilds a
scheduler from one — resolving policies through a ``resolve_lcp(record_id,
policy_names)`` callback that returns ``None`` for records whose row is gone —
and the ``replay_*`` methods re-apply the WAL's schedule records on top of it
without touching stats or completion callbacks.  Lag statistics (due time to
application) are collected for the benchmarks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DegradationError
from .lcp import NEVER, TupleLCP


class _Cohort:
    """Records registered together, in one state: ``key`` is ``(group,
    tuple LCP, inserted_at)``; per attribute the state, when it was entered
    (scheduled time, so catch-up keeps the original cadence), the event it
    waits on, and its one live queue entry."""

    __slots__ = ("key", "members", "states", "entered_at", "waiting_on", "queued")

    def __init__(self, key: Tuple[Any, TupleLCP, float], states: Dict[str, int],
                 entered_at: Dict[str, float], waiting_on: Dict[str, str]) -> None:
        self.key = key
        self.members: Dict[Any, None] = {}
        self.states = states
        self.entered_at = entered_at
        self.waiting_on = waiting_on
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


#: Resolver callback used when restoring a snapshot or replaying a
#: registration: maps ``(record_id, policy_names)`` back to the record's
#: TupleLCP (or None to drop it from the schedule).  ``policy_names`` is the
#: persisted attribute → policy-name mapping when the log carries one — the
#: reliable way to re-resolve per-tuple overrides, since the row's selector
#: value may have been degraded or updated since registration.  Records that
#: resolve to the same object form one cohort again.
LCPResolver = Callable[[Any, Optional[Dict[str, str]]], Optional[TupleLCP]]


@dataclass
class CohortSnapshot:
    """Serializable image of one cohort and its queued steps."""

    record_ids: List[Any]
    inserted_at: float
    current_states: Dict[str, int]
    entered_at: Dict[str, float]
    #: Attributes blocked on a named event (attribute -> event name).
    waiting_on: Dict[str, str]
    #: Queued steps captured verbatim: attribute -> (step due time, queue
    #: position).  The two differ for deferred steps (original due, retry at)
    #: and capture event-released steps that have left ``waiting_on``.
    pending: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: Attribute -> policy name, so restoring re-resolves the exact automaton
    #: (per-tuple overrides included) without consulting the stored selector
    #: value, which may have degraded since registration.
    policies: Dict[str, str] = field(default_factory=dict)


@dataclass
class SchedulerSnapshot:
    """Full image of a scheduler's live state (the checkpointed due-queue).

    ``to_fields`` / ``from_fields`` flatten it to plain values (strings,
    ints, floats, bools) the storage layer encodes into a WAL record; a
    cohort of ``(table, int)`` record ids flattens to its table and row keys.
    """

    cohorts: List[CohortSnapshot] = field(default_factory=list)
    taken_at: float = 0.0

    _MAGIC = "sched-snapshot"
    _VERSION = 2

    def chunked(self, max_fields: int = 60000) -> List["SchedulerSnapshot"]:
        """Split into self-contained snapshots (same ``taken_at``) whose
        flattened form fits a record codec cap — a cohort too large for one
        is cut into pieces in the same state.  Checkpoints write one WAL
        record per chunk; restoring every chunk restores the whole queue."""
        chunks: List[SchedulerSnapshot] = []
        current: List[CohortSnapshot] = []
        used = 4                     # magic, version, taken_at, count
        for snap in self.cohorts:
            per_piece = max(1, (max_fields - 8 - 8 * len(snap.current_states)) // 3)
            for start in range(0, max(1, len(snap.record_ids)), per_piece):
                piece = replace(snap, record_ids=snap.record_ids[start:start + per_piece])
                needed = len(self._cohort_fields(piece))
                if current and used + needed > max_fields:
                    chunks.append(SchedulerSnapshot(current, self.taken_at))
                    current, used = [], 4
                current.append(piece)
                used += needed
        chunks.append(SchedulerSnapshot(current, self.taken_at))
        return chunks

    @staticmethod
    def _record_id_fields(record_id: Any) -> List[Any]:
        if (isinstance(record_id, tuple) and len(record_id) == 2
                and isinstance(record_id[0], str)):
            return [0, record_id[0], int(record_id[1])]
        if isinstance(record_id, str):
            return [1, record_id]
        if isinstance(record_id, int):
            return [2, record_id]
        raise DegradationError(
            f"record id {record_id!r} is not serializable for a schedule "
            "snapshot (expected (table, row_key), str or int)"
        )

    @classmethod
    def _cohort_fields(cls, snap: CohortSnapshot) -> List[Any]:
        ids = snap.record_ids
        table = ids[0][0] if ids and isinstance(ids[0], tuple) else None
        if isinstance(table, str) and all(
                isinstance(record_id, tuple) and len(record_id) == 2
                and record_id[0] == table and isinstance(record_id[1], int)
                for record_id in ids):
            fields: List[Any] = [float(snap.inserted_at), table, len(ids),
                                 *(record_id[1] for record_id in ids)]
        else:
            fields = [float(snap.inserted_at), False, len(ids)]
            for record_id in ids:
                fields.extend(cls._record_id_fields(record_id))
        fields.append(len(snap.current_states))
        for attribute in sorted(snap.current_states):
            waiting = snap.waiting_on.get(attribute, False)
            pending = snap.pending.get(attribute)
            fields.extend([
                attribute,
                snap.policies.get(attribute, False),
                int(snap.current_states[attribute]),
                float(snap.entered_at.get(attribute, snap.inserted_at)),
                waiting if waiting else False,
                pending is not None,
                float(pending[0]) if pending else 0.0,
                float(pending[1]) if pending else 0.0,
            ])
        return fields

    def to_fields(self) -> List[Any]:
        """Flatten to plain values for WAL encoding."""
        fields: List[Any] = [self._MAGIC, self._VERSION, float(self.taken_at),
                             len(self.cohorts)]
        for snap in self.cohorts:
            fields.extend(self._cohort_fields(snap))
        return fields

    @classmethod
    def from_fields(cls, fields: Sequence[Any]) -> "SchedulerSnapshot":
        """Rebuild a snapshot from :meth:`to_fields` output."""
        if len(fields) < 4 or fields[0] != cls._MAGIC:
            raise DegradationError("malformed scheduler snapshot payload")
        if int(fields[1]) != cls._VERSION:
            raise DegradationError(
                f"unsupported scheduler snapshot version {fields[1]!r}"
            )
        try:
            return cls._parse_fields(fields)
        except (IndexError, ValueError, TypeError) as error:
            # A truncated or corrupted payload fails with the module's typed
            # error, like the magic/version/marker checks above.
            raise DegradationError(
                f"malformed scheduler snapshot payload: {error}"
            ) from error

    @classmethod
    def _parse_fields(cls, fields: Sequence[Any]) -> "SchedulerSnapshot":
        taken_at = float(fields[2])
        cursor = 4
        cohorts: List[CohortSnapshot] = []
        for _ in range(int(fields[3])):
            inserted_at, table, count = fields[cursor:cursor + 3]
            cursor += 3
            record_ids: List[Any] = []
            for _ in range(int(count)):
                if table is not False:
                    record_ids.append((str(table), int(fields[cursor])))
                    cursor += 1
                    continue
                marker = int(fields[cursor])
                if marker == 0:
                    record_ids.append((str(fields[cursor + 1]), int(fields[cursor + 2])))
                    cursor += 1
                elif marker == 1:
                    record_ids.append(str(fields[cursor + 1]))
                elif marker == 2:
                    record_ids.append(int(fields[cursor + 1]))
                else:
                    raise DegradationError(
                        f"unknown record-id marker {marker} in scheduler snapshot")
                cursor += 2
            snap = CohortSnapshot(record_ids, float(inserted_at), {}, {}, {})
            attr_count = int(fields[cursor])
            cursor += 1
            for _ in range(attr_count):
                if cursor + 8 > len(fields):
                    raise DegradationError(
                        "malformed scheduler snapshot payload: truncated "
                        "attribute entry"
                    )
                (attribute, policy_name, state, entered, waiting,
                 has_pending, due, at) = fields[cursor:cursor + 8]
                cursor += 8
                attribute = str(attribute)
                snap.current_states[attribute] = int(state)
                snap.entered_at[attribute] = float(entered)
                if policy_name:
                    snap.policies[attribute] = str(policy_name)
                if waiting:
                    snap.waiting_on[attribute] = str(waiting)
                if has_pending:
                    snap.pending[attribute] = (float(due), float(at))
            cohorts.append(snap)
        return cls(cohorts=cohorts, taken_at=taken_at)


#: Applier callback: receives the step and must perform the physical
#: degradation; it returns True on success (False aborts rescheduling).
StepApplier = Callable[[DegradationStep], bool]

#: Batch applier callback: receives a group key (the table name for engine
#: record ids) and that group's due steps; returns the steps that were applied
#: successfully (steps it dropped or deferred are simply not returned).
BatchApplier = Callable[[Any, List[DegradationStep]], List[DegradationStep]]

#: Callback invoked when a record reaches its final tuple state.
CompletionCallback = Callable[[Any], None]


@dataclass
class DegradationBatch:
    """Due steps sharing one group key, drained together."""

    key: Any
    steps: List[DegradationStep] = field(default_factory=list)

    def __len__(self) -> int:
        return sum(len(step) for step in self.steps)


class DegradationScheduler:
    """Priority-queue scheduler of cohort degradation steps — independent of
    the storage engine, which registers records and provides the applier."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._cohort_of: Dict[Any, _Cohort] = {}
        #: Live cohorts, in creation order.
        self._cohorts: Dict[_Cohort, None] = {}
        #: Cohort key → the cohort new registrations of that key join: one
        #: nothing has happened to yet (no step popped, released or
        #: replayed), so a newcomer's schedule is exactly its schedule.
        self._open: Dict[Tuple[Any, TupleLCP, float], _Cohort] = {}
        self._event_waiters: Dict[str, List[Tuple[_Cohort, str]]] = {}
        self._counter = itertools.count()
        self.stats = SchedulerStats()

    # -- registration ---------------------------------------------------------

    def register(self, record_id: Any, tuple_lcp: TupleLCP, inserted_at: float) -> None:
        """Start tracking ``record_id`` — :meth:`register_many` with one id."""
        self.register_many((record_id,), tuple_lcp, inserted_at)

    def register_many(self, record_ids: Sequence[Any], tuple_lcp: TupleLCP,
                      inserted_at: float) -> None:
        """Start tracking ``record_ids`` — records of one group under one
        tuple LCP, inserted at ``inserted_at`` (most accurate state) — as one
        cohort, or as newcomers to an untouched cohort of theirs."""
        if not record_ids:
            return
        if not self._cohort_of.keys().isdisjoint(record_ids):
            taken = next(rid for rid in record_ids if rid in self._cohort_of)
            raise DegradationError(f"record {taken!r} is already registered")
        key = (_group_of(record_ids[0]), tuple_lcp, inserted_at)
        cohort = self._open.get(key)
        if cohort is None:
            cohort = self._open[key] = self._new_cohort(
                key, dict.fromkeys(tuple_lcp.attributes, 0),
                dict.fromkeys(tuple_lcp.attributes, inserted_at), {})
            for attribute in tuple_lcp.attributes:
                self._schedule_next(cohort, attribute)
        self._add_members(cohort, record_ids)

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

    def tuple_lcp(self, record_id: Any) -> Optional[TupleLCP]:
        """The policy ``record_id`` was registered with — the registration is
        its one owner — or ``None`` for ids the scheduler does not track."""
        cohort = self._cohort_of.get(record_id)
        return cohort.key[1] if cohort is not None else None

    def current_state(self, record_id: Any) -> Dict[str, int]:
        """Per-attribute state indices of ``record_id`` — an **empty dict**
        ("no pending degradation") for ids the scheduler does not track:
        never registered, completed or cancelled (see :meth:`is_registered`)."""
        cohort = self._cohort_of.get(record_id)
        return {} if cohort is None else dict(cohort.states)

    # -- cohort internals -----------------------------------------------------

    def _new_cohort(self, key: Tuple[Any, TupleLCP, float], states: Dict[str, int],
                    entered_at: Dict[str, float], waiting_on: Dict[str, str]) -> _Cohort:
        cohort = _Cohort(key, states, entered_at, waiting_on)
        self._cohorts[cohort] = None
        return cohort

    def _add_members(self, cohort: _Cohort, record_ids: Sequence[Any]) -> None:
        cohort.members.update(dict.fromkeys(record_ids))
        self._cohort_of.update(dict.fromkeys(record_ids, cohort))

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

    def _split(self, cohort: _Cohort, record_ids: List[Any]) -> _Cohort:
        """Move ``record_ids`` out of ``cohort`` into a new cohort in the
        same state, with copies of its queue entries."""
        part = self._new_cohort(cohort.key, dict(cohort.states),
                                dict(cohort.entered_at), dict(cohort.waiting_on))
        for record_id in record_ids:
            del cohort.members[record_id]
        self._add_members(part, record_ids)
        for attribute, event in part.waiting_on.items():
            self._event_waiters.setdefault(event, []).append((part, attribute))
        for attribute, (at, _seq, _cohort, _attr, state, due, event) in \
                list(cohort.queued.items()):
            self._push(part, attribute, state, due, at, event)
        self._close(cohort)
        return part

    def _cohorts_of(self, record_ids: Iterable[Any]) -> Dict[_Cohort, List[Any]]:
        """The registered ones of ``record_ids``, grouped by cohort."""
        grouped: Dict[_Cohort, List[Any]] = {}
        for record_id in dict.fromkeys(record_ids):
            cohort = self._cohort_of.get(record_id)
            if cohort is not None:
                grouped.setdefault(cohort, []).append(record_id)
        return grouped

    def _finish(self, cohort: _Cohort,
                on_complete: Optional[CompletionCallback]) -> None:
        """``cohort`` reached its final tuple state: its records leave."""
        done = list(cohort.members)
        for record_id in done:
            del self._cohort_of[record_id]
        cohort.members.clear()
        self._retire(cohort)
        if on_complete is not None:
            for record_id in done:
                on_complete(record_id)

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
            cohort.waiting_on[attribute] = transition.event
            self._event_waiters.setdefault(transition.event, []).append(
                (cohort, attribute))

    def defer(self, step: DegradationStep, until: float) -> None:
        """Re-queue a step that could not be applied yet (e.g. lock conflict).

        The step keeps its original transition and due time (for lag
        accounting) but its cohort's entry moves to ``until``.
        """
        cohort = step._cohort
        if not cohort.members or step.attribute in cohort.queued \
                or cohort.states[step.attribute] != step.from_state:
            return
        self._push(cohort, step.attribute, step.from_state, step.due, until, step.event)

    # -- events ----------------------------------------------------------------

    def has_waiters(self, event: str) -> bool:
        """Whether any registered attribute is blocked on ``event``."""
        return bool(self._event_waiters.get(event))

    def fire_event(self, event: str, now: float) -> List[DegradationStep]:
        """Release every step waiting on ``event``; due time is ``now``."""
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

    def _pop_due(self, now: float, max_batch: Optional[int] = None
                 ) -> List[DegradationStep]:
        """Pop the steps due at or before ``now``, in queue order — at most
        ``max_batch`` records' worth: the cohort at the limit is cut, its
        first records stepping now and the rest keeping their entry.  (A
        cohort with another step already popped in this round is not cut:
        the round ends before it instead.)"""
        heap = self._heap
        steps: List[DegradationStep] = []
        popped = 0
        while heap and heap[0][0] <= now:
            entry = heap[0]
            _at, _seq, cohort, attribute, state, due, event = entry
            if cohort.queued.get(attribute) is not entry:
                heapq.heappop(heap)
                continue
            size = len(cohort.members)
            if max_batch is not None and popped + size > max_batch:
                room = max_batch - popped
                if room <= 0 or any(step._cohort is cohort for step in steps):
                    break
                cohort = self._split(cohort, list(islice(cohort.members, room)))
                size = room
            else:
                heapq.heappop(heap)
            del cohort.queued[attribute]
            self._close(cohort)
            steps.append(DegradationStep(cohort, attribute, state, due, event))
            popped += size
        return steps

    def due_steps(self, now: float) -> List[DegradationStep]:
        """Pop every step due at or before ``now`` without applying it."""
        return self._pop_due(now)

    def due_batches(self, now: float, max_batch: Optional[int] = None
                    ) -> List[DegradationBatch]:
        """Pop due steps grouped by cohort group (table name for engine
        record ids).

        At most ``max_batch`` records' steps are popped per call (``None`` =
        no bound); the remainder stays queued so callers drain huge backlogs
        in bounded chunks.  Batches preserve first-seen key order and, within
        a batch, due order.
        """
        grouped: Dict[Any, DegradationBatch] = {}
        for step in self._pop_due(now, max_batch):
            key = step._cohort.key[0]
            batch = grouped.get(key)
            if batch is None:
                batch = grouped[key] = DegradationBatch(key=key)
            batch.steps.append(step)
        return list(grouped.values())

    def _mark_applied(self, steps: Iterable[DegradationStep], now: float,
                      applied: List[DegradationStep],
                      on_complete: Optional[CompletionCallback]) -> None:
        """Book-keeping after an applier reported ``steps`` as done; their
        lag is recorded once per due time, not once per record."""
        dues: Dict[float, int] = {}
        for step in steps:
            count = self._advance(step, on_complete)
            if count:
                applied.append(step)
                dues[step.due] = dues.get(step.due, 0) + count
        for due, count in dues.items():
            self.stats.record_lag(max(0.0, now - due), count)

    def _advance(self, step: DegradationStep,
                 on_complete: Optional[CompletionCallback]) -> int:
        """Move the step's cohort on; returns how many records stepped."""
        cohort = step._cohort
        if not cohort.members or step.attribute in cohort.queued \
                or cohort.states[step.attribute] != step.from_state:
            return 0
        if len(step.record_ids) != len(cohort.members):
            step.record_ids = tuple(cohort.members)     # some were cancelled
        cohort.states[step.attribute] = step.to_state
        cohort.entered_at[step.attribute] = step.due
        self._schedule_next(cohort, step.attribute)
        if cohort.is_final():
            self.stats.records_completed += len(step.record_ids)
            self._finish(cohort, on_complete)
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

    def run_due(self, now: float, applier: StepApplier,
                on_complete: Optional[CompletionCallback] = None) -> List[DegradationStep]:
        """Apply every due step through ``applier`` and schedule follow-ups.

        Returns the steps that were applied successfully.  Steps whose applier
        returns ``False`` are dropped (the records keep their previous state);
        the engine is expected to raise instead for unexpected failures.
        """
        applied: List[DegradationStep] = []
        # Applied steps may make follow-ups due (catch-up), so loop until the
        # queue has nothing due.
        while True:
            steps = self._pop_due(now)
            if not steps:
                break
            for step in steps:
                if step._cohort.members and applier(step):
                    self._mark_applied((step,), now, applied, on_complete)
        return applied

    def run_due_batched(self, now: float, applier: BatchApplier,
                        on_complete: Optional[CompletionCallback] = None,
                        max_batch: Optional[int] = None) -> List[DegradationStep]:
        """Drain due steps through a batch applier, group by group.

        Each :class:`DegradationBatch` is handed to ``applier`` whole; the
        applier returns the steps it actually applied (deferring or dropping
        the rest).  Follow-up steps released by an applied batch (next timed
        transitions already overdue during catch-up) are drained in subsequent
        rounds until nothing is due.
        """
        applied: List[DegradationStep] = []
        while True:
            batches = self.due_batches(now, max_batch=max_batch)
            if not batches:
                break
            for batch in batches:
                self._mark_applied(applier(batch.key, batch.steps), now,
                                   applied, on_complete)
        return applied

    def _queued_records(self, now: float = math.inf) -> int:
        return sum(len(entry[2].members) for entry in self._heap
                   if entry[0] <= now and entry[2].queued.get(entry[3]) is entry)

    def pending_count(self) -> int:
        """Number of record steps currently queued (O(queue) scan, test helper)."""
        return self._queued_records()

    def overdue_count(self, now: float) -> int:
        """Number of record steps due at or before ``now`` (O(queue) scan).

        This is the public backlog measure the daemon reports; it never pops
        or applies anything.
        """
        return self._queued_records(now)

    # -- durability: snapshot / restore / replay -------------------------------

    def snapshot(self, now: float = 0.0) -> SchedulerSnapshot:
        """Capture the live schedule (cohorts + queued steps) verbatim:
        queued steps keep their original due time *and* queue position, so
        deferrals and event-released steps survive a round trip exactly.  No
        attribute value and no policy object is in it (policy *names* are)."""
        return SchedulerSnapshot(cohorts=[
            CohortSnapshot(
                record_ids=list(cohort.members),
                inserted_at=cohort.key[2],
                current_states=dict(cohort.states),
                entered_at=dict(cohort.entered_at),
                waiting_on=dict(cohort.waiting_on),
                pending={attribute: (entry[5], entry[0])
                         for attribute, entry in cohort.queued.items()},
                policies={attribute: lcp.name
                          for attribute, lcp in cohort.key[1].attributes.items()},
            )
            for cohort in self._cohorts], taken_at=now)

    def restore_from(self, snapshot: SchedulerSnapshot,
                     resolve_lcp: LCPResolver) -> int:
        """Rebuild cohorts and the due-queue from ``snapshot``.

        ``resolve_lcp(record_id, policy_names)`` supplies each record's
        TupleLCP; ``None`` drops the record (its row is gone).  Records
        already registered, already final or no longer fitting the resolved
        policy are skipped.  Returns the number of records restored.
        """
        restored = 0
        for snap in snapshot.cohorts:
            groups: Dict[TupleLCP, List[Any]] = {}
            for record_id in snap.record_ids:
                if record_id not in self._cohort_of:
                    tuple_lcp = resolve_lcp(record_id, snap.policies or None)
                    if tuple_lcp is not None:
                        groups.setdefault(tuple_lcp, []).append(record_id)
            for tuple_lcp, record_ids in groups.items():
                restored += self._restore_cohort(snap, tuple_lcp, record_ids)
        return restored

    def _restore_cohort(self, snap: CohortSnapshot, tuple_lcp: TupleLCP,
                        record_ids: List[Any]) -> int:
        if set(tuple_lcp.attributes) != set(snap.current_states) or _final(
                tuple_lcp, snap.current_states) or not all(
                0 <= snap.current_states[name] < lcp.num_states
                for name, lcp in tuple_lcp.attributes.items()):
            return 0
        cohort = self._new_cohort(
            (_group_of(record_ids[0]), tuple_lcp, snap.inserted_at),
            dict(snap.current_states), dict(snap.entered_at), dict(snap.waiting_on))
        self._add_members(cohort, record_ids)
        for attribute, lcp in tuple_lcp.attributes.items():
            state = cohort.states[attribute]
            if state + 1 >= lcp.num_states:
                continue
            queued = snap.pending.get(attribute)
            if queued is not None:
                # Re-queue the captured step verbatim: original due time for
                # lag accounting, captured position for ordering (they differ
                # for deferred steps).
                transition = lcp.transitions[state]
                cohort.waiting_on.pop(attribute, None)
                self._push(cohort, attribute, state, queued[0], queued[1],
                           None if transition.timed else transition.event)
            elif attribute in cohort.waiting_on:
                self._event_waiters.setdefault(
                    cohort.waiting_on[attribute], []).append((cohort, attribute))
            else:
                self._schedule_next(cohort, attribute)
        return len(record_ids)

    def replay_applied(self, record_ids: Iterable[Any], attribute: str,
                       to_state: int, due: float) -> int:
        """Recovery replay of a logged step application (a ``SCHED_STEP``
        group): ``attribute`` of ``record_ids`` enters ``to_state`` at
        ``due`` and its follow-up is scheduled, as by :meth:`_mark_applied`,
        but no lag is recorded and no completion callback fires (the data
        records were redone already).  Records of a cohort not wholly in the
        group split off; unknown ones and ones not in the source state
        (replayed already, moved on) are skipped.  Returns how many moved."""
        advanced = 0
        for cohort, members in self._cohorts_of(record_ids).items():
            if cohort.states.get(attribute) != to_state - 1:
                continue
            if len(members) != len(cohort.members):
                cohort = self._split(cohort, members)
            self._close(cohort)
            event = cohort.waiting_on.pop(attribute, None)
            if event is not None:
                self._unwait(cohort, attribute, event)
            cohort.states[attribute] = to_state
            cohort.entered_at[attribute] = due
            self._schedule_next(cohort, attribute)
            if cohort.is_final():
                self._finish(cohort, None)
            advanced += len(members)
        return advanced

    def replay_defer(self, record_ids: Iterable[Any], attribute: str,
                     from_state: int, due: float, until: float) -> int:
        """Recovery replay of a logged deferral (a ``SCHED_DEFER`` group):
        the queued step of ``attribute`` of ``record_ids`` moves to retry at
        ``until``, keeping its original ``due`` for lag accounting —
        :meth:`defer` for steps that were never popped.  Returns how many
        records' steps moved."""
        moved = 0
        for cohort, members in self._cohorts_of(record_ids).items():
            if cohort.states.get(attribute) != from_state:
                continue
            if len(members) != len(cohort.members):
                cohort = self._split(cohort, members)
            self._close(cohort)
            self._push(cohort, attribute, from_state, due, until)
            moved += len(members)
        return moved


__all__ = ["DegradationStep", "DegradationBatch", "DegradationScheduler",
           "SchedulerStats", "SchedulerSnapshot", "CohortSnapshot",
           "StepApplier", "BatchApplier", "CompletionCallback", "LCPResolver"]
