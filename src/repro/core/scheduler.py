"""Degradation scheduler: the machinery that makes degradation *timely*.

The scheduler tracks, for every live record, the next due degradation step of
each of its degradable attributes.  Steps are kept in a priority queue ordered
by due time and can be drained in two ways:

* step-at-a-time — :meth:`DegradationScheduler.run_due` pops every step whose
  due time has passed and hands it to an *applier* callback (provided by the
  engine) which performs the physical degradation in the store, the indexes
  and the log;
* batched — :meth:`DegradationScheduler.due_batches` pops due steps grouped
  by a key (the table name for engine record ids) and
  :meth:`DegradationScheduler.run_due_batched` hands each group to a *batch
  applier* so the engine can amortize one system transaction, one exclusive
  lock and one durable WAL flush over the whole group.  ``max_batch`` bounds
  how many steps are popped per round so a huge backlog (a day's worth of
  inserts expiring in one wave) drains incrementally instead of holding one
  giant lock.

The scheduler also supports the paper's future-work extensions:

* event-triggered transitions — :meth:`fire_event` releases steps waiting on a
  named event; timed steps that follow an event transition are scheduled
  relative to the moment the event fired;
* per-tuple policies — each record is registered with its own
  :class:`~repro.core.lcp.TupleLCP`, so different tuples may follow different
  automata.

The schedule is also **durable** (PR 4): :meth:`DegradationScheduler.snapshot`
captures every registration together with its queued steps (including
deferrals and event-released steps, verbatim with their queue positions) as a
:class:`SchedulerSnapshot` that flattens to plain serializable fields, and
:meth:`DegradationScheduler.restore_from` rebuilds a scheduler from one.  The
``replay_applied`` / ``replay_defer`` methods let crash recovery re-apply the
WAL's schedule records on top of a snapshot without touching stats or
completion callbacks.  The scheduler itself stays policy-agnostic: restoring
needs a ``resolve_lcp(record_id)`` callback (provided by the engine) that
returns the record's :class:`~repro.core.lcp.TupleLCP` — or ``None`` to drop
registrations whose row no longer exists.

Timeliness statistics (lag between the scheduled due time and the time the
step is actually applied) are collected for the C2 benchmark.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DegradationError
from .lcp import NEVER, TupleLCP


@dataclass(frozen=True)
class DegradationStep:
    """One scheduled attribute transition of one record."""

    record_id: Any
    attribute: str
    from_state: int
    to_state: int
    due: float
    #: Name of the event that releases the step, or ``None`` for timed steps.
    event: Optional[str] = None

    def describe(self) -> str:
        trigger = f"at t={self.due}" if self.event is None else f"on event {self.event!r}"
        return (f"record {self.record_id}: {self.attribute} "
                f"d{self.from_state}->d{self.to_state} {trigger}")


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
        """``count`` steps — a chunk of a wave — were applied ``lag`` late."""
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


@dataclass
class _Registration:
    """Book-keeping for one live record."""

    record_id: Any
    tuple_lcp: TupleLCP
    inserted_at: float
    current_states: Dict[str, int]
    #: When each attribute entered its current state (scheduled time, not wall
    #: time, so catch-up after a long pause keeps the original cadence).
    entered_at: Dict[str, float] = field(default_factory=dict)
    #: Attributes currently blocked on a named event.
    waiting_on: Dict[str, str] = field(default_factory=dict)

    def is_final(self) -> bool:
        return all(
            self.current_states[name] == lcp.num_states - 1
            for name, lcp in self.tuple_lcp.attributes.items()
        )

    def pending_step_count(self) -> int:
        """Pending next steps: one per attribute with a scheduled or waiting
        transition (infinite-delay transitions are never scheduled)."""
        count = 0
        for name, lcp in self.tuple_lcp.attributes.items():
            state = self.current_states[name]
            if state + 1 >= lcp.num_states:
                continue
            if name in self.waiting_on:
                count += 1
                continue
            transition = lcp.transitions[state]
            if transition.timed and float(transition.delay) != NEVER:
                count += 1
        return count


#: Resolver callback used when restoring a snapshot or replaying a
#: registration: maps ``(record_id, policy_names)`` back to the record's
#: TupleLCP (or None to drop it from the schedule).  ``policy_names`` is the
#: persisted attribute → policy-name mapping when the log carries one — the
#: reliable way to re-resolve per-tuple overrides, since the row's selector
#: value may have been degraded or updated since registration.
LCPResolver = Callable[[Any, Optional[Dict[str, str]]], Optional[TupleLCP]]


@dataclass
class RegistrationSnapshot:
    """Serializable image of one :class:`_Registration` and its queued steps."""

    record_id: Any
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

    ``to_fields`` / ``from_fields`` flatten the snapshot to a list of plain
    serializable values (strings, ints, floats, bools) so the storage layer
    can encode it into a single WAL record without this module depending on
    the record codec.
    """

    registrations: List[RegistrationSnapshot] = field(default_factory=list)
    taken_at: float = 0.0

    _MAGIC = "sched-snapshot"
    _VERSION = 1

    def _registration_field_count(self, snap: RegistrationSnapshot) -> int:
        return len(self._record_id_fields(snap.record_id)) + 2 \
            + 8 * len(snap.current_states)

    def chunked(self, max_fields: int = 60000) -> List["SchedulerSnapshot"]:
        """Split into snapshots whose flattened form fits a record codec cap.

        Each chunk is a self-contained snapshot of a subset of registrations
        (same ``taken_at``); restoring every chunk restores the whole queue.
        A 10k-registration queue flattens to well over the storage codec's
        65535-field record limit, so checkpoints write one WAL record per
        chunk.
        """
        chunks: List[SchedulerSnapshot] = []
        current: List[RegistrationSnapshot] = []
        used = 4                     # magic, version, taken_at, count
        for snap in self.registrations:
            needed = self._registration_field_count(snap)
            if current and used + needed > max_fields:
                chunks.append(SchedulerSnapshot(registrations=current,
                                                taken_at=self.taken_at))
                current = []
                used = 4
            current.append(snap)
            used += needed
        chunks.append(SchedulerSnapshot(registrations=current,
                                        taken_at=self.taken_at))
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

    def to_fields(self) -> List[Any]:
        """Flatten to plain values for WAL encoding."""
        fields: List[Any] = [self._MAGIC, self._VERSION, float(self.taken_at),
                             len(self.registrations)]
        for snap in self.registrations:
            fields.extend(self._record_id_fields(snap.record_id))
            fields.append(float(snap.inserted_at))
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
        cursor = 2
        taken_at = float(fields[cursor]); cursor += 1
        reg_count = int(fields[cursor]); cursor += 1
        registrations: List[RegistrationSnapshot] = []
        for _ in range(reg_count):
            marker = int(fields[cursor]); cursor += 1
            if marker == 0:
                record_id: Any = (str(fields[cursor]), int(fields[cursor + 1]))
                cursor += 2
            elif marker == 1:
                record_id = str(fields[cursor]); cursor += 1
            elif marker == 2:
                record_id = int(fields[cursor]); cursor += 1
            else:
                raise DegradationError(
                    f"unknown record-id marker {marker} in scheduler snapshot"
                )
            inserted_at = float(fields[cursor]); cursor += 1
            attr_count = int(fields[cursor]); cursor += 1
            current_states: Dict[str, int] = {}
            entered_at: Dict[str, float] = {}
            waiting_on: Dict[str, str] = {}
            pending: Dict[str, Tuple[float, float]] = {}
            policies: Dict[str, str] = {}
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
                current_states[attribute] = int(state)
                entered_at[attribute] = float(entered)
                if policy_name:
                    policies[attribute] = str(policy_name)
                if waiting:
                    waiting_on[attribute] = str(waiting)
                if has_pending:
                    pending[attribute] = (float(due), float(at))
            registrations.append(RegistrationSnapshot(
                record_id=record_id, inserted_at=inserted_at,
                current_states=current_states, entered_at=entered_at,
                waiting_on=waiting_on, pending=pending, policies=policies,
            ))
        return cls(registrations=registrations, taken_at=taken_at)


#: Applier callback: receives the step and must perform the physical
#: degradation; it returns True on success (False aborts rescheduling).
StepApplier = Callable[[DegradationStep], bool]

#: Batch applier callback: receives a group key (the table name for engine
#: record ids) and that group's due steps; returns the steps that were applied
#: successfully (steps it dropped or deferred are simply not returned).
BatchApplier = Callable[[Any, List[DegradationStep]], List[DegradationStep]]

#: Callback invoked when a record reaches its final tuple state.
CompletionCallback = Callable[[Any], None]

#: Grouping callback mapping a due step to its batch key.
GroupKey = Callable[[DegradationStep], Any]


def _default_group_key(step: DegradationStep) -> Any:
    """Engine record ids are ``(table, row_key)`` tuples: group by table."""
    if isinstance(step.record_id, tuple) and step.record_id:
        return step.record_id[0]
    return None


@dataclass
class DegradationBatch:
    """Due steps sharing one group key, drained together."""

    key: Any
    steps: List[DegradationStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


class DegradationScheduler:
    """Priority-queue scheduler of degradation steps.

    The scheduler is deliberately independent from the storage engine: the
    engine registers records and provides the applier; tests can drive it with
    plain dictionaries.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, DegradationStep]] = []
        self._registrations: Dict[Any, _Registration] = {}
        self._event_waiters: Dict[str, List[Tuple[Any, str]]] = {}
        self._counter = itertools.count()
        self.stats = SchedulerStats()

    # -- registration ---------------------------------------------------------

    def register(self, record_id: Any, tuple_lcp: TupleLCP, inserted_at: float) -> None:
        """Start tracking ``record_id`` inserted at ``inserted_at`` (most accurate state)."""
        if record_id in self._registrations:
            raise DegradationError(f"record {record_id!r} is already registered")
        registration = _Registration(
            record_id=record_id,
            tuple_lcp=tuple_lcp,
            inserted_at=inserted_at,
            current_states={name: 0 for name in tuple_lcp.attributes},
            entered_at={name: inserted_at for name in tuple_lcp.attributes},
        )
        self._registrations[record_id] = registration
        for attribute in tuple_lcp.attributes:
            self._schedule_next(registration, attribute)

    def cancel(self, record_id: Any) -> int:
        """Stop tracking ``record_id`` (explicit delete).

        Returns the number of pending steps cancelled (one per attribute that
        had not reached its final state).  Pending heap entries become stale
        and are skipped lazily when popped; event-waiter entries are purged
        eagerly so cancelled records do not leak in ``_event_waiters``.
        """
        registration = self._registrations.pop(record_id, None)
        if registration is None:
            return 0
        cancelled = registration.pending_step_count()
        for attribute, event in registration.waiting_on.items():
            waiters = self._event_waiters.get(event)
            if not waiters:
                continue
            remaining = [entry for entry in waiters if entry != (record_id, attribute)]
            if remaining:
                self._event_waiters[event] = remaining
            else:
                del self._event_waiters[event]
        self.stats.steps_cancelled += cancelled
        return cancelled

    def is_registered(self, record_id: Any) -> bool:
        """Whether ``record_id`` is currently tracked by the scheduler."""
        return record_id in self._registrations

    def registered_count(self) -> int:
        """Number of live registrations (records not yet in their final state)."""
        return len(self._registrations)

    def tuple_lcp(self, record_id: Any) -> Optional[TupleLCP]:
        """The policy ``record_id`` was registered with — the registration is
        its one owner — or ``None`` for ids the scheduler does not track."""
        registration = self._registrations.get(record_id)
        return registration.tuple_lcp if registration is not None else None

    def current_state(self, record_id: Any) -> Dict[str, int]:
        """Per-attribute state indices of ``record_id``.

        Returns an **empty dict** for ids the scheduler does not track —
        records never registered, already completed, or cancelled.  An empty
        mapping therefore means "no pending degradation", which callers can
        branch on without catching exceptions; use :meth:`is_registered` to
        distinguish "unknown" from "completed" if it matters.
        """
        registration = self._registrations.get(record_id)
        if registration is None:
            return {}
        return dict(registration.current_states)

    # -- scheduling internals -------------------------------------------------

    def _schedule_next(self, registration: _Registration, attribute: str) -> None:
        lcp = registration.tuple_lcp.attributes[attribute]
        state = registration.current_states[attribute]
        if state + 1 >= lcp.num_states:
            return
        transition = lcp.transitions[state]
        if transition.timed:
            # Relative to when the current state was entered, so timed steps
            # that follow an event transition fire `delay` after the event.
            due = registration.entered_at.get(attribute, registration.inserted_at) \
                + float(transition.delay)
            if due == NEVER:
                return
            step = DegradationStep(
                record_id=registration.record_id,
                attribute=attribute,
                from_state=state,
                to_state=state + 1,
                due=due,
            )
            heapq.heappush(self._heap, (due, next(self._counter), step))
        else:
            registration.waiting_on[attribute] = transition.event
            self._event_waiters.setdefault(transition.event, []).append(
                (registration.record_id, attribute)
            )

    def defer(self, step: DegradationStep, until: float) -> None:
        """Re-queue a step that could not be applied yet (e.g. lock conflict).

        The step keeps its original transition but becomes due at ``until``.
        """
        registration = self._registrations.get(step.record_id)
        if registration is None:
            return
        if registration.current_states.get(step.attribute) != step.from_state:
            return
        deferred = DegradationStep(
            record_id=step.record_id,
            attribute=step.attribute,
            from_state=step.from_state,
            to_state=step.to_state,
            due=step.due,
            event=step.event,
        )
        heapq.heappush(self._heap, (until, next(self._counter), deferred))

    # -- events ----------------------------------------------------------------

    def has_waiters(self, event: str) -> bool:
        """Whether any registered attribute is blocked on ``event``."""
        return bool(self._event_waiters.get(event))

    def fire_event(self, event: str, now: float) -> List[DegradationStep]:
        """Release every step waiting on ``event``; due time is ``now``."""
        released: List[DegradationStep] = []
        for record_id, attribute in self._event_waiters.pop(event, []):
            registration = self._registrations.get(record_id)
            if registration is None:
                continue
            if registration.waiting_on.get(attribute) != event:
                continue
            del registration.waiting_on[attribute]
            state = registration.current_states[attribute]
            step = DegradationStep(
                record_id=record_id,
                attribute=attribute,
                from_state=state,
                to_state=state + 1,
                due=now,
                event=event,
            )
            heapq.heappush(self._heap, (now, next(self._counter), step))
            released.append(step)
        return released

    # -- running ----------------------------------------------------------------

    def peek_next_due(self) -> Optional[float]:
        """Due time of the earliest pending step (stale entries skipped)."""
        while self._heap:
            due, _seq, step = self._heap[0]
            registration = self._registrations.get(step.record_id)
            if registration is None or registration.current_states.get(step.attribute) != step.from_state:
                heapq.heappop(self._heap)
                continue
            return due
        return None

    def due_steps(self, now: float) -> List[DegradationStep]:
        """Pop every step due at or before ``now`` without applying it."""
        steps: List[DegradationStep] = []
        while self._heap and self._heap[0][0] <= now:
            _due, _seq, step = heapq.heappop(self._heap)
            registration = self._registrations.get(step.record_id)
            if registration is None:
                continue
            if registration.current_states.get(step.attribute) != step.from_state:
                continue
            steps.append(step)
        return steps

    def due_batches(self, now: float, max_batch: Optional[int] = None,
                    group_key: Optional[GroupKey] = None) -> List[DegradationBatch]:
        """Pop due steps grouped by key (table name for engine record ids).

        At most ``max_batch`` steps are popped per call (``None`` = no bound);
        the remainder stays queued so callers drain huge backlogs in bounded
        chunks.  Batches preserve first-seen key order and, within a batch,
        due order.
        """
        if group_key is None:
            group_key = _default_group_key
        grouped: Dict[Any, DegradationBatch] = {}
        batches: List[DegradationBatch] = []
        popped = 0
        while self._heap and self._heap[0][0] <= now:
            if max_batch is not None and popped >= max_batch:
                break
            _due, _seq, step = heapq.heappop(self._heap)
            registration = self._registrations.get(step.record_id)
            if registration is None:
                continue
            if registration.current_states.get(step.attribute) != step.from_state:
                continue
            key = group_key(step)
            batch = grouped.get(key)
            if batch is None:
                batch = DegradationBatch(key=key)
                grouped[key] = batch
                batches.append(batch)
            batch.steps.append(step)
            popped += 1
        return batches

    def _mark_applied(self, steps: Iterable[DegradationStep], now: float,
                      applied: List[DegradationStep],
                      on_complete: Optional[CompletionCallback]) -> None:
        """Book-keeping after an applier reported ``steps`` as done; their
        lag is recorded once per due time, not once per step."""
        dues: Dict[float, int] = {}
        for step in steps:
            if self._advance(step, on_complete):
                applied.append(step)
                dues[step.due] = dues.get(step.due, 0) + 1
        for due, count in dues.items():
            self.stats.record_lag(max(0.0, now - due), count)

    def _advance(self, step: DegradationStep,
                 on_complete: Optional[CompletionCallback]) -> bool:
        registration = self._registrations.get(step.record_id)
        if registration is None:
            return False
        registration.current_states[step.attribute] = step.to_state
        registration.entered_at[step.attribute] = step.due
        self._schedule_next(registration, step.attribute)
        if registration.is_final():
            self.stats.records_completed += 1
            del self._registrations[step.record_id]
            if on_complete is not None:
                on_complete(step.record_id)
        return True

    def predict_complete(self, steps: Sequence[DegradationStep]) -> List[Any]:
        """Record ids that reach their final tuple state once ``steps`` apply.

        Pure prediction — the schedule is not mutated.  A batch applier uses
        this to fold the resulting final removals into the same system
        transaction as the batch's ``DEGRADE`` records.
        """
        overlay: Dict[Any, Dict[str, int]] = {}
        for step in steps:
            registration = self._registrations.get(step.record_id)
            if registration is None:
                continue
            states = overlay.get(step.record_id)
            if states is None:
                states = dict(registration.current_states)
                overlay[step.record_id] = states
            if states.get(step.attribute) != step.from_state:
                continue  # stale: the drain skips it too
            states[step.attribute] = step.to_state
        completed: List[Any] = []
        for record_id, states in overlay.items():
            tuple_lcp = self._registrations[record_id].tuple_lcp
            if all(states[name] == lcp.num_states - 1
                   for name, lcp in tuple_lcp.attributes.items()):
                completed.append(record_id)
        return completed

    def run_due(self, now: float, applier: StepApplier,
                on_complete: Optional[CompletionCallback] = None) -> List[DegradationStep]:
        """Apply every due step through ``applier`` and schedule follow-ups.

        Returns the steps that were applied successfully.  Steps whose applier
        returns ``False`` are dropped (the record keeps its previous state);
        the engine is expected to raise instead for unexpected failures.
        """
        applied: List[DegradationStep] = []
        # Steps released by an applied step (none today, but event cascades may
        # add due steps), so loop until the queue has nothing due.
        while True:
            batch = self.due_steps(now)
            if not batch:
                break
            for step in batch:
                registration = self._registrations.get(step.record_id)
                if registration is None:
                    continue
                if not applier(step):
                    continue
                self._mark_applied((step,), now, applied, on_complete)
        return applied

    def run_due_batched(self, now: float, applier: BatchApplier,
                        on_complete: Optional[CompletionCallback] = None,
                        max_batch: Optional[int] = None,
                        group_key: Optional[GroupKey] = None) -> List[DegradationStep]:
        """Drain due steps through a batch applier, group by group.

        Each :class:`DegradationBatch` is handed to ``applier`` whole; the
        applier returns the steps it actually applied (deferring or dropping
        the rest).  Follow-up steps released by an applied batch (next timed
        transitions already overdue during catch-up) are drained in subsequent
        rounds until nothing is due.
        """
        applied: List[DegradationStep] = []
        while True:
            batches = self.due_batches(now, max_batch=max_batch, group_key=group_key)
            if not batches:
                break
            for batch in batches:
                self._mark_applied(applier(batch.key, batch.steps), now,
                                   applied, on_complete)
        return applied

    def pending_count(self) -> int:
        """Number of non-stale steps currently queued (O(n) scan, test helper)."""
        count = 0
        for _due, _seq, step in self._heap:
            registration = self._registrations.get(step.record_id)
            if registration is None:
                continue
            if registration.current_states.get(step.attribute) != step.from_state:
                continue
            count += 1
        return count

    def overdue_count(self, now: float) -> int:
        """Number of non-stale steps due at or before ``now`` (O(n) scan).

        This is the public backlog measure the daemon reports; it never pops
        or applies anything.
        """
        count = 0
        for due, _seq, step in self._heap:
            if due > now:
                continue
            registration = self._registrations.get(step.record_id)
            if registration is None:
                continue
            if registration.current_states.get(step.attribute) != step.from_state:
                continue
            count += 1
        return count

    # -- durability: snapshot / restore / replay -------------------------------

    def snapshot(self, now: float = 0.0) -> SchedulerSnapshot:
        """Capture the live schedule (registrations + queued steps) verbatim.

        Queued steps are recorded with both their original due time and their
        current queue position, so deferrals (re-queued at a later retry time)
        and event-released steps survive a round trip exactly.  Stale heap
        entries are skipped.  The snapshot holds no attribute values and no
        policy objects — restoring resolves policies through a callback.
        """
        pending: Dict[Any, Dict[str, Tuple[float, float]]] = {}
        for at, _seq, step in self._heap:
            registration = self._registrations.get(step.record_id)
            if registration is None:
                continue
            if registration.current_states.get(step.attribute) != step.from_state:
                continue
            per_record = pending.setdefault(step.record_id, {})
            existing = per_record.get(step.attribute)
            if existing is None or at < existing[1]:
                per_record[step.attribute] = (step.due, at)
        registrations = [
            RegistrationSnapshot(
                record_id=record_id,
                inserted_at=registration.inserted_at,
                current_states=dict(registration.current_states),
                entered_at=dict(registration.entered_at),
                waiting_on=dict(registration.waiting_on),
                pending=pending.get(record_id, {}),
                policies={
                    attribute: lcp.name
                    for attribute, lcp in registration.tuple_lcp.attributes.items()
                },
            )
            for record_id, registration in self._registrations.items()
        ]
        return SchedulerSnapshot(registrations=registrations, taken_at=now)

    def restore_from(self, snapshot: SchedulerSnapshot,
                     resolve_lcp: LCPResolver) -> int:
        """Rebuild registrations and the due-queue from ``snapshot``.

        ``resolve_lcp(record_id)`` supplies each record's
        :class:`~repro.core.lcp.TupleLCP` (the snapshot carries no policy
        objects); returning ``None`` drops the registration — the engine uses
        this to discard records whose row was deleted before or during
        recovery.  Registrations that no longer fit the resolved policy
        (attribute set or state out of range) and already-final ones are
        skipped.  Existing registrations are kept, not overwritten.  Returns
        the number of registrations restored.
        """
        restored = 0
        for snap in snapshot.registrations:
            if self._restore_registration(snap, resolve_lcp):
                restored += 1
        return restored

    def _restore_registration(self, snap: RegistrationSnapshot,
                              resolve_lcp: LCPResolver) -> bool:
        if snap.record_id in self._registrations:
            return False
        tuple_lcp = resolve_lcp(snap.record_id, snap.policies or None)
        if tuple_lcp is None:
            return False
        if set(tuple_lcp.attributes) != set(snap.current_states):
            return False
        for name, lcp in tuple_lcp.attributes.items():
            if not 0 <= snap.current_states[name] < lcp.num_states:
                return False
        registration = _Registration(
            record_id=snap.record_id,
            tuple_lcp=tuple_lcp,
            inserted_at=snap.inserted_at,
            current_states=dict(snap.current_states),
            entered_at=dict(snap.entered_at),
            waiting_on=dict(snap.waiting_on),
        )
        if registration.is_final():
            return False
        self._registrations[snap.record_id] = registration
        for attribute, lcp in tuple_lcp.attributes.items():
            state = registration.current_states[attribute]
            if state + 1 >= lcp.num_states:
                continue
            queued = snap.pending.get(attribute)
            if queued is not None:
                # Re-queue the captured step verbatim: original due time for
                # lag accounting, captured position for ordering (they differ
                # for deferred steps).
                due, at = queued
                transition = lcp.transitions[state]
                registration.waiting_on.pop(attribute, None)
                step = DegradationStep(
                    record_id=snap.record_id, attribute=attribute,
                    from_state=state, to_state=state + 1, due=due,
                    event=None if transition.timed else transition.event,
                )
                heapq.heappush(self._heap, (at, next(self._counter), step))
            elif attribute in registration.waiting_on:
                self._event_waiters.setdefault(
                    registration.waiting_on[attribute], []
                ).append((snap.record_id, attribute))
            else:
                self._schedule_next(registration, attribute)
        return True

    def replay_applied(self, record_id: Any, attribute: str, to_state: int,
                       due: float) -> bool:
        """Recovery replay of a logged step application.

        Advances ``attribute`` to ``to_state`` exactly like
        :meth:`_mark_applied` — enters the new state at the step's ``due``
        time and schedules the follow-up transition — but records no lag
        statistics and fires no completion callback (the physical effects
        were already redone from the data log records).  Registrations that
        reach their final tuple state are dropped.  Returns whether the
        replay applied (``False`` when the registration is unknown or not in
        the expected source state — the step was already replayed or the
        record moved on).
        """
        registration = self._registrations.get(record_id)
        if registration is None:
            return False
        if registration.current_states.get(attribute) != to_state - 1:
            return False
        event = registration.waiting_on.pop(attribute, None)
        if event is not None:
            waiters = self._event_waiters.get(event)
            if waiters:
                remaining = [entry for entry in waiters
                             if entry != (record_id, attribute)]
                if remaining:
                    self._event_waiters[event] = remaining
                else:
                    del self._event_waiters[event]
        registration.current_states[attribute] = to_state
        registration.entered_at[attribute] = due
        self._schedule_next(registration, attribute)
        if registration.is_final():
            del self._registrations[record_id]
        return True

    def replay_defer(self, record_id: Any, attribute: str, from_state: int,
                     due: float, until: float) -> bool:
        """Recovery replay of one logged deferral (see :meth:`replay_defers`)."""
        return self.replay_defers(
            [(record_id, attribute, from_state, due, until)]) == 1

    def replay_defers(self,
                      entries: List[Tuple[Any, str, int, float, float]]) -> int:
        """Recovery replay of a batch of logged deferrals.

        Each ``(record_id, attribute, from_state, due, until)`` entry moves
        the queued step for ``(record_id, attribute)`` to retry at ``until``
        while keeping its original ``due`` for lag accounting — mirroring
        :meth:`defer`, which operates on steps already popped from the queue,
        whereas replay must first displace the reconstructed entries.  The
        whole batch pays one queue rebuild (a SCHED_DEFER record covers a
        whole conflict-deferred table batch).  Returns the number of
        deferrals applied.
        """
        valid: List[Tuple[Any, str, int, float, float]] = []
        for record_id, attribute, from_state, due, until in entries:
            registration = self._registrations.get(record_id)
            if registration is None:
                continue
            if registration.current_states.get(attribute) != from_state:
                continue
            valid.append((record_id, attribute, from_state, due, until))
        if not valid:
            return 0
        displaced = {(record_id, attribute)
                     for record_id, attribute, *_rest in valid}
        self._heap = [
            entry for entry in self._heap
            if (entry[2].record_id, entry[2].attribute) not in displaced
        ]
        for record_id, attribute, from_state, due, until in valid:
            step = DegradationStep(
                record_id=record_id, attribute=attribute,
                from_state=from_state, to_state=from_state + 1, due=due,
            )
            self._heap.append((until, next(self._counter), step))
        heapq.heapify(self._heap)
        return len(valid)


__all__ = ["DegradationStep", "DegradationBatch", "DegradationScheduler",
           "SchedulerStats", "SchedulerSnapshot", "RegistrationSnapshot",
           "StepApplier", "BatchApplier", "CompletionCallback", "LCPResolver"]
