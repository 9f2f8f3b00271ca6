"""The degradation daemon.

The daemon is the component that turns the scheduler's due steps into actual
storage mutations, *timely*.  It can be driven in two ways:

* attached to a :class:`~repro.core.clock.SimulatedClock`, it runs after every
  clock advancement (the mode used by tests, examples and benchmarks);
* polled explicitly through :meth:`DegradationDaemon.run_pending`, which is
  what a wall-clock deployment would call from a background thread or timer.

Due steps are drained through
:meth:`~repro.core.scheduler.DegradationScheduler.run_due_batched`, grouped
per table, so a mass-expiry wave pays one system transaction, one exclusive
table lock, one coalesced page-flush pass and one durable WAL flush per
table and drain round instead of per step.  Tuples a batch drives into their
final state are removed by the applier inside that batch's own transaction.

A drain is one synchronous call on the engine thread (the caller's thread
embedded, the server's event-loop thread served), so no statement runs
between two of its rounds; a due cohort is never cut into chunks.

The daemon delegates the physical work to the engine-provided applier and
tracks timeliness statistics through the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.clock import Clock, SimulatedClock
from ..core.scheduler import BatchApplier, DegradationScheduler, DegradationStep


@dataclass
class DaemonStats:
    invocations: int = 0
    steps_applied: int = 0
    batches: int = 0
    #: Steps applied by post-recovery catch-up drains (overdue at restart).
    catch_up_steps: int = 0
    #: Steps pushed back onto the schedule because their wave hit a transient
    #: durability fault; they retry with exponential backoff.
    steps_deferred_by_fault: int = 0


class DegradationDaemon:
    """Drives the degradation scheduler against the engine."""

    def __init__(self, clock: Clock, scheduler: DegradationScheduler,
                 applier: BatchApplier,
                 auto_attach: bool = True) -> None:
        self.clock = clock
        self.scheduler = scheduler
        #: Applies one table's batch of due steps, returns those it applied.
        self.applier = applier
        self.stats = DaemonStats()
        self._enabled = True
        if auto_attach and isinstance(clock, SimulatedClock):
            clock.on_advance(self._on_clock_advance)

    # -- control ----------------------------------------------------------------

    def pause(self) -> None:
        """Stop applying steps (used by tests that want to observe lag)."""
        self._enabled = False

    def resume(self) -> None:
        self._enabled = True

    @property
    def enabled(self) -> bool:
        return self._enabled

    # -- running -----------------------------------------------------------------

    def _on_clock_advance(self, now: float) -> None:
        if self._enabled:
            self.run_pending(now)

    def run_pending(self, now: Optional[float] = None) -> List[DegradationStep]:
        """Apply every step due at or before ``now`` (defaults to the clock)."""
        if now is None:
            now = self.clock.now()
        self.stats.invocations += 1

        def counting_applier(key, steps):
            result = self.applier(key, steps)
            if result:
                self.stats.batches += 1
            return result

        applied = self.scheduler.run_due_batched(now, counting_applier)
        self.stats.steps_applied += sum(map(len, applied))
        return applied

    def catch_up(self, now: Optional[float] = None) -> List[DegradationStep]:
        """Drain every step that came due while the process was down.

        Called by :meth:`InstantDB.recover` after the schedule has been
        derived from the recovered heap: the backlog drains through the normal
        pipeline, so a restart after a long outage pays the same amortized
        cost as a live mass-expiry wave.  The applied
        steps are also counted separately in
        :attr:`DaemonStats.catch_up_steps` so benchmarks can report
        post-restart degradation lag.
        """
        applied = self.run_pending(now)
        self.stats.catch_up_steps += sum(map(len, applied))
        return applied

    def backlog(self, now: Optional[float] = None) -> int:
        """Number of steps overdue at ``now`` (timeliness measure)."""
        if now is None:
            now = self.clock.now()
        return self.scheduler.overdue_count(now)


__all__ = ["DegradationDaemon", "DaemonStats"]
