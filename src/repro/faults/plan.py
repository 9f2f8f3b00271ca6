"""The FaultPlan DSL: which fault fires where, on which call, decided by seed.

A plan is a list of :class:`FaultRule` triggers over named *sites*.  A site is
a string naming one injection hook compiled into the engine (``"wal.flush"``,
``"wal.scrub"``, ``"pager.sync"``, ``"server.send"``, ``"client.recv"``, ``"clock.advance"``);
components with a plan call :meth:`FaultPlan.fire` at the top of the guarded
operation and act on the returned event — raise ``OSError(ENOSPC)``, write a
torn prefix, drop the socket, skip the clock.  The *kind* string says what to
do; the hook owns the how, so the plan stays free of I/O knowledge.

Three trigger shapes cover the schedules the chaos oracle needs:

* :meth:`~FaultPlan.fail_nth` — fire on exactly the Nth call to the site
  (1-based), then disarm.  Deterministic regardless of seed.
* :meth:`~FaultPlan.fail_once` — fire on the next call, then disarm.
* :meth:`~FaultPlan.fail_with_probability` — fire a seeded coin per call.
  Repeatable for a given ``(seed, call-sequence)`` pair; bound the blast
  radius with ``max_fires``.

Every trigger that fires is appended to :attr:`FaultPlan.fired`, so a test
can assert "each fault kind fired at least once" and a failure report can
print the exact schedule that produced it.  ``fire`` takes an internal lock:
sites are hit concurrently (daemon thread, server loop, client threads) and
the per-site call counters and RNG must stay consistent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..devtools.invariants import TrackedLock


@dataclass(frozen=True)
class FaultEvent:
    """One fault that fired: where, what, and on which call to the site."""

    site: str
    kind: str
    call_index: int
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def describe(self) -> str:
        extra = "".join(f" {k}={v!r}" for k, v in self.params)
        return f"{self.site}#{self.call_index} -> {self.kind}{extra}"


@dataclass
class FaultRule:
    """One armed trigger.  Built via the ``FaultPlan.fail_*`` methods."""

    site: str
    kind: str
    nth: Optional[int] = None          # fire on exactly this 1-based call
    probability: Optional[float] = None  # else a per-call seeded coin
    max_fires: Optional[int] = 1       # None = unbounded (probability rules)
    params: Tuple[Tuple[str, Any], ...] = ()
    fires: int = field(default=0)

    def exhausted(self) -> bool:
        return self.max_fires is not None and self.fires >= self.max_fires

    def triggers(self, call_index: int, rng: random.Random) -> bool:
        if self.exhausted():
            return False
        if self.nth is not None:
            return call_index == self.nth
        if self.probability is not None:
            return rng.random() < self.probability
        return True  # fail_once: the next call


class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    >>> plan = FaultPlan(seed=42)
    >>> _ = plan.fail_nth("wal.flush", "enospc", 3)
    >>> _ = plan.fail_with_probability("server.send", "disconnect", 0.05)
    >>> plan.fire("wal.flush") is None   # call #1: nothing armed for it
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed * 7919 + 13)
        self._rules: List[FaultRule] = []
        self._calls: Dict[str, int] = {}
        self._lock = TrackedLock("faults.plan")
        #: Every event that fired, in firing order (append-only).
        self.fired: List[FaultEvent] = []

    # -- building the schedule ----------------------------------------------

    def add_rule(self, rule: FaultRule) -> "FaultPlan":
        with self._lock:
            self._rules.append(rule)
        return self

    def fail_nth(self, site: str, kind: str, nth: int,
                 **params: Any) -> "FaultPlan":
        """Fire ``kind`` on exactly the ``nth`` (1-based) call to ``site``."""
        if nth < 1:
            raise ValueError(f"nth is 1-based, got {nth}")
        return self.add_rule(FaultRule(site=site, kind=kind, nth=nth,
                                       params=tuple(sorted(params.items()))))

    def fail_once(self, site: str, kind: str, **params: Any) -> "FaultPlan":
        """Fire ``kind`` on the next call to ``site``, then disarm."""
        return self.add_rule(FaultRule(site=site, kind=kind,
                                       params=tuple(sorted(params.items()))))

    def fail_with_probability(self, site: str, kind: str, probability: float,
                              max_fires: Optional[int] = None,
                              **params: Any) -> "FaultPlan":
        """Fire ``kind`` with seeded probability per call to ``site``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability outside [0, 1]: {probability}")
        return self.add_rule(FaultRule(site=site, kind=kind,
                                       probability=probability,
                                       max_fires=max_fires,
                                       params=tuple(sorted(params.items()))))

    def disarm(self) -> None:
        """Drop every armed rule; call counters and fired history remain.

        A chaos run disarms the plan once coverage is proven, so teardown
        (final checkpoint, close) runs clean instead of tripping leftover
        background rules.
        """
        with self._lock:
            self._rules.clear()

    # -- consuming it --------------------------------------------------------

    def fire(self, site: str) -> Optional[FaultEvent]:
        """Count one call to ``site``; return the triggering event, if any.

        The first armed rule (in registration order) that triggers wins the
        call; later rules do not also observe it.  Returns ``None`` when the
        call proceeds unfaulted.
        """
        with self._lock:
            call_index = self._calls.get(site, 0) + 1
            self._calls[site] = call_index
            for rule in self._rules:
                if rule.site != site:
                    continue
                if rule.triggers(call_index, self._rng):
                    rule.fires += 1
                    event = FaultEvent(site=site, kind=rule.kind,
                                       call_index=call_index,
                                       params=rule.params)
                    self.fired.append(event)
                    return event
        return None

    # -- observing it --------------------------------------------------------

    def calls(self, site: str) -> int:
        with self._lock:
            return self._calls.get(site, 0)

    def fired_kinds(self) -> Set[str]:
        with self._lock:
            return {event.kind for event in self.fired}

    def fired_sites(self) -> Set[str]:
        with self._lock:
            return {event.site for event in self.fired}

    def describe(self) -> str:
        with self._lock:
            lines = [f"FaultPlan(seed={self.seed}): "
                     f"{len(self._rules)} rules, {len(self.fired)} fired"]
            lines.extend("  " + event.describe() for event in self.fired)
        return "\n".join(lines)


__all__ = ["FaultEvent", "FaultPlan", "FaultRule"]
