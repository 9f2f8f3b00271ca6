"""Runtime invariant checks: lock-order tracking and engine-thread confinement.

The static half of devtools (``repro.devtools.lint``) proves properties of
the *source*; this module checks the two invariants that only exist at
runtime:

* **Lock-order discipline.**  Every :class:`TrackedLock` acquisition is
  recorded into a per-owner held list and a global *order graph* (edges
  ``held -> newly acquired``).  A cycle in that graph means two code paths
  acquire the same locks in opposite orders — a latent deadlock even if the
  test run never actually deadlocked.  Cycles are reported at release time,
  ranked locks (names listed in :data:`LOCK_HIERARCHY`) are additionally
  checked at acquire time.  The same tracker machinery observes the engine's
  2PL :class:`~repro.txn.locks.LockManager` in *observe-only* mode: 2PL
  inversions are normal (the engine resolves them with its own deadlock
  detector), so they are recorded in :data:`observed_inversions` for
  diagnostics instead of raising.
* **Engine-thread confinement.**  The serving layer promises that every
  engine entry point runs on the server's event-loop thread.
  :func:`register_engine_thread` pins an engine to the loop thread;
  :func:`assert_engine_thread` (called from the engine's entry points)
  raises :class:`InvariantViolation` when any other thread calls in while
  the engine is being served.

Everything here is **off by default**: set ``REPRO_DEBUG_INVARIANTS=1`` in
the environment (or call :func:`enable` from a test) to arm the checks.
When disabled the hooks are a single attribute test — cheap enough to leave
compiled into the hot paths.

See ``docs/invariants.md`` for the documented lock hierarchy and the
confinement contract.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

#: The documented partial order of the process-level (``threading``) locks.
#: A :class:`TrackedLock` whose name appears here has the rank of its index;
#: acquiring a lower-ranked lock while holding a higher-ranked one raises.
#: Unranked names participate in order-graph cycle detection only.
#: Keep this tuple in sync with docs/invariants.md.
LOCK_HIERARCHY: Tuple[str, ...] = (
    "server.sessions",
    "faults.plan",
)


class InvariantViolation(AssertionError):
    """A runtime invariant was broken (only raised when checks are enabled)."""


_enabled: bool = os.environ.get("REPRO_DEBUG_INVARIANTS", "") not in ("", "0")

#: Violations that raised (lock-order cycles, rank inversions, confinement
#: breaches).  Appended before raising so tests can inspect what fired.
violations: List[str] = []

#: Observe-only findings from the 2PL lock manager: transactions that
#: acquired resources in conflicting orders.  Never raises — the engine's
#: own deadlock detector is the enforcement mechanism there.
observed_inversions: List[str] = []


def enabled() -> bool:
    return _enabled


def enable() -> None:
    """Arm the runtime checks (tests; equivalent to REPRO_DEBUG_INVARIANTS=1)."""
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def reset() -> None:
    """Clear all recorded state (between tests)."""
    del violations[:]
    del observed_inversions[:]
    _thread_tracker.clear()
    _txn_tracker.clear()
    _engine_threads.clear()


def _violation(message: str) -> None:
    violations.append(message)
    raise InvariantViolation(message)


# --------------------------------------------------------------- order graph


class LockOrderTracker:
    """Per-owner acquisition sequences feeding a global lock-order graph.

    ``owner`` is a thread ident for :class:`TrackedLock` and a transaction
    id for the observed 2PL domain — the two domains use separate tracker
    instances so threading locks and table/row resources can never form
    false mixed cycles.
    """

    def __init__(self, domain: str) -> None:
        self.domain = domain
        #: edge ``a -> b``: some owner acquired (or attempted) b while holding a
        self._edges: Dict[str, Set[str]] = {}
        self._held: Dict[int, List[str]] = {}
        self._seen_cycles: Set[Tuple[str, ...]] = set()
        # Internal mutex guarding the graph itself; deliberately a raw RLock —
        # the tracker cannot track the lock that serializes the tracker.
        self._mutex = threading.RLock()  # reprolint: disable=lock-discipline

    def on_acquire(self, owner: int, name: str) -> None:
        with self._mutex:
            held = self._held.setdefault(owner, [])
            if name in held:            # re-entrant / retried acquisition
                return
            for prior in held:
                self._edges.setdefault(prior, set()).add(name)
            held.append(name)

    def on_release(self, owner: int, name: str) -> Optional[List[str]]:
        """Drop ``name`` from the owner's held list; report any graph cycle."""
        with self._mutex:
            held = self._held.get(owner)
            if held and name in held:
                held.remove(name)
            return self._new_cycle()

    def on_release_all(self, owner: int) -> Optional[List[str]]:
        with self._mutex:
            self._held.pop(owner, None)
            return self._new_cycle()

    def held_by(self, owner: int) -> List[str]:
        with self._mutex:
            return list(self._held.get(owner, ()))

    def clear(self) -> None:
        with self._mutex:
            self._edges.clear()
            self._held.clear()
            self._seen_cycles.clear()

    # -- cycle detection ---------------------------------------------------

    def _new_cycle(self) -> Optional[List[str]]:
        """First not-yet-reported cycle in the order graph, if any."""
        cycle = self._find_cycle()
        if cycle is None:
            return None
        key = _canonical_cycle(cycle)
        if key in self._seen_cycles:
            return None
        self._seen_cycles.add(key)
        return cycle

    def _find_cycle(self) -> Optional[List[str]]:
        visiting: Set[str] = set()
        done: Set[str] = set()
        path: List[str] = []

        def visit(node: str) -> Optional[List[str]]:
            if node in visiting:
                return path[path.index(node):] + [node]
            if node in done:
                return None
            visiting.add(node)
            path.append(node)
            for succ in self._edges.get(node, ()):
                found = visit(succ)
                if found is not None:
                    return found
            path.pop()
            visiting.discard(node)
            done.add(node)
            return None

        for start in list(self._edges):
            found = visit(start)
            if found is not None:
                return found
        return None


def _canonical_cycle(cycle: Sequence[str]) -> Tuple[str, ...]:
    """Rotation-independent key for a cycle ``[a, b, ..., a]``."""
    ring = list(cycle[:-1])
    if not ring:
        return tuple(cycle)
    pivot = ring.index(min(ring))
    return tuple(ring[pivot:] + ring[:pivot])


_thread_tracker = LockOrderTracker("thread-locks")
_txn_tracker = LockOrderTracker("txn-resources")


# --------------------------------------------------------------- TrackedLock


def _rank(name: str) -> Optional[int]:
    try:
        return LOCK_HIERARCHY.index(name)
    except ValueError:
        return None


class TrackedLock:
    """A named re-entrant lock whose acquisitions feed the order tracker.

    Use as a context manager only (``with lock:``) — the lint rule
    *lock-discipline* rejects bare ``.acquire()`` calls precisely so every
    acquisition goes through ``__enter__`` and gets tracked.  When the
    runtime checks are disabled this is an ordinary RLock behind one
    ``if``.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.RLock()  # reprolint: disable=lock-discipline

    def __enter__(self) -> "TrackedLock":
        if _enabled:
            self._check_rank()
            _thread_tracker.on_acquire(threading.get_ident(), self.name)
        self._lock.acquire()  # reprolint: disable=lock-discipline
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._lock.release()  # reprolint: disable=lock-discipline
        if _enabled:
            cycle = _thread_tracker.on_release(threading.get_ident(), self.name)
            if cycle is not None:
                _violation(
                    "lock-order inversion: cycle "
                    + " -> ".join(cycle)
                    + " in the thread-lock order graph (two code paths "
                    "acquire these locks in opposite orders)")

    def _check_rank(self) -> None:
        my_rank = _rank(self.name)
        if my_rank is None:
            return
        for held in _thread_tracker.held_by(threading.get_ident()):
            held_rank = _rank(held)
            if held_rank is not None and held_rank > my_rank:
                _violation(
                    f"lock hierarchy violation: acquiring {self.name!r} "
                    f"(rank {my_rank}) while holding {held!r} "
                    f"(rank {held_rank}); see LOCK_HIERARCHY in "
                    "repro/devtools/invariants.py")

    def __repr__(self) -> str:
        return f"TrackedLock({self.name!r})"


# ----------------------------------------------- observed 2PL lock ordering


def observe_txn_lock(txn_id: int, resource: Any) -> None:
    """Record a 2PL acquisition *attempt* (called by ``LockManager.acquire``).

    Attempts count even when the manager answers "wait": the inversion is in
    the order code *asks* for resources, not in which requests were granted.
    """
    if not _enabled:
        return
    _txn_tracker.on_acquire(txn_id, _resource_key(resource))


def observe_txn_release(txn_id: int) -> None:
    """Record a strict-2PL release-all (commit/abort) and log new cycles."""
    if not _enabled:
        return
    cycle = _txn_tracker.on_release_all(txn_id)
    if cycle is not None:
        observed_inversions.append(
            "2PL acquisition-order inversion: cycle "
            + " -> ".join(cycle)
            + " (transactions request these resources in opposite orders; "
            "resolved at runtime by deadlock detection)")


def _resource_key(resource: Any) -> str:
    if isinstance(resource, tuple):
        return "/".join(str(part) for part in resource)
    return str(resource)


# -------------------------------------------------------- thread confinement

#: ``id(engine) -> thread ident`` for engines currently pinned to a server's
#: event-loop thread.  Registered by ``InstantDBServer.start()`` on the loop
#: thread itself, removed by ``stop()``.
_engine_threads: Dict[int, int] = {}


def register_engine_thread(engine: Any, ident: Optional[int] = None) -> None:
    """Pin ``engine`` to a thread (defaults to the calling thread)."""
    _engine_threads[id(engine)] = (
        ident if ident is not None else threading.get_ident())


def unregister_engine_thread(engine: Any) -> None:
    _engine_threads.pop(id(engine), None)


def assert_engine_thread(engine: Any) -> None:
    """Raise if a pinned engine is entered from a foreign thread.

    A no-op unless the checks are enabled *and* the engine is currently
    registered (i.e. being served); unserved engines stay freely usable
    from any single thread.
    """
    if not _enabled or not _engine_threads:
        return
    expected = _engine_threads.get(id(engine))
    if expected is None:
        return
    actual = threading.get_ident()
    if actual != expected:
        thread = threading.current_thread()
        _violation(
            f"engine entered off the server's loop thread: thread "
            f"{thread.name!r} (ident {actual}) called into an engine pinned "
            f"to thread ident {expected}; run the call on the server's "
            "event-loop thread (ServerThread.submit)")


__all__ = [
    "InvariantViolation", "LOCK_HIERARCHY", "LockOrderTracker", "TrackedLock",
    "enable", "disable", "enabled", "reset", "violations",
    "observed_inversions", "observe_txn_lock", "observe_txn_release",
    "register_engine_thread", "unregister_engine_thread",
    "assert_engine_thread",
]
