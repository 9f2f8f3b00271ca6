"""Strict two-phase locking with deadlock detection.

The paper points out that degradation steps behave like system-initiated
update transactions and therefore conflict with concurrent readers.  The lock
manager below provides the isolation substrate for that interaction:

* shared (``S``) and exclusive (``X``) locks on arbitrary resources (table
  names, ``(table, row_key)`` pairs);
* strict 2PL — locks are only released at commit/abort via
  :meth:`LockManager.release_all`;
* a waits-for graph with cycle detection; the *requesting* transaction is
  chosen as the deadlock victim (simple, deterministic, and sufficient for the
  C1 benchmark).

The engine is single threaded: "blocking" is modelled by returning ``False``
from :meth:`acquire` (the caller re-tries after other transactions release),
while a genuine deadlock raises :class:`~repro.core.errors.DeadlockError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, Optional, Set

from ..core.errors import DeadlockError
from ..devtools.invariants import observe_txn_lock, observe_txn_release


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


@dataclass
class LockStats:
    acquired: int = 0
    blocked: int = 0
    deadlocks: int = 0
    released: int = 0


class LockManager:
    """Table/row lock manager implementing strict 2PL."""

    def __init__(self) -> None:
        #: resource -> {txn_id: mode}
        self._holders: Dict[Any, Dict[int, LockMode]] = {}
        #: txn_id -> set of resources held
        self._held_by_txn: Dict[int, Set[Any]] = {}
        #: waits-for edges: waiter txn -> set of holder txns
        self._waits_for: Dict[int, Set[int]] = {}
        self.stats = LockStats()

    # -- acquisition --------------------------------------------------------

    def acquire(self, txn_id: int, resource: Any, mode: LockMode) -> bool:
        """Try to acquire ``resource`` in ``mode`` for ``txn_id``.

        Returns ``True`` when granted, ``False`` when the transaction must
        wait.  Raises :class:`DeadlockError` when waiting would close a cycle
        in the waits-for graph.
        """
        observe_txn_lock(txn_id, resource)
        holders = self._holders.setdefault(resource, {})
        current = holders.get(txn_id)
        if current is not None:
            if current is LockMode.EXCLUSIVE or current is mode:
                return True
            # Upgrade S -> X: only possible when we are the single holder.
            if len(holders) == 1:
                holders[txn_id] = LockMode.EXCLUSIVE
                return True
            return self._block(txn_id, resource, holders, mode)
        conflicting = [
            holder for holder, held_mode in holders.items()
            if holder != txn_id and not held_mode.compatible_with(mode)
        ]
        if conflicting:
            return self._block(txn_id, resource, holders, mode)
        holders[txn_id] = mode
        self._held_by_txn.setdefault(txn_id, set()).add(resource)
        self._waits_for.pop(txn_id, None)
        self.stats.acquired += 1
        return True

    def _block(self, txn_id: int, resource: Any,
               holders: Dict[int, LockMode], mode: LockMode) -> bool:
        blockers = {holder for holder in holders if holder != txn_id}
        self._waits_for[txn_id] = blockers
        self.stats.blocked += 1
        cycle = self._find_cycle(txn_id)
        if cycle:
            self._waits_for.pop(txn_id, None)
            self.stats.deadlocks += 1
            raise DeadlockError(
                f"transaction {txn_id} deadlocked waiting for {resource!r} "
                f"(cycle: {' -> '.join(str(t) for t in cycle)})"
            )
        return False

    def _find_cycle(self, start: int) -> Optional[List[int]]:
        """Depth-first search for a cycle through ``start`` in the waits-for graph."""
        path: List[int] = []
        visited: Set[int] = set()

        def visit(node: int) -> Optional[List[int]]:
            if node in path:
                return path[path.index(node):] + [node]
            if node in visited:
                return None
            visited.add(node)
            path.append(node)
            for neighbour in self._waits_for.get(node, ()):  # noqa: B007
                found = visit(neighbour)
                if found:
                    return found
            path.pop()
            return None

        return visit(start)

    # -- release --------------------------------------------------------------

    def release_all(self, txn_id: int) -> int:
        """Release every lock held by ``txn_id`` (commit/abort)."""
        observe_txn_release(txn_id)
        resources = self._held_by_txn.pop(txn_id, set())
        for resource in resources:
            holders = self._holders.get(resource)
            if holders is not None:
                holders.pop(txn_id, None)
                if not holders:
                    del self._holders[resource]
        self._waits_for.pop(txn_id, None)
        for waiters in self._waits_for.values():
            waiters.discard(txn_id)
        self.stats.released += len(resources)
        return len(resources)

    # -- introspection ----------------------------------------------------------

    def holders_of(self, resource: Any) -> Dict[int, LockMode]:
        return dict(self._holders.get(resource, {}))

    def locks_held(self, txn_id: int) -> Set[Any]:
        return set(self._held_by_txn.get(txn_id, set()))

    def is_waiting(self, txn_id: int) -> bool:
        return txn_id in self._waits_for

    def active_lock_count(self) -> int:
        return sum(len(holders) for holders in self._holders.values())


__all__ = ["LockManager", "LockMode", "LockStats"]
