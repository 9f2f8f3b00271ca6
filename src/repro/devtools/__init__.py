"""Developer tooling: the reprolint static analyzer and runtime invariants.

Two halves, one purpose — machine-check the correctness rules the engine's
degradation semantics depend on, so refactors (MVCC, multi-threaded
executors) cannot silently regress them:

* :mod:`repro.devtools.lint` — ``reprolint``, an AST-based checker run as
  ``python -m repro.devtools.lint src/``.  Rules encode real repo
  invariants: sentinel identity comparisons, WAL record-type exhaustiveness
  across recovery replay and scrub classification, event-loop
  confinement in the asyncio server, protocol frame-tag coverage, lock
  discipline, and no silently swallowed transaction aborts.
* :mod:`repro.devtools.invariants` — runtime checks armed by
  ``REPRO_DEBUG_INVARIANTS=1``: a lock-order tracker that reports
  lock-order inversions (cycles in the global acquisition-order graph) and
  thread-confinement guards asserting engine entry points run on the
  server's event-loop thread.

This package intentionally imports nothing from the engine at module load —
the engine's hot paths import :mod:`repro.devtools.invariants`, and a cycle
here would be paid by every ``import repro``.
"""

from .findings import Finding
from .invariants import InvariantViolation, TrackedLock

__all__ = ["Finding", "InvariantViolation", "TrackedLock"]
