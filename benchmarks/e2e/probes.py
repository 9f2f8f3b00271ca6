"""Every number the benchmark reads that is not a wall-clock time it took itself.

Three kinds live here and nowhere else:

* **engine counters** — attributes of engine internals that are the only
  source of a number.  ``steps_applied`` is the single counter the *untraced*
  run may read (the retention-lag metrics weight each tick by it); the others
  feed per-layer metrics of the traced run and return ``None`` when the
  attribute has moved, so a refactor drops a metric instead of failing a run.
* **OS probes** — ``/proc/self/io``, ``getrusage``, directory sizes, the git
  commit.  Each tolerates its source being absent.
* **machine speed** — ``SpeedMeter`` times a fixed reference kernel all through
  a run.  The sandbox's speed moves by a third within seconds and over minutes;
  dividing every interval by the kernel's slowdown *in the same half second*
  takes most of that out (README, "Bounds from evidence").
"""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple


# -- engine counters -----------------------------------------------------------

def steps_applied(db: Any) -> int:
    """Degradation steps the engine has applied so far (exact, repeats)."""
    return db.stats.degradation_steps_applied


def _counter(root: Any, path: str) -> Optional[float]:
    value = root
    for part in path.split("."):
        value = getattr(value, part, None)
        if value is None:
            return None
    return value if isinstance(value, (int, float)) else None


def wal_bytes_written(db: Any) -> Optional[float]:
    """Bytes physically written to the log file (appends and rewrites)."""
    return _counter(db, "wal.stats.bytes_written")


def buffer_hits_misses(db: Any) -> Optional[Tuple[float, float]]:
    hits = _counter(db, "buffer_pool.stats.hits")
    misses = _counter(db, "buffer_pool.stats.misses")
    return None if hits is None or misses is None else (hits, misses)


def statement_cache_hits_misses(db: Any) -> Optional[Tuple[float, float]]:
    hits = _counter(db, "statements.stats.hits")
    misses = _counter(db, "statements.stats.misses")
    return None if hits is None or misses is None else (hits, misses)


def share(before: Optional[Tuple[float, float]],
          after: Optional[Tuple[float, float]]) -> Optional[float]:
    """hits ÷ (hits + misses) over the interval between two counter reads."""
    if before is None or after is None:
        return None
    hits = after[0] - before[0]
    total = hits + after[1] - before[1]
    return hits / total if total else None


# -- machine speed ---------------------------------------------------------------

#: Nominal time of one reference-kernel call: what the reference sandbox takes
#: when nothing else runs on its host.  Only ever used as a ratio's base.
REFERENCE_KERNEL_S = 0.00016
#: A sample counts towards an interval when taken within this many seconds of it.
SPEED_REACH_S = 0.5
_KERNEL_PAGES = 1024          # 4 MiB: more than the caches keep between two visits
_KERNEL_PAGE_BYTES = 4096
_KERNEL_PAGES_PER_CALL = 8
_KERNEL_CALLS_PER_SAMPLE = 5
_KERNEL_RECORD = struct.Struct("<IIHH20s")


class SpeedMeter:
    """How slow the machine ran, moment by moment (1.0 = nominal).

    The driver thread calls :meth:`sample` between the things it times — every
    few statements, around every tick — and afterwards every timed interval is
    turned into *nominal seconds*: what it would have taken on the reference
    sandbox at full speed.  A change to the engine does not touch the kernel,
    so a gain or a regression shows in full; the host's mood does not.
    """

    def __init__(self) -> None:
        self._began: List[float] = []     # per sample: when it started,
        self._ended: List[float] = []     # when it ended,
        self._kernel: List[float] = []    # and the median kernel time it saw
        blob = hashlib.shake_256(b"benchmarks/e2e reference pages").digest(
            _KERNEL_PAGES * _KERNEL_PAGE_BYTES)
        self._pages = [blob[at:at + _KERNEL_PAGE_BYTES]
                       for at in range(0, len(blob), _KERNEL_PAGE_BYTES)]
        self._next_page = 0

    def _reference_kernel(self) -> int:
        """A fixed piece of interpreter work shaped like the engine's hot loop:
        walk the next few 4 KiB pages of a set too large to stay cached, unpack
        every record, build a row dict, filter on a column.  (A kernel that
        fits the L1 cache tracked the engine's speed half as well.)"""
        first = self._next_page
        self._next_page = (first + _KERNEL_PAGES_PER_CALL) % _KERNEL_PAGES
        unpack = _KERNEL_RECORD.unpack_from
        kept = []
        for page in self._pages[first:first + _KERNEL_PAGES_PER_CALL]:
            for offset in range(0, _KERNEL_PAGE_BYTES - _KERNEL_RECORD.size, 96):
                key, user, level, day, address = unpack(page, offset)
                row = {"id": key, "user": user, "level": level, "day": day, "address": address}
                if row["level"] & 1:
                    kept.append(row)
        return len(kept)

    def sample(self) -> None:
        """Time the reference kernel a few times (≈ 1 ms) and keep the median."""
        perf = time.perf_counter
        kernel = self._reference_kernel
        began = perf()
        times = []
        for _ in range(_KERNEL_CALLS_PER_SAMPLE):
            started = perf()
            kernel()
            times.append(perf() - started)
        self._began.append(began)
        self._kernel.append(statistics.median(times))
        self._ended.append(perf())

    def slowdown(self, start: float, end: float) -> float:
        """Median slowdown over the samples within reach of ``[start, end]``
        (a neighbouring sample when none is: client 1 of ``remote_mixed`` may
        outlast client 0, which does the sampling)."""
        low = bisect.bisect_left(self._ended, start - SPEED_REACH_S)
        high = bisect.bisect_right(self._began, end + SPEED_REACH_S)
        if low >= high:
            low = max(0, min(low, len(self._kernel) - 1))
            high = low + 1
        return statistics.median(self._kernel[low:high]) / REFERENCE_KERNEL_S

    def nominal_seconds(self, start: float, end: float) -> float:
        """``end - start`` at nominal speed: the stretches between the samples
        taken inside the interval, each divided by the slowdown around it (the
        time spent sampling is left out)."""
        first = bisect.bisect_left(self._began, start)
        last = bisect.bisect_right(self._ended, end)
        cuts = [start]
        for index in range(first, last):
            cuts += [self._began[index], self._ended[index]]
        cuts.append(end)
        return sum((cuts[i + 1] - cuts[i]) / self.slowdown(cuts[i], cuts[i + 1])
                   for i in range(0, len(cuts), 2))


# -- OS probes -----------------------------------------------------------------

def process_write_bytes() -> Optional[int]:
    """``wchar`` of ``/proc/self/io``: bytes this process passed to write()."""
    try:
        with open("/proc/self/io") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                continue
    return total


def environment() -> Dict[str, Any]:
    try:
        loadavg = list(os.getloadavg())
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "loadavg": loadavg,
    }


def git_state(root: str) -> Tuple[str, bool]:
    """``(commit, dirty)`` of the checkout at ``root``; ``("unknown", False)``
    outside a git repository (the benchmark driver's checkout is not one)."""
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(("git", "-C", root) + args, capture_output=True,
                                  text=True, timeout=20, check=False)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout if done.returncode == 0 else None

    commit = git("rev-parse", "--short=12", "HEAD")
    if not commit:
        return "unknown", False
    status = git("status", "--porcelain")
    return commit.strip(), bool(status and status.strip())
