"""Engine variants the scenario suite runs (and differences) against.

One scenario op stream replays against three engines that must be
behaviourally identical:

* ``interpreted`` — ``InstantDB(read_path_optimizations=False)``: the
  tree-walking reference read path, the ground truth.
* ``compiled`` — the default engine: compiled predicates, column pruning,
  cost-based plans, index-only scans.
* ``remote`` — a compiled engine behind the asyncio wire server, driven
  through the remote PEP 249 driver: sentinels must round-trip the socket
  by identity.

Every variant exposes the same tiny surface (``execute`` / ``commit`` /
``advance`` / ``engine_call`` / ``close``), so the driver and the
differential oracle never branch on transport.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..api.connection import connect as local_connect
from ..client import connect as remote_connect
from ..engine.database import InstantDB
from ..faults import FaultPlan
from ..server import ServerThread
from .inclusion import InclusionScenario

#: Canonical variant order (the first one is the reference engine).
VARIANT_NAMES: Tuple[str, ...] = ("interpreted", "compiled", "remote")


class ScenarioVariant:
    """One engine variant wired with the scenario schema, behind PEP 249."""

    def __init__(self, name: str, scenario: InclusionScenario,
                 data_dir: Optional[str] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 server_kwargs: Optional[Dict[str, Any]] = None,
                 connect_kwargs: Optional[Dict[str, Any]] = None) -> None:
        if name not in VARIANT_NAMES:
            raise ValueError(f"unknown variant {name!r} "
                             f"(expected one of {VARIANT_NAMES})")
        self.name = name
        self.scenario = scenario
        self.fault_plan = fault_plan
        self._connect_kwargs = dict(connect_kwargs or {})
        self.engine = InstantDB(
            data_dir=data_dir,
            read_path_optimizations=(name != "interpreted"),
            fault_plan=fault_plan,
        )
        scenario.install(self.engine)
        self.server: Optional[ServerThread] = None
        if name == "remote":
            self.server = ServerThread(self.engine,
                                       **(server_kwargs or {})).start()
            host, port = self.server.address
            self.connection = remote_connect(host, port,
                                             **self._connect_kwargs)
        else:
            self.connection = local_connect(engine=self.engine)
        self._closed = False

    # -- uniform driver surface ----------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = (), *,
                purpose: Optional[str] = None) -> Any:
        """Execute one statement; returns the (fetched) cursor."""
        return self.connection.execute(sql, params, purpose=purpose)

    def commit(self) -> None:
        self.connection.commit()

    def rollback(self) -> None:
        self.connection.rollback()

    def advance(self, seconds: float) -> float:
        """Advance the simulated clock (degradation waves fire inline)."""
        if self.server is not None:
            return self.server.submit(
                functools.partial(self.engine.advance_time, seconds))
        return self.engine.advance_time(seconds)

    def engine_call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(engine, *args)`` on the engine's executor thread.

        While an engine is being served it is pinned to the server's
        executor (enforced under ``REPRO_DEBUG_INVARIANTS=1``); unserved
        engines run the callable inline.
        """
        if self.server is not None:
            return self.server.submit(functools.partial(fn, self.engine, *args))
        return fn(self.engine, *args)

    def reconnect(self) -> None:
        """Replace a dead or poisoned remote connection with a fresh session.

        A no-op for in-process variants: their connection is a thin wrapper
        over the engine and survives engine-side faults.
        """
        if self.server is None:
            return
        self.connection.close()
        host, port = self.server.address
        self.connection = remote_connect(host, port, **self._connect_kwargs)

    def steps_applied(self) -> int:
        """Degradation steps applied so far (comparable across variants)."""
        return self.engine.stats.degradation_steps_applied

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.connection.close()
        finally:
            if self.server is not None:
                self.server.stop()
                self.engine.close()
            # the local connection owns no engine (engine= was passed), but
            # closing it leaves the engine open — close it ourselves.
            elif not getattr(self.connection, "_owns_engine", False):
                self.engine.close()

    def __enter__(self) -> "ScenarioVariant":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def build_variants(scenario: InclusionScenario,
                   names: Sequence[str] = VARIANT_NAMES,
                   data_dirs: Optional[Dict[str, str]] = None
                   ) -> Dict[str, ScenarioVariant]:
    """Build the requested variants over one shared scenario definition."""
    data_dirs = data_dirs or {}
    return {name: ScenarioVariant(name, scenario, data_dir=data_dirs.get(name))
            for name in names}


__all__ = ["ScenarioVariant", "build_variants", "VARIANT_NAMES"]
