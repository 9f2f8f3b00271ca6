"""Engine variants the scenario suite runs (and differences) against.

One scenario op stream replays against two engines, each checked against
the reference model of :mod:`repro.scenarios.reference`:

* ``compiled`` — the engine: compiled predicates, pushdown, column pruning,
  cost-based plans, every read through the compiled record reader.
* ``remote`` — the same engine behind the asyncio wire server, driven
  through the remote PEP 249 driver: sentinels must round-trip the socket
  by identity.

Every variant — and the model — exposes the same small surface
(``execute`` / ``executemany`` / ``commit`` / ``rollback`` / ``advance`` /
``now`` / ``steps_applied`` / ``forensic_report`` / ``close``), so the
driver and the differential oracle never branch on what they drive.
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
from .reference import ReferenceModel
from .retention import retention_report

#: The engine variants the oracles check.
VARIANT_NAMES: Tuple[str, ...] = ("compiled", "remote")
#: The name :func:`build_variants` gives the reference model.
REFERENCE = "reference"


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
        self.engine = InstantDB(data_dir=data_dir, fault_plan=fault_plan)
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

    def executemany(self, sql: str, seq_of_params: Sequence[Sequence[Any]]) -> Any:
        return self.connection.executemany(sql, seq_of_params)

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

    def now(self) -> float:
        """The engine's clock."""
        return self.engine_call(lambda db: db.clock.now())

    def forensic_report(self, salaries: Optional[Dict[int, int]] = None
                        ) -> Dict[str, int]:
        """Retention violations and forensic leaks (:func:`retention_report`)."""
        return self.engine_call(retention_report, salaries or {})

    def engine_call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(engine, *args)`` on the thread the engine is pinned to.

        While an engine is being served it is pinned to the server's
        loop thread (enforced under ``REPRO_DEBUG_INVARIANTS=1``); unserved
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


def reference_model(scenario: InclusionScenario) -> ReferenceModel:
    """The reference model over the scenario's definitions: the catalog of an
    engine the scenario was installed on, which holds no row."""
    return ReferenceModel(scenario.install(InstantDB()).catalog)


def build_variants(scenario: InclusionScenario,
                   names: Sequence[str] = (REFERENCE, *VARIANT_NAMES),
                   data_dirs: Optional[Dict[str, str]] = None
                   ) -> Dict[str, Any]:
    """Build the requested variants (and :data:`REFERENCE`, the model) over
    one shared scenario definition."""
    data_dirs = data_dirs or {}
    return {name: reference_model(scenario) if name == REFERENCE
            else ScenarioVariant(name, scenario, data_dir=data_dirs.get(name))
            for name in names}


__all__ = ["ScenarioVariant", "build_variants", "reference_model",
           "VARIANT_NAMES", "REFERENCE"]
