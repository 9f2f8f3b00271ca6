"""Outside-in tracer: per-layer numbers without touching a line of ``src/``.

``WRAP_TABLE`` names, layer by layer, the functions that form each module's
boundary.  :meth:`Tracer.install` replaces every target with a timing wrapper
(and every module-level alias of it, so a ``from .parser import parse``
re-export is covered too); :meth:`Tracer.restore` puts the originals back.  A
target that no longer resolves is listed in :attr:`Tracer.unresolved` and its
metrics are left out — the traced run never fails because an internal moved.

Three kinds of wrapper:

``span``  one record per call — name, start, end, parent span and the
          statement/tick id of the driver thread — kept in memory until the
          run ends.
``leaf``  hot calls (hundreds per statement: ``TableStore.read``,
          ``BufferPool.get_page``): no record, only a count and a summed self
          time, globally and on the enclosing span.
``iter``  the call returns an iterator; every ``next()`` on it is accounted
          like a leaf (the streaming operator pipeline does its work there).

Self time is a call's duration minus the durations of the wrapped calls made
inside it, so the per-layer ``*_ms`` numbers add up to the wall time the
wrapped entry points cover and never count a microsecond twice.

The tracer must be installed *before* the engine is built: the engine hands
bound methods (the daemon's batch applier) to other objects at construction,
and a bound method keeps the function it was created from.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple


# -- measures: a number taken from a call's arguments or result ------------------

def _result_len(_args: tuple, result: Any) -> float:
    return float(len(result)) if result is not None else 0.0


def _first_arg_len(args: tuple, _result: Any) -> float:
    return float(len(args[0])) if args else 0.0


def _denied(_args: tuple, result: Any) -> float:
    return 1.0 if result is False else 0.0


class Wrap(NamedTuple):
    layer: str
    target: str            # "module:attr.path"
    tag: str
    kind: str = "span"     # span | leaf | iter
    measure: Optional[Callable[[tuple, Any], float]] = None


_INDEX_CLASSES = (
    "repro.index.btree:BPlusTreeIndex", "repro.index.hashindex:HashIndex",
    "repro.index.bitmap:BitmapIndex", "repro.index.gt_index:GTIndex",
)

#: (layer, target, tag, kind, measure).  Layer = module name under src/repro/.
WRAP_TABLE: Tuple[Wrap, ...] = (
    # api — the PEP 249 veneer (api.connection)
    Wrap("api", "repro.api.connection:Cursor.execute", "call"),
    Wrap("api", "repro.api.connection:Cursor.executemany", "call"),
    Wrap("api", "repro.api.connection:Cursor.fetchall", "call"),
    Wrap("api", "repro.api.connection:Cursor.fetchmany", "call"),
    Wrap("api", "repro.api.connection:Cursor.fetchone", "call"),
    Wrap("api", "repro.api.connection:Connection.commit", "call"),
    Wrap("api", "repro.api.connection:Connection.rollback", "call"),
    # engine.statement — statement dispatch and DML bookkeeping in engine.database
    Wrap("engine.statement", "repro.engine.database:InstantDB.execute", "call"),
    Wrap("engine.statement", "repro.engine.database:InstantDB.executemany", "call"),
    Wrap("engine.statement", "repro.engine.database:InstantDB.commit", "call"),
    Wrap("engine.statement", "repro.engine.database:InstantDB.rollback", "call"),
    # query.parser — tokens, parser, prepared
    Wrap("query.parser", "repro.query.prepared:StatementCache.get_or_parse", "lookup"),
    Wrap("query.parser", "repro.query.parser:parse", "parse"),
    Wrap("query.parser", "repro.query.tokens:tokenize", "parse"),
    Wrap("query.parser", "repro.query.prepared:PreparedStatement.bind", "bind", "leaf"),
    # query.planner
    Wrap("query.planner", "repro.query.planner:Planner.plan_physical", "plan"),
    Wrap("query.planner", "repro.query.planner:Planner.plan_select", "plan"),
    Wrap("query.planner", "repro.query.planner:bind_physical_plan", "plan"),
    # query.pipeline — executor, operators, compiler
    Wrap("query.pipeline", "repro.query.executor:Executor.stream_physical", "open"),
    Wrap("query.pipeline", "repro.query.executor:Executor.execute_physical", "open"),
    Wrap("query.pipeline", "repro.query.executor:Executor.matching_rows", "match"),
    Wrap("query.pipeline", "repro.query.operators:StreamingResult.__iter__", "pull", "iter"),
    Wrap("query.pipeline", "repro.query.compiler:compile_select", "compile"),
    # storage.store — degradable_store, heap, page, serialization
    Wrap("storage.store", "repro.storage.degradable_store:TableStore.read", "read", "leaf"),
    Wrap("storage.store", "repro.storage.degradable_store:TableStore.fetch", "read", "iter"),
    Wrap("storage.store", "repro.storage.degradable_store:TableStore.insert", "write", "leaf"),
    Wrap("storage.store", "repro.storage.degradable_store:TableStore.update_stable", "write",
         "leaf"),
    Wrap("storage.store", "repro.storage.degradable_store:TableStore.delete", "write", "leaf"),
    Wrap("storage.store", "repro.storage.degradable_store:TableStore.degrade", "degrade"),
    Wrap("storage.store", "repro.storage.degradable_store:TableStore.degrade_many", "degrade"),
    Wrap("storage.store", "repro.storage.degradable_store:TableStore.remove", "degrade"),
    Wrap("storage.store", "repro.storage.degradable_store:TableStore.remove_many", "degrade"),
    Wrap("storage.store", "repro.storage.degradable_store:TableStore.flush", "flush"),
    # storage.buffer — buffer, pager
    Wrap("storage.buffer", "repro.storage.buffer:BufferPool.get_page", "get", "leaf"),
    Wrap("storage.buffer", "repro.storage.buffer:BufferPool.new_page", "get", "leaf"),
    Wrap("storage.buffer", "repro.storage.buffer:BufferPool.flush_page", "flush", "leaf"),
    Wrap("storage.buffer", "repro.storage.pager:FilePager.read_page", "io", "leaf"),
    Wrap("storage.buffer", "repro.storage.pager:FilePager.write_page", "io", "leaf"),
    Wrap("storage.buffer", "repro.storage.pager:FilePager.sync", "sync"),
    # storage.wal
    Wrap("storage.wal", "repro.storage.wal:WriteAheadLog.append", "append", "leaf"),
    Wrap("storage.wal", "repro.storage.wal:WriteAheadLog.flush", "flush"),
    Wrap("storage.wal", "repro.storage.wal:WriteAheadLog.scrub_records", "scrub"),
    Wrap("storage.wal", "repro.storage.wal:WriteAheadLog.truncate_until", "truncate"),
    # index — btree, hashindex, bitmap, gt_index (the scenario declares no
    # index today, so these read 0 until one is added)
    *(Wrap("index", f"{cls}.{method}", "maintain", "leaf")
      for cls in _INDEX_CLASSES for method in ("insert", "delete")),
    Wrap("index", "repro.index.base:Index.update", "maintain", "leaf"),
    Wrap("index", "repro.index.gt_index:GTIndex.degrade_entries", "maintain", "leaf"),
    *(Wrap("index", f"{cls}.search", "search", "leaf") for cls in _INDEX_CLASSES),
    Wrap("index", "repro.index.btree:BPlusTreeIndex.range_search", "search", "leaf"),
    Wrap("index", "repro.index.btree:BPlusTreeIndex.iter_range_entries", "search", "iter"),
    Wrap("index", "repro.index.btree:BPlusTreeIndex.iter_range_keys", "search", "iter"),
    Wrap("index", "repro.index.gt_index:GTIndex.search_at", "search", "leaf"),
    # core.scheduler
    Wrap("core.scheduler", "repro.core.scheduler:DegradationScheduler.register", "register",
         "leaf"),
    Wrap("core.scheduler", "repro.core.scheduler:DegradationScheduler.cancel", "register", "leaf"),
    Wrap("core.scheduler", "repro.core.scheduler:DegradationScheduler.run_due_batched",
         "drain", "span", _result_len),
    Wrap("core.scheduler", "repro.core.scheduler:DegradationScheduler.run_due",
         "drain", "span", _result_len),
    Wrap("core.scheduler", "repro.core.scheduler:DegradationScheduler.predict_complete", "drain"),
    Wrap("core.scheduler", "repro.core.scheduler:DegradationScheduler.snapshot", "snapshot"),
    # engine.degrade — daemon + the engine's batch applier
    Wrap("engine.degrade", "repro.engine.daemon:DegradationDaemon.run_pending",
         "wave", "span", _result_len),
    Wrap("engine.degrade", "repro.engine.database:InstantDB._apply_degradation_batch", "apply"),
    Wrap("engine.degrade", "repro.engine.database:InstantDB._on_records_final", "apply"),
    # engine.checkpoint
    Wrap("engine.checkpoint", "repro.engine.database:InstantDB.checkpoint", "checkpoint"),
    # txn — locks, transaction
    Wrap("txn", "repro.txn.locks:LockManager.acquire", "lock", "leaf", _denied),
    Wrap("txn", "repro.txn.locks:LockManager.release_all", "unlock", "leaf"),
    Wrap("txn", "repro.txn.transaction:TransactionManager.begin", "begin", "leaf"),
    Wrap("txn", "repro.txn.transaction:TransactionManager.commit", "commit"),
    Wrap("txn", "repro.txn.transaction:TransactionManager.abort", "abort"),
    # server.protocol — the wire codec (client and server both call it)
    Wrap("server.protocol", "repro.server.protocol:encode_frame", "encode", "leaf", _result_len),
    Wrap("server.protocol", "repro.server.protocol:decode_frame_body", "decode", "leaf",
         _first_arg_len),
    # server.session — server, sessions (the engine executor thread runs these)
    Wrap("server.session", "repro.server.sessions:Session.execute", "call"),
    Wrap("server.session", "repro.server.sessions:Session.executemany", "call"),
    Wrap("server.session", "repro.server.sessions:Session.fetch", "call"),
    Wrap("server.session", "repro.server.sessions:Session.commit", "call"),
    Wrap("server.session", "repro.server.sessions:Session.rollback", "call"),
    Wrap("server.session", "repro.server.server:ServerThread.submit", "submit"),
    # client — client.remote; "wait" is the blocking round trip, which the
    # client spends waiting for the server, not working
    Wrap("client", "repro.client.remote:RemoteCursor.execute", "call"),
    Wrap("client", "repro.client.remote:RemoteCursor.executemany", "call"),
    Wrap("client", "repro.client.remote:RemoteCursor.fetchall", "call"),
    Wrap("client", "repro.client.remote:RemoteConnection.commit", "call"),
    Wrap("client", "repro.client.remote:RemoteConnection.rollback", "call"),
    Wrap("client", "repro.client.remote:RemoteConnection._exchange", "wait"),
)


class _ThreadState:
    """One thread's open-call stack, accumulators and finished spans."""

    __slots__ = ("stack", "accs", "spans", "op", "thread")

    def __init__(self, wrappers: int, thread: str) -> None:
        # frame = [child seconds, enclosing span id, enclosing span's folds]
        self.stack: List[list] = [[0.0, -1, None]]
        # per wrapper: [calls, self seconds, measured sum]
        self.accs: List[List[float]] = [[0, 0.0, 0.0] for _ in range(wrappers)]
        self.spans: List[tuple] = []
        self.op: Any = None
        self.thread = thread


class Tracer:
    """Installs, drives and removes the timing wrappers of ``WRAP_TABLE``."""

    def __init__(self, table: Tuple[Wrap, ...] = WRAP_TABLE) -> None:
        self.table = table
        self.recording = False
        self.unresolved: List[str] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any, bool]] = []
        self._span_ids = itertools.count(1)
        self._epoch = 0.0

    # -- install / restore -------------------------------------------------------

    def install(self) -> "Tracer":
        for index, wrap in enumerate(self.table):
            try:
                owner, attr, original = _resolve(wrap.target)
            except (ImportError, AttributeError):
                self.unresolved.append(wrap.target)
                continue
            function = original.__func__ if isinstance(original, staticmethod) else original
            wrapper = self._wrapper(function, index, wrap)
            wrapper.__wrapped__ = function  # type: ignore[attr-defined]
            wrapper.__name__ = getattr(function, "__name__", attr)
            replacement = staticmethod(wrapper) if isinstance(original, staticmethod) else wrapper
            self._patch(owner, attr, replacement)
            if inspect.ismodule(owner):
                # every ``from x import f`` alias of a module-level function
                for name, module in list(sys.modules.items()):
                    if module is owner or not name.startswith("repro.") or module is None:
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, replacement)
        return self

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        self.recording = False
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- recording ---------------------------------------------------------------

    def start(self) -> None:
        """Drop everything recorded so far and start the timed section."""
        with self._states_lock:
            for state in self._states:
                for acc in state.accs:
                    acc[0], acc[1], acc[2] = 0, 0.0, 0.0
                state.spans.clear()
        self._epoch = time.perf_counter()
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def set_op(self, op: Any) -> None:
        """Tag the calling thread's next spans with a statement/tick id."""
        try:
            self._local.state.op = op
        except AttributeError:
            self._state().op = op

    def _state(self) -> _ThreadState:
        state = _ThreadState(len(self.table), threading.current_thread().name)
        with self._states_lock:
            self._states.append(state)
        self._local.state = state
        return state

    def _wrapper(self, fn: Callable[..., Any], index: int, wrap: Wrap) -> Callable[..., Any]:
        tracer, local, perf = self, self._local, time.perf_counter
        measure, kind, span_ids = wrap.measure, wrap.kind, self._span_ids
        new_state = self._state

        def enter() -> Tuple[_ThreadState, list, list]:
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            parent = state.stack[-1]
            frame = [0.0, parent[1], parent[2]]
            state.stack.append(frame)
            return state, parent, frame

        def leave(state: _ThreadState, parent: list, frame: list, elapsed: float,
                  measured: float) -> None:
            state.stack.pop()
            parent[0] += elapsed
            own = elapsed - frame[0]
            acc = state.accs[index]
            acc[0] += 1
            acc[1] += own
            acc[2] += measured
            folds = parent[2]
            if folds is not None:
                fold = folds.get(index)
                if fold is None:
                    folds[index] = [1, own]
                else:
                    fold[0] += 1
                    fold[1] += own

        if kind == "leaf":
            def leaf(*args: Any, **kwargs: Any) -> Any:
                if not tracer.recording:
                    return fn(*args, **kwargs)
                state, parent, frame = enter()
                result = None
                started = perf()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    leave(state, parent, frame, perf() - started,
                          measure(args, result) if measure else 0.0)
            return leaf

        if kind == "iter":
            def timed(source: Iterator[Any]) -> Iterator[Any]:
                while True:
                    if not tracer.recording:
                        yield from source
                        return
                    state, parent, frame = enter()
                    started = perf()
                    try:
                        item = next(source)
                    except StopIteration:
                        leave(state, parent, frame, perf() - started, 0.0)
                        return
                    except BaseException:
                        leave(state, parent, frame, perf() - started, 0.0)
                        raise
                    leave(state, parent, frame, perf() - started, 1.0)
                    yield item

            def iterating(*args: Any, **kwargs: Any) -> Iterator[Any]:
                return timed(iter(fn(*args, **kwargs)))
            return iterating

        def span(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            parent = state.stack[-1]
            span_id = next(span_ids)
            folds: Dict[int, list] = {}
            frame = [0.0, span_id, folds]
            state.stack.append(frame)
            result = None
            started = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = perf()
                elapsed = ended - started
                state.stack.pop()
                parent[0] += elapsed
                own = elapsed - frame[0]
                measured = measure(args, result) if measure else 0.0
                acc = state.accs[index]
                acc[0] += 1
                acc[1] += own
                acc[2] += measured
                state.spans.append((span_id, parent[1], index, state.op, started,
                                    ended, own, measured, folds))
        return span

    # -- results -----------------------------------------------------------------

    def totals(self) -> Dict[Tuple[str, str], List[float]]:
        """``(layer, tag) -> [calls, self seconds, measured sum]`` over all threads."""
        merged: Dict[Tuple[str, str], List[float]] = {}
        with self._states_lock:
            for state in self._states:
                for wrap, acc in zip(self.table, state.accs):
                    slot = merged.setdefault((wrap.layer, wrap.tag), [0, 0.0, 0.0])
                    slot[0] += acc[0]
                    slot[1] += acc[1]
                    slot[2] += acc[2]
        return merged

    def span_values(self, target: str) -> List[float]:
        """The measured value of every recorded span of one target."""
        wanted = {i for i, wrap in enumerate(self.table) if wrap.target == target}
        with self._states_lock:
            return [span[7] for state in self._states for span in state.spans
                    if span[2] in wanted]

    def self_seconds(self, threads: Optional[List[str]] = None) -> float:
        """Summed self time, optionally of the named threads only."""
        with self._states_lock:
            return sum(acc[1] for state in self._states
                       if threads is None or state.thread in threads
                       for acc in state.accs)

    def dump(self, path: str, workload: str) -> None:
        """Write every span: name, start, end, parent, op id, folded leaves."""
        names = [wrap.target for wrap in self.table]
        with self._states_lock:
            spans = [
                {"id": span_id, "parent": parent, "name": names[index],
                 "layer": self.table[index].layer, "op": op, "thread": state.thread,
                 "start_ms": round((started - self._epoch) * 1000.0, 4),
                 "end_ms": round((ended - self._epoch) * 1000.0, 4),
                 "self_ms": round(own * 1000.0, 4), "value": measured,
                 "folded": {names[i]: [count, round(seconds * 1000.0, 4)]
                            for i, (count, seconds) in folds.items()}}
                for state in self._states
                for (span_id, parent, index, op, started, ended, own, measured, folds)
                in state.spans
            ]
        spans.sort(key=lambda span: span["id"])
        with open(path, "w") as handle:
            json.dump({"workload": workload, "unresolved": self.unresolved,
                       "spans": spans}, handle)
            handle.write("\n")


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``"module:attr.path"`` → (owner object, attribute name, current value)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    original = inspect.getattr_static(owner, attr)
    if not (callable(original) or isinstance(original, staticmethod)):
        raise AttributeError(f"{target} is not callable")
    return owner, attr, original


# -- per-layer metrics -----------------------------------------------------------

def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric the wrap table alone can give (ms, counts, ratios).

    A layer none of whose targets resolved is left out entirely; a layer that
    did no work on this workload reads 0.
    """
    totals = tracer.totals()
    resolved_layers = {wrap.layer for wrap in tracer.table
                       if wrap.target not in tracer.unresolved}

    def total(field: int, layer: str, tags: Tuple[str, ...]) -> float:
        return float(sum(value[field] for (its_layer, tag), value in totals.items()
                         if its_layer == layer and (not tags or tag in tags)))

    def calls(layer: str, *tags: str) -> float:
        return total(0, layer, tags)

    def ms(layer: str, *tags: str) -> float:
        return 1000.0 * total(1, layer, tags)

    def measured(layer: str, *tags: str) -> float:
        return total(2, layer, tags)

    out: Dict[str, float] = {}

    def put(layer: str, name: str, value: float) -> None:
        if layer in resolved_layers:
            out[name] = value

    put("api", "api.calls", calls("api"))
    put("api", "api.self_ms", ms("api"))
    put("engine.statement", "engine.statement.calls", calls("engine.statement"))
    put("engine.statement", "engine.statement.self_ms", ms("engine.statement"))
    put("query.parser", "query.parser.calls", calls("query.parser", "lookup"))
    put("query.parser", "query.parser.self_ms", ms("query.parser"))
    put("query.planner", "query.planner.calls", calls("query.planner"))
    put("query.planner", "query.planner.self_ms", ms("query.planner"))
    put("query.pipeline", "query.pipeline.self_ms", ms("query.pipeline"))
    rows_out = measured("query.pipeline", "pull")
    put("query.pipeline", "query.pipeline.rows_out", rows_out)
    reads = calls("storage.store", "read")
    put("query.pipeline", "query.pipeline.rows_examined_per_row_out",
        reads / rows_out if rows_out else 0.0)
    put("storage.store", "storage.store.read_calls", reads)
    put("storage.store", "storage.store.read_ms", ms("storage.store", "read"))
    put("storage.store", "storage.store.write_calls", calls("storage.store", "write"))
    put("storage.store", "storage.store.write_ms", ms("storage.store", "write", "flush"))
    put("storage.store", "storage.store.degrade_ms", ms("storage.store", "degrade"))
    put("storage.buffer", "storage.buffer.get_calls", calls("storage.buffer", "get"))
    put("storage.buffer", "storage.buffer.sync_calls", calls("storage.buffer", "sync"))
    put("storage.buffer", "storage.buffer.sync_ms", ms("storage.buffer", "sync"))
    put("storage.buffer", "storage.buffer.self_ms", ms("storage.buffer"))
    for tag in ("append", "flush", "scrub"):
        put("storage.wal", f"storage.wal.{tag}_calls", calls("storage.wal", tag))
        put("storage.wal", f"storage.wal.{tag}_ms", ms("storage.wal", tag))
    put("storage.wal", "storage.wal.truncate_ms", ms("storage.wal", "truncate"))
    put("index", "index.search_calls", calls("index", "search"))
    put("index", "index.search_ms", ms("index", "search"))
    put("index", "index.maintain_calls", calls("index", "maintain"))
    put("index", "index.maintain_ms", ms("index", "maintain"))
    put("core.scheduler", "core.scheduler.register_ms", ms("core.scheduler", "register"))
    put("core.scheduler", "core.scheduler.drain_ms", ms("core.scheduler", "drain"))
    put("core.scheduler", "core.scheduler.steps", measured("core.scheduler", "drain"))
    waves = [v for v in tracer.span_values(
        "repro.engine.daemon:DegradationDaemon.run_pending") if v > 0]
    put("engine.degrade", "engine.degrade.waves", float(len(waves)))
    put("engine.degrade", "engine.degrade.steps_per_wave_p50",
        statistics.median(waves) if waves else 0.0)
    put("engine.degrade", "engine.degrade.self_ms", ms("engine.degrade"))
    put("engine.checkpoint", "engine.checkpoint.calls", calls("engine.checkpoint"))
    put("engine.checkpoint", "engine.checkpoint.ms", ms("engine.checkpoint"))
    put("txn", "txn.lock_calls", calls("txn", "lock"))
    put("txn", "txn.lock_denied", measured("txn", "lock"))
    put("txn", "txn.commit_ms", ms("txn", "commit"))
    put("server.protocol", "server.protocol.encode_ms", ms("server.protocol", "encode"))
    put("server.protocol", "server.protocol.decode_ms", ms("server.protocol", "decode"))
    put("server.protocol", "server.protocol.frames", calls("server.protocol"))
    put("server.protocol", "server.protocol.bytes", measured("server.protocol"))
    put("server.session", "server.session.self_ms", ms("server.session", "call"))
    put("client", "client.self_ms", ms("client", "call"))
    put("client", "client.wait_ms", ms("client", "wait"))
    put("client", "client.roundtrips", calls("client", "wait"))
    return out
