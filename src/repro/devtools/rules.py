"""Per-file reprolint rules.

Each rule is a :class:`Rule` subclass checking one invariant inside a single
module's AST.  Cross-file invariants (WAL exhaustiveness, protocol frame
coverage) live in :mod:`repro.devtools.project_rules`.

Every rule's docstring is its contract; ``docs/invariants.md`` explains the
engine invariants the rules are derived from.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterable, List, Optional, Sequence

from .findings import Finding
from .invariants import LOCK_HIERARCHY


class Rule:
    """Base class: one named check over one parsed file."""

    name: str = ""
    description: str = ""

    def check(self, path: str, tree: ast.AST, source: str) -> List[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(rule=self.name, path=path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message)


def attribute_chain(node: ast.AST) -> List[str]:
    """``self.engine.close`` -> ``["self", "engine", "close"]``.

    A non-Name base (a call result, a subscript...) contributes ``"()"`` so
    callers can still reason about the trailing segments.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("()")
    parts.reverse()
    return parts


def _path_parts(path: str) -> Sequence[str]:
    return PurePosixPath(path).parts


# ------------------------------------------------------------ sentinel-identity


class SentinelIdentityRule(Rule):
    """SUPPRESSED/REMOVED/NULL must be compared with ``is``, never ``==``/``in``.

    The degradation sentinels are identity singletons: the wire codec
    round-trips them by identity (tags ``S``/``R``/``Z``) and the executor's
    exclusion semantics test ``value is SUPPRESSED``.  An ``==`` comparison
    silently matches nothing (or worse, everything, if a sentinel ever grows
    an ``__eq__``), so the only place allowed to reason about sentinel
    equality is their home module ``core/values.py``.
    """

    name = "sentinel-identity"
    description = ("degradation sentinels compared with ==/!=/in instead of "
                   "is / is not")

    SENTINEL_NAMES = frozenset({"SUPPRESSED", "REMOVED", "NULL"})
    CONTAINER = "SENTINELS"

    def check(self, path: str, tree: ast.AST, source: str) -> List[Finding]:
        if path.endswith("core/values.py"):
            return []
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                left, right = operands[index], operands[index + 1]
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    sentinel = (self._sentinel_name(left)
                                or self._sentinel_name(right))
                    if sentinel:
                        verb = "==" if isinstance(op, ast.Eq) else "!="
                        fixed = "is" if isinstance(op, ast.Eq) else "is not"
                        findings.append(self.finding(
                            path, node,
                            f"sentinel {sentinel} compared with {verb!r}; "
                            f"sentinels have identity semantics — use "
                            f"{fixed!r}"))
                        break
                elif isinstance(op, (ast.In, ast.NotIn)):
                    if (self._sentinel_name(left)
                            or self._is_sentinel_container(right)):
                        findings.append(self.finding(
                            path, node,
                            "membership test against sentinels uses equality; "
                            "use any(value is s for s in SENTINELS) or "
                            "chained 'is' checks"))
                        break
        return findings

    def _sentinel_name(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name) and node.id in self.SENTINEL_NAMES:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in self.SENTINEL_NAMES:
            return node.attr
        return None

    def _is_sentinel_container(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and node.id == self.CONTAINER:
            return True
        if isinstance(node, ast.Attribute) and node.attr == self.CONTAINER:
            return True
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self._sentinel_name(el) for el in node.elts)
        return False


# ------------------------------------------------------------ loop-confinement


class LoopConfinementRule(Rule):
    """No engine work leaves the event-loop thread in the server package.

    The serving layer runs every engine call inline on its event-loop
    thread: the engine is single-writer and not thread-safe, and the loop
    thread is the one it is pinned to.  Handing work to another thread —
    ``loop.run_in_executor``, ``asyncio.to_thread`` or a
    ``concurrent.futures`` executor — would run it off that thread and race
    the loop.  Direct engine and session calls from an ``async def`` are the
    correct pattern and are not flagged.  The runtime half of the contract
    is :func:`repro.devtools.invariants.assert_engine_thread`.
    """

    name = "loop-confinement"
    description = ("run_in_executor / asyncio.to_thread / concurrent.futures "
                   "executor in the server package")

    HANDOFFS = frozenset({"run_in_executor", "to_thread",
                          "ThreadPoolExecutor", "ProcessPoolExecutor"})

    def check(self, path: str, tree: ast.AST, source: str) -> List[Finding]:
        if "server" not in _path_parts(path):
            return []
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain[-1] in self.HANDOFFS:
                findings.append(self.finding(
                    path, node,
                    f"{'.'.join(chain)}() in the server package hands work to "
                    "another thread; engine work runs inline on the event-loop "
                    "thread (ServerThread.submit from outside it)"))
        return findings


# ------------------------------------------------------------- lock-discipline


class LockDisciplineRule(Rule):
    """Locks are held via ``with`` and created as named :class:`TrackedLock`.

    * bare ``.acquire()`` / ``.release()`` (no arguments) bypass both the
      context-manager release-on-all-paths guarantee and the runtime
      order tracker;
    * raw ``threading.Lock()`` / ``threading.RLock()`` / ``Condition()``
      objects are invisible to the tracker — wrap them in
      ``devtools.invariants.TrackedLock(name)``;
    * a ``TrackedLock`` literal name should appear in the documented
      hierarchy (``LOCK_HIERARCHY``) so its rank is checkable.

    The engine's 2PL ``LockManager.acquire(txn_id, resource, mode)`` takes
    arguments and is not a threading lock; it is deliberately not flagged.
    """

    name = "lock-discipline"
    description = ("bare .acquire()/.release(), untracked threading locks, "
                   "or lock names outside the documented hierarchy")

    RAW_LOCKS = frozenset({"Lock", "RLock", "Condition"})

    def check(self, path: str, tree: ast.AST, source: str) -> List[Finding]:
        in_devtools = "devtools" in _path_parts(path)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                bare = not node.args and not node.keywords
                if func.attr == "acquire" and bare:
                    findings.append(self.finding(
                        path, node,
                        "bare .acquire(); hold locks with a `with` block so "
                        "release happens on every path and the order tracker "
                        "sees the acquisition"))
                    continue
                if func.attr == "release" and bare:
                    findings.append(self.finding(
                        path, node,
                        "bare .release(); pair acquisition and release "
                        "through a `with` block"))
                    continue
                if (func.attr in self.RAW_LOCKS
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "threading"
                        and not in_devtools):
                    findings.append(self.finding(
                        path, node,
                        f"raw threading.{func.attr}() is invisible to the "
                        "lock-order tracker; use "
                        "devtools.invariants.TrackedLock(name)"))
                    continue
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name == "TrackedLock" and node.args:
                first = node.args[0]
                if (isinstance(first, ast.Constant)
                        and isinstance(first.value, str)
                        and first.value not in LOCK_HIERARCHY):
                    findings.append(self.finding(
                        path, node,
                        f"lock name {first.value!r} is not in the documented "
                        "hierarchy (devtools.invariants.LOCK_HIERARCHY; see "
                        "docs/invariants.md)"))
        return findings


# ----------------------------------------------------------- no-swallowed-abort


class NoSwallowedAbortRule(Rule):
    """No ``except`` that catches an abort/operational error and drops it.

    ``TransactionAborted`` is load-bearing control flow: the engine aborts a
    victim transaction and the *caller* must either retry, surface the error
    to the client, or re-raise.  An ``except TransactionAborted: pass`` (or
    a broad ``except Exception: pass`` that shadows it) silently commits to
    a half-applied state.  A handler counts as *handling* the exception when
    it re-raises, uses the bound exception object, or does real work in the
    body; only trivially-dropping handlers are flagged.
    """

    name = "no-swallowed-abort"
    description = ("except clause swallows TransactionAborted/OperationalError "
                   "(or a broader class) without re-raise or handling")

    ABORT_TYPES = frozenset({
        "TransactionAborted", "DeadlockError", "TransactionError",
        "OperationalError", "DatabaseError", "InstantDBError",
        "Error", "Exception", "BaseException",
    })

    def check(self, path: str, tree: ast.AST, source: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = self._caught(node.type)
            if caught is None:
                continue
            if any(isinstance(sub, ast.Raise)
                   for stmt in node.body for sub in ast.walk(stmt)):
                continue
            if node.name and self._uses_name(node.body, node.name):
                continue
            if not self._trivial_body(node.body):
                continue
            findings.append(self.finding(
                path, node,
                f"except {caught} swallows the exception without re-raise or "
                "handling; aborts are control flow — handle, re-raise, or "
                "suppress explicitly with a reprolint comment"))
        return findings

    def _caught(self, node: Optional[ast.AST]) -> Optional[str]:
        """The matched abort-class spelling, or None if not an abort catch."""
        if node is None:
            return "(bare)"
        candidates: Iterable[ast.AST]
        if isinstance(node, ast.Tuple):
            candidates = node.elts
        else:
            candidates = (node,)
        for candidate in candidates:
            if (isinstance(candidate, ast.Name)
                    and candidate.id in self.ABORT_TYPES):
                return candidate.id
            if (isinstance(candidate, ast.Attribute)
                    and candidate.attr in self.ABORT_TYPES):
                return candidate.attr
        return None

    def _uses_name(self, body: List[ast.stmt], name: str) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and sub.id == name:
                    return True
        return False

    def _trivial_body(self, body: List[ast.stmt]) -> bool:
        """True when the handler does nothing observable with the failure."""
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(stmt, ast.Return) and (
                    stmt.value is None
                    or (isinstance(stmt.value, ast.Constant)
                        and stmt.value.value is None)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                         ast.Constant):
                continue            # docstring / ellipsis
            return False
        return True


# -------------------------------------------------------- no-swallowed-io-error


class NoSwallowedIOErrorRule(NoSwallowedAbortRule):
    """No ``except`` that traps an I/O failure around real I/O and drops it.

    A swallowed ``OSError`` around a WAL append, pager sync, or socket
    exchange turns a durability violation into silence: the caller believes
    bytes are on disk (or on the wire) that never arrived.  The engine's
    contract is that storage I/O failures surface as typed
    ``DurabilityError`` and transport failures poison the connection — so a
    trivially-dropping handler is flagged whenever (a) it catches an I/O
    error class and (b) the guarded ``try`` body performs an I/O call.
    Genuinely best-effort spots (closing an already-dead socket, repairing a
    torn tail while propagating the original error) must carry an explicit
    ``# reprolint: disable=no-swallowed-io-error -- why`` suppression.

    Inherits the triviality analysis from :class:`NoSwallowedAbortRule`: a
    handler that re-raises, uses the bound exception, or does real work is
    never flagged.
    """

    name = "no-swallowed-io-error"
    description = ("except clause swallows OSError/DurabilityError around "
                   "WAL/pager/socket I/O without re-raise or handling")

    IO_ERROR_TYPES = frozenset({
        "OSError", "IOError", "DurabilityError", "ConnectionError",
        "ConnectionResetError", "ConnectionAbortedError", "BrokenPipeError",
        "TimeoutError", "timeout",
    })
    #: Method / function names whose call marks a try body as doing I/O.
    IO_CALLS = frozenset({
        "fsync", "fdatasync", "flush", "write", "truncate", "unlink",
        "rename", "replace", "open",
        "sendall", "send", "recv", "recv_into", "connect",
        "create_connection", "close",
    })

    def check(self, path: str, tree: ast.AST, source: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try):
                continue
            touches_io = self._touches_io(node.body)
            for handler in node.handlers:
                caught = self._caught_io(handler.type)
                if caught is None:
                    continue
                # DurabilityError is typed I/O failure wherever it is caught;
                # the OSError family needs I/O evidence in the try body.
                if caught != "DurabilityError" and not touches_io:
                    continue
                if any(isinstance(sub, ast.Raise)
                       for stmt in handler.body for sub in ast.walk(stmt)):
                    continue
                if handler.name and self._uses_name(handler.body,
                                                    handler.name):
                    continue
                if not self._trivial_body(handler.body):
                    continue
                findings.append(self.finding(
                    path, handler,
                    f"except {caught} around I/O swallows the failure; "
                    "durability and transport errors are load-bearing — "
                    "handle, re-raise, or suppress with a reprolint comment "
                    "stating why the drop is safe"))
        return findings

    def _caught_io(self, node: Optional[ast.AST]) -> Optional[str]:
        if node is None:
            return None            # bare except is the abort rule's business
        candidates: Iterable[ast.AST]
        if isinstance(node, ast.Tuple):
            candidates = node.elts
        else:
            candidates = (node,)
        for candidate in candidates:
            if (isinstance(candidate, ast.Name)
                    and candidate.id in self.IO_ERROR_TYPES):
                return candidate.id
            if (isinstance(candidate, ast.Attribute)
                    and candidate.attr in self.IO_ERROR_TYPES):
                return candidate.attr
        return None

    def _touches_io(self, body: List[ast.stmt]) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None)
                if name in self.IO_CALLS:
                    return True
        return False


# ---------------------------------------------------------------- single-fanout


class SingleFanoutRule(Rule):
    """Derived state changes in one place: the engine's ``_apply_delta``.

    Indexes, statistics and the degradation schedule are all derived from
    rows, and stay right only if every row change reaches all of them — so
    under ``engine/`` the calls that maintain them (an index's ``insert`` /
    ``delete`` / ``update`` / ``degrade_entries``, ``on_insert`` /
    ``on_remove`` / ``on_value_changes``, the scheduler's ``register`` /
    ``register_many`` / ``cancel``) may appear in that one function only.
    A second call site is a change that some structure will miss, and an
    undo nobody wrote.
    """

    name = "single-fanout"
    description = ("index / statistics / schedule maintenance called outside "
                   "the engine's one fan-out function (_apply_delta)")

    FANOUT = "_apply_delta"
    #: receiver attribute (``None`` = any) → the maintenance methods on it
    MAINTENANCE = {
        "index": frozenset({"insert", "delete", "update", "degrade_entries"}),
        "scheduler": frozenset({"register", "register_many", "cancel"}),
        None: frozenset({"on_insert", "on_remove", "on_value_changes"}),
    }

    def check(self, path: str, tree: ast.AST, source: str) -> List[Finding]:
        if "engine" not in _path_parts(path):
            return []
        findings: List[Finding] = []
        self._scan(path, tree, None, findings)
        return findings

    def _scan(self, path: str, node: ast.AST, function: Optional[str],
              findings: List[Finding]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (isinstance(node, ast.Call) and function != self.FANOUT
                and isinstance(node.func, ast.Attribute)):
            chain = attribute_chain(node.func)
            receiver, method = chain[-2], chain[-1]
            if (method in self.MAINTENANCE[None]
                    or method in self.MAINTENANCE.get(receiver, ())):
                findings.append(self.finding(
                    path, node,
                    f"{'.'.join(chain)}() maintains derived state outside "
                    f"{self.FANOUT}(); hand the row change to the fan-out so "
                    "every index, the statistics and the schedule follow it "
                    "— and so does its undo"))
        for child in ast.iter_child_nodes(node):
            self._scan(path, child, function, findings)


# ---------------------------------------------------------------- unused-import


class UnusedImportRule(Rule):
    """Every imported name is read, exported or re-exported.

    A name an ``import`` binds and the module never reads hides what the
    module really depends on (and keeps a dead layer looking alive).  Read
    means any use of the name — in code, in an annotation, in a quoted
    annotation; a name listed in ``__all__`` is exported.  A package's
    ``__init__.py`` re-exports what it imports, so it is not checked, nor
    are ``from __future__`` imports and ``import x as x``.
    """

    name = "unused-import"
    description = "a name bound by an import that the module never reads"

    def check(self, path: str, tree: ast.AST, source: str) -> List[Finding]:
        if PurePosixPath(path).name == "__init__.py":
            return []
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name == "*" or alias.asname == alias.name:
                        continue
                    bound = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(bound, node)
        used = set(_exported(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(_quoted_names(node.value))
        return [self.finding(path, node, f"{name!r} is imported but never used")
                for name, node in imported.items() if name not in used]


def _exported(tree: ast.AST) -> List[str]:
    """The string entries of a module-level ``__all__``."""
    names: List[str] = []
    for node in getattr(tree, "body", ()):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names += [element.value for element in ast.walk(node.value)
                          if isinstance(element, ast.Constant)
                          and isinstance(element.value, str)]
    return names


def _quoted_names(text: str) -> List[str]:
    """Names a quoted annotation (``"Optional[Foo]"``) reads; nothing for
    any other string."""
    try:
        expression = ast.parse(text.strip(), mode="eval")
    except SyntaxError:
        return []
    return [node.id for node in ast.walk(expression) if isinstance(node, ast.Name)]


# ---------------------------------------------------------------- exec-confined


class ExecConfinedRule(Rule):
    """Code is compiled at run time in one module only: ``storage/kernels.py``.

    The scan kernels are written from integers and fixed error strings and
    compiled there, and every value reaches them as an argument.  Anywhere
    else, ``exec``, ``eval`` or the builtin ``compile`` (bare or as
    ``builtins.<name>``) would run code built from whatever reached it — a
    statement's text, a parameter, a row value — and a second run-time code
    path would have to prove that of itself.  ``re.compile`` and other
    methods named ``compile`` are not the builtin.
    """

    name = "exec-confined"
    description = "exec / eval / builtin compile outside storage/kernels.py"

    HOME = ("storage", "kernels.py")
    BUILTINS = frozenset({"exec", "eval", "compile"})

    def check(self, path: str, tree: ast.AST, source: str) -> List[Finding]:
        if tuple(_path_parts(path)[-2:]) == self.HOME:
            return []
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain[-1] in self.BUILTINS and chain[:-1] in ([], ["builtins"]):
                findings.append(self.finding(
                    path, node,
                    f"{'.'.join(chain)}() outside storage/kernels.py: run-time "
                    "code is compiled in one place, from integers and fixed "
                    "strings, with every value passed as an argument"))
        return findings


PER_FILE_RULES = (
    SentinelIdentityRule,
    LoopConfinementRule,
    LockDisciplineRule,
    NoSwallowedAbortRule,
    NoSwallowedIOErrorRule,
    SingleFanoutRule,
    UnusedImportRule,
    ExecConfinedRule,
)

__all__ = ["Rule", "attribute_chain", "SentinelIdentityRule",
           "LoopConfinementRule", "LockDisciplineRule",
           "NoSwallowedAbortRule", "NoSwallowedIOErrorRule",
           "SingleFanoutRule", "UnusedImportRule", "ExecConfinedRule",
           "PER_FILE_RULES"]
