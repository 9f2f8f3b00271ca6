"""Cross-file reprolint rules.

These rules correlate ASTs from several modules — the WAL record taxonomy
against the recovery replayer, the protocol frame table against server
dispatch and the remote driver.  Anchor files are found by path suffix
(``storage/wal.py``, ``txn/recovery.py``, ...), so the rules run on the real
tree and on miniature fixture trees alike; when an anchor file is absent
from the linted set the dependent checks are skipped.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from .findings import Finding


class ProjectRule:
    """Base class: one named check over the whole set of linted files."""

    name: str = ""
    description: str = ""

    def check_project(self, files: Sequence) -> List[Finding]:
        """``files`` is a sequence of objects with .path / .tree / .source."""
        raise NotImplementedError

    def finding(self, path: str, line: int, message: str) -> Finding:
        return Finding(rule=self.name, path=path, line=line, col=1,
                       message=message)


def _find(files: Sequence, suffix: str):
    for entry in files:
        if entry.path.endswith(suffix):
            return entry
    return None


def _const_set_names(tree: ast.AST, target: str) -> Optional[Set[str]]:
    """Member names of ``target = frozenset({A.X, Y, ...})`` (or a set/tuple
    literal).  Returns None when the assignment does not exist."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(isinstance(t, ast.Name) and t.id == target
                   for t in node.targets):
            continue
        value = node.value
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "frozenset" and value.args):
            value = value.args[0]
        names: Set[str] = set()
        if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            for element in value.elts:
                if isinstance(element, ast.Attribute):
                    names.add(element.attr)
                elif isinstance(element, ast.Name):
                    names.add(element.id)
        return names
    return None


# --------------------------------------------------------------- wal-exhaustive


class WalExhaustiveRule(ProjectRule):
    """Every ``LogRecordType`` is replayed by recovery and scrub-classified.

    Adding a WAL record type is a three-part contract (see the checklist in
    ``docs/invariants.md``): define the constant in ``storage/wal.py``,
    classify it as scrub-exempt (``_SCRUB_EXEMPT``) or scrub-target
    (``_SCRUB_TARGETS``), and give it a replay arm in ``txn/recovery.py``
    (or list it in recovery's ``_REPLAY_IGNORED``).  Scrub targets must
    additionally be dispatched inside ``_redo`` — deleting a redo arm is a
    lint failure, not a crash-test surprise.
    """

    name = "wal-exhaustive"
    description = ("WAL record types missing recovery replay arms or scrub "
                   "classification")

    WAL_SUFFIX = "storage/wal.py"
    RECOVERY_SUFFIX = "txn/recovery.py"

    def check_project(self, files: Sequence) -> List[Finding]:
        wal = _find(files, self.WAL_SUFFIX)
        if wal is None:
            return []
        findings: List[Finding] = []
        members = self._record_types(wal.tree)
        if not members:
            return findings
        exempt = _const_set_names(wal.tree, "_SCRUB_EXEMPT")
        targets = _const_set_names(wal.tree, "_SCRUB_TARGETS")
        if exempt is None or targets is None:
            missing = "_SCRUB_EXEMPT" if exempt is None else "_SCRUB_TARGETS"
            findings.append(self.finding(
                wal.path, 1,
                f"storage/wal.py must define {missing} so every record type "
                "has an explicit scrub classification"))
            exempt = exempt or set()
            targets = targets or set()
        for member, line in members.items():
            classified_exempt = member in exempt
            classified_target = member in targets
            if not classified_exempt and not classified_target:
                findings.append(self.finding(
                    wal.path, line,
                    f"LogRecordType.{member} is not scrub-classified: add it "
                    "to _SCRUB_TARGETS (its images are rewritten when "
                    "degraded data is scrubbed) or _SCRUB_EXEMPT (carries no "
                    "row images)"))
            elif classified_exempt and classified_target:
                findings.append(self.finding(
                    wal.path, line,
                    f"LogRecordType.{member} is classified both scrub-exempt "
                    "and scrub-target; pick one"))
        recovery = _find(files, self.RECOVERY_SUFFIX)
        if recovery is None:
            return findings
        ignored = _const_set_names(recovery.tree, "_REPLAY_IGNORED") or set()
        refs = self._type_refs(recovery.tree,
                               exclude_assignment="_REPLAY_IGNORED")
        for member, line in members.items():
            if member in ignored:
                continue
            if member not in refs:
                findings.append(self.finding(
                    recovery.path, 1,
                    f"LogRecordType.{member} has no replay arm in "
                    "txn/recovery.py; dispatch it (redo/undo/analysis/"
                    "schedule replay) or list it in _REPLAY_IGNORED with a "
                    "reason"))
        redo_refs = self._refs_in_functions(recovery.tree, "_redo")
        for member in sorted(targets & set(members)):
            if member not in redo_refs:
                findings.append(self.finding(
                    recovery.path, 1,
                    f"scrub target LogRecordType.{member} is not dispatched "
                    "in _redo(); degradation/removal records must always be "
                    "redone or recovery resurrects scrubbed data"))
        return findings

    def _record_types(self, tree: ast.AST) -> Dict[str, int]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "LogRecordType":
                members: Dict[str, int] = {}
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if (isinstance(target, ast.Name)
                                    and target.id.isupper()):
                                members[target.id] = stmt.lineno
                return members
        return {}

    def _type_refs(self, tree: ast.AST,
                   exclude_assignment: Optional[str] = None) -> Set[str]:
        excluded: List[ast.AST] = []
        if exclude_assignment:
            for node in ast.walk(tree):
                if (isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name)
                                and t.id == exclude_assignment
                                for t in node.targets)):
                    excluded.extend(ast.walk(node))
        excluded_ids = {id(node) for node in excluded}
        refs: Set[str] = set()
        for node in ast.walk(tree):
            if id(node) in excluded_ids:
                continue
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "LogRecordType"):
                refs.add(node.attr)
        return refs

    def _refs_in_functions(self, tree: ast.AST, fn_name: str) -> Set[str]:
        refs: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == fn_name:
                refs |= self._type_refs(node)
        return refs


# ---------------------------------------------------------- frame-tag-exhaustive


class FrameTagExhaustiveRule(ProjectRule):
    """Every protocol frame/value tag is handled on both ends of the wire.

    ``server/protocol.py`` is the single source of truth for frame types and
    value-codec tags.  A frame constant that the server never dispatches, or
    that the remote driver never sends/validates, is a silent protocol hole;
    a value tag encoded but not decoded (or vice versa) corrupts round
    trips.  The rule checks:

    * every frame constant appears in ``FRAME_NAMES``;
    * every frame constant is referenced by ``server/server.py`` (dispatch
      or reply) and by ``client/remote.py`` (request or reply validation);
    * the 1-byte tags written by ``_encode_into`` equal those read by
      ``_decode_at``.
    """

    name = "frame-tag-exhaustive"
    description = ("protocol frames or value tags not handled by both the "
                   "server dispatch and the remote driver")

    PROTOCOL_SUFFIX = "server/protocol.py"
    SERVER_SUFFIX = "server/server.py"
    CLIENT_SUFFIX = "client/remote.py"

    #: Module-level ALLCAPS integers in protocol.py that are not frame types.
    NON_FRAME_CONSTANTS = frozenset({"PROTOCOL_VERSION", "MAX_FRAME_BYTES"})

    def check_project(self, files: Sequence) -> List[Finding]:
        proto = _find(files, self.PROTOCOL_SUFFIX)
        if proto is None:
            return []
        findings: List[Finding] = []
        frames = self._frame_constants(proto.tree)
        named = self._frame_names_keys(proto.tree)
        for frame, line in frames.items():
            if frame not in named:
                findings.append(self.finding(
                    proto.path, line,
                    f"frame {frame} is missing from FRAME_NAMES (debugging "
                    "output would show a raw byte)"))
        server = _find(files, self.SERVER_SUFFIX)
        if server is not None:
            refs = self._protocol_refs(server.tree)
            for frame, line in frames.items():
                if frame not in refs:
                    findings.append(self.finding(
                        server.path, 1,
                        f"frame {frame} is never referenced by the server — "
                        "add a dispatch arm (or reply site) for it"))
        client = _find(files, self.CLIENT_SUFFIX)
        if client is not None:
            refs = self._protocol_refs(client.tree)
            for frame, line in frames.items():
                if frame not in refs:
                    findings.append(self.finding(
                        client.path, 1,
                        f"frame {frame} is never referenced by the remote "
                        "driver — requests must be sent and reply types "
                        "validated against the protocol constants"))
        encode_tags = self._byte_tags(proto.tree, "_encode_into")
        decode_tags = self._byte_tags(proto.tree, "_decode_at")
        for tag in sorted(encode_tags - decode_tags):
            findings.append(self.finding(
                proto.path, 1,
                f"value tag {tag!r} is written by _encode_into but never "
                "read by _decode_at"))
        for tag in sorted(decode_tags - encode_tags):
            findings.append(self.finding(
                proto.path, 1,
                f"value tag {tag!r} is read by _decode_at but never written "
                "by _encode_into"))
        return findings

    def _frame_constants(self, tree: ast.AST) -> Dict[str, int]:
        frames: Dict[str, int] = {}
        if not isinstance(tree, ast.Module):
            return frames
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not (isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)
                    and not isinstance(node.value.value, bool)):
                continue
            for target in node.targets:
                if (isinstance(target, ast.Name) and target.id.isupper()
                        and target.id not in self.NON_FRAME_CONSTANTS):
                    frames[target.id] = node.lineno
        return frames

    def _frame_names_keys(self, tree: ast.AST) -> Set[str]:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "FRAME_NAMES"
                            for t in node.targets)
                    and isinstance(node.value, ast.Dict)):
                return {key.id for key in node.value.keys
                        if isinstance(key, ast.Name)}
        return set()

    def _protocol_refs(self, tree: ast.AST) -> Set[str]:
        """Names referenced as ``protocol.X`` or imported-from-protocol."""
        refs: Set[str] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "protocol"):
                refs.add(node.attr)
            elif (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.endswith("protocol")):
                refs |= {alias.name for alias in node.names}
        return refs

    def _byte_tags(self, tree: ast.AST, fn_name: str) -> Set[str]:
        tags: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == fn_name:
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Constant)
                            and isinstance(sub.value, bytes)
                            and len(sub.value) == 1):
                        tags.add(sub.value.decode("latin-1"))
        return tags


PROJECT_RULES = (
    WalExhaustiveRule,
    FrameTagExhaustiveRule,
)

__all__ = ["ProjectRule", "WalExhaustiveRule", "FrameTagExhaustiveRule",
           "PROJECT_RULES"]
