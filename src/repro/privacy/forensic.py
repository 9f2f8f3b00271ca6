"""Forensic scanner: does any accurate value survive anywhere in the engine?

The paper cites Stahlberg et al. (SIGMOD'07): conventional DBMSs retain deleted
data in the data space, the indexes and the logs.  The scanner below is the
reproduction's verification tool for the non-recoverability requirement — it
greps every raw byte the engine holds (heap pages including free space, the
WAL's segment files as they are *on disk* plus its unflushed records, index
keys) for the plaintext of values that should have been degraded away, and
reports the ones it finds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..storage.serialization import INT32_END, INT32_MIN, encode_value


@dataclass
class ForensicFinding:
    """One residual accurate value discovered in a raw image."""

    value: Any
    channel: str          # "heap", "wal", "index", "engine"
    offset: int


@dataclass
class ForensicReport:
    """Outcome of scanning one or more channels for a set of sensitive values."""

    values_searched: int
    findings: List[ForensicFinding] = field(default_factory=list)

    @property
    def residual_values(self) -> List[Any]:
        seen = []
        for finding in self.findings:
            if finding.value not in seen:
                seen.append(finding.value)
        return seen

    @property
    def clean(self) -> bool:
        return not self.findings

    def findings_in(self, channel: str) -> List[ForensicFinding]:
        return [finding for finding in self.findings if finding.channel == channel]

    def summary(self) -> str:
        if self.clean:
            return f"clean: none of the {self.values_searched} sensitive values found"
        channels = sorted({finding.channel for finding in self.findings})
        return (f"{len(self.residual_values)}/{self.values_searched} sensitive values "
                f"still recoverable (channels: {', '.join(channels)})")


def _patterns_for(value: Any) -> List[bytes]:
    """Byte patterns whose presence implies the plaintext value is recoverable."""
    patterns = []
    if isinstance(value, str):
        patterns.append(value.encode("utf-8"))
    elif isinstance(value, bool):
        pass  # one-byte booleans carry no identifiable plaintext
    elif isinstance(value, int):
        patterns.append(struct.pack("<q", value))
        if INT32_MIN <= value < INT32_END:      # the tagged 4-byte form a record stores
            patterns.append(encode_value(int(value)))
    elif isinstance(value, float):
        patterns.append(struct.pack("<d", value))
    elif isinstance(value, (bytes, bytearray)):
        patterns.append(bytes(value))
    else:
        patterns.append(repr(value).encode("utf-8"))
    return [pattern for pattern in patterns if pattern]


def scan_image(image: bytes, values: Sequence[Any], channel: str = "image") -> ForensicReport:
    """Scan one raw byte image for the plaintext of ``values``."""
    report = ForensicReport(values_searched=len(values))
    for value in values:
        for pattern in _patterns_for(value):
            offset = image.find(pattern)
            while offset != -1:
                report.findings.append(ForensicFinding(value=value, channel=channel,
                                                       offset=offset))
                offset = image.find(pattern, offset + 1)
    return report


def scan_channels(channels: Dict[str, bytes], values: Sequence[Any]) -> ForensicReport:
    """Scan several named channels and merge the findings."""
    report = ForensicReport(values_searched=len(values))
    for channel, image in channels.items():
        partial = scan_image(image, values, channel=channel)
        report.findings.extend(partial.findings)
    return report


def scan_engine(db, values: Sequence[Any], table: Optional[str] = None) -> ForensicReport:
    """Scan a live :class:`~repro.engine.InstantDB` for residual accurate values.

    When ``table`` is given only that table's heap/WAL plus its indexes are
    scanned; otherwise the engine-wide forensic image is used.
    """
    channels: Dict[str, bytes] = {}
    if table is None:
        channels["engine"] = db.forensic_image()
    else:
        store = db.table_store(table)
        channels["heap"] = store.heap.raw_image()
        # The WAL channel is read from the log directory (scrubs happen in
        # place there) and redacts CATALOG documents: they enumerate the
        # domain vocabulary (schema, fixed at DDL time), and flagging the
        # ontology would drown real tuple-retention leaks in false positives.
        channels["wal"] = store.wal.forensic_image()
        info = db.catalog.table(table)
        for index_info in info.indexes.values():
            channels[f"index:{index_info.name}"] = index_info.index.raw_image()
    return scan_channels(channels, values)


__all__ = ["ForensicFinding", "ForensicReport", "scan_image", "scan_channels", "scan_engine"]
