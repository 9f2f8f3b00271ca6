"""Network serving subsystem: wire protocol, sessions, and asyncio server.

Serves a lock-based single-writer :class:`~repro.engine.database.InstantDB`
engine — with its degradation daemon running — to many concurrent network
clients.  See :mod:`repro.server.server` for the concurrency model and
:mod:`repro.server.protocol` for the frame formats.  The matching remote
PEP 249 driver lives in :mod:`repro.client`.
"""

from .metrics import LatencyWindow, ServerMetrics
from .protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION, ProtocolError
from .server import DEFAULT_WRITE_LIMIT, InstantDBServer, ServerThread
from .sessions import DEFAULT_PREFETCH, Session, SessionManager

__all__ = [
    "InstantDBServer", "ServerThread", "Session", "SessionManager",
    "ServerMetrics", "LatencyWindow", "ProtocolError",
    "PROTOCOL_VERSION", "MAX_FRAME_BYTES", "DEFAULT_PREFETCH",
    "DEFAULT_WRITE_LIMIT",
]
