"""Remote PEP 249 driver for the InstantDB wire server.

``repro.client.connect(host, port)`` mirrors the in-process
``repro.connect()`` surface over a socket; see :mod:`repro.client.remote`.
"""

from .remote import (
    RemoteConnection,
    RemoteCursor,
    apilevel,
    connect,
    paramstyle,
    threadsafety,
)

__all__ = ["connect", "RemoteConnection", "RemoteCursor",
           "apilevel", "threadsafety", "paramstyle"]
